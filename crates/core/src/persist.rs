//! Model persistence: save a trained PGE model as a PGEBIN02 snapshot
//! and reload it elsewhere.
//!
//! A production catalog pipeline trains once and scores continuously;
//! this module is the hand-off. A model is one PGEBIN02 file (see
//! `pge-store`): a `model.header` text section — scorer, CNN shape,
//! relation count, attribute names and vocabulary — plus one
//! `model.param.{i}` f32 section per parameter. [`save_model_store`]
//! writes it and [`load_model_auto_path`] reads it back
//! bit-identically, mapped or heap-backed. A snapshot is the whole
//! model: loading reads no graph, and relation row `i` is always the
//! attribute the header names `i`th. Trainer checkpoints are PGEBIN02
//! files carrying the same sections (see [`crate::checkpoint`]).
//!
//! Every section carries its own CRC, but a CRC only proves the bytes
//! are the ones written. The loader therefore checks every header
//! dimension against the parameter sections' shapes before it
//! allocates anything, so a crafted file is a typed error, never a
//! panic or an allocation sized by an unchecked number.
//!
//! The encoder is always the CNN: PGE(BERT), the Table 5 cost
//! contrast, is a `pge-baselines` method and is never persisted.

use crate::encoder::TextEncoder;
use crate::model::PgeModel;
use crate::score::{ScoreKind, Scorer};
use pge_graph::ProductGraph;
use pge_nn::gradcheck::HasParams;
use pge_nn::{CnnConfig, Embedding, Param};
use pge_store::{Snapshot, SnapshotWriter, StoreError};
use pge_text::Vocab;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// Persistence failures.
#[derive(Debug)]
pub enum PersistError {
    /// A recognized file whose contents this build does not read: a
    /// retired model or checkpoint format, an unknown version, or a
    /// malformed model header; or a model a header cannot describe.
    /// Retrying the same file cannot help.
    Parse(String),
    /// A snapshot failed structural or checksum validation.
    Corrupt(String),
    /// An I/O failure while reading or durably writing a snapshot or
    /// training checkpoint.
    Io(String),
    /// A training checkpoint refers to a different config or corpus
    /// than the one being resumed against.
    Mismatch(String),
    /// The file's leading bytes match no format, carried in the
    /// message so "you pointed me at the wrong file" reads as exactly
    /// that. A PGEBIN02 writer that has not committed yet leaves a
    /// zero header, which lands here too.
    UnknownFormat(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Parse(msg) => write!(f, "unsupported model file: {msg}"),
            PersistError::Corrupt(msg) => write!(f, "corrupt model snapshot: {msg}"),
            PersistError::Io(msg) => write!(f, "snapshot I/O error: {msg}"),
            PersistError::Mismatch(msg) => write!(f, "checkpoint mismatch: {msg}"),
            PersistError::UnknownFormat(msg) => {
                write!(f, "unrecognized model format: {msg}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// Leading bytes of the model and checkpoint formats this crate no
/// longer reads. Such a file is refused with a [`PersistError::Parse`],
/// which a reloading gateway does not retry.
const RETIRED_FORMATS: [(&[u8; 8], &str); 3] = [
    (b"PGEBIN01", "PGEBIN01 binary model"),
    (b"PGECKPT1", "PGECKPT1 training checkpoint"),
    (b"#pge-mod", "#pge-model text model"),
];

/// Name of the snapshot section holding the text header.
const SEC_MODEL_HEADER: &str = "model.header";

/// First line of the `model.header` section. v1 headers named no
/// attributes and are no longer read.
const HEADER_VERSION: &str = "#pge-model v2";

pub(crate) fn io_err(e: std::io::Error) -> PersistError {
    PersistError::Io(e.to_string())
}

pub(crate) fn store_err(e: StoreError) -> PersistError {
    use StoreError as E;
    match e {
        E::UnknownFormat { magic } => match RETIRED_FORMATS.iter().find(|(m, _)| **m == magic) {
            Some((_, what)) => PersistError::Parse(format!(
                "{what} files are no longer read; retrain to write a PGEBIN02 snapshot"
            )),
            None => PersistError::UnknownFormat(format!(
                "leading bytes {magic:02x?} are not a PGEBIN02 snapshot"
            )),
        },
        E::Corrupt(m) => PersistError::Corrupt(m),
        E::Parse(m) => PersistError::Parse(m),
        E::MmapFailed(e) => PersistError::Io(format!("mmap failed: {e}")),
        E::MissingSection(n) => PersistError::Corrupt(format!("missing snapshot section {n:?}")),
        E::WrongKind { name } => {
            PersistError::Corrupt(format!("snapshot section {name:?} has the wrong kind"))
        }
        E::Io(e) => PersistError::Io(e.to_string()),
    }
}

/// A model's parameters in snapshot order: the encoder's in
/// `HasParams` order, then the relation table.
pub(crate) fn model_params(model: &mut PgeModel) -> Vec<&mut Param> {
    let mut params = model.encoder.params_mut();
    params.push(model.relations.param_mut());
    params
}

/// The `model.header` text: everything but the parameter values. An
/// attribute name is one line, so one with a line break is refused.
fn header_text(model: &PgeModel, n_params: usize) -> Result<String, PersistError> {
    if let Some(name) = model.attr_names.iter().find(|n| n.contains(['\n', '\r'])) {
        return Err(PersistError::Parse(format!(
            "attribute name {name:?} has a line break, which a model header cannot carry"
        )));
    }
    let cfg = model.encoder.config();
    let scorer = model.scorer;
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER_VERSION}");
    let _ = writeln!(
        out,
        "scorer {} {}",
        scorer.kind.name().to_lowercase(),
        scorer.gamma
    );
    let widths: Vec<String> = cfg.widths.iter().map(|w| w.to_string()).collect();
    let _ = writeln!(
        out,
        "cnn {} {} {} {} {} {}",
        cfg.vocab,
        cfg.word_dim,
        cfg.filters_per_width,
        cfg.out_dim,
        cfg.max_len,
        widths.join(",")
    );
    let _ = writeln!(out, "relations {}", model.relations.len());
    let _ = writeln!(out, "attrs {}", model.attr_names.len());
    for name in &model.attr_names {
        let _ = writeln!(out, "{name}");
    }
    let _ = writeln!(out, "vocab {}", model.vocab.len());
    for w in model.vocab.words() {
        let _ = writeln!(out, "{w}");
    }
    let _ = writeln!(out, "params {n_params}");
    Ok(out)
}

/// A parsed `model.header`: the shape of the model, not yet its
/// parameters.
struct Header {
    scorer: Scorer,
    cfg: CnnConfig,
    relations: usize,
    attr_names: Vec<String>,
    vocab: Vocab,
    params: usize,
}

impl Header {
    /// Parse the header text, rejecting every dimension the model
    /// constructors would panic on.
    fn parse(text: &str) -> Result<Header, PersistError> {
        let mut lines = text.lines().enumerate();
        let mut next = |what: &str| {
            lines
                .next()
                .ok_or_else(|| PersistError::Parse(format!("{SEC_MODEL_HEADER}: missing {what}")))
        };
        let bad = |ln: usize, m: &str| {
            PersistError::Parse(format!("{SEC_MODEL_HEADER} line {}: {m}", ln + 1))
        };
        let number = |ln: usize, field: Option<&str>, what: &str| {
            field
                .and_then(|x| x.parse::<usize>().ok())
                .ok_or_else(|| bad(ln, &format!("bad {what}")))
        };

        let (ln, version) = next("version")?;
        if version.trim() != HEADER_VERSION {
            return Err(bad(
                ln,
                &format!("bad version line, this build reads {HEADER_VERSION}; retrain"),
            ));
        }

        let (ln, scorer_line) = next("scorer")?;
        let mut parts = scorer_line.split_whitespace();
        if parts.next() != Some("scorer") {
            return Err(bad(ln, "expected scorer line"));
        }
        let kind = match parts.next() {
            Some("transe") => ScoreKind::TransE,
            Some("rotate") => ScoreKind::RotatE,
            Some("distmult") => ScoreKind::DistMult,
            Some("complex") => ScoreKind::ComplEx,
            other => return Err(bad(ln, &format!("unknown scorer {other:?}"))),
        };
        let gamma: f32 = parts
            .next()
            .and_then(|x| x.parse().ok())
            .ok_or_else(|| bad(ln, "bad gamma"))?;

        let (ln, cnn_line) = next("cnn config")?;
        let mut parts = cnn_line.split_whitespace();
        if parts.next() != Some("cnn") {
            return Err(bad(ln, "expected cnn line"));
        }
        let vocab_n = number(ln, parts.next(), "vocab size")?;
        let word_dim = number(ln, parts.next(), "word dim")?;
        let filters = number(ln, parts.next(), "filter count")?;
        let out_dim = number(ln, parts.next(), "output dim")?;
        let max_len = number(ln, parts.next(), "max length")?;
        let widths: Vec<usize> = parts
            .next()
            .ok_or_else(|| bad(ln, "missing widths"))?
            .split(',')
            .map(|w| number(ln, Some(w), "width"))
            .collect::<Result<_, _>>()?;
        if word_dim == 0 || filters == 0 || out_dim == 0 || widths.contains(&0) {
            return Err(bad(ln, "CNN dimensions must be positive"));
        }
        if matches!(kind, ScoreKind::RotatE | ScoreKind::ComplEx) && out_dim % 2 != 0 {
            return Err(bad(
                ln,
                &format!("{} needs an even output dim, not {out_dim}", kind.name()),
            ));
        }

        let (ln, rel_line) = next("relations")?;
        let relations = number(ln, rel_line.strip_prefix("relations "), "relations line")?;

        // One name per relation row, or none for the single row a
        // trainer gives a graph without attributes.
        let (ln, attrs_line) = next("attrs")?;
        let n_attrs = number(ln, attrs_line.strip_prefix("attrs "), "attrs line")?;
        if n_attrs != relations && (n_attrs, relations) != (0, 1) {
            return Err(PersistError::Corrupt(format!(
                "{SEC_MODEL_HEADER} line {}: {n_attrs} attribute names for {relations} relation rows",
                ln + 1
            )));
        }
        let attr_names: Vec<String> = (0..n_attrs)
            .map(|_| next("attribute name").map(|(_, name)| name.to_string()))
            .collect::<Result<_, _>>()?;
        let mut seen = std::collections::HashSet::new();
        if !attr_names.iter().all(|name| seen.insert(name)) {
            return Err(bad(ln, "duplicate attribute name"));
        }

        let (ln, vocab_line) = next("vocab")?;
        let n_words = number(ln, vocab_line.strip_prefix("vocab "), "vocab line")?;
        if n_words != vocab_n {
            return Err(bad(ln, "vocab count mismatch with cnn config"));
        }
        let mut vocab = Vocab::new();
        for i in 0..n_words {
            let (wln, word) = next("vocab word")?;
            if i < 3 {
                // Reserved tokens are created by Vocab::new; validate.
                if word != vocab.word(i as u32) {
                    return Err(bad(wln, "reserved token mismatch"));
                }
            } else {
                vocab.add(word);
            }
        }
        if vocab.len() != n_words {
            return Err(bad(ln, "vocabulary has duplicate or missing words"));
        }

        let (ln, params_line) = next("params")?;
        let params = number(ln, params_line.strip_prefix("params "), "params line")?;
        Ok(Header {
            scorer: Scorer::new(kind, gamma),
            cfg: CnnConfig {
                vocab: vocab_n,
                word_dim,
                widths,
                filters_per_width: filters,
                out_dim,
                max_len,
            },
            relations,
            attr_names,
            vocab,
            params,
        })
    }

    /// The `rows × cols` of every parameter this header declares, in
    /// snapshot order (see `TextCnnEncoder`'s `HasParams`).
    fn param_shapes(&self) -> Result<Vec<(usize, usize)>, PersistError> {
        let c = &self.cfg;
        let overflow = || PersistError::Corrupt(format!("{SEC_MODEL_HEADER}: dimensions overflow"));
        let mut shapes = vec![(c.vocab, c.word_dim)];
        for &w in &c.widths {
            shapes.push((
                c.filters_per_width,
                w.checked_mul(c.word_dim).ok_or_else(overflow)?,
            ));
            shapes.push((1, c.filters_per_width));
        }
        let concat = c
            .widths
            .len()
            .checked_mul(c.filters_per_width)
            .ok_or_else(overflow)?;
        shapes.push((c.out_dim, concat));
        shapes.push((1, c.out_dim));
        shapes.push((self.relations, self.scorer.rel_dim(c.out_dim)));
        Ok(shapes)
    }
}

/// Write the model's header and parameter sections into an open
/// PGEBIN02 writer: `model.header` plus one `model.param.{i}` f32
/// section per parameter, in snapshot order. `pge embed` appends bank
/// sections to the same writer afterwards, which is how a bank is
/// guaranteed to match its model — they are one file.
pub fn write_model_sections(model: &PgeModel, w: &mut SnapshotWriter) -> Result<(), PersistError> {
    let mut clone = model.clone();
    let params = model_params(&mut clone);
    let header = header_text(model, params.len())?;
    w.add_bytes(SEC_MODEL_HEADER, header.as_bytes())
        .map_err(io_err)?;
    for (i, p) in params.iter().enumerate() {
        w.add_f32s(
            &format!("model.param.{i}"),
            p.value.rows() as u64,
            p.value.cols() as u64,
            p.value.as_slice(),
        )
        .map_err(io_err)?;
    }
    Ok(())
}

/// Serialize a trained PGE(CNN) model as a PGEBIN02 snapshot file.
pub fn save_model_store(model: &PgeModel, path: &Path) -> Result<(), PersistError> {
    let mut w = SnapshotWriter::create(path).map_err(io_err)?;
    write_model_sections(model, &mut w)?;
    w.finish().map_err(io_err)
}

/// Rebuild a model from an open PGEBIN02 snapshot, attaching the
/// embedding bank when the snapshot carries one. `resident_budget` is
/// the bank's touched-bytes eviction budget (see
/// [`pge_store::EmbeddingBank`]); irrelevant for heap-backed opens.
pub fn model_from_snapshot(
    snap: &Arc<Snapshot>,
    resident_budget: u64,
) -> Result<PgeModel, PersistError> {
    let header = snap.section(SEC_MODEL_HEADER).map_err(store_err)?;
    let header = std::str::from_utf8(header.bytes)
        .map_err(|_| PersistError::Corrupt(format!("{SEC_MODEL_HEADER} is not UTF-8")))?;
    let header = Header::parse(header)?;
    let shapes = header.param_shapes()?;
    if shapes.len() != header.params {
        return Err(PersistError::Corrupt(format!(
            "{SEC_MODEL_HEADER} declares {} parameters but its dimensions imply {}",
            header.params,
            shapes.len()
        )));
    }
    // Every section must have the shape the header implies before a
    // byte is allocated from the header's numbers.
    let values = shapes
        .iter()
        .enumerate()
        .map(|(i, &(rows, cols))| {
            let name = format!("model.param.{i}");
            let sec = snap.section(&name).map_err(store_err)?;
            if (sec.meta.rows, sec.meta.cols) != (rows as u64, cols as u64) {
                return Err(PersistError::Corrupt(format!(
                    "{name}: snapshot {}x{}, header {rows}x{cols}",
                    sec.meta.rows, sec.meta.cols
                )));
            }
            sec.as_f32s().map_err(store_err)
        })
        .collect::<Result<Vec<_>, _>>()?;

    // Construct a model skeleton, then overwrite every parameter.
    let Header {
        scorer,
        cfg,
        relations,
        attr_names,
        vocab,
        ..
    } = header;
    let mut rng = rand::rngs::mock::StepRng::new(1, 1);
    let words = Embedding::new(&mut rng, cfg.vocab, cfg.word_dim);
    let rel_dim = scorer.rel_dim(cfg.out_dim);
    let encoder = TextEncoder::cnn(&mut rng, cfg, words);
    let relations = Embedding::new(&mut rng, relations, rel_dim);
    let mut model = PgeModel::new(vocab, encoder, relations, scorer, attr_names);
    for (p, v) in model_params(&mut model).into_iter().zip(values) {
        p.value.as_mut_slice().copy_from_slice(v);
    }

    if let Some(bank) =
        pge_store::EmbeddingBank::open(snap.clone(), resident_budget).map_err(store_err)?
    {
        if bank.dim() != model.dim() {
            return Err(PersistError::Corrupt(format!(
                "bank dim {} does not match model dim {}",
                bank.dim(),
                model.dim()
            )));
        }
        model.attach_bank(Arc::new(bank));
    }
    // Everything the model serves from the heap has been copied out
    // (params above, the bank's index inside its open); drop the
    // pages those sequential reads left resident.
    snap.evict_resident();
    Ok(model)
}

/// Open a PGEBIN02 snapshot file and rebuild its model (bank attached
/// when present). `mode` picks the backing: mapped rows are served
/// straight off the page cache, heap is a full in-memory copy. A file
/// in a retired format is a [`PersistError::Parse`]; any other
/// non-PGEBIN02 file is a [`PersistError::UnknownFormat`].
///
/// `_graph` is ignored, since the snapshot names its own attributes;
/// the parameter remains because the benchmark harness calls this
/// signature.
pub fn load_model_auto_path(
    path: &Path,
    _graph: &ProductGraph,
    mode: pge_store::MmapMode,
    resident_budget: u64,
) -> Result<PgeModel, PersistError> {
    let snap = Arc::new(Snapshot::open(path, mode).map_err(store_err)?);
    model_from_snapshot(&snap, resident_budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ErrorDetector;
    use crate::trainer::{train_pge, PgeConfig};
    use pge_graph::{Dataset, ProductGraph};
    use pge_store::MmapMode;

    fn trained(epochs: usize) -> (PgeModel, Dataset) {
        let mut g = ProductGraph::new();
        let mut train = Vec::new();
        for i in 0..20 {
            let flavor = if i % 2 == 0 { "spicy" } else { "sweet" };
            train.push(g.add_fact(&format!("brand{i} {flavor} chips {i}"), "flavor", flavor));
        }
        let d = Dataset::new(g, train, vec![], vec![]);
        let cfg = PgeConfig {
            epochs,
            ..PgeConfig::tiny()
        };
        (train_pge(&d, &cfg).model, d)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pge-persist-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn load(path: &Path, d: &Dataset) -> Result<PgeModel, PersistError> {
        load_model_auto_path(path, &d.graph, MmapMode::Off, 0)
    }

    /// Write `header` plus `params` (`rows`, `cols`, values) as a model
    /// snapshot: valid CRCs around whatever the test crafted.
    fn write_raw(path: &Path, header: &str, params: &[(u64, u64, Vec<f32>)]) {
        let mut w = SnapshotWriter::create(path).unwrap();
        w.add_bytes(SEC_MODEL_HEADER, header.as_bytes()).unwrap();
        for (i, (rows, cols, v)) in params.iter().enumerate() {
            w.add_f32s(&format!("model.param.{i}"), *rows, *cols, v)
                .unwrap();
        }
        w.finish().unwrap();
    }

    /// `model`'s header text and parameter sections.
    fn parts(model: &PgeModel) -> (String, Vec<(u64, u64, Vec<f32>)>) {
        let mut clone = model.clone();
        let params: Vec<_> = model_params(&mut clone)
            .iter()
            .map(|p| {
                let v = &p.value;
                (v.rows() as u64, v.cols() as u64, v.as_slice().to_vec())
            })
            .collect();
        (header_text(model, params.len()).unwrap(), params)
    }

    #[test]
    fn round_trip_scores_bit_identically() {
        let (model, d) = trained(3);
        let path = tmp("round-trip.pgebin");
        save_model_store(&model, &path).unwrap();
        let loaded = load(&path, &d).unwrap();
        let attr = d.graph.lookup_attr("flavor").unwrap();
        let bits = |m: &PgeModel| {
            let mut bits: Vec<u32> = d
                .train
                .iter()
                .map(|t| m.plausibility(&d.graph, t).to_bits())
                .collect();
            // Inductive scoring of unseen text matches too.
            bits.push(
                m.score_fact("totally new spicy snack", attr, "spicy")
                    .to_bits(),
            );
            bits
        };
        assert_eq!(bits(&loaded), bits(&model));
    }

    /// Headers that used to reach a constructor `assert!` or size an
    /// allocation from an unchecked number are typed errors that name
    /// the header line.
    #[test]
    fn garbage_is_rejected_with_line_numbers() {
        let (model, d) = trained(1);
        let (header, params) = parts(&model);
        let cnn = header.lines().nth(2).unwrap().to_string();
        let f: Vec<&str> = cnn.split_whitespace().collect();
        let cnn_with = |ix: usize, v: &str| {
            let mut g = f.clone();
            g[ix] = v;
            header.replace(&cnn, &g.join(" "))
        };
        let path = tmp("garbage.pgebin");
        assert!(header.contains("scorer rotate"), "{header}");
        // A zero word dim with sections shaped to agree (words and
        // both conv weights zero columns wide): only the header check
        // stands between it and `Conv1d::new`'s assert.
        let mut zero_wide = params.clone();
        for i in [0, 1, 3] {
            zero_wide[i].1 = 0;
            zero_wide[i].2.clear();
        }
        let positive = "line 3: CNN dimensions must be positive";
        let parse_cases = [
            (cnn_with(2, "0"), &zero_wide, positive),
            (cnn_with(3, "0"), &params, positive),
            (cnn_with(6, "1,0,3"), &params, positive),
            (
                cnn_with(4, "7"),
                &params,
                "line 3: RotatE needs an even output dim",
            ),
            (cnn_with(1, "2"), &params, "line 7: vocab count mismatch"),
            (
                header.replacen("v2", "v3", 1),
                &params,
                "line 1: bad version line",
            ),
            (header.replacen("v2", "v1", 1), &params, "retrain"),
            (
                header.replace(
                    "relations 1\nattrs 1\nflavor\n",
                    "relations 2\nattrs 2\nflavor\nflavor\n",
                ),
                &params,
                "line 5: duplicate attribute name",
            ),
            (
                header.lines().take(3).collect::<Vec<_>>().join("\n"),
                &params,
                "missing relations",
            ),
        ];
        for (text, params, want) in parse_cases {
            write_raw(&path, &text, params);
            match load(&path, &d) {
                Err(PersistError::Parse(msg)) => assert!(msg.contains(want), "{want}: {msg}"),
                other => panic!("{want}: expected Parse, got {other:?}"),
            }
        }
        // Sizes no section backs are refused before allocation, and
        // so is arithmetic that would overflow; so is an attribute
        // count other than the relation rows, before a name is read.
        let names = "attrs 1\nflavor\n";
        assert!(header.contains(&format!("relations 1\n{names}")));
        for text in [
            cnn_with(2, "1099511627776"),
            cnn_with(6, "4611686018427387904"),
            header.replace(names, "attrs 2\nflavor\nbrand\n"),
            header.replace(names, "attrs 18446744073709551615\n"),
        ] {
            write_raw(&path, &text, &params);
            assert!(
                matches!(load(&path, &d), Err(PersistError::Corrupt(_))),
                "{text}"
            );
        }
    }

    /// One relation row may carry no name (the trainer's row for a
    /// graph without attributes); a name that would span two header
    /// lines is refused by the writer.
    #[test]
    fn attribute_names_may_be_absent_but_never_span_lines() {
        let (model, d) = trained(1);
        let (header, params) = parts(&model);
        let path = tmp("attrs.pgebin");
        write_raw(
            &path,
            &header.replace("attrs 1\nflavor\n", "attrs 0\n"),
            &params,
        );
        assert!(load(&path, &d).unwrap().attr_names().is_empty());
        let mut broken = model.clone();
        broken.attr_names = vec!["fla\nvor".into()];
        assert!(matches!(
            save_model_store(&broken, &path),
            Err(PersistError::Parse(_))
        ));
    }

    #[test]
    fn tampered_values_detected_by_shape_or_count() {
        let (model, d) = trained(1);
        let (header, mut params) = parts(&model);
        let path = tmp("tampered.pgebin");
        // One parameter reshaped: same bytes, different rows x cols.
        let (rows, cols) = (params[0].0, params[0].1);
        params[0].0 = rows * cols;
        params[0].1 = 1;
        write_raw(&path, &header, &params);
        match load(&path, &d) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("model.param.0"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // The last parameter missing.
        (params[0].0, params[0].1) = (rows, cols);
        params.pop();
        write_raw(&path, &header, &params);
        assert!(matches!(load(&path, &d), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn corrupted_crc_is_rejected_with_clear_error() {
        let (model, d) = trained(1);
        let path = tmp("flipped.pgebin");
        save_model_store(&model, &path).unwrap();
        let ix = Snapshot::open(&path, MmapMode::Off)
            .unwrap()
            .section("model.param.1")
            .map(|s| s.meta.offset + s.meta.len / 2)
            .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[ix as usize] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        match load(&path, &d) {
            Err(PersistError::Corrupt(msg)) => {
                assert!(
                    msg.contains("model.param.1") && msg.contains("CRC"),
                    "{msg}"
                )
            }
            other => panic!("expected CRC failure, got {other:?}"),
        }
    }

    /// A cut-off file is what a reader sees while a writer is still
    /// at work, so it must read as retryable — never as a parse error.
    #[test]
    fn truncated_binary_snapshot_reports_corruption_not_text_parse() {
        let (model, d) = trained(1);
        let path = tmp("whole.pgebin");
        save_model_store(&model, &path).unwrap();
        let whole = std::fs::read(&path).unwrap();
        let cut_path = tmp("cut.pgebin");
        for cut in [0, 3, 8, 63, 64, 200, whole.len() / 2, whole.len() - 1] {
            std::fs::write(&cut_path, &whole[..cut]).unwrap();
            match load(&cut_path, &d) {
                Err(PersistError::Corrupt(_) | PersistError::UnknownFormat(_)) => {}
                other => panic!("cut {cut}: expected a retryable error, got {other:?}"),
            }
        }
    }

    #[test]
    fn retired_formats_are_refused_with_a_non_retryable_error() {
        let d = Dataset::new(ProductGraph::new(), vec![], vec![], vec![]);
        let path = tmp("retired.bin");
        for (bytes, name) in [
            (&b"PGEBIN01\x00\x00\x00\x00payload"[..], "PGEBIN01"),
            (&b"PGECKPT1\x00\x00\x00\x00payload"[..], "PGECKPT1"),
            (&b"#pge-model v1\nscorer rotate 6\n"[..], "#pge-model"),
        ] {
            std::fs::write(&path, bytes).unwrap();
            match load(&path, &d) {
                Err(PersistError::Parse(msg)) => {
                    assert!(msg.contains(name) && msg.contains("retrain"), "{msg}")
                }
                other => panic!("{name}: expected Parse, got {other:?}"),
            }
        }
        // A writer's uncommitted zero header and foreign files stay
        // UnknownFormat.
        for bytes in [&[0u8; 64][..], b"\x7fELF not a model at all, not at all"] {
            std::fs::write(&path, bytes).unwrap();
            assert!(matches!(
                load(&path, &d),
                Err(PersistError::UnknownFormat(_))
            ));
        }
    }
}
