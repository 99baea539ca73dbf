//! `pge-benchmark` — the repo's one benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- check [--seed N] [--seconds S] [--smoke]
//! ```
//!
//! `run` builds each workload's fixtures from the seed, runs the
//! workload in a child process of its own (so `VmHWM` is the
//! workload's), checks its outputs against the offline oracle and
//! prints every metric by name with its unit. The last line of a
//! workload's report is one JSON object, `{"correct", "attempted",
//! "failed", "metrics"}`: the end-to-end metrics every workload reads,
//! or with `--trace 1` (the traced run) the per-layer ones. `check`
//! runs the untraced suite twice and fails unless every end-to-end
//! metric of the second set is within its bound of the first.

mod fixtures;
mod gateway;
mod layers;
mod loadgen;
mod manifest;
mod outcome;
mod scan;
mod spans;
mod spec;
mod stats;
mod train;

use fixtures::{Need, Scale};
use outcome::Outcome;
use pge_obs::json::Json;
use spans::Recorder;
use std::path::PathBuf;
use std::process::ExitCode;

/// Flags shared by `run`, `check` and the hidden `child`.
#[derive(Clone, Debug)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

/// What a workload child is told.
pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Fixture directory the parent built.
    pub dir: PathBuf,
    /// Decision threshold the parent fitted on the sample model.
    pub threshold: f32,
}

fn parse_opts(args: &[String]) -> Result<(Opts, Vec<(String, String)>), String> {
    let mut o = Opts {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
    };
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} expects a value"))
        };
        match a.as_str() {
            "--workload" => o.workload = Some(val()?),
            "--seed" => {
                o.seed = val()?
                    .parse()
                    .map_err(|_| "--seed expects a whole number")?
            }
            "--seconds" => {
                o.seconds = val()?.parse().map_err(|_| "--seconds expects a number")?;
                if !(o.seconds > 0.0 && o.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                o.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            "--smoke" => o.smoke = true,
            hidden if hidden.starts_with("--child-") => rest.push((hidden.to_string(), val()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if let Some(w) = &o.workload {
        if spec::workload(w).is_none() {
            let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {w}; one of {}", names.join(", ")));
        }
    }
    if o.smoke && !args.iter().any(|a| a == "--seconds") {
        o.seconds = 4.0;
    }
    Ok((o, rest))
}

/// Re-execute this binary as the workload's child and read back the
/// one JSON line it prints. Its stderr passes through.
fn spawn_child(
    o: &Opts,
    workload: &str,
    dir: &std::path::Path,
    threshold: f32,
) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("resolve own path: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("child")
        .args(["--workload", workload])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if o.trace { "1" } else { "0" }])
        .args(["--child-dir", &dir.display().to_string()])
        .args(["--child-threshold-bits", &threshold.to_bits().to_string()]);
    if o.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} child failed ({}): {}{}",
            out.status,
            stdout,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .ok_or_else(|| format!("{workload} child printed no result"))?;
    Outcome::from_json_line(line)
}

fn child_main(o: &Opts, rest: &[(String, String)]) -> Result<(), String> {
    let get = |k: &str| {
        rest.iter()
            .find(|(n, _)| n == k)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("child lacks {k}"))
    };
    let args = ChildArgs {
        workload: o.workload.clone().ok_or("child lacks --workload")?,
        seed: o.seed,
        seconds: o.seconds,
        trace: o.trace,
        smoke: o.smoke,
        dir: PathBuf::from(get("--child-dir")?),
        threshold: f32::from_bits(
            get("--child-threshold-bits")?
                .parse()
                .map_err(|_| "bad threshold bits")?,
        ),
    };
    let mut out = match args.workload.as_str() {
        "scan_encode" | "scan_bank" => scan::child(&args)?,
        "gateway_products" => gateway::child(&args)?,
        "train" => train::child(&args)?,
        other => return Err(format!("no child for workload {other}")),
    };
    out.info_num("nproc", manifest::nproc() as f64);
    println!("{}", out.to_json());
    Ok(())
}

/// One workload, one mode: parent half of set-up, the child, and the
/// merge of both into the workload's outcome.
fn run_workload(o: &Opts, workload: &str) -> Result<Outcome, String> {
    let scale = Scale::pick(o.smoke);
    let dir = fixtures::out_dir().join(format!("run-{}-{workload}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let result = (|| {
        let need = match workload {
            "scan_encode" => Some(Need::ScanEncode),
            "scan_bank" => Some(Need::ScanBank),
            "gateway_products" => Some(Need::Gateway),
            _ => None,
        };
        let mut parent = Outcome::default();
        let mut threshold = 0.0f32;
        let mut setup_parent_s = 0.0;
        if let Some(need) = need {
            let mut rec = Recorder::new(o.trace);
            let b = fixtures::build(&dir, need, &scale, o.seed, &mut rec)?;
            threshold = b.threshold;
            setup_parent_s = b.total_s;
            parent.info_num("sample.pr_auc", b.pr_auc as f64);
            parent.info_num("sample.triples_per_s", b.sample_triples_per_s);
            parent.info_num("catalog_triples", b.catalog_triples as f64);
            parent.info_num("bank_keys", b.bank_keys as f64);
            if o.trace {
                let path = fixtures::out_dir().join(format!("trace-{workload}-setup.jsonl"));
                rec.write_jsonl(&path)
                    .map_err(|e| format!("write trace: {e}"))?;
                if b.embed_s > 0.0 {
                    parent.put_value("store.embed_keys_per_s", b.bank_keys as f64 / b.embed_s);
                }
            }
        }
        let mut out = spawn_child(o, workload, &dir, threshold)?;
        let child_setup = out
            .metrics
            .remove("setup_child_s")
            .ok_or("child reported no set-up time")?;
        out.put_value("setup_s", setup_parent_s + child_setup.value);
        out.info_num("setup_parent_s", setup_parent_s);
        out.merge(parent);
        // A mistyped or retired name must not pass for a measurement.
        for name in out.metrics.keys() {
            let known = spec::metric(name).is_some_and(|m| m.is_on(workload));
            if !known {
                return Err(format!(
                    "{workload} reported {name}, which the table in spec.rs does not give it"
                ));
            }
        }
        Ok(out)
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Print one workload's report; the last line is the contract's JSON.
///
/// An untraced run prints every end-to-end metric the workload reads
/// and puts those that every workload reads into the JSON; a traced
/// run prints the workload's own end-to-end metrics again and the
/// per-layer ones, and the JSON carries all of those names, 0 for a
/// layer that is not on this workload's path.
fn report(o: &Opts, workload: &str, out: &Outcome) -> bool {
    let scale = Scale::pick(o.smoke);
    println!("# workload {workload}");
    if let Some(w) = spec::workload(workload) {
        println!("why {}", w.why);
    }
    println!(
        "manifest {}",
        manifest::manifest(o.seed, o.seconds, o.trace, &scale, out)
    );
    // Each metric of the report, and whether the JSON line carries it.
    let listed: Vec<(&spec::Metric, bool)> = if o.trace {
        let all = spec::WORKLOAD_END_TO_END.iter().chain(spec::PER_LAYER);
        all.map(|m| (m, true)).collect()
    } else {
        let everywhere = spec::END_TO_END.iter().map(|m| (m, true));
        let own = spec::WORKLOAD_END_TO_END.iter().map(|m| (m, false));
        everywhere.chain(own).collect()
    };
    let mut metrics = Vec::new();
    let mut complete = true;
    for (m, to_json) in listed {
        let measured = out.metrics.get(m.name);
        if let Some(s) = measured {
            println!(
                "metric {:<40} {:>16.4} {:<10} q1 {:.4} q3 {:.4} n {}",
                m.name, s.value, m.unit, s.q1, s.q3, s.n
            );
        } else if m.is_on(workload) {
            println!("unmeasured {}", m.name);
            complete &= !to_json;
        }
        if to_json {
            metrics.push((
                m.name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(measured.map_or(0.0, |s| s.value))),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            ));
        }
    }
    for n in &out.notes {
        println!("note {n}");
    }
    println!("ops_attempted {} ops_failed {}", out.attempted, out.failed);
    let correct = complete && out.failed == 0 && out.attempted > 0;
    println!(
        "{}",
        Json::Obj(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::Num(out.attempted.max(1) as f64)),
            ("failed".into(), Json::Num(out.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    );
    correct
}

fn workloads_of(o: &Opts) -> Vec<&'static str> {
    spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| o.workload.as_deref().is_none_or(|w| w == *n))
        .collect()
}

fn run(o: &Opts) -> Result<bool, String> {
    let mut ok = true;
    for w in workloads_of(o) {
        let out = run_workload(o, w)?;
        ok &= report(o, w, &out);
    }
    Ok(ok)
}

/// Two untraced sets on the same build; set 2 must stay within each
/// end-to-end metric's bound of set 1, on every workload that reads it.
fn check(o: &Opts) -> Result<bool, String> {
    let o = Opts {
        trace: false,
        ..o.clone()
    };
    let mut ok = true;
    let mut sets: Vec<Vec<(&str, Outcome)>> = Vec::new();
    for set in 1..=2 {
        println!("# set {set}");
        let mut outs = Vec::new();
        for w in workloads_of(&o) {
            let out = run_workload(&o, w)?;
            ok &= report(&o, w, &out);
            outs.push((w, out));
        }
        sets.push(outs);
    }
    println!("# check: set 2 against set 1");
    for ((w, a), (_, b)) in sets[0].iter().zip(&sets[1]) {
        for m in spec::END_TO_END.iter().chain(spec::WORKLOAD_END_TO_END) {
            if !m.is_on(w) {
                continue;
            }
            let (Some(x), Some(y)) = (a.metrics.get(m.name), b.metrics.get(m.name)) else {
                ok &= m.bound.is_none();
                println!(
                    "check {w:<17} {:<14} NOT MEASURED in one of the sets",
                    m.name
                );
                continue;
            };
            let both = format!(
                "set1 {:>14.4} [{:.4} {:.4}] n {} set2 {:>14.4} [{:.4} {:.4}] n {} {}",
                x.value, x.q1, x.q3, x.n, y.value, y.q1, y.q3, y.n, m.unit
            );
            // A demoted metric is printed for the record, not judged.
            let Some((worse, bound)) = m.worse(x.value, y.value) else {
                println!("check {w:<17} {:<14} {both} not gated", m.name);
                continue;
            };
            let (scale, unit) = match m.bound {
                Some(spec::Bound::Abs(_)) => (1.0, m.unit),
                _ => (100.0, "%"),
            };
            let verdict = if worse <= bound { "ok" } else { "OUT OF BOUND" };
            ok &= worse <= bound;
            println!(
                "check {w:<17} {:<14} {both} worse by {:+.4} {unit} (bound {} {unit}) {verdict}",
                m.name,
                worse * scale,
                bound * scale
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, flags) = match args.split_first() {
        Some((c, rest)) if !c.starts_with("--") => (c.as_str(), rest),
        _ => ("run", &args[..]),
    };
    let outcome = parse_opts(flags).and_then(|(o, rest)| match cmd {
        "run" => run(&o),
        "check" => check(&o),
        "child" => child_main(&o, &rest).map(|()| true),
        other => Err(format!("unknown command {other}; one of run, check")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pge-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
