//! The method zoo: every row of Tables 3/4 behind one constructor.

use crate::scale::Scale;
use pge_baselines::{
    train_ckrl, train_dkrl, train_kge, train_nlp, train_pge_bert, train_rotate_plus, train_ssp,
    CkrlConfig, DkrlConfig, KgeConfig, NlpArch, NlpConfig, SspConfig,
};
use pge_core::{train_pge, ErrorDetector, PgeConfig, ScoreKind};
use pge_graph::Dataset;

/// Identifier of one comparable method.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    Lstm,
    Transformer,
    TransE,
    DistMult,
    ComplEx,
    RotatE,
    RotatEPlus,
    Dkrl,
    Ssp,
    Ckrl,
    PgeCnnTransE,
    PgeCnnRotatE,
    /// PGE(CNN)-RotatE with the noise-aware mechanism disabled
    /// (Fig. 6 ablation).
    PgeCnnRotatENoNa,
    /// PGE with the BERT-style encoder (Table 5).
    PgeBertRotatE,
}

impl Method {
    /// Paper-style display name.
    pub fn label(self) -> &'static str {
        match self {
            Method::Lstm => "LSTM",
            Method::Transformer => "Transformer",
            Method::TransE => "TransE",
            Method::DistMult => "DistMult",
            Method::ComplEx => "ComplEx",
            Method::RotatE => "RotatE",
            Method::RotatEPlus => "RotatE+",
            Method::Dkrl => "DKRL",
            Method::Ssp => "SSP",
            Method::Ckrl => "CKRL",
            Method::PgeCnnTransE => "PGE(CNN)-TransE",
            Method::PgeCnnRotatE => "PGE(CNN)-RotatE",
            Method::PgeCnnRotatENoNa => "PGE(CNN)-RotatE w/o noise-aware",
            Method::PgeBertRotatE => "PGE(BERT)-RotatE",
        }
    }

    /// The transductive Table 3 roster (RotatE+ applies only to the
    /// catalog, mirroring the paper's footnote).
    pub fn table3(catalog: bool) -> Vec<Method> {
        let mut m = vec![
            Method::Lstm,
            Method::Transformer,
            Method::TransE,
            Method::DistMult,
            Method::ComplEx,
            Method::RotatE,
        ];
        if catalog {
            m.push(Method::RotatEPlus);
        }
        m.extend([
            Method::Dkrl,
            Method::Ssp,
            Method::Ckrl,
            Method::PgeCnnTransE,
            Method::PgeCnnRotatE,
        ]);
        m
    }

    /// The inductive Table 4 roster (id-based KGE cannot represent
    /// unseen entities, as §4.4 argues).
    pub fn table4() -> Vec<Method> {
        vec![
            Method::Lstm,
            Method::Transformer,
            Method::Dkrl,
            Method::Ssp,
            Method::PgeCnnTransE,
            Method::PgeCnnRotatE,
        ]
    }
}

/// A trained method ready for evaluation.
pub struct TrainedMethod {
    pub method: Method,
    pub detector: Box<dyn ErrorDetector>,
    pub train_secs: f64,
}

/// Epochs [`train_method`] trains `method` for at `scale`. Table 5
/// projects a probe run's time by the ratio of two of these.
pub fn epochs_trained(method: Method, scale: &Scale) -> usize {
    match method {
        Method::Lstm | Method::Transformer => scale.nlp_epochs,
        Method::Dkrl => scale.epochs,
        // PGE converges slower per epoch than id-based KGE (its
        // "tables" are shared text parameters); 1.5× epochs evens the
        // budget out.
        Method::PgeCnnTransE
        | Method::PgeCnnRotatE
        | Method::PgeCnnRotatENoNa
        | Method::PgeBertRotatE => scale.epochs * 3 / 2,
        // Cheap per epoch.
        Method::TransE
        | Method::DistMult
        | Method::ComplEx
        | Method::RotatE
        | Method::RotatEPlus
        | Method::Ssp
        | Method::Ckrl => scale.epochs * 2,
    }
}

/// PGE config for a method at a scale (shared with Table 5).
pub fn pge_config(method: Method, scale: &Scale) -> PgeConfig {
    let score = match method {
        Method::PgeCnnTransE => ScoreKind::TransE,
        _ => ScoreKind::RotatE,
    };
    PgeConfig {
        score,
        noise_aware: method != Method::PgeCnnRotatENoNa,
        epochs: epochs_trained(method, scale),
        dim: 48,
        seed: scale.seed ^ 0xb0b,
        ..PgeConfig::default()
    }
}

/// Train one method on a dataset.
pub fn train_method(dataset: &Dataset, method: Method, scale: &Scale) -> TrainedMethod {
    let seed = scale.seed ^ 0xb0b;
    let epochs = epochs_trained(method, scale);
    match method {
        Method::Lstm | Method::Transformer => {
            let arch = if method == Method::Lstm {
                NlpArch::Lstm
            } else {
                NlpArch::Transformer
            };
            let m = train_nlp(
                dataset,
                &NlpConfig {
                    epochs,
                    seed,
                    ..NlpConfig::for_arch(arch)
                },
            );
            TrainedMethod {
                method,
                train_secs: m.train_secs,
                detector: Box::new(m),
            }
        }
        Method::TransE | Method::DistMult | Method::ComplEx | Method::RotatE => {
            let score = match method {
                Method::TransE => ScoreKind::TransE,
                Method::DistMult => ScoreKind::DistMult,
                Method::ComplEx => ScoreKind::ComplEx,
                _ => ScoreKind::RotatE,
            };
            // RotatE needs a wider embedding and larger margin to
            // shine (Sun et al. use dim 1000, γ up to 24).
            let (dim, gamma) = if method == Method::RotatE {
                (64, 12.0)
            } else {
                (KgeConfig::default().dim, KgeConfig::default().gamma)
            };
            let m = train_kge(
                dataset,
                &KgeConfig {
                    score,
                    dim,
                    gamma,
                    epochs,
                    seed,
                    ..KgeConfig::default()
                },
            );
            TrainedMethod {
                method,
                train_secs: m.train_secs,
                detector: Box::new(m),
            }
        }
        Method::RotatEPlus => {
            let m = train_rotate_plus(
                dataset,
                &KgeConfig {
                    dim: 64,
                    gamma: 12.0,
                    epochs,
                    seed,
                    ..KgeConfig::default()
                },
            );
            TrainedMethod {
                method,
                train_secs: m.train_secs,
                detector: Box::new(m),
            }
        }
        Method::Dkrl => {
            let m = train_dkrl(
                dataset,
                &DkrlConfig {
                    epochs,
                    seed,
                    ..DkrlConfig::default()
                },
            );
            TrainedMethod {
                method,
                train_secs: m.train_secs,
                detector: Box::new(m),
            }
        }
        Method::Ssp => {
            let m = train_ssp(
                dataset,
                &SspConfig {
                    epochs,
                    seed,
                    ..SspConfig::default()
                },
            );
            TrainedMethod {
                method,
                train_secs: m.train_secs,
                detector: Box::new(m),
            }
        }
        Method::Ckrl => {
            let m = train_ckrl(
                dataset,
                &CkrlConfig {
                    epochs,
                    seed,
                    ..CkrlConfig::default()
                },
            );
            TrainedMethod {
                method,
                train_secs: m.train_secs,
                detector: Box::new(m),
            }
        }
        Method::PgeCnnTransE
        | Method::PgeCnnRotatE
        | Method::PgeCnnRotatENoNa
        | Method::PgeBertRotatE => {
            let mut cfg = pge_config(method, scale);
            // Relation-rich KGs (FB-like) benefit from diverse initial
            // rotations; few-attribute catalogs prefer near-identity
            // (see PgeConfig::rotate_phase_init).
            cfg.rotate_phase_init = dataset.graph.num_attrs() > 20;
            if method == Method::PgeBertRotatE {
                let m = train_pge_bert(dataset, &cfg);
                TrainedMethod {
                    method,
                    train_secs: m.train_secs,
                    detector: Box::new(m),
                }
            } else {
                let out = train_pge(dataset, &cfg);
                TrainedMethod {
                    method,
                    train_secs: out.train_secs,
                    detector: Box::new(out.model),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rosters_match_paper() {
        assert_eq!(Method::table3(true).len(), 12);
        assert_eq!(Method::table3(false).len(), 11);
        assert!(!Method::table4().contains(&Method::RotatE));
        assert!(Method::table4().contains(&Method::Dkrl));
    }

    #[test]
    fn labels_are_paper_style() {
        assert_eq!(Method::PgeCnnRotatE.label(), "PGE(CNN)-RotatE");
        assert_eq!(Method::RotatEPlus.label(), "RotatE+");
    }

    #[test]
    fn epochs_trained_counts_each_table5_method() {
        let scale = Scale::default();
        assert_eq!(epochs_trained(Method::RotatE, &scale), 24);
        for m in [Method::PgeCnnRotatE, Method::PgeBertRotatE] {
            assert_eq!(epochs_trained(m, &scale), 18);
            assert_eq!(pge_config(m, &scale).epochs, 18);
        }
    }

    /// Train `m` on a tiny catalog and score one test triple.
    fn trains_on_tiny_data(m: Method) {
        let scale = Scale {
            products: 120,
            labeled: 40,
            fb_triples: 400,
            epochs: 1,
            nlp_epochs: 1,
            seed: 7,
        };
        let d = scale.amazon();
        let tm = train_method(&d, m, &scale);
        let f = tm.detector.plausibility(&d.graph, &d.test[0].triple);
        assert!(f.is_finite(), "{m:?} produced non-finite score");
    }

    /// One test per method, so that the test harness trains them in
    /// parallel.
    macro_rules! every_method {
        ($($name:ident: $m:expr,)*) => {
            mod every_method_trains_on_tiny_data {
                use super::*;
                $(
                    #[test]
                    fn $name() {
                        trains_on_tiny_data($m);
                    }
                )*

                #[test]
                fn covers_the_table3_roster_and_pge_bert() {
                    let listed = [$($m),*];
                    let roster: Vec<Method> = Method::table3(true)
                        .into_iter()
                        .chain([Method::PgeBertRotatE])
                        .collect();
                    assert_eq!(listed.to_vec(), roster);
                }
            }
        };
    }

    every_method! {
        lstm: Method::Lstm,
        transformer: Method::Transformer,
        transe: Method::TransE,
        distmult: Method::DistMult,
        complex: Method::ComplEx,
        rotate: Method::RotatE,
        rotate_plus: Method::RotatEPlus,
        dkrl: Method::Dkrl,
        ssp: Method::Ssp,
        ckrl: Method::Ckrl,
        pge_cnn_transe: Method::PgeCnnTransE,
        pge_cnn_rotate: Method::PgeCnnRotatE,
        pge_bert_rotate: Method::PgeBertRotatE,
    }
}
