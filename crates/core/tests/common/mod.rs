//! Fixtures shared by the resume tests.

use pge_core::PgeModel;
use pge_graph::{read_delta_stream, AttrId, Dataset, DeltaWindow, ProductGraph};
use pge_nn::gradcheck::HasParams;
use std::path::PathBuf;

/// 24 products, each with a flavor and an ingredient fact.
pub fn tiny_dataset() -> Dataset {
    let mut g = ProductGraph::new();
    let mut train = Vec::new();
    for i in 0..24 {
        let (flavor, ing) = if i % 2 == 0 {
            ("spicy", "cayenne pepper")
        } else {
            ("sweet", "cane sugar")
        };
        let title = format!("brand{i} {flavor} snack chips {i}");
        train.push(g.add_fact(&title, "flavor", flavor));
        train.push(g.add_fact(&title, "ingredient", ing));
    }
    Dataset::new(g, train, vec![], vec![])
}

/// Three windows of mixed churn against [`tiny_dataset`]: adds, a
/// correction (window 1 retracts window 0's "sour" and re-adds the
/// product as sweet), and a plain withdrawal.
pub fn windows() -> Vec<DeltaWindow> {
    let stream = "#pge-delta v1
#window 0 5
add\tnewbrand sour gummy 100\tflavor\tsour
add\tnewbrand sour gummy 100\tingredient\tcitric acid
add\tnewbrand spicy jerky 101\tflavor\tspicy
add\tnewbrand spicy jerky 101\tingredient\tcayenne pepper
retract\tbrand0 spicy snack chips 0\tflavor\tspicy
#window 1 4
retract\tnewbrand sour gummy 100\tflavor\tsour
add\tnewbrand sour gummy 100\tflavor\tsweet
add\tnewbrand sweet cookies 102\tflavor\tsweet
add\tnewbrand sweet cookies 102\tingredient\tcane sugar
#window 2 2
add\tnewbrand spicy salsa 103\tflavor\tspicy
retract\tbrand1 sweet snack chips 1\tingredient\tcane sugar
";
    read_delta_stream(stream.as_bytes()).unwrap()
}

/// A fresh per-process temp directory; stale state from a crashed
/// earlier run must not leak in.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pge-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every parameter of `model` as raw bit patterns: the encoder's in
/// `HasParams` order, then one relation row per attribute.
pub fn param_bits(model: &PgeModel) -> Vec<u32> {
    let mut encoder = model.encoder().clone();
    let mut bits: Vec<u32> = encoder
        .params_mut()
        .iter()
        .flat_map(|p| p.value.as_slice().iter().map(|x| x.to_bits()))
        .collect();
    for a in 0..model.attr_names().len() {
        bits.extend(model.relation(AttrId(a as u16)).iter().map(|x| x.to_bits()));
    }
    bits
}
