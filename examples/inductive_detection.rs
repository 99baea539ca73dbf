//! Inductive detection: validate attribute values for products and
//! value strings the model has *never seen* (§4.4 of the paper).
//!
//! Id-based KG embeddings cannot do this at all — they have no row
//! for an unseen entity. PGE encodes entities from their raw text, so
//! a brand-new listing can be scored immediately.
//!
//! ```text
//! cargo run --release --example inductive_detection
//! ```

use pge::core::{train_pge, PgeConfig};
use pge::datagen::{generate_catalog, CatalogConfig};

fn main() {
    let data = generate_catalog(&CatalogConfig {
        products: 600,
        labeled: 120,
        ..CatalogConfig::default()
    });
    let trained = train_pge(&data, &PgeConfig::default());
    let model = &trained.model;

    // Brand-new listings that are in no graph: the entry point is raw
    // text. Each case pairs a plausible value with an implausible one.
    let cases = [
        (
            "Lunar Pantry Spicy Queso Corn Puffs, Family Size, 12 oz",
            "flavor",
            "spicy queso",
            "lavender",
        ),
        (
            "Glow Botanics Lavender Body Wash For Women And Men, 16 oz",
            "scent",
            "lavender chamomile",
            "nacho cheese",
        ),
        (
            "Amber Farms Dark Chocolate Trail Mix, Resealable Bag",
            "flavor",
            "dark chocolate",
            "stainless steel",
        ),
    ];

    println!("scoring unseen listings (higher = more plausible):\n");
    let mut wins = 0;
    for (title, attr, good, bad) in cases {
        let score = |value| {
            model
                .score_text_triple(title, attr, value)
                .expect("flavor and scent are catalog attributes")
        };
        let (f_good, f_bad) = (score(good), score(bad));
        let verdict = if f_good > f_bad { "OK " } else { "MISS" };
        if f_good > f_bad {
            wins += 1;
        }
        println!("[{verdict}] {title}");
        println!("       f({good:?}) = {f_good:.3}   f({bad:?}) = {f_bad:.3}\n");
    }
    println!("{wins}/{} unseen listings ranked correctly", cases.len());
}
