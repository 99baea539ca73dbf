//! The run manifest printed with every result, so that a number
//! without provenance cannot be recorded.

use crate::fixtures::Scale;
use crate::outcome::Outcome;
use crate::spec;
use pge_obs::json::Json;

/// Processors as this process sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process in MiB; 0 where `/proc` has none.
pub fn peak_rss_mib() -> f64 {
    pge_obs::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1 << 20) as f64)
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// CRC-32 over the benchmark's own sources and manifest, as built.
fn bench_hash() -> u32 {
    let mut crc = pge_tensor::Crc32::new();
    for src in [
        include_str!("../Cargo.toml"),
        include_str!("fixtures.rs"),
        include_str!("gateway.rs"),
        include_str!("layers.rs"),
        include_str!("loadgen.rs"),
        include_str!("main.rs"),
        include_str!("manifest.rs"),
        include_str!("outcome.rs"),
        include_str!("scan.rs"),
        include_str!("spans.rs"),
        include_str!("spec.rs"),
        include_str!("stats.rs"),
        include_str!("train.rs"),
    ] {
        crc.update(src.as_bytes());
    }
    crc.finish()
}

pub fn manifest(seed: u64, seconds: f64, trace: bool, scale: &Scale, out: &Outcome) -> Json {
    let num = |v: usize| Json::Num(v as f64);
    let scales = Json::Obj(vec![
        ("smoke".into(), Json::Bool(scale.smoke)),
        ("catalog_products".into(), num(scale.catalog_products)),
        ("gateway_products".into(), num(scale.gateway_products)),
        ("sample_products".into(), num(scale.sample_products)),
        ("sample_epochs".into(), num(scale.sample_epochs)),
        ("train_products".into(), num(scale.train_products)),
        ("train_labeled".into(), num(scale.train_labeled)),
        ("train_epochs".into(), num(scale.train_epochs)),
        ("min_passes".into(), num(scale.min_passes)),
        ("resident_mib".into(), Json::Num(scale.resident_mib as f64)),
    ]);
    // The child reports the processors it saw; fall back to ours.
    let child_nproc = out
        .info
        .iter()
        .find(|(k, _)| k == "nproc")
        .and_then(|(_, v)| v.as_f64())
        .unwrap_or(nproc() as f64);
    Json::Obj(vec![
        (
            "git_rev".into(),
            pge_obs::git_rev().map_or(Json::Null, Json::Str),
        ),
        ("nproc".into(), Json::Num(child_nproc)),
        (
            "kernel".into(),
            Json::Str(pge_tensor::active_kernel().name().into()),
        ),
        ("rustc".into(), Json::Str(rustc_version())),
        ("seed".into(), Json::Num(seed as f64)),
        // BENCHMARK.json has a fixed set of keys, so the seeds the
        // suite reserves are recorded here instead.
        ("default_seed".into(), Json::Num(spec::DEFAULT_SEED as f64)),
        ("confirm_seed".into(), Json::Num(spec::CONFIRM_SEED as f64)),
        ("seconds".into(), Json::Num(seconds)),
        ("traced".into(), Json::Bool(trace)),
        ("scales".into(), scales),
        (
            "bench_hash".into(),
            Json::Str(format!("{:08x}", bench_hash())),
        ),
        ("info".into(), Json::Obj(out.info.clone())),
    ])
}
