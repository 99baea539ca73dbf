//! A registry of named counters, gauges, and histograms with a
//! Prometheus text renderer (exposition format 0.0.4).
//!
//! Naming convention: `pge_<subsystem>_<name>{_unit}` — e.g.
//! `pge_gateway_stage_score_seconds`, `pge_train_epochs_total`. The
//! registry enforces the character set (Prometheus' `[a-zA-Z0-9_:]`)
//! and that one name keeps one kind for the life of the process.
//!
//! Handles ([`Counter`], [`Gauge`], [`AtomicHistogram`]) are `Arc`s:
//! register once at startup, stash the handle, and update it on the
//! hot path with relaxed atomics — the registry lock is only taken at
//! registration and render time.

use crate::hist::AtomicHistogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite the value — only for mirroring an *external* monotone
    /// source (e.g. a cache's own hit counter) into the registry just
    /// before rendering; never mix with `inc`/`add` on the same
    /// counter.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down. Stored as `f64` bits in
/// an atomic so `set`/`get` need no lock.
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(AtomicU64::new(0.0f64.to_bits()))
    }
}

impl Gauge {
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<AtomicHistogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    help: String,
    metric: Metric,
}

/// A set of named metrics rendered together. Most binaries use one
/// registry per process ([`global`]); the gateway owns one per server
/// so concurrently running servers (e.g. in tests) don't share state.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: RwLock<BTreeMap<String, Entry>>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with(|c: char| c.is_ascii_digit())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or register the counter `name`.
    ///
    /// # Panics
    /// Panics on an invalid metric name or if `name` is already
    /// registered as a different kind.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        match self.register(name, help, || Metric::Counter(Arc::default())) {
            Metric::Counter(c) => c,
            m => panic!("metric {name} already registered as a {}", m.kind()),
        }
    }

    /// Get or register the gauge `name`.
    ///
    /// # Panics
    /// As [`MetricsRegistry::counter`].
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        match self.register(name, help, || Metric::Gauge(Arc::default())) {
            Metric::Gauge(g) => g,
            m => panic!("metric {name} already registered as a {}", m.kind()),
        }
    }

    /// Get or register the histogram `name`; `bounds` only apply on
    /// first registration.
    ///
    /// # Panics
    /// As [`MetricsRegistry::counter`], or if `bounds` are invalid on
    /// first registration.
    pub fn histogram(&self, name: &str, help: &str, bounds: Vec<f64>) -> Arc<AtomicHistogram> {
        match self.register(name, help, || {
            Metric::Histogram(Arc::new(AtomicHistogram::new(bounds)))
        }) {
            Metric::Histogram(h) => h,
            m => panic!("metric {name} already registered as a {}", m.kind()),
        }
    }

    fn register(&self, name: &str, help: &str, make: impl FnOnce() -> Metric) -> Metric {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let mut map = self.metrics.write().unwrap_or_else(|e| e.into_inner());
        let entry = map.entry(name.to_string()).or_insert_with(|| Entry {
            help: help.to_string(),
            metric: make(),
        });
        match &entry.metric {
            Metric::Counter(c) => Metric::Counter(c.clone()),
            Metric::Gauge(g) => Metric::Gauge(g.clone()),
            Metric::Histogram(h) => Metric::Histogram(h.clone()),
        }
    }

    /// Render every metric in the Prometheus text format, sorted by
    /// name.
    pub fn render(&self) -> String {
        // Refresh the process-wide RSS high-water mark on every
        // scrape, so any `/metrics` endpoint (serve, gateway, the
        // global registry) exports it without per-binary wiring.
        if let Some(rss) = crate::manifest::peak_rss_bytes() {
            self.gauge(
                "pge_process_peak_rss_bytes",
                "Peak resident set size (VmHWM) of this process",
            )
            .set(rss as f64);
        }
        let map = self.metrics.read().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        for (name, entry) in map.iter() {
            let _ = writeln!(out, "# HELP {name} {}", entry.help);
            let _ = writeln!(out, "# TYPE {name} {}", entry.metric.kind());
            match &entry.metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let mut cumulative = 0u64;
                    for (bound, c) in h.bounds().iter().zip(&counts) {
                        cumulative += c;
                        let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                    }
                    cumulative += counts.last().copied().unwrap_or(0);
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                    let _ = writeln!(out, "{name}_sum {}", h.sum());
                    let _ = writeln!(out, "{name}_count {cumulative}");
                }
            }
        }
        out
    }
}

/// Validate Prometheus text exposition (format 0.0.4), as scraped
/// from a `/metrics` endpoint. Checks the invariants a real scraper
/// relies on:
///
/// * every sample belongs to a family with a `# TYPE` line *before*
///   its first sample (histogram `_bucket`/`_sum`/`_count` and
///   summary `_sum`/`_count` suffixes resolve to their base family);
/// * at most one `# TYPE` / `# HELP` line per family (unique names);
/// * no duplicate `name{labels}` series;
/// * names match `[a-zA-Z_:][a-zA-Z0-9_:]*` and values parse as
///   floats (`+Inf`/`-Inf`/`NaN` included).
///
/// CI scrapes a live gateway and runs this; it is also unit-tested
/// against [`MetricsRegistry::render`] so renderer and validator
/// can't drift apart.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut helps: BTreeSet<String> = BTreeSet::new();
    let mut sampled_families: BTreeSet<String> = BTreeSet::new();
    let mut series_seen: BTreeSet<String> = BTreeSet::new();

    // Resolve a sample name to its declared family, honoring the
    // histogram/summary child-sample suffixes.
    let family_of = |name: &str, types: &BTreeMap<String, String>| -> Option<String> {
        if types.contains_key(name) {
            return Some(name.to_string());
        }
        for (suffix, kinds) in [
            ("_bucket", &["histogram"][..]),
            ("_sum", &["histogram", "summary"][..]),
            ("_count", &["histogram", "summary"][..]),
        ] {
            if let Some(base) = name.strip_suffix(suffix) {
                if types.get(base).is_some_and(|k| kinds.contains(&k.as_str())) {
                    return Some(base.to_string());
                }
            }
        }
        None
    };

    for (ix, raw) in text.lines().enumerate() {
        let ln = ix + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.splitn(2, ' ');
            let name = it.next().unwrap_or("");
            let kind = it.next().unwrap_or("").trim();
            if !valid_name(name) {
                return Err(format!("line {ln}: invalid metric name {name:?}"));
            }
            if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                return Err(format!("line {ln}: unknown TYPE {kind:?} for {name}"));
            }
            if sampled_families.contains(name) {
                return Err(format!("line {ln}: TYPE for {name} after its samples"));
            }
            if types.insert(name.to_string(), kind.to_string()).is_some() {
                return Err(format!("line {ln}: duplicate TYPE line for {name}"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or("");
            if !valid_name(name) {
                return Err(format!("line {ln}: invalid metric name {name:?}"));
            }
            if !helps.insert(name.to_string()) {
                return Err(format!("line {ln}: duplicate HELP line for {name}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // free-form comment
        }

        // A sample: `name[{labels}] value [timestamp]`.
        let (series, rest) = match line.find('{') {
            Some(open) => {
                let close = line[open..]
                    .find('}')
                    .map(|c| open + c)
                    .ok_or_else(|| format!("line {ln}: unterminated label set"))?;
                (&line[..=close], &line[close + 1..])
            }
            None => {
                let cut = line.find(char::is_whitespace).unwrap_or(line.len());
                (&line[..cut], &line[cut..])
            }
        };
        let name = &series[..series.find('{').unwrap_or(series.len())];
        if !valid_name(name) {
            return Err(format!("line {ln}: invalid sample name {name:?}"));
        }
        let mut fields = rest.split_whitespace();
        let value = fields
            .next()
            .ok_or_else(|| format!("line {ln}: sample {name} has no value"))?;
        if !matches!(value, "+Inf" | "-Inf" | "NaN") && value.parse::<f64>().is_err() {
            return Err(format!("line {ln}: unparseable value {value:?} for {name}"));
        }
        if let Some(ts) = fields.next() {
            if ts.parse::<i64>().is_err() {
                return Err(format!("line {ln}: unparseable timestamp {ts:?}"));
            }
        }
        if fields.next().is_some() {
            return Err(format!("line {ln}: trailing garbage after sample"));
        }
        let family = family_of(name, &types)
            .ok_or_else(|| format!("line {ln}: sample {name} has no preceding TYPE line"))?;
        sampled_families.insert(family);
        if !series_seen.insert(series.to_string()) {
            return Err(format!("line {ln}: duplicate series {series}"));
        }
    }
    Ok(())
}

/// The process-wide registry. Binaries that expose one metrics
/// endpoint (or print one report) per process register here.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_render() {
        let r = MetricsRegistry::new();
        let c = r.counter("pge_test_items_total", "Items seen.");
        c.inc();
        c.add(2);
        let g = r.gauge("pge_test_resident", "Resident entries.");
        g.set(7.5);
        let text = r.render();
        assert!(
            text.contains("# TYPE pge_test_items_total counter"),
            "{text}"
        );
        assert!(text.contains("pge_test_items_total 3"));
        assert!(text.contains("# TYPE pge_test_resident gauge"));
        assert!(text.contains("pge_test_resident 7.5"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let r = MetricsRegistry::new();
        let h = r.histogram("pge_test_latency_seconds", "Latency.", vec![0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(5.0);
        let text = r.render();
        assert!(
            text.contains("pge_test_latency_seconds_bucket{le=\"0.1\"} 1"),
            "{text}"
        );
        assert!(text.contains("pge_test_latency_seconds_bucket{le=\"1\"} 2"));
        assert!(text.contains("pge_test_latency_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("pge_test_latency_seconds_count 3"));
    }

    #[test]
    fn reregistration_returns_same_handle() {
        let r = MetricsRegistry::new();
        let a = r.counter("pge_x_total", "x");
        let b = r.counter("pge_x_total", "different help ignored");
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn output_is_sorted_by_name() {
        let r = MetricsRegistry::new();
        r.counter("pge_b_total", "b");
        r.counter("pge_a_total", "a");
        let text = r.render();
        let a = text.find("pge_a_total").unwrap();
        let b = text.find("pge_b_total").unwrap();
        assert!(a < b);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter("pge_x_total", "x");
        r.gauge("pge_x_total", "x");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_rejected() {
        MetricsRegistry::new().counter("pge metrics with spaces", "nope");
    }

    #[test]
    fn rendered_output_passes_exposition_validation() {
        let r = MetricsRegistry::new();
        r.counter("pge_v_requests_total", "Requests.").add(3);
        r.gauge("pge_v_version", "Version.").set(2.0);
        let h = r.histogram("pge_v_latency_seconds", "Latency.", vec![0.1, 1.0]);
        h.observe(0.05);
        h.observe(5.0);
        validate_exposition(&r.render()).expect("renderer emits valid exposition");
    }

    #[test]
    fn exposition_validator_catches_malformations() {
        // A sample with no TYPE line.
        let err = validate_exposition("pge_x_total 1\n").unwrap_err();
        assert!(err.contains("no preceding TYPE"), "{err}");
        // TYPE after its samples.
        let err =
            validate_exposition("# TYPE pge_a counter\npge_a 1\npge_x 2\n# TYPE pge_x counter\n")
                .unwrap_err();
        assert!(err.contains("no preceding TYPE"), "{err}");
        // Duplicate TYPE line (non-unique name).
        let err = validate_exposition("# TYPE pge_a counter\n# TYPE pge_a gauge\n").unwrap_err();
        assert!(err.contains("duplicate TYPE"), "{err}");
        // Duplicate label set.
        let err = validate_exposition(
            "# TYPE pge_h histogram\npge_h_bucket{le=\"1\"} 1\npge_h_bucket{le=\"1\"} 2\n",
        )
        .unwrap_err();
        assert!(err.contains("duplicate series"), "{err}");
        // Unparseable value.
        let err = validate_exposition("# TYPE pge_a counter\npge_a banana\n").unwrap_err();
        assert!(err.contains("unparseable value"), "{err}");
        // Unknown kind.
        let err = validate_exposition("# TYPE pge_a widget\n").unwrap_err();
        assert!(err.contains("unknown TYPE"), "{err}");
        // Histogram child samples resolve to their base family.
        validate_exposition(
            "# TYPE pge_h histogram\npge_h_bucket{le=\"+Inf\"} 3\npge_h_sum 4.5\npge_h_count 3\n",
        )
        .expect("histogram suffixes resolve");
        // Inf/NaN values are legal exposition.
        validate_exposition("# TYPE pge_g gauge\npge_g +Inf\n").expect("+Inf is valid");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn render_exports_process_peak_rss() {
        let r = MetricsRegistry::new();
        let text = r.render();
        assert!(
            text.contains("# TYPE pge_process_peak_rss_bytes gauge"),
            "{text}"
        );
        let line = text
            .lines()
            .find(|l| l.starts_with("pge_process_peak_rss_bytes "))
            .expect("sample present");
        let v: f64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!(v > 0.0, "{line}");
        validate_exposition(&text).expect("still valid exposition");
    }

    #[test]
    fn global_is_a_singleton() {
        let c = global().counter("pge_global_probe_total", "probe");
        c.inc();
        assert_eq!(global().counter("pge_global_probe_total", "probe").get(), 1);
    }
}
