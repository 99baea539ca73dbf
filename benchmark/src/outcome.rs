//! What a workload child reports back to the parent: metrics with
//! quartiles, operation counts, and free-form provenance.

use crate::stats::Summary;
use pge_obs::json::{parse, Json};
use std::collections::BTreeMap;

#[derive(Default, Debug)]
pub struct Outcome {
    pub metrics: BTreeMap<String, Summary>,
    /// Operations attempted: rows, requests or passes plus oracle checks.
    pub attempted: u64,
    /// Operations that failed or were answered wrongly.
    pub failed: u64,
    /// Why operations failed, or why a stage was marked invalid.
    pub notes: Vec<String>,
    /// Provenance the manifest carries: pass counts, kernel shapes...
    pub info: Vec<(String, Json)>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, s: Summary) {
        // JSON has no NaN: a ratio over nothing is reported as absent.
        if s.value.is_finite() && s.q1.is_finite() && s.q3.is_finite() {
            self.metrics.insert(name.to_string(), s);
        } else {
            self.notes
                .push(format!("{name} was not measurable in this run"));
        }
    }

    pub fn put_value(&mut self, name: &str, v: f64) {
        self.put(name, Summary::single(v));
    }

    /// Report the median of `samples`; the samples themselves go
    /// into the manifest.
    pub fn put_samples(&mut self, name: &str, samples: &[f64]) {
        self.put(name, Summary::of(samples));
        self.keep_samples(name, samples);
    }

    /// Report a throughput as its fastest pass or window.
    pub fn put_fastest(&mut self, name: &str, samples: &[f64]) {
        self.put(name, Summary::fastest(samples));
        self.keep_samples(name, samples);
    }

    fn keep_samples(&mut self, name: &str, samples: &[f64]) {
        self.info.push((
            format!("samples.{name}"),
            Json::Arr(samples.iter().map(|&v| Json::Num(v)).collect()),
        ));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|s| s.value)
    }

    pub fn info_num(&mut self, key: &str, v: f64) {
        self.info.push((key.to_string(), Json::Num(v)));
    }

    pub fn info_str(&mut self, key: &str, v: &str) {
        self.info.push((key.to_string(), Json::Str(v.to_string())));
    }

    /// Record a failed check: one failed operation and the reason.
    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.notes.len() < 16 {
            self.notes.push(why);
        }
    }

    /// Fold another outcome's metrics and counts into this one.
    pub fn merge(&mut self, other: Outcome) {
        self.metrics.extend(other.metrics);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.info.extend(other.info);
    }

    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(k, s)| {
                (
                    k.clone(),
                    Json::Arr(vec![
                        Json::Num(s.value),
                        Json::Num(s.q1),
                        Json::Num(s.q3),
                        Json::Num(s.n as f64),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("metrics".into(), Json::Obj(metrics)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            (
                "notes".into(),
                Json::Arr(self.notes.iter().cloned().map(Json::Str).collect()),
            ),
            ("info".into(), Json::Obj(self.info.clone())),
        ])
    }

    pub fn from_json_line(line: &str) -> Result<Outcome, String> {
        let j = parse(line).map_err(|e| format!("child result is not JSON: {e}"))?;
        let num = |j: &Json, k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("child result lacks {k}"))
        };
        let mut out = Outcome {
            attempted: num(&j, "attempted")? as u64,
            failed: num(&j, "failed")? as u64,
            ..Outcome::default()
        };
        if let Some(Json::Obj(pairs)) = j.get("metrics") {
            for (k, v) in pairs {
                let a: Vec<f64> = v
                    .as_array()
                    .map(|a| a.iter().filter_map(Json::as_f64).collect())
                    .unwrap_or_default();
                if a.len() != 4 {
                    return Err(format!("metric {k} is malformed"));
                }
                out.metrics.insert(
                    k.clone(),
                    Summary {
                        value: a[0],
                        q1: a[1],
                        q3: a[2],
                        n: a[3] as usize,
                    },
                );
            }
        }
        if let Some(notes) = j.get("notes").and_then(Json::as_array) {
            out.notes = notes
                .iter()
                .filter_map(|n| n.as_str().map(str::to_string))
                .collect();
        }
        if let Some(Json::Obj(pairs)) = j.get("info") {
            out.info = pairs.clone();
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_one_json_line() {
        let mut o = Outcome::default();
        o.put_samples("rows_per_s", &[1.0, 2.0, 4.0]);
        o.attempted = 12;
        o.fail(1, "crc mismatch".into());
        o.info_str("kernel", "simd");
        let back = Outcome::from_json_line(&o.to_json().to_string()).unwrap();
        assert_eq!(back.metrics, o.metrics);
        assert_eq!((back.attempted, back.failed), (12, 1));
        assert_eq!(back.notes, vec!["crc mismatch".to_string()]);
        assert_eq!(back.info.len(), 2);
    }
}
