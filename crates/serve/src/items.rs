//! The `/v1/score` item code: decode a request body into
//! [`ScoreItem`]s, score them through the cached door, and render the
//! answer. The gateway's replicas and the benchmark share it, so a
//! body decodes, scores and renders the same wherever it is handled.

use pge_core::{CachedModel, ScoreScratch};
use pge_obs::json::{self, RecordsError};
use std::fmt::Write;

/// One triple to score, as raw text.
#[derive(Debug, Clone)]
pub struct ScoreItem {
    pub title: String,
    pub attr: String,
    pub value: String,
}

impl ScoreItem {
    /// Decode a `/v1/score` body: a JSON array of `{title, attr,
    /// value}` objects with string fields. `Err` is the message of the
    /// 400 response. The pull decoder writes straight into the items;
    /// it answers exactly what building the JSON tree and looking each
    /// field up would.
    pub fn parse_batch(body: &[u8]) -> Result<Vec<ScoreItem>, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        json::parse_records(text, ["title", "attr", "value"], |[title, attr, value]| {
            ScoreItem { title, attr, value }
        })
        .map_err(|e| match e {
            RecordsError::Syntax(e) => e.to_string(),
            RecordsError::NotArray => "expected a JSON array of {title, attr, value}".to_string(),
            RecordsError::Record(i) => {
                format!("item {i}: expected string fields title, attr, value")
            }
        })
    }
}

/// Outcome for one item. `None` fields mean the attribute was unknown
/// to the model (no relation vector exists to score against).
#[derive(Debug, Clone, PartialEq)]
pub struct ItemScore {
    pub plausibility: Option<f32>,
    pub is_error: Option<bool>,
}

/// Score `items` through the cached door, flagging plausibility ≤
/// `threshold` as an error.
pub fn score_items(
    cm: &CachedModel,
    items: &[ScoreItem],
    threshold: f32,
    scratch: &mut ScoreScratch,
) -> Vec<ItemScore> {
    items
        .iter()
        .map(|it| {
            let p = cm.score_text_triple_scratch(&it.title, &it.attr, &it.value, scratch);
            ItemScore {
                plausibility: p,
                is_error: p.map(|p| p <= threshold),
            }
        })
        .collect()
}

/// Render scores as the `/v1/score` response body: compact JSON,
/// written straight into the `String`. A score prints as `f64`
/// `Display` does, and a non-finite one as `null`.
pub fn render_scores(scores: &[ItemScore]) -> String {
    // ~55 bytes per scored item: `{"plausibility":` + up to 17
    // significant digits + `,"is_error":false},`.
    let mut out = String::with_capacity(2 + 56 * scores.len());
    out.push('[');
    for (i, s) in scores.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"plausibility\":");
        match s.plausibility.map(f64::from) {
            Some(p) if p.is_finite() => write!(out, "{p}").expect("a String takes every write"),
            _ => out.push_str("null"),
        }
        out.push_str(match s.is_error {
            Some(true) => ",\"is_error\":true",
            Some(false) => ",\"is_error\":false",
            None => ",\"is_error\":null",
        });
        if s.plausibility.is_none() {
            out.push_str(",\"detail\":\"unknown attribute\"");
        }
        out.push('}');
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_batch_decodes_items_in_order() {
        let body = r#"[{"title":"Mint Chips é","attr":"flavor","value":"mint"},
                       {"value":"x","attr":"brand","title":"t","extra":1}]"#;
        let items = ScoreItem::parse_batch(body.as_bytes()).unwrap();
        let triples: Vec<_> = items
            .iter()
            .map(|it| (it.title.as_str(), it.attr.as_str(), it.value.as_str()))
            .collect();
        assert_eq!(
            triples,
            [("Mint Chips é", "flavor", "mint"), ("t", "brand", "x")]
        );
        assert!(ScoreItem::parse_batch(b"[]").unwrap().is_empty());
    }

    /// `render_scores` as it was: build a `Json` tree, then print it.
    /// Kept only as the oracle of `render_bytes_match_the_tree_rendering`.
    fn render_via_tree(scores: &[ItemScore]) -> String {
        use pge_obs::json::Json;
        Json::Arr(
            scores
                .iter()
                .map(|s| {
                    let mut pairs = vec![
                        (
                            "plausibility".to_string(),
                            s.plausibility.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        (
                            "is_error".to_string(),
                            s.is_error.map_or(Json::Null, Json::Bool),
                        ),
                    ];
                    if s.plausibility.is_none() {
                        pairs.push(("detail".to_string(), Json::Str("unknown attribute".into())));
                    }
                    Json::Obj(pairs)
                })
                .collect(),
        )
        .to_string()
    }

    #[test]
    fn render_bytes_match_the_tree_rendering() {
        let scored = |p: f32| ItemScore {
            plausibility: Some(p),
            is_error: Some(p <= -1.0),
        };
        let unknown = ItemScore {
            plausibility: None,
            is_error: None,
        };
        let finite = [
            -1.0000001,
            0.1,
            -0.33333334,
            3.4e38,
            f32::MIN,
            f32::EPSILON,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(0x007f_ffff),
        ];
        let nonfinite = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN];
        let all: Vec<ItemScore> = finite
            .iter()
            .chain(&nonfinite)
            .map(|&p| scored(p))
            .chain([unknown.clone()])
            .collect();
        for scores in [
            &all[..],
            &[],
            std::slice::from_ref(&unknown),
            &[unknown.clone(), scored(-0.0)],
            &all[finite.len()..],
        ] {
            assert_eq!(render_scores(scores), render_via_tree(scores));
        }
        assert_eq!(render_scores(&[]), "[]");
        assert_eq!(
            render_scores(&[scored(f32::NAN), scored(-0.0)]),
            r#"[{"plausibility":null,"is_error":false},{"plausibility":-0,"is_error":false}]"#
        );
    }

    #[test]
    fn parse_batch_error_wording_is_pinned() {
        // Both tiers answer these verbatim in their 400 bodies.
        for (body, message) in [
            (&b"[\xff]"[..], "body is not UTF-8"),
            (b"[{", "invalid JSON at byte 2: expected '\"'"),
            (
                br#"{"title":"t"}"#,
                "expected a JSON array of {title, attr, value}",
            ),
            (
                br#"[{"title":"t","attr":"a","value":"v"},{"title":"t","attr":"a","value":1}]"#,
                "item 1: expected string fields title, attr, value",
            ),
        ] {
            assert_eq!(ScoreItem::parse_batch(body).unwrap_err(), message);
        }
    }
}
