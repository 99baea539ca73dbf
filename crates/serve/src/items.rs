//! The `/v1/score` item code: decode a request body into
//! [`ScoreItem`]s, score them through the cached door, and render the
//! answer. The gateway's replicas and the benchmark share it, so a
//! body decodes, scores and renders the same wherever it is handled.

use pge_core::{CachedModel, ScoreScratch};
use pge_obs::json::{self, Json};

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
    /// 400 response.
    pub fn parse_batch(body: &[u8]) -> Result<Vec<ScoreItem>, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let parsed = json::parse(text).map_err(|e| e.to_string())?;
        let raw_items = parsed
            .as_array()
            .ok_or_else(|| "expected a JSON array of {title, attr, value}".to_string())?;
        raw_items
            .iter()
            .enumerate()
            .map(|(i, it)| {
                let field = |k: &str| it.get(k).and_then(Json::as_str).map(str::to_string);
                match (field("title"), field("attr"), field("value")) {
                    (Some(title), Some(attr), Some(value)) => Ok(ScoreItem { title, attr, value }),
                    _ => Err(format!(
                        "item {i}: expected string fields title, attr, value"
                    )),
                }
            })
            .collect()
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

/// Render scores as the `/v1/score` response body.
pub fn render_scores(scores: &[ItemScore]) -> String {
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
