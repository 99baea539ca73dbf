//! Mutation fuzz for `pge_obs::json`.
//!
//! Generated `/v1/score` bodies are mutated with byte flips,
//! truncations, inserted multibyte characters and inserted escapes.
//! The decoders must never panic, and each must agree with its
//! reference on every `Ok` value and on every `Err` offset and
//! message:
//!
//! * `parse` with `reference::parse`, the earlier per-character
//!   decoder;
//! * `parse_records` with `records_via_tree`, which is `parse`, then
//!   `Json::get` and `Json::as_str` per element. Its bodies also carry
//!   shape faults: missing, repeated, escaped and non-string keys,
//!   extra members and elements that are not objects.
//!
//! Each tier-1 run takes 2,000 cases; the ignored runs take 100,000:
//!
//! ```sh
//! cargo test --release -p pge-obs --test json_fuzz -- --include-ignored
//! ```
//!
//! The string writer is checked against `escaped_per_char`, the
//! earlier one-`write!`-per-`char` writer, byte for byte.

mod mutator;

use pge_obs::json::{parse, parse_records, Json, RecordsError};
use proptest::prelude::*;
use std::fmt::Write;

/// Field text: mostly ASCII words, with multibyte characters, the
/// characters JSON must escape, and arbitrary scalars mixed in.
fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec((0u8..8, 0u32..0x11_0000), 0..24).prop_map(|v| {
        v.into_iter()
            .map(|(class, x)| match class {
                0..=3 => char::from(b' ' + (x % 95) as u8),
                4 | 5 => ['é', '€', '😀', 'ß', '\u{2028}', '中'][x as usize % 6],
                6 => ['"', '\\', '\n', '\t', '\u{1}', '/'][x as usize % 6],
                _ => char::from_u32(x).unwrap_or('\u{fffd}'),
            })
            .collect()
    })
}

/// A well-formed `/v1/score` body: an array of `{title, attr, value}`.
fn arb_body() -> impl Strategy<Value = String> {
    prop::collection::vec((arb_text(), arb_text(), arb_text()), 0..10).prop_map(|items| {
        let items = items
            .into_iter()
            .map(|(t, a, v)| {
                Json::Obj(vec![
                    ("title".into(), Json::Str(t)),
                    ("attr".into(), Json::Str(a)),
                    ("value".into(), Json::Str(v)),
                ])
            })
            .collect();
        Json::Arr(items).to_string()
    })
}

fn mutate(body: String, mutations: &[(u8, u32, u8)]) -> String {
    const MULTIBYTE: [&str; 5] = ["é", "€", "😀", "\u{2028}", "\u{fffd}"];
    const ESCAPES: [&str; 9] = [
        r"\n",
        r#"\""#,
        r"\\",
        r"\u00e9",
        r"\ud83d\ude00",
        r"\ud83d",
        r"\udc00",
        r"\x",
        r"\u12",
    ];
    const TOKENS: [&str; 9] = ["\"", "\\", "\u{1}", ",", "]", "}", "{", ":", "-12.5e3"];
    let bytes = mutator::mutate(
        body.into_bytes(),
        mutations,
        &[&MULTIBYTE, &ESCAPES, &TOKENS],
    );
    // `parse` takes `&str`; the serving tiers reject non-UTF-8 bodies
    // before they reach it.
    String::from_utf8_lossy(&bytes).into_owned()
}

fn arb_mutations() -> impl Strategy<Value = Vec<(u8, u32, u8)>> {
    mutator::arb_mutations(5)
}

fn check(body: String, mutations: &[(u8, u32, u8)]) {
    let doc = mutate(body, mutations);
    assert_eq!(parse(&doc), reference::parse(&doc), "{doc:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]
    #[test]
    fn mutated_score_bodies_decode_like_the_reference(body in arb_body(),
                                                      mutations in arb_mutations()) {
        check(body, &mutations);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100_000))]
    #[test]
    #[ignore = "100,000 cases; run with --include-ignored"]
    fn mutated_score_bodies_decode_like_the_reference_100k(body in arb_body(),
                                                           mutations in arb_mutations()) {
        check(body, &mutations);
    }
}

#[test]
fn mutations_reach_both_outcomes() {
    // The fuzz is only as good as its mix: valid bodies must survive
    // and mutated ones must often fail, for many different reasons.
    let mut rng = proptest::test_runner::TestRng::for_test("json_fuzz::mix");
    let (mut ok, mut err) = (0, 0);
    let mut messages = std::collections::BTreeSet::new();
    for _ in 0..500 {
        let doc = mutate(
            arb_body().generate(&mut rng),
            &arb_mutations().generate(&mut rng),
        );
        match parse(&doc) {
            Ok(_) => ok += 1,
            Err(e) => {
                err += 1;
                messages.insert(e.message);
            }
        }
    }
    assert!(ok >= 50 && err >= 50, "ok {ok}, err {err}");
    assert!(messages.len() >= 8, "{messages:?}");
}

/// A `/v1/score`-like body with shape faults mixed in. Each element
/// is an object holding `title`, `attr` and `value` strings plus up to
/// three extra members at any position: repeated, escaped or unknown
/// keys, with string, number, `null` or nested values. One element in
/// eight is not an object, and one body in sixteen is not an array.
fn arb_records_body() -> impl Strategy<Value = String> {
    const KEYS: [&str; 7] = [
        "title",
        "attr",
        "value",
        r"ti\u0074le",
        r"v\u0061lue",
        "Title",
        "extra",
    ];
    const OTHER: [&str; 6] = [
        "-12.5e3",
        "null",
        "true",
        "[]",
        r#"{"title":"nested","attr":[1,{"value":null}]}"#,
        r#"["title","attr","value"]"#,
    ];
    let extra = (
        0..KEYS.len(),
        any::<u32>(),
        0u8..3,
        arb_text(),
        0..OTHER.len(),
    );
    let element = (
        0u8..8,
        (arb_text(), arb_text(), arb_text()),
        prop::collection::vec(extra, 0..4),
    )
        .prop_map(|(kind, (t, a, v), extras)| {
            if kind == 0 {
                return OTHER[t.len() % OTHER.len()].to_string();
            }
            let mut members: Vec<String> = [("title", t), ("attr", a), ("value", v)]
                .into_iter()
                .map(|(k, text)| format!("\"{k}\":{}", Json::Str(text)))
                .collect();
            for (key, at, kind, text, other) in extras {
                let value = match kind {
                    0 => Json::Str(text).to_string(),
                    _ => OTHER[other].to_string(),
                };
                let at = at as usize % (members.len() + 1);
                members.insert(at, format!("\"{}\":{value}", KEYS[key]));
            }
            format!("{{{}}}", members.join(","))
        });
    (0u8..16, prop::collection::vec(element, 0..6)).prop_map(|(wrap, elements)| match wrap {
        0 => elements.into_iter().next().unwrap_or_else(|| "{}".into()),
        _ => format!("[{}]", elements.join(",")),
    })
}

const RECORD_KEYS: [&str; 3] = ["title", "attr", "value"];

/// The `/v1/score` decode as it was before the pull decoder: build the
/// tree, then look each field up.
fn records_via_tree(doc: &str) -> Result<Vec<[String; 3]>, RecordsError> {
    let tree = parse(doc).map_err(RecordsError::Syntax)?;
    let elements = tree.as_array().ok_or(RecordsError::NotArray)?;
    elements
        .iter()
        .enumerate()
        .map(|(i, it)| {
            let field = |k: &str| it.get(k).and_then(Json::as_str).map(str::to_string);
            match RECORD_KEYS.map(field) {
                [Some(t), Some(a), Some(v)] => Ok([t, a, v]),
                _ => Err(RecordsError::Record(i)),
            }
        })
        .collect()
}

fn check_records(body: String, mutations: &[(u8, u32, u8)]) {
    let doc = mutate(body, mutations);
    assert_eq!(
        parse_records(&doc, RECORD_KEYS, |fields| fields),
        records_via_tree(&doc),
        "{doc:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]
    #[test]
    fn mutated_records_decode_like_tree_and_get(body in arb_records_body(),
                                                mutations in arb_mutations()) {
        check_records(body, &mutations);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100_000))]
    #[test]
    #[ignore = "100,000 cases; run with --include-ignored"]
    fn mutated_records_decode_like_tree_and_get_100k(body in arb_records_body(),
                                                     mutations in arb_mutations()) {
        check_records(body, &mutations);
    }
}

#[test]
fn record_mutations_reach_every_outcome() {
    let mut rng = proptest::test_runner::TestRng::for_test("json_fuzz::records_mix");
    let (mut ok, mut syntax, mut not_array, mut record) = (0, 0, 0, 0);
    for _ in 0..1000 {
        let mutations = arb_mutations().generate(&mut rng);
        // Half the bodies stay whole, so the shape faults are not all
        // masked by syntax errors.
        let mutations = if rng.below(2) == 0 {
            &[][..]
        } else {
            &mutations[..]
        };
        let doc = mutate(arb_records_body().generate(&mut rng), mutations);
        match records_via_tree(&doc) {
            Ok(_) => ok += 1,
            Err(RecordsError::Syntax(_)) => syntax += 1,
            Err(RecordsError::NotArray) => not_array += 1,
            Err(RecordsError::Record(_)) => record += 1,
        }
    }
    assert!(
        ok >= 50 && syntax >= 50 && not_array >= 10 && record >= 50,
        "ok {ok}, syntax {syntax}, not array {not_array}, record {record}"
    );
}

/// The string writer as it was before unescaped runs went out whole:
/// one `write!` per `char`. Kept only as the oracle of
/// `strings_render_like_the_per_char_writer`.
fn escaped_per_char(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => write!(out, "{c}").unwrap(),
        }
    }
    out.push('"');
    out
}

#[test]
fn every_ascii_char_renders_like_the_per_char_writer() {
    // `arb_text` rarely draws a given control character; this covers
    // the whole escape table once.
    let all: String = (0u8..0x80).map(char::from).collect();
    for s in all.chars().map(String::from).chain([all.clone()]) {
        assert_eq!(Json::Str(s.clone()).to_string(), escaped_per_char(&s));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]
    #[test]
    fn strings_render_like_the_per_char_writer(s in arb_text()) {
        let want = escaped_per_char(&s);
        prop_assert_eq!(Json::Str(s.clone()).to_string(), want.clone());
        prop_assert_eq!(Json::Obj(vec![(s, Json::Null)]).to_string(), format!("{{{want}:null}}"));
    }
}

/// The decoder as it was before string bodies were copied run by run:
/// `string()` advances one `char` at a time, re-validating the rest of
/// the input to find it, which makes it quadratic. Everything else is
/// unchanged. Kept only as the fuzz oracle.
mod reference {
    use pge_obs::json::{Json, ParseError};

    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data"));
        }
        Ok(v)
    }

    const MAX_DEPTH: usize = 64;

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn err(&self, message: &str) -> ParseError {
            ParseError {
                offset: self.pos,
                message: message.to_string(),
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), ParseError> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(&format!("expected '{}'", b as char)))
            }
        }

        fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(self.err(&format!("expected '{word}'")))
            }
        }

        fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
            if depth > MAX_DEPTH {
                return Err(self.err("nesting too deep"));
            }
            match self.peek() {
                Some(b'n') => self.literal("null", Json::Null),
                Some(b't') => self.literal("true", Json::Bool(true)),
                Some(b'f') => self.literal("false", Json::Bool(false)),
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b'[') => self.array(depth),
                Some(b'{') => self.object(depth),
                Some(b'-' | b'0'..=b'9') => self.number(),
                Some(_) => Err(self.err("unexpected character")),
                None => Err(self.err("unexpected end of input")),
            }
        }

        fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value(depth + 1)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(self.err("expected ',' or ']'")),
                }
            }
        }

        fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
            self.expect(b'{')?;
            let mut pairs = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let val = self.value(depth + 1)?;
                pairs.push((key, val));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(self.err("expected ',' or '}'")),
                }
            }
        }

        fn string(&mut self) -> Result<String, ParseError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                self.pos += 1;
                                let c = self.unicode_escape()?;
                                out.push(c);
                                continue;
                            }
                            _ => return Err(self.err("bad escape")),
                        }
                        self.pos += 1;
                    }
                    Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                    Some(_) => {
                        let s = std::str::from_utf8(&self.bytes[self.pos..]).unwrap();
                        let c = s.chars().next().unwrap();
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn hex4(&mut self) -> Result<u32, ParseError> {
            if self.pos + 4 > self.bytes.len() {
                return Err(self.err("truncated \\u escape"));
            }
            let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                .map_err(|_| self.err("bad \\u escape"))?;
            let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
            self.pos += 4;
            Ok(v)
        }

        fn unicode_escape(&mut self) -> Result<char, ParseError> {
            let hi = self.hex4()?;
            if (0xD800..0xDC00).contains(&hi) {
                if self.bytes[self.pos..].starts_with(b"\\u") {
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if (0xDC00..0xE000).contains(&lo) {
                        let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        return char::from_u32(c).ok_or_else(|| self.err("bad surrogate pair"));
                    }
                }
                Err(self.err("lone surrogate"))
            } else if (0xDC00..0xE000).contains(&hi) {
                Err(self.err("lone surrogate"))
            } else {
                char::from_u32(hi).ok_or_else(|| self.err("bad \\u escape"))
            }
        }

        fn number(&mut self) -> Result<Json, ParseError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            let digits_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == digits_from {
                return Err(self.err("expected digits"));
            }
            if self.peek() == Some(b'.') {
                self.pos += 1;
                let frac_from = self.pos;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
                if self.pos == frac_from {
                    return Err(self.err("expected fraction digits"));
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                let exp_from = self.pos;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
                if self.pos == exp_from {
                    return Err(self.err("expected exponent digits"));
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| self.err("number out of range"))
        }
    }
}
