//! A small JSON parser/serializer shared by the run-log sink, the
//! `pge report` reader, and the `/v1/score` wire protocol.
//! [`parse`] builds a [`Json`] tree; [`parse_records`] drives the same
//! parser over an array of flat records and builds only the records.
//!
//! The build environment is offline, so there is no serde; this
//! implements RFC 8259 minus two liberties we don't need to take:
//! numbers are parsed as `f64`, and `\u` escapes outside the BMP must
//! come as surrogate pairs (lone surrogates are rejected).

use std::borrow::Cow;
use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Value of `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Serialization: `Display` renders compact JSON.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.is_finite() {
                    write!(f, "{n}")
                } else {
                    // JSON has no Inf/NaN; null is the conventional fallback.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Write `s` as a JSON string literal. Each run of characters that
/// needs no escape goes out in one `write_str`; every escaped
/// character is ASCII, so the runs end on char boundaries.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | ..=0x1f) {
            continue;
        }
        f.write_str(&s[run..i])?;
        match b {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            _ => write!(f, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse one JSON document. Linear in `text.len()`: string bodies are
/// copied one unescaped run at a time, never re-validated.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser::new(text);
    p.skip_ws();
    let v = p.value(0)?;
    p.end()?;
    Ok(v)
}

/// Why [`parse_records`] refused a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordsError {
    /// Not JSON: exactly the error [`parse`] returns.
    Syntax(ParseError),
    /// Valid JSON that is not an array.
    NotArray,
    /// Valid JSON whose element at this index is the first that is not
    /// an object with a string under every key.
    Record(usize),
}

/// Decode a JSON array of objects straight into `T`s: `make` gets each
/// element's string values under `keys`, in `keys` order. Other
/// members are parsed and dropped; a kept value is copied once, and a
/// member's key not at all.
///
/// The answer is the one [`parse`] followed by [`Json::get`] and
/// [`Json::as_str`] per element would give: the same errors at the
/// same offsets, a syntax error anywhere before any shape fault, the
/// first occurrence of a repeated key, and the same depth limit.
pub fn parse_records<T, const N: usize>(
    text: &str,
    keys: [&str; N],
    mut make: impl FnMut([String; N]) -> T,
) -> Result<Vec<T>, RecordsError> {
    let mut p = Parser::new(text);
    p.skip_ws();
    let mut out = Vec::new();
    // The first shape fault. It stands only once the whole document
    // has parsed, so later elements are still checked, just not built.
    let mut fault = None;
    if p.peek() == Some(b'[') {
        let mut index = 0;
        p.list(b']', |p| {
            if fault.is_none() {
                match p.record(&keys)? {
                    Some(fields) => out.push(make(fields)),
                    None => fault = Some(RecordsError::Record(index)),
                }
            } else {
                p.value(1)?;
            }
            index += 1;
            Ok(())
        })
        .map_err(RecordsError::Syntax)?;
    } else {
        fault = Some(RecordsError::NotArray);
        p.value(0).map_err(RecordsError::Syntax)?;
    }
    p.end().map_err(RecordsError::Syntax)?;
    match fault {
        Some(fault) => Err(fault),
        None => Ok(out),
    }
}

const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    /// The input; `bytes` is the same memory, for byte-wise scanning.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

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

    /// After the document's one value, only whitespace may follow.
    fn end(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing data"));
        }
        Ok(())
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
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                self.list(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.list(b'}', |p| {
                    let key = p.key()?.into_owned();
                    pairs.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Json::Obj(pairs))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Walk the `[...]` or `{...}` whose opener is next, calling
    /// `each` once per element or member.
    fn list(
        &mut self,
        close: u8,
        mut each: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            each(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ if close == b']' => return Err(self.err("expected ',' or ']'")),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// An object member's key and its `:`; the value is next.
    fn key(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(key)
    }

    /// One element of [`parse_records`]' array (depth 1): the string
    /// under each of `keys` if it is an object that has them all, as
    /// [`Json::get`] finds them; `None` otherwise. The element is
    /// checked to its end either way.
    fn record<const N: usize>(
        &mut self,
        keys: &[&str; N],
    ) -> Result<Option<[String; N]>, ParseError> {
        if self.peek() != Some(b'{') {
            self.value(1)?;
            return Ok(None);
        }
        let mut seen = [false; N];
        let mut fields: [Option<String>; N] = std::array::from_fn(|_| None);
        self.list(b'}', |p| {
            let key = p.key()?;
            if let Some(k) = keys.iter().position(|k| *k == key) {
                // Only a key's first occurrence counts.
                if !std::mem::replace(&mut seen[k], true) && p.peek() == Some(b'"') {
                    fields[k] = Some(p.string()?.into_owned());
                    return Ok(());
                }
            }
            p.value(2).map(drop)
        })?;
        Ok(fields
            .iter()
            .all(Option::is_some)
            .then(|| fields.map(Option::unwrap_or_default)))
    }

    /// A string literal, borrowed from the input when it holds no
    /// escape.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let text = self.text;
        let mut out = String::new();
        loop {
            // The longest run that needs no decoding. Its stop bytes
            // are all ASCII, so the run ends on a char boundary and the
            // slice is already valid UTF-8.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - self.pos);
            let chunk = &text[self.pos..self.pos + run];
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    // Every escape pushes a char, so an empty `out`
                    // means this is the first and only run.
                    if out.is_empty() {
                        return Ok(Cow::Borrowed(chunk));
                    }
                    out.push_str(chunk);
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    out.push_str(chunk);
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
                Some(_) => return Err(self.err("control character in string")),
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
            // High surrogate: require the low half.
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
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("number out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"items":[{"t":"chips","n":1}, 2, "x"],"ok":true}"#).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        let items = v.get("items").unwrap().as_array().unwrap();
        assert_eq!(items[0].get("t").unwrap().as_str(), Some("chips"));
        assert_eq!(items[1].as_f64(), Some(2.0));
    }

    #[test]
    fn escapes_round_trip() {
        let original = Json::Str("a\"b\\c\nd\te\u{1}é€😀".into());
        let rendered = original.to_string();
        assert_eq!(parse(&rendered).unwrap(), original);
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\udc00x""#).is_err());
    }

    #[test]
    fn rejects_malformed() {
        // Offsets and messages are part of the wire protocol: the
        // serving tiers echo them in their 400 bodies.
        for (bad, offset, message) in [
            ("", 0, "unexpected end of input"),
            ("{", 1, "expected '\"'"),
            ("[1,", 3, "unexpected end of input"),
            ("tru", 0, "expected 'true'"),
            ("01x", 2, "trailing data"),
            ("\"abc", 4, "unterminated string"),
            ("{\"a\":}", 5, "unexpected character"),
            ("[1 2]", 3, "expected ',' or ']'"),
            ("1 2", 2, "trailing data"),
            ("{\"a\" 1}", 5, "expected ':'"),
            ("nul", 0, "expected 'null'"),
            ("+1", 0, "unexpected character"),
            ("1.", 2, "expected fraction digits"),
            ("1e", 2, "expected exponent digits"),
            ("\u{1}", 0, "unexpected character"),
            ("\"a\u{1}b\"", 2, "control character in string"),
            ("[\"ok\", \"tab\there\"]", 11, "control character in string"),
            ("\"\\x\"", 2, "bad escape"),
            ("\"é€\\", 7, "bad escape"),
            ("\"\\u12\"", 3, "truncated \\u escape"),
            ("\"\\u00g0\"", 3, "bad \\u escape"),
            ("\"\\ud83d\"", 7, "lone surrogate"),
            ("\"\\udc00x\"", 7, "lone surrogate"),
        ] {
            let e = parse(bad).expect_err(bad);
            assert_eq!((e.offset, e.message.as_str()), (offset, message), "{bad:?}");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A quadratic decoder takes hours on this; a linear one takes
        // well under a second even unoptimised.
        let unit = "é€😀 plain ascii ";
        let body = unit.repeat((4 << 20) / unit.len() + 1);
        let doc = format!("[\"{body}\"]");
        let t0 = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let took = t0.elapsed();
        assert_eq!(v.as_array().unwrap()[0].as_str(), Some(body.as_str()));
        assert!(took.as_secs_f64() < 2.0, "4 MiB string took {took:?}");
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let s = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&s).is_err());
        let ok = "[".repeat(20) + &"]".repeat(20);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn float_display_round_trips_f32() {
        for &x in &[1.25f32, -0.33333334, 1e-20, 3.4e38, 0.1] {
            let j = Json::Num(x as f64).to_string();
            let back = parse(&j).unwrap().as_f64().unwrap() as f32;
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {j}");
        }
    }

    const KEYS: [&str; 3] = ["title", "attr", "value"];

    fn records(text: &str) -> Result<Vec<[String; 3]>, RecordsError> {
        parse_records(text, KEYS, |fields| fields)
    }

    #[test]
    fn records_pull_string_fields_in_key_order() {
        let got = records(
            r#" [{"value":"v","extra":{"title":1,"x":[null,true,-1e3]},"attr":"a","title":"t"},
                 {"ti\u0074le":"é\n","attr":"","value":"😀","title":"second"}] "#,
        )
        .unwrap();
        assert_eq!(
            got,
            [
                ["t".to_string(), "a".into(), "v".into()],
                ["é\n".to_string(), "".into(), "😀".into()],
            ]
        );
        assert_eq!(records("[]"), Ok(vec![]));
    }

    #[test]
    fn records_fault_like_tree_and_get() {
        use RecordsError::*;
        let syntax = |text: &str| Syntax(parse(text).unwrap_err());
        for (text, want) in [
            // The first occurrence of a key wins, even when it is not a
            // string and a later one is.
            (
                r#"[{"title":1,"title":"t","attr":"a","value":"v"}]"#,
                Record(0),
            ),
            (r#"[{"title":"t","attr":"a","value":"v"},[],{}]"#, Record(1)),
            (r#"[{"title":"t","attr":"a","value":"v"},"x"]"#, Record(1)),
            (r#"[{"title":"t","attr":"a"}]"#, Record(0)),
            (r#"{"title":"t","attr":"a","value":"v"}"#, NotArray),
            ("\"[]\"", NotArray),
            ("null", NotArray),
            // A syntax error anywhere wins over an earlier shape fault.
            (
                r#"[{"title":1},{"title":"\x"}]"#,
                syntax(r#"[{"title":1},{"title":"\x"}]"#),
            ),
            (r#"[{"title":1}] x"#, syntax(r#"[{"title":1}] x"#)),
            (r#"{"a":1"#, syntax(r#"{"a":1"#)),
            ("", syntax("")),
            (
                "[{",
                Syntax(ParseError {
                    offset: 2,
                    message: "expected '\"'".into(),
                }),
            ),
        ] {
            assert_eq!(records(text), Err(want), "{text:?}");
        }
    }

    #[test]
    fn records_keep_the_depth_limit() {
        // Depth counts from the top-level array (0), so a member value
        // sits at 2; `parse` refuses the same documents at the same
        // byte.
        for n in [62, 63, 64, 100] {
            let deep = "[".repeat(n) + &"]".repeat(n);
            for doc in [
                format!("[{{\"title\":{deep},\"attr\":\"a\",\"value\":\"v\"}}]"),
                format!("[{deep}]"),
                format!("{{\"k\":{deep}}}"),
            ] {
                let want = match parse(&doc) {
                    Err(e) => Err(RecordsError::Syntax(e)),
                    Ok(Json::Arr(_)) => Err(RecordsError::Record(0)),
                    Ok(_) => Err(RecordsError::NotArray),
                };
                assert_eq!(records(&doc), want, "depth {n}: {doc}");
            }
        }
    }

    #[test]
    fn nonfinite_numbers_render_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }
}
