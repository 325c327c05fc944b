//! Minimal JSON value type with a renderer and parser.
//!
//! The workspace vendors `serde` as a marker-trait stub (the build is
//! fully offline), so the JSONL trace schema is implemented against
//! this small, dependency-free value type instead.  Design points:
//!
//! - Integers get their own variants ([`Json::UInt`] / [`Json::Int`])
//!   so 64-bit seeds and counters round-trip exactly instead of being
//!   squeezed through `f64`.
//! - Non-finite floats render as `null` (JSON has no NaN/inf).
//! - Object keys keep insertion order; the schema relies on a stable
//!   field order for golden-file tests.
//! - [`FlatObject`] reads one object's top-level fields without
//!   building a tree, for line types that arrive by the million; it
//!   shares the lexer with [`Json::parse`], so both accept the same
//!   text.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Non-negative integer (u64-exact).
    UInt(u64),
    /// Negative integer (i64-exact).
    Int(i64),
    /// Any other number.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object builder: `Json::obj([("k", Json::UInt(1))])`.
    pub fn obj<I, K>(fields: I) -> Json
    where
        I: IntoIterator<Item = (K, Json)>,
        K: Into<String>,
    {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Look up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::UInt(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// Numeric coercion: integers widen to `f64`, `null` reads as NaN
    /// (the inverse of the render-side NaN → `null` mapping).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::UInt(n) => Some(*n as f64),
            Json::Int(n) => Some(*n as f64),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Required typed accessors for schema decoding.
    pub fn req(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError(format!("missing field `{key}`")))
    }

    pub fn req_str(&self, key: &str) -> Result<&str, JsonError> {
        self.req(key)?
            .as_str()
            .ok_or_else(|| JsonError(format!("field `{key}` is not a string")))
    }

    pub fn req_u64(&self, key: &str) -> Result<u64, JsonError> {
        self.req(key)?
            .as_u64()
            .ok_or_else(|| JsonError(format!("field `{key}` is not a u64")))
    }

    pub fn req_f64(&self, key: &str) -> Result<f64, JsonError> {
        self.req(key)?
            .as_f64()
            .ok_or_else(|| JsonError(format!("field `{key}` is not a number")))
    }

    pub fn req_bool(&self, key: &str) -> Result<bool, JsonError> {
        self.req(key)?
            .as_bool()
            .ok_or_else(|| JsonError(format!("field `{key}` is not a bool")))
    }

    /// Render to a compact single-line string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Append the compact single-line rendering to `out`.
    pub fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => render_u64(*n, out),
            Json::Int(n) => write!(out, "{n}").expect("writing to a String cannot fail"),
            Json::Num(x) => render_f64(*x, out),
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document.
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let mut p = Parser { src: s, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.end()?;
        Ok(v)
    }
}

/// Append a decimal integer.
pub fn render_u64(mut n: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ascii digits"));
}

/// Append a float: shortest round-trip digits, always with a point or
/// exponent so it reads back as a float; non-finite becomes `null`.
pub fn render_f64(x: f64, out: &mut String) {
    if !x.is_finite() {
        return out.push_str("null");
    }
    let start = out.len();
    write!(out, "{x}").expect("writing to a String cannot fail");
    // `{}` prints integral floats without a point; keep them
    // distinguishable from integers.
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Append a quoted, escaped string.
pub fn render_str(s: &str, out: &mut String) {
    out.push('"');
    // Most strings (every schema name) need no escape: copy them whole.
    let plain = |b: u8| b >= 0x20 && b != b'"' && b != b'\\';
    let escaped_from = s.bytes().position(|b| !plain(b)).unwrap_or(s.len());
    out.push_str(&s[..escaped_from]);
    for c in s[escaped_from..].chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn truncate(s: &str) -> &str {
    let end = s.char_indices().nth(60).map(|(i, _)| i).unwrap_or(s.len());
    &s[..end]
}

/// Parse or schema-decode failure, with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

/// A top-level field value of a [`FlatObject`]: scalars by value,
/// strings borrowed from the line unless an escape forced a copy.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar<'a> {
    Null,
    Bool(bool),
    UInt(u64),
    Int(i64),
    Num(f64),
    Str(Cow<'a, str>),
    /// An array or object: checked for well-formedness, not kept.
    Nested,
}

impl Scalar<'_> {
    fn into_json(self) -> Json {
        match self {
            Scalar::Null => Json::Null,
            Scalar::Bool(b) => Json::Bool(b),
            Scalar::UInt(n) => Json::UInt(n),
            Scalar::Int(n) => Json::Int(n),
            Scalar::Num(x) => Json::Num(x),
            Scalar::Str(s) => Json::Str(s.into_owned()),
            Scalar::Nested => unreachable!("the lexer builds nested values as `Json`"),
        }
    }
}

/// The top-level fields of one JSON object, read in a single pass
/// with nothing allocated per field; one `FlatObject` is meant to be
/// [`scan`](Self::scan)ned over line after line. The `req_*`
/// accessors mirror [`Json`]'s (first duplicate key wins, integers
/// widen to `f64`, `null` reads as NaN).
#[derive(Debug, Default)]
pub struct FlatObject<'a> {
    fields: Vec<(Cow<'a, str>, Scalar<'a>)>,
}

impl<'a> FlatObject<'a> {
    /// Replace the fields with those of `line`, which must hold
    /// exactly one JSON object.
    pub fn scan(&mut self, line: &'a str) -> Result<(), JsonError> {
        self.fields.clear();
        let mut p = Parser { src: line, pos: 0 };
        p.skip_ws();
        p.members(|p, key| {
            let value = match p.peek() {
                Some(b'[' | b'{') => p.value().map(|_| Scalar::Nested)?,
                _ => p.scalar()?,
            };
            self.fields.push((key, value));
            Ok(())
        })?;
        p.end()
    }

    pub fn get(&self, key: &str) -> Option<&Scalar<'a>> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn req(&self, key: &str) -> Result<&Scalar<'a>, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError(format!("missing field `{key}`")))
    }

    pub fn req_str(&self, key: &str) -> Result<&str, JsonError> {
        match self.req(key)? {
            Scalar::Str(s) => Ok(s),
            _ => Err(JsonError(format!("field `{key}` is not a string"))),
        }
    }

    /// A non-negative integer that fits `T`; a wider value is an
    /// error, never a wrap.
    pub fn req_uint<T: TryFrom<u64>>(&self, key: &str) -> Result<T, JsonError> {
        let n = match *self.req(key)? {
            Scalar::UInt(n) => Some(n),
            Scalar::Int(n) => u64::try_from(n).ok(),
            _ => None,
        };
        let n = n.ok_or_else(|| JsonError(format!("field `{key}` is not a u64")))?;
        T::try_from(n).map_err(|_| JsonError(format!("field `{key}` is out of range: {n}")))
    }

    pub fn req_f64(&self, key: &str) -> Result<f64, JsonError> {
        match *self.req(key)? {
            Scalar::Num(x) => Ok(x),
            Scalar::UInt(n) => Ok(n as f64),
            Scalar::Int(n) => Ok(n as f64),
            Scalar::Null => Ok(f64::NAN),
            _ => Err(JsonError(format!("field `{key}` is not a number"))),
        }
    }

    pub fn req_bool(&self, key: &str) -> Result<bool, JsonError> {
        match *self.req(key)? {
            Scalar::Bool(b) => Ok(b),
            _ => Err(JsonError(format!("field `{key}` is not a bool"))),
        }
    }
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    /// Only whitespace may follow the document.
    fn end(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.src.len() {
            return Ok(());
        }
        Err(JsonError(format!(
            "trailing garbage at byte {} of {:?}",
            self.pos,
            truncate(self.src)
        )))
    }

    fn literal<T>(&mut self, word: &str, v: T) -> Result<T, JsonError> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(JsonError(format!("bad literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'[') => self.array(),
            Some(b'{') => {
                let mut fields = Vec::new();
                self.members(|p, key| {
                    fields.push((key.into_owned(), p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            _ => self.scalar().map(Scalar::into_json),
        }
    }

    fn scalar(&mut self) -> Result<Scalar<'a>, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Scalar::Null),
            Some(b't') => self.literal("true", Scalar::Bool(true)),
            Some(b'f') => self.literal("false", Scalar::Bool(false)),
            Some(b'"') => self.string().map(Scalar::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(JsonError(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let mut out = Cow::Borrowed("");
        loop {
            // The plain span ends at an ASCII byte, so on a character
            // boundary.
            let rest = &self.src[self.pos..];
            let plain = rest
                .bytes()
                .position(|b| matches!(b, b'"' | b'\\'))
                .ok_or_else(|| JsonError("unterminated string".into()))?;
            if out.is_empty() {
                out = Cow::Borrowed(&rest[..plain]);
            } else {
                out.to_mut().push_str(&rest[..plain]);
            }
            self.pos += plain + 1;
            if rest.as_bytes()[plain] == b'"' {
                return Ok(out);
            }
            let esc = self
                .peek()
                .ok_or_else(|| JsonError("eof in escape".into()))?;
            self.pos += 1;
            out.to_mut().push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    let hex = self.src.get(self.pos..self.pos + 4);
                    let hex = hex.ok_or_else(|| JsonError("eof in \\u escape".into()))?;
                    let cp = u32::from_str_radix(hex, 16)
                        .map_err(|_| JsonError("bad \\u escape".into()))?;
                    self.pos += 4;
                    // Surrogate pairs are not produced by our
                    // renderer; map lone surrogates to U+FFFD.
                    char::from_u32(cp).unwrap_or('\u{fffd}')
                }
                other => return Err(JsonError(format!("bad escape `\\{}`", other as char))),
            });
        }
    }

    fn number(&mut self) -> Result<Scalar<'a>, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        if !float {
            if text.starts_with('-') {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Scalar::Int(i));
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Scalar::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Scalar::Num)
            .map_err(|_| JsonError(format!("bad number `{text}`")))
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        let mut items = Vec::new();
        self.sequence(b'[', b']', "array", |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    /// One object: calls `member` after each `"key" :`, positioned at
    /// the value, which it must consume.
    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.sequence(b'{', b'}', "object", |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            member(p, key)
        })
    }

    /// `open close`, or `open item (, item)* close`; `item` consumes one.
    fn sequence(
        &mut self,
        open: u8,
        close: u8,
        what: &str,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(JsonError(format!("bad {what} at byte {}", self.pos))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::UInt(0),
            Json::UInt(u64::MAX),
            Json::Int(-1),
            Json::Int(i64::MIN),
            Json::Num(0.5),
            Json::Num(-2.25e-8),
            Json::Num(3.0),
            Json::str("hi \"there\"\nline2\\slash"),
        ] {
            let rendered = v.render();
            let back = Json::parse(&rendered).unwrap();
            assert_eq!(back, v, "via {rendered}");
        }
    }

    #[test]
    fn u64_seed_survives_exactly() {
        let seed = 0xdead_beef_cafe_f00d_u64;
        let doc = Json::obj([("seed", Json::UInt(seed))]).render();
        let back = Json::parse(&doc).unwrap();
        assert_eq!(back.req_u64("seed").unwrap(), seed);
    }

    #[test]
    fn non_finite_renders_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        // And null coerces back to NaN through the f64 accessor.
        assert!(Json::Null.as_f64().unwrap().is_nan());
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::obj([
            ("type", Json::str("trace")),
            (
                "items",
                Json::Arr(vec![
                    Json::obj([("a", Json::UInt(1)), ("b", Json::Num(0.125))]),
                    Json::Arr(vec![]),
                    Json::Obj(vec![]),
                ]),
            ),
        ]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn parses_foreign_whitespace_and_escapes() {
        let v = Json::parse(" { \"k\" : [ 1 , -2 , 3.5, \"\\u0041\" ] } ").unwrap();
        assert_eq!(
            v.get("k").unwrap().as_arr().unwrap(),
            &[Json::UInt(1), Json::Int(-2), Json::Num(3.5), Json::str("A")]
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn flat_object_borrows_and_agrees_with_the_tree() {
        let line = " {\"type\":\"sched\", \"n\" : 7, \"neg\":-0, \"x\":1e3, \"none\":null, \
                    \"esc\":\"a\\u0041\\n\", \"deep\":{\"n\":[1,{\"n\":2}]}, \"ok\":true, \"n\":8} ";
        let mut obj = FlatObject::default();
        obj.scan(line).unwrap();
        let tree = Json::parse(line).unwrap();
        assert!(matches!(
            obj.get("type"),
            Some(Scalar::Str(Cow::Borrowed("sched")))
        ));
        assert!(matches!(obj.get("esc"), Some(Scalar::Str(Cow::Owned(s))) if s == "aA\n"));
        assert_eq!(obj.get("deep"), Some(&Scalar::Nested));
        // First duplicate wins, as `Json::get`.
        assert_eq!(obj.req_uint::<u64>("n"), tree.req_u64("n"));
        assert_eq!(obj.req_uint::<u8>("n"), Ok(7));
        assert_eq!(obj.req_uint::<u64>("neg"), tree.req_u64("neg"));
        assert_eq!(obj.req_f64("x"), tree.req_f64("x"));
        assert_eq!(obj.req_f64("n"), Ok(7.0));
        assert!(obj.req_f64("none").unwrap().is_nan());
        assert_eq!(obj.req_bool("ok"), Ok(true));
        assert_eq!(obj.req_str("esc"), tree.req_str("esc"));
        for (err, tree_err) in [
            (
                obj.req_str("n").unwrap_err(),
                tree.req_str("n").unwrap_err(),
            ),
            (
                obj.req_bool("x").unwrap_err(),
                tree.req_bool("x").unwrap_err(),
            ),
            (
                obj.req_f64("type").unwrap_err(),
                tree.req_f64("type").unwrap_err(),
            ),
            (
                obj.req_uint::<u64>("x").unwrap_err(),
                tree.req_u64("x").unwrap_err(),
            ),
            (
                obj.req_uint::<u64>("deep").unwrap_err(),
                tree.req_u64("deep").unwrap_err(),
            ),
            (obj.req("gone").unwrap_err(), tree.req("gone").unwrap_err()),
        ] {
            assert_eq!(err, tree_err);
        }
        // A rescan forgets the previous line.
        obj.scan("{\"n\":300}").unwrap();
        assert!(obj.get("type").is_none());
        let err = obj.req_uint::<u8>("n").unwrap_err();
        assert!(err.0.contains("`n` is out of range"), "{err}");
    }

    #[test]
    fn flat_object_rejects_what_the_tree_parser_rejects() {
        let mut obj = FlatObject::default();
        for bad in [
            "",
            "[1]",
            "7",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":[1,]}",
            "{\"a\":1} x",
            "{\"a\":1}{\"a\":1}",
            "{\"a\":\"open}",
            "{\"a\":\"\\q\"}",
            "{\"a\":1-2}",
            "{a:1}",
        ] {
            assert!(obj.scan(bad).is_err(), "accepted {bad:?}");
            assert!(
                Json::parse(bad).is_err() || !bad.starts_with('{'),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn float_never_renders_as_integer() {
        // An f64 that happens to be integral still parses back as Num.
        let v = Json::Num(42.0);
        assert_eq!(v.render(), "42.0");
        assert_eq!(Json::parse("42.0").unwrap(), v);
    }
}
