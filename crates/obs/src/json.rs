//! Minimal JSON support: a writer, a parser, and a schema-subset
//! validator.
//!
//! The workspace's offline `serde` stand-in provides marker traits
//! only — there is no `serde_json` — so report emission ([`write()`],
//! [`escape`]) and CI validation ([`parse`], [`validate`]) are
//! hand-rolled here. The parser accepts the JSON this crate emits (and
//! standard JSON generally); the validator understands the subset of
//! JSON Schema used by `schemas/run_report.schema.json`: `type`,
//! `required`, `properties`, `additionalProperties`, `items`,
//! `minimum`, and `enum`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (kept as f64; integers up to 2^53 round-trip).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (ordered by key).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup (`None` unless this is an object with the key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as u64, if integral and non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The object payload, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Append `s` to `out` as a JSON string literal (with quotes).
pub fn escape(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serialize a [`Json`] value compactly.
pub fn write(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                let _ = write!(out, "{}", *n as i64);
            } else {
                let _ = write!(out, "{}", n);
            }
        }
        Json::Str(s) => escape(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(out, item);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape(out, k);
                out.push(':');
                write(out, val);
            }
            out.push('}');
        }
    }
}

/// Parse a JSON document. Returns an error message with a byte offset
/// on malformed input.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{0008}'),
                        b'f' => s.push('\u{000c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogates are not emitted by this crate;
                            // map unpaired ones to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8")?;
                    let ch = rest.chars().next().unwrap();
                    s.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "invalid utf-8")?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {}", start))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Validate `doc` against `schema` (the JSON-Schema subset in the
/// module docs). Returns every violation as a `path: message` string;
/// empty means valid.
pub fn validate(doc: &Json, schema: &Json) -> Vec<String> {
    let mut errors = Vec::new();
    validate_at(doc, schema, "$", &mut errors);
    errors
}

fn type_name(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "boolean",
        Json::Num(n) if n.fract() == 0.0 => "integer",
        Json::Num(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

fn type_matches(v: &Json, want: &str) -> bool {
    match want {
        "number" => matches!(v, Json::Num(_)),
        "integer" => matches!(v, Json::Num(n) if n.fract() == 0.0),
        other => type_name(v) == other,
    }
}

fn validate_at(doc: &Json, schema: &Json, path: &str, errors: &mut Vec<String>) {
    let Some(schema_obj) = schema.as_obj() else {
        return; // `true`-like schema: everything validates
    };

    if let Some(want) = schema_obj.get("type").and_then(Json::as_str) {
        if !type_matches(doc, want) {
            errors.push(format!(
                "{}: expected {}, got {}",
                path,
                want,
                type_name(doc)
            ));
            return;
        }
    }

    if let Some(Json::Arr(allowed)) = schema_obj.get("enum") {
        if !allowed.contains(doc) {
            errors.push(format!("{}: value not in enum", path));
        }
    }

    if let Some(min) = schema_obj.get("minimum").and_then(Json::as_f64) {
        if let Some(n) = doc.as_f64() {
            if n < min {
                errors.push(format!("{}: {} below minimum {}", path, n, min));
            }
        }
    }

    if let Json::Obj(members) = doc {
        if let Some(Json::Arr(required)) = schema_obj.get("required") {
            for r in required {
                if let Some(name) = r.as_str() {
                    if !members.contains_key(name) {
                        errors.push(format!("{}: missing required member \"{}\"", path, name));
                    }
                }
            }
        }
        let props = schema_obj.get("properties").and_then(Json::as_obj);
        let additional = schema_obj.get("additionalProperties");
        for (k, v) in members {
            let child_path = format!("{}.{}", path, k);
            if let Some(prop_schema) = props.and_then(|p| p.get(k)) {
                validate_at(v, prop_schema, &child_path, errors);
            } else {
                match additional {
                    Some(Json::Bool(false)) => {
                        errors.push(format!("{}: unexpected member", child_path));
                    }
                    Some(s @ Json::Obj(_)) => validate_at(v, s, &child_path, errors),
                    _ => {}
                }
            }
        }
    }

    if let Json::Arr(items) = doc {
        if let Some(item_schema) = schema_obj.get("items") {
            for (i, item) in items.iter().enumerate() {
                validate_at(item, item_schema, &format!("{}[{}]", path, i), errors);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pairs: &[(&str, Json)]) -> Json {
        Json::Obj(
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn round_trips_values() {
        let v = obj(&[
            ("name", Json::Str("run \"x\"\n".into())),
            ("n", Json::Num(42.0)),
            ("f", Json::Num(1.5)),
            ("neg", Json::Num(-3.0)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            (
                "arr",
                Json::Arr(vec![Json::Num(1.0), Json::Str("two".into())]),
            ),
        ]);
        let mut s = String::new();
        write(&mut s, &v);
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v = parse(" { \"a\" : [ 1 , { \"b\" : null } ] } ").unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), obj(&[("b", Json::Null)])])
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn escapes_control_characters() {
        let mut s = String::new();
        escape(&mut s, "a\u{0001}b");
        assert_eq!(s, "\"a\\u0001b\"");
        assert_eq!(parse(&s).unwrap(), Json::Str("a\u{0001}b".into()));
    }

    #[test]
    fn validator_checks_types_required_and_extras() {
        let schema = parse(
            r#"{
              "type": "object",
              "required": ["name", "count"],
              "properties": {
                "name": {"type": "string"},
                "count": {"type": "integer", "minimum": 0},
                "hists": {
                  "type": "object",
                  "additionalProperties": {
                    "type": "object",
                    "required": ["count"],
                    "properties": {"count": {"type": "integer"}}
                  }
                }
              },
              "additionalProperties": false
            }"#,
        )
        .unwrap();

        let good = parse(r#"{"name":"x","count":3,"hists":{"h":{"count":1}}}"#).unwrap();
        assert!(validate(&good, &schema).is_empty());

        let missing = parse(r#"{"name":"x"}"#).unwrap();
        assert!(validate(&missing, &schema)
            .iter()
            .any(|e| e.contains("count")));

        let wrong_type = parse(r#"{"name":7,"count":3}"#).unwrap();
        assert!(validate(&wrong_type, &schema)
            .iter()
            .any(|e| e.contains("expected string")));

        let extra = parse(r#"{"name":"x","count":3,"zzz":1}"#).unwrap();
        assert!(validate(&extra, &schema)
            .iter()
            .any(|e| e.contains("unexpected member")));

        let negative = parse(r#"{"name":"x","count":-1}"#).unwrap();
        assert!(validate(&negative, &schema)
            .iter()
            .any(|e| e.contains("below minimum")));

        let bad_hist = parse(r#"{"name":"x","count":1,"hists":{"h":{}}}"#).unwrap();
        assert!(validate(&bad_hist, &schema)
            .iter()
            .any(|e| e.contains("missing required")));
    }
}
