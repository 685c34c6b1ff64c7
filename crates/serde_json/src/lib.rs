//! A minimal, std-only JSON tree + serializer exposing the subset of the
//! `serde_json` crate's surface this workspace uses: [`Value`], [`Map`],
//! the [`json!`] macro, `as_array`/`as_u64`-style accessors, indexing by
//! key, and [`to_string_pretty`].
//!
//! The build environment has no crates.io access, so the real `serde_json`
//! (and the `serde` derive machinery it rides on) cannot be fetched; this
//! local crate shadows it via a workspace path dependency. Instead of a
//! `Serialize` trait with derives, conversion goes through the object-safe
//! [`ToJson`] trait — types that want to be dumped implement `to_json`
//! by hand (see `bench::Experiment`).

#![warn(missing_docs)]

use std::fmt;

/// A JSON document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object (insertion-ordered).
    Object(Map),
}

/// An insertion-ordered string→value map, mirroring `serde_json::Map`
/// with the `preserve_order` feature (stable output for diffing).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// An empty map.
    pub fn new() -> Map {
        Map::default()
    }

    /// Insert, replacing (in place) any existing entry for `key`.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Look up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

static NULL: Value = Value::Null;

impl Value {
    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The map if this is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(n) => Some(n),
            Value::I64(n) => u64::try_from(n).ok(),
            _ => None,
        }
    }

    /// The value as a signed integer, if representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::I64(n) => Some(n),
            Value::U64(n) => i64::try_from(n).ok(),
            _ => None,
        }
    }

    /// The value as a float (integers convert losslessly enough).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::F64(x) => Some(x),
            Value::U64(n) => Some(n as f64),
            Value::I64(n) => Some(n as f64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        match self {
            Value::Object(m) => m.get(key).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

/// Conversion into a [`Value`] — the stand-in for `serde::Serialize`.
pub trait ToJson {
    /// Build the JSON tree for `self`.
    fn to_json(&self) -> Value;
}

/// Convert any [`ToJson`] value into a [`Value`] (used by [`json!`]).
pub fn to_value<T: ToJson + ?Sized>(value: &T) -> Value {
    value.to_json()
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

macro_rules! impl_to_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
    )*};
}
impl_to_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_to_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                let n = *self as i64;
                if n >= 0 { Value::U64(n as u64) } else { Value::I64(n) }
            }
        }
    )*};
}
impl_to_json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::F64(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(|v| v.to_json()).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        self.as_slice().to_json()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

/// Serialization error (kept for signature compatibility; writing a
/// [`Value`] to a string cannot fail).
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("json serialization error")
    }
}

impl std::error::Error for Error {}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn number_into(out: &mut String, x: f64) {
    if x.is_finite() {
        out.push_str(&format!("{x}"));
    } else {
        // JSON has no NaN/Infinity; serde_json refuses them earlier, at
        // Number construction. Emitting null keeps the output parseable.
        out.push_str("null");
    }
}

fn write_value(out: &mut String, v: &Value, indent: usize, pretty: bool) {
    let (nl, pad, pad_in) = if pretty {
        ("\n", "  ".repeat(indent), "  ".repeat(indent + 1))
    } else {
        ("", String::new(), String::new())
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => number_into(out, *x),
        Value::String(s) => escape_into(out, s),
        Value::Array(a) => {
            if a.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, e) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                write_value(out, e, indent + 1, pretty);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(m) => {
            if m.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, e)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                escape_into(out, k);
                out.push(':');
                if pretty {
                    out.push(' ');
                }
                write_value(out, e, indent + 1, pretty);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push('}');
        }
    }
}

/// Serialize compactly.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_json(), 0, false);
    Ok(out)
}

/// Serialize with two-space indentation, like `serde_json`.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_json(), 0, true);
    Ok(out)
}

/// Parse error with a byte offset, mirroring `serde_json::Error`'s role
/// in `from_str` signatures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset the error was detected at.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected `{}`", b as char))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            self.err(format!("expected `{lit}`"))
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let Some(b) = self.peek() else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(e) = self.peek() else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    match e {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            let Some(code) = hex else {
                                return self.err("bad \\u escape");
                            };
                            self.pos += 4;
                            // Surrogate pairs are not produced by our
                            // serializer; map lone surrogates to U+FFFD.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                _ => {
                    // Re-sync to char boundary for multi-byte UTF-8.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && self.bytes[end] & 0xC0 == 0x80 {
                        end += 1;
                    }
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(frag) => {
                            s.push_str(frag);
                            self.pos = end;
                        }
                        Err(_) => return self.err("invalid UTF-8"),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        if text.is_empty() || text == "-" {
            return self.err("expected a number");
        }
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) => Ok(Value::F64(x)),
            Err(_) => self.err("malformed number"),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > 128 {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut a = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(a));
                }
                loop {
                    a.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(a));
                        }
                        _ => return self.err("expected `,` or `]`"),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut m = Map::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(m));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let v = self.value(depth + 1)?;
                    m.insert(key, v);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(m));
                        }
                        _ => return self.err("expected `,` or `}`"),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.err("unexpected character"),
            None => self.err("unexpected end of input"),
        }
    }
}

/// Parse a JSON document into a [`Value`] — the reader half of the shim,
/// enough to round-trip anything the serializer emits (used to validate
/// the bench JSON artifacts and the trace JSONL streams).
pub fn from_str(s: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters after document");
    }
    Ok(v)
}

/// Build a [`Value`] from a JSON-like literal, mirroring `serde_json::json!`:
/// object/array literals nest, and any other expression goes through
/// [`ToJson`] by reference.
#[macro_export]
macro_rules! json {
    ($($tt:tt)+) => { $crate::json_internal!($($tt)+) };
}

/// Recursive token muncher behind [`json!`] (implementation detail).
#[macro_export]
#[doc(hidden)]
macro_rules! json_internal {
    //////////////// arrays ////////////////
    (@array [$($elems:expr,)*]) => {
        vec![$($elems,)*]
    };
    (@array [$($elems:expr),*]) => {
        vec![$($elems),*]
    };
    (@array [$($elems:expr,)*] null $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(null)] $($rest)*)
    };
    (@array [$($elems:expr,)*] true $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(true)] $($rest)*)
    };
    (@array [$($elems:expr,)*] false $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(false)] $($rest)*)
    };
    (@array [$($elems:expr,)*] [$($array:tt)*] $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!([$($array)*])] $($rest)*)
    };
    (@array [$($elems:expr,)*] {$($map:tt)*} $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!({$($map)*})] $($rest)*)
    };
    (@array [$($elems:expr,)*] $next:expr, $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($next),] $($rest)*)
    };
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($last)])
    };
    (@array [$($elems:expr),*] , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)*] $($rest)*)
    };
    //////////////// objects ////////////////
    (@object $object:ident () () ()) => {};
    (@object $object:ident [$($key:tt)+] ($value:expr) , $($rest:tt)*) => {
        let _ = $object.insert(($($key)+).into(), $value);
        $crate::json_internal!(@object $object () ($($rest)*) ($($rest)*));
    };
    (@object $object:ident [$($key:tt)+] ($value:expr)) => {
        let _ = $object.insert(($($key)+).into(), $value);
    };
    (@object $object:ident ($($key:tt)+) (: null $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(null)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: true $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(true)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: false $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(false)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: [$($array:tt)*] $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!([$($array)*])) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: {$($map:tt)*} $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!({$($map)*})) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr , $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)) , $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)));
    };
    (@object $object:ident () (($key:expr) : $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object ($key) (: $($rest)*) (: $($rest)*));
    };
    (@object $object:ident ($($key:tt)*) ($tt:tt $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object ($($key)* $tt) ($($rest)*) ($($rest)*));
    };
    //////////////// primary ////////////////
    (null) => {
        $crate::Value::Null
    };
    (true) => {
        $crate::Value::Bool(true)
    };
    (false) => {
        $crate::Value::Bool(false)
    };
    ([]) => {
        $crate::Value::Array(vec![])
    };
    ([ $($tt:tt)+ ]) => {
        $crate::Value::Array($crate::json_internal!(@array [] $($tt)+))
    };
    ({}) => {
        $crate::Value::Object($crate::Map::new())
    };
    ({ $($tt:tt)+ }) => {
        $crate::Value::Object({
            let mut object = $crate::Map::new();
            $crate::json_internal!(@object object () ($($tt)+) ($($tt)+));
            object
        })
    };
    ($other:expr) => {
        $crate::to_value(&$other)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_and_nesting() {
        let name = String::from("alu");
        let ids: Vec<&str> = vec!["a", "b"];
        let v = json!({
            "name": name,
            "pct": 92.5,
            "count": 17u32,
            "ids": ids,
            "inner": { "ok": true, "cycles": 3393u64 },
            "rows": [ {"k": 1}, {"k": 2} ],
            "nothing": null,
        });
        assert_eq!(v["name"].as_str(), Some("alu"));
        assert_eq!(v["pct"].as_f64(), Some(92.5));
        assert_eq!(v["count"].as_u64(), Some(17));
        assert_eq!(v["inner"]["cycles"].as_u64(), Some(3393));
        assert_eq!(v["rows"].as_array().unwrap().len(), 2);
        assert_eq!(v["rows"][1]["k"].as_u64(), Some(2));
        assert_eq!(v["nothing"], Value::Null);
        assert_eq!(v["missing"], Value::Null);
    }

    #[test]
    fn array_of_objects() {
        let v = json!([
            {"class": "Functional", "priority": "High"},
            {"class": "Hidden", "priority": "Low"},
        ]);
        let rows = v.as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1]["class"].as_str(), Some("Hidden"));
    }

    #[test]
    fn pretty_output_is_stable() {
        let v = json!({"a": 1, "s": "x\"y\n", "l": [1, 2]});
        let s = to_string_pretty(&v).unwrap();
        assert_eq!(
            s,
            "{\n  \"a\": 1,\n  \"s\": \"x\\\"y\\n\",\n  \"l\": [\n    1,\n    2\n  ]\n}"
        );
        assert_eq!(
            to_string(&v).unwrap(),
            "{\"a\":1,\"s\":\"x\\\"y\\n\",\"l\":[1,2]}"
        );
    }

    #[test]
    fn map_preserves_insertion_order_and_replaces() {
        let mut m = Map::new();
        m.insert("z".into(), json!(1));
        m.insert("a".into(), json!(2));
        m.insert("z".into(), json!(3));
        let keys: Vec<&String> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["z", "a"]);
        assert_eq!(m.get("z").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn negative_and_float_numbers() {
        let v = json!({"n": -4i64, "f": 0.5f64});
        assert_eq!(v["n"].as_i64(), Some(-4));
        assert_eq!(to_string(&v["f"]).unwrap(), "0.5");
    }

    #[test]
    fn parser_round_trips_serializer_output() {
        let v = json!({
            "name": "ALU test \"quoted\"\nline",
            "pct": 92.5,
            "neg": -17i64,
            "big": 18_446_744_073_709_551_615u64,
            "rows": [{"k": 1, "ok": true}, {"k": 2, "ok": false}],
            "nested": {"empty_a": [], "empty_o": {}, "x": null},
        });
        for s in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            let back = from_str(&s).expect("parses");
            assert_eq!(back, v, "round trip changed the document");
        }
    }

    #[test]
    fn parser_handles_whitespace_and_unicode() {
        let v = from_str(" {\n \"k\" :\t[ 1 , 2.5 , \"\\u0041µ\" ] } ").unwrap();
        assert_eq!(v["k"][0].as_u64(), Some(1));
        assert_eq!(v["k"][1].as_f64(), Some(2.5));
        assert_eq!(v["k"][2].as_str(), Some("Aµ"));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "{'a':1}",
            "[1,]",
        ] {
            assert!(from_str(bad).is_err(), "accepted malformed `{bad}`");
        }
    }
}
