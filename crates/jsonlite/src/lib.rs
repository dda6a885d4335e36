//! # jsonlite — dependency-free JSON for the McCuckoo workspace
//!
//! The workspace serialises three kinds of values: table snapshots
//! (`mccuckoo-core`'s persist module), configurations (`McConfig` and
//! the hash-family/deletion-mode enums) and per-operation reports
//! (`mem-model`). All of them are plain structs with named fields and
//! unit-variant enums, so a full serde stack is unnecessary — this crate
//! provides a [`Json`] value type, a strict parser, a writer, and two
//! conversion traits ([`ToJson`] / [`FromJson`]) together with
//! declarative macros ([`impl_json_struct!`] / [`impl_json_enum!`]) that
//! derive the impls.
//!
//! Design notes:
//!
//! * Integers are kept exact: `Json` distinguishes `U64`, `I64` and
//!   `F64`, so 64-bit hash seeds round-trip bit-for-bit (an `f64`-only
//!   model would silently corrupt seeds above 2^53).
//! * Object fields keep insertion order (`Vec<(String, Json)>`), which
//!   makes output deterministic — important for golden files and for the
//!   testkit's replayable failure reports.
//! * The parser is strict UTF-8 JSON with the usual escape set; unknown
//!   object fields are ignored on decode so snapshot formats can grow.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integer (the common case for counters and seeds).
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Anything with a fraction or exponent.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, field order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a field of an object by name.
    pub fn get(&self, field: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == field).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Decoding error: expectation + the offending fragment.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "jsonlite: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

// ---------------------------------------------------------------------
// Conversion traits
// ---------------------------------------------------------------------

/// Types that can render themselves as a [`Json`] value.
pub trait ToJson {
    /// Build the JSON representation.
    fn to_json(&self) -> Json;

    /// Append the compact JSON text of `self` to `out`. Must produce
    /// exactly the bytes of `write_value(&self.to_json(), out)`, which
    /// is the default; hot types override it to skip the value tree.
    fn write_json(&self, out: &mut String) {
        write_value(&self.to_json(), out);
    }
}

/// Types that can be rebuilt from a [`Json`] value.
pub trait FromJson: Sized {
    /// Parse from a JSON value.
    fn from_json(j: &Json) -> Result<Self, JsonError>;
}

/// Encode any [`ToJson`] value to a compact JSON string.
pub fn to_string<T: ToJson + ?Sized>(v: &T) -> String {
    let mut out = String::new();
    v.write_json(&mut out);
    out
}

/// Decode a [`FromJson`] value from a JSON string.
pub fn from_str<T: FromJson>(s: &str) -> Result<T, JsonError> {
    let j = parse(s)?;
    T::from_json(&j)
}

/// Parse a string into a [`Json`] value (rejecting trailing garbage).
pub fn parse(s: &str) -> Result<Json, JsonError> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return err(format!("trailing characters at byte {pos}"));
    }
    Ok(v)
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Append the compact text of a [`Json`] value to `out` — the writer
/// behind [`to_string`] and the reference every [`ToJson::write_json`]
/// override must match byte for byte.
pub fn write_value(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::U64(n) => write_u64(*n, out),
        Json::I64(n) => write_i64(*n, out),
        Json::F64(x) => {
            if x.is_finite() {
                let s = x.to_string();
                out.push_str(&s);
                // `5f64.to_string()` prints "5"; keep it a float token so
                // decode returns F64 again.
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                // JSON has no Inf/NaN; null is the conventional stand-in.
                out.push_str("null");
            }
        }
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

/// Decimal digits of `n`, formatted on the stack.
fn write_u64(mut n: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

fn write_i64(n: i64, out: &mut String) {
    if n < 0 {
        out.push('-');
    }
    write_u64(n.unsigned_abs(), out);
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => err("unexpected end of input"),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(b, pos)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => err(format!("unexpected byte {c:#x} at {pos}")),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if b.get(*pos) != Some(&b'"') {
        return err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return err("unterminated string"),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0C}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| JsonError("non-ascii \\u escape".into()))?;
                        let mut cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError("bad \\u escape".into()))?;
                        *pos += 4;
                        // Surrogate pair?
                        if (0xD800..0xDC00).contains(&cp)
                            && b.get(*pos + 1) == Some(&b'\\')
                            && b.get(*pos + 2) == Some(&b'u')
                        {
                            if let Some(hex2) = b.get(*pos + 3..*pos + 7) {
                                if let Ok(low) =
                                    u32::from_str_radix(std::str::from_utf8(hex2).unwrap_or(""), 16)
                                {
                                    if (0xDC00..0xE000).contains(&low) {
                                        cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                        *pos += 6;
                                    }
                                }
                            }
                        }
                        out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                    }
                    _ => return err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is safe
                // to do bytewise by finding the char boundary).
                let start = *pos;
                let mut end = start + 1;
                while end < b.len() && (b[end] & 0xC0) == 0x80 {
                    end += 1;
                }
                out.push_str(
                    std::str::from_utf8(&b[start..end]).map_err(|_| {
                        JsonError(format!("invalid utf-8 in string at byte {start}"))
                    })?,
                );
                *pos = end;
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).unwrap();
    if float {
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| JsonError(format!("bad number '{text}'")))
    } else if text.starts_with('-') {
        text.parse::<i64>()
            .map(Json::I64)
            .map_err(|_| JsonError(format!("bad integer '{text}'")))
    } else {
        text.parse::<u64>()
            .map(Json::U64)
            .map_err(|_| JsonError(format!("bad integer '{text}'")))
    }
}

// ---------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------

macro_rules! impl_json_uint {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json { Json::U64(*self as u64) }
            fn write_json(&self, out: &mut String) { write_u64(*self as u64, out) }
        }
        impl FromJson for $t {
            fn from_json(j: &Json) -> Result<Self, JsonError> {
                match j {
                    Json::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| JsonError(format!("{n} out of range for {}", stringify!($t)))),
                    Json::I64(n) => <$t>::try_from(*n)
                        .map_err(|_| JsonError(format!("{n} out of range for {}", stringify!($t)))),
                    other => err(format!("expected integer, got {other:?}")),
                }
            }
        }
    )+};
}
impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_sint {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let v = *self as i64;
                if v >= 0 { Json::U64(v as u64) } else { Json::I64(v) }
            }
            fn write_json(&self, out: &mut String) { write_i64(*self as i64, out) }
        }
        impl FromJson for $t {
            fn from_json(j: &Json) -> Result<Self, JsonError> {
                match j {
                    Json::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| JsonError(format!("{n} out of range for {}", stringify!($t)))),
                    Json::I64(n) => <$t>::try_from(*n)
                        .map_err(|_| JsonError(format!("{n} out of range for {}", stringify!($t)))),
                    other => err(format!("expected integer, got {other:?}")),
                }
            }
        }
    )+};
}
impl_json_sint!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::F64(x) => Ok(*x),
            Json::U64(n) => Ok(*n as f64),
            Json::I64(n) => Ok(*n as f64),
            other => err(format!("expected number, got {other:?}")),
        }
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::F64(*self as f64)
    }
}

impl FromJson for f32 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        f64::from_json(j).map(|x| x as f32)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Bool(b) => Ok(*b),
            other => err(format!("expected bool, got {other:?}")),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Str(s) => Ok(s.clone()),
            other => err(format!("expected string, got {other:?}")),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Arr(items) => items.iter().map(T::from_json).collect(),
            other => err(format!("expected array, got {other:?}")),
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Arr(items) if items.len() == 2 => {
                Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
            }
            other => err(format!("expected 2-element array, got {other:?}")),
        }
    }
}

impl<K: ToJson, V: ToJson> ToJson for HashMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(|(k, v)| (k, v).to_json()).collect())
    }
}

impl<K: ToJson, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(|(k, v)| (k, v).to_json()).collect())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out)
    }
}

// ---------------------------------------------------------------------
// Derive macros
// ---------------------------------------------------------------------

/// Implement [`ToJson`] + [`FromJson`] for a struct with named fields.
///
/// ```
/// # use jsonlite::impl_json_struct;
/// #[derive(Debug, PartialEq)]
/// struct P { x: u32, y: String }
/// impl_json_struct!(P { x, y });
/// let p = P { x: 3, y: "hi".into() };
/// let s = jsonlite::to_string(&p);
/// assert_eq!(jsonlite::from_str::<P>(&s).unwrap(), p);
/// ```
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Obj(vec![
                    $((stringify!($field).to_owned(), $crate::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(j: &$crate::Json) -> Result<Self, $crate::JsonError> {
                Ok($ty {
                    $($field: $crate::FromJson::from_json(j.get(stringify!($field)).ok_or_else(
                        || $crate::JsonError(format!(
                            "missing field '{}' on {}", stringify!($field), stringify!($ty)
                        )),
                    )?)?,)+
                })
            }
        }
    };
}

/// Implement [`ToJson`] + [`FromJson`] for an enum of unit variants,
/// encoded as the variant-name string (serde's default representation).
///
/// ```
/// # use jsonlite::impl_json_enum;
/// #[derive(Debug, PartialEq)]
/// enum Mode { A, B }
/// impl_json_enum!(Mode { A, B });
/// assert_eq!(jsonlite::to_string(&Mode::B), "\"B\"");
/// assert_eq!(jsonlite::from_str::<Mode>("\"A\"").unwrap(), Mode::A);
/// ```
#[macro_export]
macro_rules! impl_json_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Str(
                    match self { $($ty::$variant => stringify!($variant),)+ }.to_owned(),
                )
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(j: &$crate::Json) -> Result<Self, $crate::JsonError> {
                match j {
                    $($crate::Json::Str(s) if s == stringify!($variant) => Ok($ty::$variant),)+
                    other => Err($crate::JsonError(format!(
                        "invalid {} variant: {other:?}", stringify!($ty)
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(to_string(&42u64), "42");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(from_str::<i32>("-7").unwrap(), -7);
        assert_eq!(from_str::<f64>("2.5").unwrap(), 2.5);
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(from_str::<String>("\"a\\nb\"").unwrap(), "a\nb");
    }

    #[test]
    fn integer_writers_match_the_value_tree() {
        fn check<T: ToJson>(v: T) {
            let mut tree = String::new();
            write_value(&v.to_json(), &mut tree);
            let mut direct = String::new();
            v.write_json(&mut direct);
            assert_eq!(direct, tree);
            assert_eq!(to_string(&v), tree);
        }
        for n in [0u64, 1, 9, 10, 99, 100, 12_345, u64::MAX / 10, u64::MAX] {
            check(n);
            check(n as usize);
            check(n as u32);
            check(n as u8);
        }
        for n in [0i64, -1, 1, -10, 10, -987_654_321, i64::MIN, i64::MAX] {
            check(n);
            check(n as i32);
            check(n as i8);
        }
        // `&T` forwards to `T`'s writer.
        let by_ref: &u16 = &7;
        check(by_ref);
    }

    #[test]
    fn u64_seeds_are_exact() {
        // Above 2^53: an f64-backed model would corrupt this.
        let seed = u64::MAX - 3;
        let s = to_string(&seed);
        assert_eq!(from_str::<u64>(&s).unwrap(), seed);
    }

    #[test]
    fn float_tokens_stay_floats() {
        let s = to_string(&5.0f64);
        assert_eq!(s, "5.0");
        assert_eq!(from_str::<f64>(&s).unwrap(), 5.0);
    }

    #[test]
    fn vec_and_pairs() {
        let v: Vec<(u64, String)> = vec![(1, "one".into()), (2, "two".into())];
        let s = to_string(&v);
        assert_eq!(from_str::<Vec<(u64, String)>>(&s).unwrap(), v);
    }

    #[test]
    fn struct_and_enum_macros() {
        #[derive(Debug, PartialEq)]
        struct Demo {
            n: usize,
            label: String,
            flag: bool,
        }
        impl_json_struct!(Demo { n, label, flag });
        #[derive(Debug, PartialEq)]
        enum Kind {
            Alpha,
            Beta,
        }
        impl_json_enum!(Kind { Alpha, Beta });

        let d = Demo {
            n: 9,
            label: "x\"y".into(),
            flag: false,
        };
        let s = to_string(&d);
        assert_eq!(from_str::<Demo>(&s).unwrap(), d);
        assert_eq!(from_str::<Kind>("\"Beta\"").unwrap(), Kind::Beta);
        assert!(from_str::<Kind>("\"Gamma\"").is_err());
    }

    #[test]
    fn unknown_fields_ignored_missing_fields_error() {
        #[derive(Debug, PartialEq)]
        struct One {
            a: u32,
        }
        impl_json_struct!(One { a });
        assert_eq!(
            from_str::<One>("{\"a\":1,\"zzz\":true}").unwrap(),
            One { a: 1 }
        );
        assert!(from_str::<One>("{}").is_err());
    }

    #[test]
    fn strict_trailing_garbage() {
        assert!(parse("1 2").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":}").is_err());
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(from_str::<String>("\"\\u00e9\"").unwrap(), "é");
        assert_eq!(from_str::<String>("\"\\ud83d\\ude00\"").unwrap(), "😀");
        let s = to_string(&"π😀".to_string());
        assert_eq!(from_str::<String>(&s).unwrap(), "π😀");
    }
}
