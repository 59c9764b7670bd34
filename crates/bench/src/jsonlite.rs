//! Minimal JSON for the perf-trajectory records
//! (`bench_results/BENCH_*.json`): one [`Value`] type, a strict reader
//! ([`parse`]) and a writer ([`render`]).
//!
//! The workspace has no registry access (no `serde_json`). A recorder
//! builds its record once, as a [`Value`] (with [`Object`] and the `From`
//! conversions), checks that value and renders it; the golden tests parse
//! the committed files back into the same type. The reader takes JSON and
//! nothing else: it refuses a duplicate key, a number JSON does not allow
//! (`+1`, `.5`, `5.`, `01`) and one `f64` cannot hold (`1e999`). The
//! writer refuses a non-finite number. Objects keep their key order.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object: its members in document order, each key once.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object, if this is an object containing `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// An object built member by member, in order:
/// `Object::new().with("simd", "scalar").with("threads", 2)`.
#[derive(Debug, Default)]
pub struct Object(Vec<(String, Value)>);

impl Object {
    /// An object with no members.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the member `key: value`.
    ///
    /// # Panics
    ///
    /// Panics when the object already has `key`: a record states each
    /// fact once.
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Self {
        let fresh = self.0.iter().all(|(k, _)| k != key);
        assert!(fresh, "duplicate key {key:?}");
        self.0.push((key.to_owned(), value.into()));
        self
    }
}

/// `From` conversions for the leaves of a record; counts are held as
/// `f64`, exact below 2^53.
macro_rules! from_leaf {
    ($($t:ty => |$x:ident| $value:expr,)+) => {$(
        impl From<$t> for Value {
            fn from($x: $t) -> Self {
                $value
            }
        }
    )+};
}
from_leaf! {
    Object => |object| Value::Obj(object.0),
    bool => |b| Value::Bool(b),
    f64 => |x| Value::Num(x),
    f32 => |x| Value::Num(f64::from(x)),
    u32 => |n| Value::Num(f64::from(n)),
    u64 => |n| Value::Num(n as f64),
    usize => |n| Value::Num(n as f64),
    u128 => |n| Value::Num(n as f64),
    &str => |s| Value::Str(s.to_owned()),
    String => |s| Value::Str(s),
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Renders `value` as JSON text, one line per member or element of a
/// container that holds objects, everything else inline.
///
/// # Errors
///
/// Names the path of the first non-finite number: JSON has no NaN or
/// infinity, and a record holding one measured nothing.
pub fn render(value: &Value) -> Result<String, String> {
    let mut out = String::new();
    write_value(&mut out, value, 0).map_err(|e| format!("${e}"))?;
    out.push('\n');
    Ok(out)
}

/// Whether `value` holds an object anywhere below it.
fn holds_objects(value: &Value) -> bool {
    let nested = |v: &Value| matches!(v, Value::Obj(_)) || holds_objects(v);
    match value {
        Value::Arr(items) => items.iter().any(nested),
        Value::Obj(members) => members.iter().any(|(_, v)| nested(v)),
        _ => false,
    }
}

fn write_value(out: &mut String, value: &Value, indent: usize) -> Result<(), String> {
    let (open, close, members): (char, char, Vec<(Option<&str>, &Value)>) = match value {
        Value::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
        Value::Obj(members) => (
            '{',
            '}',
            members.iter().map(|(k, v)| (Some(&**k), v)).collect(),
        ),
        leaf => return write_leaf(out, leaf),
    };
    let (line, end) = if holds_objects(value) {
        let at = |depth: usize| format!("\n{}", " ".repeat(depth));
        (at(indent + 2), at(indent))
    } else {
        (String::new(), String::new())
    };
    out.push(open);
    for (i, (key, member)) in members.into_iter().enumerate() {
        if i > 0 {
            out.push_str(if line.is_empty() { ", " } else { "," });
        }
        out.push_str(&line);
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        write_value(out, member, indent + 2).map_err(|e| match key {
            Some(key) => format!(".{key}{e}"),
            None => format!("[{i}]{e}"),
        })?;
    }
    out.push_str(&end);
    out.push(close);
    Ok(())
}

fn write_leaf(out: &mut String, leaf: &Value) -> Result<(), String> {
    match leaf {
        Value::Num(x) if !x.is_finite() => return Err(format!(" is {x}, not a finite number")),
        // The shortest text that reads back as `x`; exponent form far from 1.
        Value::Num(x) if *x != 0.0 && !(1e-4..1e16).contains(&x.abs()) => {
            out.push_str(&format!("{x:e}"));
        }
        Value::Num(x) => out.push_str(&x.to_string()),
        Value::Bool(b) => out.push_str(&b.to_string()),
        Value::Str(s) => write_str(out, s),
        _ => out.push_str("null"),
    }
    Ok(())
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            byte as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, finite as `f64`.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos - from
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int = (*pos, digits(pos));
    let mut json = int.1 == 1 || (int.1 > 1 && bytes[int.0] != b'0');
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        json &= digits(pos) > 0;
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        json &= digits(pos) > 0;
    }
    if *pos == start {
        let found = std::str::from_utf8(&bytes[start..]).ok();
        let found = found.and_then(|s| s.chars().next()).unwrap_or('\u{FFFD}');
        return Err(format!("unexpected {found:?} at byte {start}"));
    }
    let text = String::from_utf8_lossy(&bytes[start..*pos]);
    if !json {
        return Err(format!("number {text:?} at byte {start} is not JSON"));
    }
    match text.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(Value::Num(x)),
        _ => Err(format!("number {text} at byte {start} is out of f64 range")),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = bytes.get(*pos + 1..*pos + 5);
                        let hex = hex.and_then(|h| std::str::from_utf8(h).ok());
                        let code = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
                        let code = code.ok_or("bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => {
                return Err(format!(
                    "unescaped control character at byte {pos}",
                    pos = *pos
                ))
            }
            Some(_) => {
                // A run of plain text (multi-byte UTF-8 included) as is.
                let rest = &bytes[*pos..];
                let run = rest
                    .iter()
                    .position(|&b| matches!(b, b'"' | b'\\' | ..=0x1F));
                let run = &rest[..run.unwrap_or(rest.len())];
                out.push_str(std::str::from_utf8(run).map_err(|e| e.to_string())?);
                *pos += run.len();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            other => return Err(format!("expected ',' or ']' in array, found {other:?}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut members: Vec<(String, Value)> = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let at = *pos;
        let key = parse_string(bytes, pos)?;
        if members.iter().any(|(k, _)| *k == key) {
            return Err(format!("duplicate key {key:?} at byte {at}"));
        }
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            other => return Err(format!("expected ',' or '}}' in object, found {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v =
            parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\ny"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("[] trailing").is_err());
        assert!(parse(r#""unterminated"#).is_err());
        assert!(parse("12x3").is_err());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), Value::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Obj(vec![]));
    }

    #[test]
    fn unicode_and_escapes() {
        let v = parse(r#""café ✓""#).unwrap();
        assert_eq!(v.as_str(), Some("café ✓"));
    }

    #[test]
    fn a_duplicate_key_is_refused_not_overwritten() {
        let err = parse(r#"{"gate_passed": false, "gate_passed": true}"#).unwrap_err();
        assert!(err.contains("duplicate key \"gate_passed\""), "{err}");
    }

    #[test]
    #[should_panic(expected = "duplicate key \"threads\"")]
    fn the_builder_refuses_a_duplicate_key() {
        let _ = Object::new().with("threads", 2u32).with("threads", 1u32);
    }

    #[test]
    fn a_leading_plus_is_refused() {
        assert!(parse("+1").unwrap_err().contains("unexpected '+'"));
    }

    #[test]
    fn a_bare_fraction_is_refused() {
        assert!(parse(".5").unwrap_err().contains("is not JSON"));
    }

    #[test]
    fn a_trailing_point_is_refused() {
        assert!(parse("5.").unwrap_err().contains("is not JSON"));
        assert!(parse("[5.e3]").unwrap_err().contains("is not JSON"));
    }

    #[test]
    fn a_leading_zero_is_refused() {
        assert!(parse("01").unwrap_err().contains("is not JSON"));
        assert!(parse("-01.5").unwrap_err().contains("is not JSON"));
        assert_eq!(parse("-0.5e+1").unwrap(), Value::Num(-5.0));
        assert_eq!(parse("0").unwrap(), Value::Num(0.0));
    }

    #[test]
    fn an_overflowing_number_is_refused() {
        assert!(parse("1e999").unwrap_err().contains("out of f64 range"));
        assert!(parse("-1e999").unwrap_err().contains("out of f64 range"));
    }

    #[test]
    fn render_reads_back_as_the_same_value() {
        let v: Value = Object::new()
            .with(
                "host",
                Object::new().with("simd", "avx2+fma").with("threads", 2u32),
            )
            .with("escapes", "quote \" slash \\ / \n\r\t \u{1} \u{8}\u{c}")
            .with("text", "café ✓ 容量 🚀")
            .with(
                "numbers",
                vec![-3e-7, -0.5, 0.0, 6.02e23, 1e300, -2.5e-300, 0.1, 1e16],
            )
            .with("counts", vec![0u64, 1 << 52, u64::from(u32::MAX)])
            .with(
                "phases",
                vec![
                    Object::new().with("ledger", Object::new().with("shed", vec![0u64, 2, 20])),
                    Object::new().with("tiers", vec![Value::Null, Value::Bool(false)]),
                ],
            )
            .with(
                "nested",
                vec![
                    Value::Arr(vec![]),
                    Object::new().into(),
                    vec![1.5f32].into(),
                ],
            )
            .into();
        let text = render(&v).unwrap();
        assert_eq!(parse(&text).unwrap(), v, "{text}");
        // Containers of objects take a line per member; the rest stay inline.
        assert!(text.contains("\"host\": {\"simd\": \"avx2+fma\", \"threads\": 2},\n"));
        assert!(text.contains("6.02e23"), "{text}");
    }

    #[test]
    fn render_refuses_a_non_finite_number() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let phase = Object::new().with("offered_hz", bad);
            let v: Value = Object::new().with("phases", vec![phase]).into();
            let err = render(&v).unwrap_err();
            assert!(err.starts_with("$.phases[0].offered_hz is "), "{err}");
            assert!(render(&Value::Num(bad)).is_err());
        }
    }
}
