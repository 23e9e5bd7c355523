//! The little JSON the harness needs: a writer for its result line and
//! `reference.json`, and a reader for `reference.json`, `BENCHMARK.json` and
//! the result lines of the child runs of `--aa`.
//!
//! The workspace's own JSON codecs are private to `igr-campaign` and
//! `igr-perf`, and the harness may not change them, so it carries its own.

/// `s` as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// `x` as a JSON number with every digit needed to read it back exactly.
/// JSON has no NaN or infinity; the harness never reports one, so meeting
/// one is a bug in the measurement, not something to encode.
pub fn number(x: f64) -> String {
    assert!(x.is_finite(), "non-finite value {x} cannot be reported");
    let s = format!("{x:?}");
    debug_assert!(s.parse::<f64>().ok() == Some(x));
    s
}

/// Metric, workload and layer names: `[A-Za-z0-9_.-]`, 1 to 64 characters,
/// starting with a letter or digit (the contract `BENCHMARK.json` is read
/// under).
pub fn valid_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(ok)
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

/// A parsed JSON value. Objects keep their key order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn parse(text: &str) -> Result<Value, String> {
        let b = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(v) => Some(v),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at offset {pos}"))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(b, pos, "null").map(|()| Value::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Value::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Value::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            loop {
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                if !items.is_empty() {
                    expect(b, pos, ",")?;
                }
                items.push(parse_value(b, pos)?);
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            loop {
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                if !fields.is_empty() {
                    expect(b, pos, ",")?;
                    skip_ws(b, pos);
                }
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                fields.push((key, parse_value(b, pos)?));
            }
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'+' | b'-' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Value::Num)
                .ok_or_else(|| format!("bad number at offset {start}"))
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected a string at offset {pos}"));
    }
    *pos += 1;
    let mut out = Vec::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|e| e.to_string());
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' | b'\\' | b'/' => out.push(esc),
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'b' => out.push(8),
                    b'f' => out.push(12),
                    b'u' => {
                        let hex = b.get(*pos..*pos + 4).ok_or("short \\u escape")?;
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or("bad \\u escape")?;
                        *pos += 4;
                        out.extend_from_slice(code.encode_utf8(&mut [0; 4]).as_bytes());
                    }
                    other => return Err(format!("unknown escape \\{}", other as char)),
                }
            }
            Some(&c) => {
                out.push(c);
                *pos += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_and_read_back() {
        let nasty = "a\"b\\c\nd\te\u{1}f µs";
        let lit = string(nasty);
        assert_eq!(lit, "\"a\\\"b\\\\c\\nd\\te\\u0001f µs\"");
        assert_eq!(Value::parse(&lit).unwrap(), Value::Str(nasty.into()));
    }

    #[test]
    fn numbers_keep_every_digit() {
        for x in [0.1 + 0.2, 1.0, 37.123456789012345, 1e-9, 6.02e23, -4.5] {
            let back = Value::parse(&number(x)).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_is_refused() {
        number(f64::NAN);
    }

    #[test]
    fn name_charset_matches_the_contract() {
        for good in [
            "grind_ns",
            "igr-prec.f16_unpack_ns_per_elem",
            "jet3d_fp32",
            "4x",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in ["", "a b", "a/b", "µs", "_x", ".x", "-x", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn objects_and_arrays_parse_in_order() {
        let v = Value::parse(r#" {"a": [1, 2.5, true, null], "b": {"c": "d"}} "#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].as_bool(), Some(true));
        assert_eq!(a[3], Value::Null);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("d"));
        assert_eq!(v.as_object().unwrap()[0].0, "a");
        assert!(Value::parse("{\"a\": 1} x").is_err());
        assert!(Value::parse("[1, 2").is_err());
    }
}
