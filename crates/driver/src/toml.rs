//! A hand-rolled parser for the TOML subset scenario configs use.
//!
//! The environment is offline (no `toml`/`serde` crates), so this
//! implements exactly what declarative scenario files need: `[section]`
//! headers, `key = value` pairs, `#` comments, and scalar values (quoted
//! strings, booleans, integers, floats) plus flat arrays of scalars.
//! Nested tables, dotted keys, dates, and multi-line strings are out of
//! scope and rejected with a line-numbered error.

use std::collections::BTreeMap;

/// A parsed scalar or flat array value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Quoted string.
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// Integer literal (no decimal point or exponent).
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// Flat array of scalars, e.g. `[0.0, 0.0, -4.0]`.
    Array(Vec<Value>),
}

impl Value {
    /// Numeric view: integers widen to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Non-negative integer view. Whole-number floats coerce (`3.0` → 3),
    /// so a stray decimal point in a config does not silently fall back
    /// to the scenario default.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Int(i) if *i >= 0 => Some(*i as usize),
            Value::Float(f) if *f >= 0.0 && f.fract() == 0.0 && *f < u32::MAX as f64 => {
                Some(*f as usize)
            }
            _ => None,
        }
    }
}

/// A parsed document: sections of key/value pairs. Keys before the first
/// `[section]` header land in the root section `""`.
///
/// The typed `*_or` lookups are lenient: a missing key or a
/// type-mismatched value falls back to the caller's default. They serve
/// sections whose readers check nothing else (the benchmark's `[workload]`
/// and `[perturb]`). Scenario sections and a farm manifest's own keys are
/// read strictly instead (see [`crate::scenario`] and [`crate::Manifest`]):
/// there a mistyped value or an unknown key is an error.
#[derive(Clone, Debug, Default)]
pub struct Doc {
    sections: BTreeMap<String, BTreeMap<String, Value>>,
}

impl Doc {
    /// Parses a document, rejecting anything outside the supported subset.
    pub fn parse(text: &str) -> Result<Doc, String> {
        let mut doc = Doc::default();
        let mut section = String::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            let err = |m: &str| format!("line {}: {m}: `{}`", lineno + 1, raw.trim());
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| err("unterminated section"))?;
                let name = name.trim();
                if name.is_empty() || name.contains(['[', ']', '.']) {
                    return Err(err("unsupported section name"));
                }
                section = name.to_string();
                doc.sections.entry(section.clone()).or_default();
            } else if let Some(eq) = find_unquoted(&line, '=') {
                let key = line[..eq].trim();
                if key.is_empty() || key.contains(['.', ' ', '"']) {
                    return Err(err("unsupported key"));
                }
                let value = parse_value(line[eq + 1..].trim()).map_err(|m| err(&m))?;
                doc.sections
                    .entry(section.clone())
                    .or_default()
                    .insert(key.to_string(), value);
            } else {
                return Err(err("expected `[section]` or `key = value`"));
            }
        }
        Ok(doc)
    }

    /// Raw lookup.
    pub fn get(&self, section: &str, key: &str) -> Option<&Value> {
        self.sections.get(section).and_then(|s| s.get(key))
    }

    /// Inserts/overwrites a value (used for CLI `--set` overrides).
    pub fn set(&mut self, section: &str, key: &str, value: Value) {
        self.sections
            .entry(section.to_string())
            .or_default()
            .insert(key.to_string(), value);
    }

    /// Numeric lookup with a default.
    pub fn f64_or(&self, section: &str, key: &str, default: f64) -> f64 {
        self.get(section, key)
            .and_then(Value::as_f64)
            .unwrap_or(default)
    }

    /// Integer lookup with a default.
    pub fn usize_or(&self, section: &str, key: &str, default: usize) -> usize {
        self.get(section, key)
            .and_then(Value::as_usize)
            .unwrap_or(default)
    }

    /// String lookup with a default.
    pub fn str_or<'a>(&'a self, section: &str, key: &str, default: &'a str) -> &'a str {
        match self.get(section, key) {
            Some(Value::Str(s)) => s,
            _ => default,
        }
    }

    /// Keys present in a section (for diagnostics).
    pub fn keys(&self, section: &str) -> Vec<&str> {
        self.sections
            .get(section)
            .map(|s| s.keys().map(String::as_str).collect())
            .unwrap_or_default()
    }
}

/// Drops a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Index of `target` outside of quotes.
fn find_unquoted(line: &str, target: char) -> Option<usize> {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            c if c == target && !in_str => return Some(i),
            _ => {}
        }
    }
    None
}

fn parse_value(s: &str) -> Result<Value, String> {
    if s.is_empty() {
        return Err("missing value".into());
    }
    if let Some(rest) = s.strip_prefix('"') {
        let inner = rest.strip_suffix('"').ok_or("unterminated string")?;
        if inner.contains('"') {
            return Err("embedded quotes are unsupported".into());
        }
        // single left-to-right scan — chained replace() would mis-decode
        // a literal backslash followed by 'n' or 't'
        let mut unescaped = String::with_capacity(inner.len());
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                unescaped.push(c);
                continue;
            }
            match chars.next() {
                Some('n') => unescaped.push('\n'),
                Some('t') => unescaped.push('\t'),
                Some('\\') => unescaped.push('\\'),
                other => {
                    return Err(format!(
                        "unsupported escape `\\{}` (only \\n, \\t, \\\\)",
                        other.map(String::from).unwrap_or_default()
                    ))
                }
            }
        }
        return Ok(Value::Str(unescaped));
    }
    if let Some(rest) = s.strip_prefix('[') {
        let inner = rest.strip_suffix(']').ok_or("unterminated array")?;
        let mut items = Vec::new();
        let trimmed = inner.trim();
        if !trimmed.is_empty() {
            for item in trimmed.split(',') {
                let v = parse_value(item.trim())?;
                if matches!(v, Value::Array(_)) {
                    return Err("nested arrays are unsupported".into());
                }
                items.push(v);
            }
        }
        return Ok(Value::Array(items));
    }
    match s {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    let clean = s.replace('_', "");
    if !clean.contains(['.', 'e', 'E']) {
        if let Ok(i) = clean.parse::<i64>() {
            return Ok(Value::Int(i));
        }
    }
    if let Ok(f) = clean.parse::<f64>() {
        return Ok(Value::Float(f));
    }
    Err(format!(
        "unsupported value `{s}` (expected string, bool, number, or array)"
    ))
}

/// Parses a CLI `key=value` override into `(key, Value)`, inferring the
/// type the same way the file parser does (bare words become strings).
pub fn parse_override(s: &str) -> Result<(String, Value), String> {
    let (key, raw) = s
        .split_once('=')
        .ok_or_else(|| format!("`{s}`: expected key=value"))?;
    let key = key.trim().to_string();
    if key.is_empty() {
        return Err(format!("`{s}`: empty key"));
    }
    let raw = raw.trim();
    let value = parse_value(raw).unwrap_or_else(|_| Value::Str(raw.to_string()));
    Ok((key, value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_scalars_and_arrays() {
        let doc = Doc::parse(
            r#"
# scenario config
title = "dense # run"   # inline comment
[shear_pair]
order = 12
dt = 2e-2
shear_rate = 1.0
enabled = true
gravity = [0.0, 0.0, -4.0]
label = "two-cell"
big = 1_000
"#,
        )
        .unwrap();
        assert_eq!(doc.str_or("", "title", ""), "dense # run");
        assert_eq!(doc.usize_or("shear_pair", "order", 0), 12);
        assert!((doc.f64_or("shear_pair", "dt", 0.0) - 0.02).abs() < 1e-15);
        assert_eq!(doc.get("shear_pair", "enabled"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("shear_pair", "big").unwrap().as_f64(), Some(1000.0));
        match doc.get("shear_pair", "gravity").unwrap() {
            Value::Array(v) => {
                assert_eq!(v.len(), 3);
                assert_eq!(v[2].as_f64(), Some(-4.0));
            }
            other => panic!("expected array, got {other:?}"),
        }
        // defaults for absent keys
        assert_eq!(doc.usize_or("shear_pair", "missing", 7), 7);
        assert_eq!(doc.f64_or("nosection", "dt", 0.5), 0.5);
    }

    #[test]
    fn string_escapes_decode_left_to_right() {
        // `a\\nb` in the file is a literal backslash then 'n', NOT a newline
        let doc = Doc::parse("x = \"a\\\\nb\"\ny = \"tab\\there\"\nz = \"nl\\nend\"\n").unwrap();
        assert_eq!(doc.str_or("", "x", ""), "a\\nb");
        assert_eq!(doc.str_or("", "y", ""), "tab\there");
        assert_eq!(doc.str_or("", "z", ""), "nl\nend");
        assert!(Doc::parse("q = \"bad\\q\"\n").is_err(), "unknown escape");
        assert!(
            Doc::parse("q = \"trail\\\"\n").is_err(),
            "trailing backslash"
        );
        // whole-number floats coerce to usize (config typo tolerance)
        let doc = Doc::parse("n = 3.0\nm = 3.5\n").unwrap();
        assert_eq!(doc.usize_or("", "n", 0), 3);
        assert_eq!(doc.usize_or("", "m", 9), 9, "fractional floats fall back");
    }

    #[test]
    fn rejects_out_of_subset_syntax() {
        assert!(Doc::parse("[a.b]\n").is_err(), "dotted sections");
        assert!(Doc::parse("a.b = 1\n").is_err(), "dotted keys");
        assert!(Doc::parse("x = \"unterminated\n").is_err());
        assert!(Doc::parse("x = [1, [2]]\n").is_err(), "nested arrays");
        assert!(Doc::parse("just a line\n").is_err());
        assert!(Doc::parse("x = 1979-05-27\n").is_err(), "dates");
        // the error carries the line number
        let e = Doc::parse("ok = 1\nbad line\n").unwrap_err();
        assert!(e.contains("line 2"), "{e}");
    }

    #[test]
    fn overrides_parse_like_file_values() {
        let (k, v) = parse_override("dt=0.05").unwrap();
        assert_eq!(k, "dt");
        assert_eq!(v, Value::Float(0.05));
        let (_, v) = parse_override("label=fast").unwrap();
        assert_eq!(v, Value::Str("fast".into()));
        let (_, v) = parse_override("n=3").unwrap();
        assert_eq!(v, Value::Int(3));
        assert!(parse_override("nokey").is_err());
    }

    #[test]
    fn set_overrides_file_values() {
        let mut doc = Doc::parse("[s]\ndt = 0.1\n").unwrap();
        doc.set("s", "dt", Value::Float(0.2));
        assert_eq!(doc.f64_or("s", "dt", 0.0), 0.2);
        assert_eq!(doc.keys("s"), vec!["dt"]);
    }
}
