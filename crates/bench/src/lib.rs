//! # pbdmm-bench
//!
//! Shared utilities for the experiment harness (`src/bin/experiments.rs`)
//! and the Criterion benches: fixed-width table rendering, simple regression
//! fits (for "is this curve flat / linear / cubic?" judgments), and wall
//! clock helpers. Each experiment (E1–E15) is regenerated by one harness
//! subcommand; the utilities here keep their output uniform.

#![warn(missing_docs)]

use std::time::Instant;

/// A fixed-width text table, printed as the harness's primary output.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n## {}\n\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {:>w$} |", c, w = w));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Render and print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Time a closure, returning `(result, seconds)`.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// A minimal benchmark group: warm up once, sample a closure N times, and
/// print min/mean wall-clock (plus throughput when an element count is
/// given). The std-only stand-in for Criterion used by every `benches/`
/// target (the container has no third-party crates); `cargo bench` runs
/// these as plain `harness = false` binaries.
pub struct BenchGroup {
    table: Table,
    samples: usize,
}

impl BenchGroup {
    /// Start a group with the default sample count (10, or
    /// `PBDMM_BENCH_SAMPLES`).
    pub fn new(name: &str) -> Self {
        let samples = std::env::var("PBDMM_BENCH_SAMPLES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(10);
        BenchGroup {
            table: Table::new(
                name,
                &["benchmark", "samples", "min ms", "mean ms", "elems/s"],
            ),
            samples,
        }
    }

    /// Override the per-benchmark sample count.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.samples = n.max(1);
        self
    }

    /// Measure one closure. `throughput` is an optional element count per
    /// iteration (prints elements/second based on the mean).
    pub fn bench<T>(&mut self, id: &str, throughput: Option<u64>, mut f: impl FnMut() -> T) {
        std::hint::black_box(f()); // warm-up
        let mut secs = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            std::hint::black_box(f());
            secs.push(start.elapsed().as_secs_f64());
        }
        let min = secs.iter().copied().fold(f64::INFINITY, f64::min);
        let mean = secs.iter().sum::<f64>() / secs.len() as f64;
        let eps = throughput
            .map(|n| fmt_f(n as f64 / mean))
            .unwrap_or_else(|| "-".into());
        self.table.row(&[
            id.to_string(),
            self.samples.to_string(),
            fmt_f(min * 1e3),
            fmt_f(mean * 1e3),
            eps,
        ]);
    }

    /// Print the group's results.
    pub fn finish(self) {
        self.table.print();
    }
}

pub mod metrics;

/// Minimal JSON support for the benchmark pipeline (std-only — the workspace
/// has no serde). Only what the bench artifacts need: objects, arrays,
/// strings, and finite numbers.
pub mod json {
    use std::collections::BTreeMap;

    /// A JSON value. Objects use [`BTreeMap`] so output is deterministic.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// A JSON string.
        Str(String),
        /// A finite number.
        Num(f64),
        /// An array.
        Arr(Vec<Value>),
        /// An object with sorted keys.
        Obj(BTreeMap<String, Value>),
    }

    impl Value {
        /// Read this value as a number.
        pub fn as_num(&self) -> Option<f64> {
            match self {
                Value::Num(x) => Some(*x),
                _ => None,
            }
        }

        /// Read this value as an object.
        pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
            match self {
                Value::Obj(m) => Some(m),
                _ => None,
            }
        }

        /// Read this value as an array.
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }

        /// Fetch `key` from an object value.
        pub fn get(&self, key: &str) -> Option<&Value> {
            self.as_obj().and_then(|m| m.get(key))
        }

        /// Serialize with two-space indentation (stable key order).
        pub fn render(&self) -> String {
            let mut out = String::new();
            self.render_into(&mut out, 0);
            out.push('\n');
            out
        }

        fn render_into(&self, out: &mut String, indent: usize) {
            match self {
                Value::Str(s) => {
                    out.push('"');
                    for c in s.chars() {
                        match c {
                            '"' => out.push_str("\\\""),
                            '\\' => out.push_str("\\\\"),
                            '\n' => out.push_str("\\n"),
                            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                            c => out.push(c),
                        }
                    }
                    out.push('"');
                }
                Value::Num(x) => {
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        out.push_str(&format!("{}", *x as i64));
                    } else {
                        out.push_str(&format!("{x}"));
                    }
                }
                Value::Arr(items) => {
                    if items.is_empty() {
                        out.push_str("[]");
                        return;
                    }
                    out.push_str("[\n");
                    let pad = "  ".repeat(indent + 1);
                    for (i, v) in items.iter().enumerate() {
                        out.push_str(&pad);
                        v.render_into(out, indent + 1);
                        if i + 1 < items.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    out.push_str(&"  ".repeat(indent));
                    out.push(']');
                }
                Value::Obj(map) => {
                    if map.is_empty() {
                        out.push_str("{}");
                        return;
                    }
                    out.push_str("{\n");
                    let pad = "  ".repeat(indent + 1);
                    for (i, (k, v)) in map.iter().enumerate() {
                        out.push_str(&pad);
                        Value::Str(k.clone()).render_into(out, indent + 1);
                        out.push_str(": ");
                        v.render_into(out, indent + 1);
                        if i + 1 < map.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    out.push_str(&"  ".repeat(indent));
                    out.push('}');
                }
            }
        }
    }

    /// Build an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (String, Value)>) -> Value {
        Value::Obj(pairs.into_iter().collect())
    }

    /// Parse a JSON document (objects / strings / numbers only — the subset
    /// this harness writes). Returns a descriptive error on anything else.
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && b[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => parse_obj(b, pos),
            Some(b'[') => parse_arr(b, pos),
            Some(b'"') => parse_str(b, pos).map(Value::Str),
            Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, pos),
            Some(c) => Err(format!("unexpected byte {:?} at {pos:?}", *c as char)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        *pos += 1; // consume '['
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(parse_value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        *pos += 1; // consume '{'
        let mut map = BTreeMap::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_str(b, pos)?;
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b':') {
                return Err(format!("expected ':' at byte {pos:?}"));
            }
            *pos += 1;
            let val = parse_value(b, pos)?;
            map.insert(key, val);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(map));
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    /// Read the four hex digits of a `\uXXXX` escape at `pos`.
    fn parse_hex4(b: &[u8], pos: &mut usize) -> Result<u32, String> {
        let hex = b
            .get(*pos..*pos + 4)
            .ok_or("truncated \\u escape")
            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
        *pos += 4;
        Ok(code)
    }

    fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {pos:?}"));
        }
        *pos += 1;
        // Accumulate raw bytes and decode once: multi-byte UTF-8 sequences
        // in the input pass through verbatim instead of being widened
        // byte-by-byte into mojibake.
        let mut out: Vec<u8> = Vec::new();
        let push_char = |out: &mut Vec<u8>, c: char| {
            let mut buf = [0u8; 4];
            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
        };
        while let Some(&c) = b.get(*pos) {
            *pos += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| format!("invalid UTF-8: {e}")),
                b'\\' => {
                    let esc = b.get(*pos).copied().ok_or("dangling escape")?;
                    *pos += 1;
                    match esc {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let code = parse_hex4(b, pos)?;
                            if (0xD800..0xDC00).contains(&code) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow; combine into one scalar.
                                if b.get(*pos..*pos + 2) != Some(br"\u") {
                                    return Err("unpaired surrogate".into());
                                }
                                *pos += 2;
                                let low = parse_hex4(b, pos)?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err("invalid low surrogate".into());
                                }
                                let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                push_char(&mut out, char::from_u32(scalar).ok_or("bad codepoint")?);
                            } else {
                                push_char(&mut out, char::from_u32(code).ok_or("bad codepoint")?);
                            }
                        }
                        other => return Err(format!("unsupported escape \\{}", other as char)),
                    }
                }
                c => out.push(c),
            }
        }
        Err("unterminated string".into())
    }

    fn parse_num(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len()
            && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Value::Num)
            .map_err(|e| e.to_string())
    }
}

/// Least-squares slope of `y` against `x` in log-log space: the growth
/// exponent (0 ≈ constant, 1 ≈ linear, 3 ≈ cubic). Points with nonpositive
/// coordinates are skipped.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(x, y)| x > 0.0 && y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    linear_slope(&logs)
}

/// Least-squares slope of `y` against `x`.
pub fn linear_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        0.0
    } else {
        (n * sxy - sx * sy) / denom
    }
}

/// Geometric size sweep: `count` sizes doubling from `start`.
pub fn doubling_sizes(start: usize, count: usize) -> Vec<usize> {
    (0..count).map(|i| start << i).collect()
}

/// Format a float compactly for tables.
pub fn fmt_f(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_including_non_ascii() {
        use super::json::{obj, parse, Value};
        let doc = obj([
            ("unit".to_string(), Value::Str("µs/update — naïve".into())),
            ("throughput".to_string(), Value::Num(1234.5)),
            (
                "nested".to_string(),
                obj([("n".to_string(), Value::Num(42.0))]),
            ),
        ]);
        let text = doc.render();
        assert_eq!(parse(&text).unwrap(), doc);
        // Escapes and astral-plane codepoints (surrogate pairs) decode.
        let parsed = parse(r#"{"s": "a\"b\\c\ndµ😀"}"#).unwrap();
        assert_eq!(
            parsed.get("s"),
            Some(&Value::Str("a\"b\\c\ndµ😀".to_string()))
        );
        assert!(parse(r#"{"s": "\ud83d"}"#).is_err(), "unpaired surrogate");
        assert!(parse("{\"x\": }").is_err());
        assert!(parse("{} trailing").is_err());
    }

    #[test]
    fn json_round_trips_arrays() {
        use super::json::{obj, parse, Value};
        let doc = obj([(
            "entries".to_string(),
            Value::Arr(vec![
                Value::Num(1.0),
                Value::Str("two".into()),
                obj([("n".to_string(), Value::Num(3.0))]),
                Value::Arr(vec![]),
            ]),
        )]);
        let text = doc.render();
        assert_eq!(parse(&text).unwrap(), doc);
        assert_eq!(parse("[]").unwrap(), Value::Arr(vec![]));
        assert_eq!(
            parse("[1, 2]").unwrap().as_arr().map(<[Value]>::len),
            Some(2)
        );
        assert!(parse("[1, 2").is_err(), "unterminated array");
        assert!(parse("[1,, 2]").is_err());
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long_header"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["100".into(), "20000".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("long_header"));
        assert!(s.lines().filter(|l| l.starts_with('|')).count() == 4);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new("x", &["a"]);
        t.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn slopes() {
        // y = x^3 in log-log has slope 3.
        let pts: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, (i * i * i) as f64)).collect();
        assert!((loglog_slope(&pts) - 3.0).abs() < 1e-9);
        // Constant has slope ~0.
        let flat: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, 5.0)).collect();
        assert!(loglog_slope(&flat).abs() < 1e-9);
        // Linear fit.
        let lin: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 2.0 * i as f64 + 1.0)).collect();
        assert!((linear_slope(&lin) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sizes_double() {
        assert_eq!(doubling_sizes(4, 3), vec![4, 8, 16]);
    }

    #[test]
    fn float_formats() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(3.456_78), "3.457");
        assert_eq!(fmt_f(42.0), "42.0");
        assert_eq!(fmt_f(12345.6), "12346");
    }
}
