//! NDJSON trace serialization and schema validation.
//!
//! # The `seqavf-trace/1` schema
//!
//! A trace is newline-delimited JSON: one object per line, each with a
//! `"type"` discriminator. Four line types exist:
//!
//! ```text
//! {"type":"meta","schema":"seqavf-trace/1",<key>:<string>...}
//! {"type":"span","name":<string>,"start_us":<u64>,"dur_us":<u64>,"fields":{<key>:<num|string|bool>...}}
//! {"type":"counter","name":<string>,"value":<u64>}
//! {"type":"hist","name":<string>,"unit":"us","count":<u64>,"buckets":[[<lo_us>,<count>],...]}
//! ```
//!
//! Rules:
//!
//! - The **first line must be `meta`** and must carry
//!   `"schema":"seqavf-trace/1"`. Extra meta keys (e.g. `"cmd"`) are
//!   free-form strings.
//! - `span` lines appear in recording order; `start_us` is the offset from
//!   the collector's epoch and `dur_us` the wall time, both in
//!   microseconds. `fields` is omitted when empty; its values are
//!   numbers, strings or booleans.
//! - `counter` lines report the **final** value of each monotonic counter.
//! - `hist` lines report the per-span-name wall-time histogram with
//!   power-of-two bucket lower bounds: a span of duration `d` µs falls in
//!   the bucket with the largest `lo ≤ d` (`lo ∈ {0, 1, 2, 4, 8, …}`).
//!   Bucket counts must sum to `count`.
//! - Empty lines are not allowed; unknown `"type"` values are rejected.
//!
//! [`validate_trace`] enforces all of the above with a self-contained JSON
//! parser (this crate takes no dependencies); the `trace-validate` binary
//! and the CI smoke job call it on real CLI output.

use std::collections::BTreeMap;
use std::io::Write;

use crate::collector::{FieldValue, SpanEvent};

/// The schema identifier stamped into (and required of) every trace.
pub const SCHEMA: &str = "seqavf-trace/1";

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` round-trips f64 through shortest decimal.
        out.push_str(&format!("{v:?}"));
    } else {
        // JSON has no Inf/NaN; clamp to null (validator rejects it, which
        // is the right failure mode for telemetry that went wrong).
        out.push_str("null");
    }
}

fn field_value_into(out: &mut String, v: &FieldValue) {
    match v {
        FieldValue::U64(n) => out.push_str(&n.to_string()),
        FieldValue::F64(x) => push_f64(out, *x),
        FieldValue::Str(s) => {
            out.push('"');
            escape_into(out, s);
            out.push('"');
        }
        FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

fn span_line(ev: &SpanEvent) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"type\":\"span\",\"name\":\"");
    escape_into(&mut out, ev.name);
    out.push_str(&format!(
        "\",\"start_us\":{},\"dur_us\":{}",
        ev.start_us, ev.dur_us
    ));
    if !ev.fields.is_empty() {
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in ev.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(&mut out, k);
            out.push_str("\":");
            field_value_into(&mut out, v);
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// The power-of-two histogram bucket lower bound for a duration.
fn bucket_lo(dur_us: u64) -> u64 {
    if dur_us == 0 {
        0
    } else {
        1u64 << (63 - dur_us.leading_zeros())
    }
}

/// Serializes a full trace (meta header, spans, counters, histograms).
pub fn write_trace(
    w: &mut dyn Write,
    spans: &[SpanEvent],
    counters: &[(&'static str, u64)],
    meta: &[(&str, &str)],
) -> std::io::Result<()> {
    let mut head = String::from("{\"type\":\"meta\",\"schema\":\"");
    escape_into(&mut head, SCHEMA);
    head.push('"');
    for (k, v) in meta {
        head.push_str(",\"");
        escape_into(&mut head, k);
        head.push_str("\":\"");
        escape_into(&mut head, v);
        head.push('"');
    }
    head.push('}');
    writeln!(w, "{head}")?;

    let mut hists: BTreeMap<&'static str, BTreeMap<u64, u64>> = BTreeMap::new();
    for ev in spans {
        writeln!(w, "{}", span_line(ev))?;
        *hists
            .entry(ev.name)
            .or_default()
            .entry(bucket_lo(ev.dur_us))
            .or_insert(0) += 1;
    }
    for (name, value) in counters {
        let mut line = String::from("{\"type\":\"counter\",\"name\":\"");
        escape_into(&mut line, name);
        line.push_str(&format!("\",\"value\":{value}}}"));
        writeln!(w, "{line}")?;
    }
    for (name, buckets) in &hists {
        let count: u64 = buckets.values().sum();
        let mut line = String::from("{\"type\":\"hist\",\"name\":\"");
        escape_into(&mut line, name);
        line.push_str(&format!(
            "\",\"unit\":\"us\",\"count\":{count},\"buckets\":["
        ));
        for (i, (lo, n)) in buckets.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!("[{lo},{n}]"));
        }
        line.push_str("]}");
        writeln!(w, "{line}")?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Minimal JSON parsing (validation side)
// ---------------------------------------------------------------------------

/// A parsed JSON value (validation-side representation).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => Some(*v as u64),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err<T>(&self, msg: &str) -> Result<T, String> {
        Err(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' {
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
            self.err(&format!("expected `{}`", b as char))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            self.err(&format!("expected `{lit}`"))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| {
            b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-'
        }) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of unescaped bytes up to the next `"` or `\` as
            // one slice: both delimiters are ASCII, so the run ends on a
            // char boundary of the `&str` being parsed.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            out.push_str(
                std::str::from_utf8(&rest[..run]).map_err(|_| "invalid UTF-8".to_owned())?,
            );
            self.pos += run;
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // The run stopped at a `\`: one escape.
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| "truncated \\u escape".to_owned())?;
                            // Exactly four hex digits: `from_str_radix`
                            // alone would also take a leading `+`.
                            if !hex.iter().all(u8::is_ascii_hexdigit) {
                                return Err("bad \\u escape".to_owned());
                            }
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut kv = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(kv));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            kv.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(kv));
                }
                _ => return self.err("expected `,` or `}`"),
            }
        }
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
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected `,` or `]`"),
            }
        }
    }

    fn parse_complete(mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return self.err("trailing characters");
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

/// Counts of each validated line type in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// `span` lines.
    pub spans: usize,
    /// `counter` lines.
    pub counters: usize,
    /// `hist` lines.
    pub hists: usize,
}

fn require_name(obj: &Json) -> Result<String, String> {
    match obj.get("name").and_then(Json::as_str) {
        Some(n) if !n.is_empty() => Ok(n.to_owned()),
        Some(_) => Err("empty `name`".to_owned()),
        None => Err("missing string `name`".to_owned()),
    }
}

/// What [`classify_line`] learned about one validated line.
struct LineInfo {
    ty: &'static str,
    /// `name` of a span/counter/hist line.
    name: Option<String>,
    /// `count` of a hist line.
    hist_count: Option<u64>,
}

/// Validates a single NDJSON line (any line type) against the schema and
/// returns its `"type"`.
pub fn validate_line(line: &str) -> Result<&'static str, String> {
    classify_line(line).map(|info| info.ty)
}

fn classify_line(line: &str) -> Result<LineInfo, String> {
    let obj = Parser::new(line).parse_complete()?;
    if !matches!(obj, Json::Obj(_)) {
        return Err("line is not a JSON object".to_owned());
    }
    let ty = obj
        .get("type")
        .and_then(Json::as_str)
        .ok_or("missing string `type`")?;
    match ty {
        "meta" => {
            match obj.get("schema").and_then(Json::as_str) {
                Some(s) if s == SCHEMA => {}
                Some(s) => return Err(format!("unknown schema `{s}` (expected `{SCHEMA}`)")),
                None => return Err("meta line missing `schema`".to_owned()),
            }
            Ok(LineInfo {
                ty: "meta",
                name: None,
                hist_count: None,
            })
        }
        "span" => {
            let name = require_name(&obj)?;
            obj.get("start_us")
                .and_then(Json::as_u64)
                .ok_or("span missing u64 `start_us`")?;
            obj.get("dur_us")
                .and_then(Json::as_u64)
                .ok_or("span missing u64 `dur_us`")?;
            if let Some(fields) = obj.get("fields") {
                let Json::Obj(kv) = fields else {
                    return Err("span `fields` is not an object".to_owned());
                };
                for (k, v) in kv {
                    if !matches!(v, Json::Num(_) | Json::Str(_) | Json::Bool(_)) {
                        return Err(format!(
                            "span field `{k}` is neither number, string nor bool"
                        ));
                    }
                }
            }
            Ok(LineInfo {
                ty: "span",
                name: Some(name),
                hist_count: None,
            })
        }
        "counter" => {
            let name = require_name(&obj)?;
            obj.get("value")
                .and_then(Json::as_u64)
                .ok_or("counter missing u64 `value`")?;
            Ok(LineInfo {
                ty: "counter",
                name: Some(name),
                hist_count: None,
            })
        }
        "hist" => {
            let name = require_name(&obj)?;
            match obj.get("unit").and_then(Json::as_str) {
                Some("us") => {}
                _ => return Err("hist `unit` must be \"us\"".to_owned()),
            }
            let count = obj
                .get("count")
                .and_then(Json::as_u64)
                .ok_or("hist missing u64 `count`")?;
            let Some(Json::Arr(buckets)) = obj.get("buckets") else {
                return Err("hist missing array `buckets`".to_owned());
            };
            let mut total = 0u64;
            let mut prev_lo: Option<u64> = None;
            for b in buckets {
                let Json::Arr(pair) = b else {
                    return Err("hist bucket is not a [lo,count] pair".to_owned());
                };
                if pair.len() != 2 {
                    return Err("hist bucket is not a [lo,count] pair".to_owned());
                }
                let lo = pair[0].as_u64().ok_or("hist bucket lo is not a u64")?;
                let n = pair[1].as_u64().ok_or("hist bucket count is not a u64")?;
                if lo != 0 && !lo.is_power_of_two() {
                    return Err(format!("hist bucket lo {lo} is not 0 or a power of two"));
                }
                if let Some(p) = prev_lo {
                    if lo <= p {
                        return Err("hist buckets are not strictly ascending".to_owned());
                    }
                }
                prev_lo = Some(lo);
                total += n;
            }
            if total != count {
                return Err(format!(
                    "hist bucket counts sum to {total}, `count` says {count}"
                ));
            }
            Ok(LineInfo {
                ty: "hist",
                name: Some(name),
                hist_count: Some(count),
            })
        }
        other => Err(format!("unknown line type `{other}`")),
    }
}

/// Validates a complete trace. Beyond per-line schema checks, this
/// enforces the structural invariants the writer guarantees, so damaged
/// traces (truncation, reordered or spliced lines) are rejected:
///
/// - the first line must be a `meta` line with the current schema, and no
///   other `meta` line may appear;
/// - sections appear in writer order — all `span` lines, then all
///   `counter` lines, then all `hist` lines;
/// - `counter` and `hist` names are strictly ascending within their
///   sections (the writer emits them from sorted maps; any other order
///   means the counter section was tampered with or spliced);
/// - each `hist` line's `count` must equal the number of `span` lines of
///   that name, every histogrammed name must have spans, and — whenever a
///   summary section (counters or hists) is present — every span name
///   must have its histogram. A trace whose tail was cut off loses hist
///   lines first and span lines next, so both mismatch directions are
///   truncation detectors.
pub fn validate_trace(text: &str) -> Result<TraceStats, String> {
    let mut stats = TraceStats::default();
    let mut saw_meta = false;
    // 0 = spans, 1 = counters, 2 = hists (sections in writer order).
    let mut section = 0u8;
    let mut prev_counter: Option<String> = None;
    let mut prev_hist: Option<String> = None;
    let mut span_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut hist_names: Vec<String> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let info = classify_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        match info.ty {
            "meta" if i == 0 => saw_meta = true,
            "meta" => return Err(format!("line {}: meta line after the header", i + 1)),
            _ if i == 0 => return Err("line 1: first line must be `meta`".to_owned()),
            "span" => {
                if section > 0 {
                    return Err(format!(
                        "line {}: span line after the counter/hist sections",
                        i + 1
                    ));
                }
                *span_counts
                    .entry(info.name.expect("span has a name"))
                    .or_insert(0) += 1;
                stats.spans += 1;
            }
            "counter" => {
                if section > 1 {
                    return Err(format!(
                        "line {}: counter line after the hist section",
                        i + 1
                    ));
                }
                section = 1;
                let name = info.name.expect("counter has a name");
                if prev_counter.as_deref().is_some_and(|p| p >= name.as_str()) {
                    return Err(format!(
                        "line {}: counter `{name}` breaks ascending name order (non-monotonic counter section)",
                        i + 1
                    ));
                }
                prev_counter = Some(name);
                stats.counters += 1;
            }
            "hist" => {
                section = 2;
                let name = info.name.expect("hist has a name");
                if prev_hist.as_deref().is_some_and(|p| p >= name.as_str()) {
                    return Err(format!(
                        "line {}: hist `{name}` breaks ascending name order",
                        i + 1
                    ));
                }
                let count = info.hist_count.expect("hist has a count");
                match span_counts.get(&name) {
                    None => {
                        return Err(format!(
                            "line {}: hist `{name}` has no matching span lines",
                            i + 1
                        ))
                    }
                    Some(&n) if n != count => {
                        return Err(format!(
                            "line {}: hist `{name}` counts {count} spans but {n} span lines are present (truncated trace?)",
                            i + 1
                        ))
                    }
                    Some(_) => {}
                }
                prev_hist = Some(name.clone());
                hist_names.push(name);
                stats.hists += 1;
            }
            _ => unreachable!("classify_line returns known types"),
        }
    }
    if !saw_meta {
        return Err("empty trace (no meta header)".to_owned());
    }
    // The writer always follows spans with their histograms; a span name
    // without one means the trace's tail was cut off.
    for name in span_counts.keys() {
        if !hist_names.iter().any(|h| h == name) {
            return Err(format!("span `{name}` has no hist line (truncated trace?)"));
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;

    #[test]
    fn written_trace_validates() {
        let c = Collector::new();
        {
            let mut s = c.span("netlist.parse");
            s.field_u64("models", 3);
            s.field_str("frontend", "exlif");
        }
        c.span("relax.sweep").finish();
        c.span("relax.sweep").finish();
        c.count("relax.changed_sets", 12);
        let mut buf = Vec::new();
        c.write_ndjson(&mut buf, &[("cmd", "sart")]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let stats = validate_trace(&text).unwrap();
        assert_eq!(stats.spans, 3);
        assert_eq!(stats.counters, 1);
        assert_eq!(stats.hists, 2, "one hist per distinct span name");
    }

    #[test]
    fn bool_fields_round_trip() {
        let c = Collector::new();
        {
            let mut s = c.span("validate.campaign");
            s.field_bool("importance", true);
            s.field_bool("exact_kernel", false);
            s.field_u64("trials", 50_000);
        }
        let mut buf = Vec::new();
        c.write_ndjson(&mut buf, &[("cmd", "validate")]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.contains("\"importance\":true") && text.contains("\"exact_kernel\":false"),
            "{text}"
        );
        validate_trace(&text).unwrap();
    }

    #[test]
    fn rejects_non_scalar_span_field() {
        let bad =
            "{\"type\":\"span\",\"name\":\"x\",\"start_us\":0,\"dur_us\":1,\"fields\":{\"k\":[1]}}";
        assert!(validate_line(bad)
            .unwrap_err()
            .contains("neither number, string nor bool"));
    }

    #[test]
    fn rejects_missing_header() {
        let bad = "{\"type\":\"span\",\"name\":\"x\",\"start_us\":0,\"dur_us\":1}";
        assert!(validate_trace(bad).unwrap_err().contains("meta"));
    }

    #[test]
    fn rejects_wrong_schema() {
        let bad = "{\"type\":\"meta\",\"schema\":\"other/9\"}";
        assert!(validate_line(bad).unwrap_err().contains("unknown schema"));
    }

    #[test]
    fn rejects_malformed_span() {
        assert!(validate_line("{\"type\":\"span\",\"name\":\"x\"}").is_err());
        assert!(validate_line("{\"type\":\"span\",\"start_us\":0,\"dur_us\":1}").is_err());
        assert!(
            validate_line("{\"type\":\"span\",\"name\":\"\",\"start_us\":0,\"dur_us\":1}").is_err()
        );
        assert!(
            validate_line("{\"type\":\"span\",\"name\":\"x\",\"start_us\":-4,\"dur_us\":1}")
                .is_err()
        );
    }

    #[test]
    fn rejects_unknown_type_and_garbage() {
        assert!(validate_line("{\"type\":\"frob\",\"name\":\"x\"}").is_err());
        assert!(validate_line("not json").is_err());
        assert!(validate_line("{\"type\":\"span\"} extra").is_err());
    }

    #[test]
    fn rejects_inconsistent_hist() {
        let bad = "{\"type\":\"hist\",\"name\":\"x\",\"unit\":\"us\",\"count\":3,\"buckets\":[[0,1],[2,1]]}";
        assert!(validate_line(bad).unwrap_err().contains("sum"));
        let bad_lo =
            "{\"type\":\"hist\",\"name\":\"x\",\"unit\":\"us\",\"count\":1,\"buckets\":[[3,1]]}";
        assert!(validate_line(bad_lo).unwrap_err().contains("power of two"));
    }

    #[test]
    fn escapes_round_trip() {
        let c = Collector::new();
        {
            let mut s = c.span("x");
            s.field_str("label", "quote\" slash\\ nl\n tab\t");
        }
        let mut buf = Vec::new();
        c.write_ndjson(&mut buf, &[("cmd", "a\"b")]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        validate_trace(&text).unwrap();
    }

    #[test]
    fn strings_copy_runs_between_escapes() {
        // Multi-byte runs next to simple and `\u` escapes, at either end.
        let cases = [
            (r#""""#, ""),
            ("\"é→λ\"", "é→λ"),
            (r#""a\"b\\c\/d""#, "a\"b\\c/d"),
            (r#""λ\u00e9λ\nλ""#, "λéλ\nλ"),
            (r#""\u2192é\t""#, "→é\t"),
            (r#""😀\u0041😀\\""#, "😀A😀\\"),
        ];
        for (text, want) in cases {
            let mut p = Parser::new(text);
            assert_eq!(p.string().unwrap(), want, "{text}");
            assert_eq!(p.pos, text.len(), "{text}");
        }
        for bad in ["\"é→", "\"é\\", "\"λ\\xλ\"", "\"\\u00\""] {
            assert!(Parser::new(bad).string().is_err(), "{bad}");
        }
        assert_eq!(
            Parser::new("\"λλ").string().unwrap_err(),
            "unterminated string at byte 5"
        );
    }

    /// A `\u` escape is exactly four hex digits: a sign or any other
    /// character among them is an error, not a shorter number.
    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(
            Parser::new(r#""\u0041\u00aF""#).string().unwrap(),
            "A\u{af}"
        );
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u004g""#] {
            assert_eq!(
                Parser::new(bad).string().unwrap_err(),
                "bad \\u escape",
                "{bad}"
            );
        }
    }

    /// A written trace for structural-damage tests: two span names, one
    /// counter, two hists.
    fn sample_trace() -> String {
        let c = Collector::new();
        c.span("sweep.compile").finish();
        c.span("sweep.eval").finish();
        c.span("sweep.eval").finish();
        c.count("sweep.cache.miss", 1);
        c.count("sweep.cache.hit", 2);
        let mut buf = Vec::new();
        c.write_ndjson(&mut buf, &[("cmd", "sweep")]).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn rejects_span_after_summary_sections() {
        let text = sample_trace();
        let span = text
            .lines()
            .find(|l| l.contains("\"type\":\"span\""))
            .unwrap();
        let spliced = format!("{}{span}\n", text);
        let e = validate_trace(&spliced).unwrap_err();
        assert!(e.contains("span line after"), "{e}");
        assert!(e.starts_with("line "), "{e}");
    }

    #[test]
    fn rejects_non_monotonic_counters() {
        let text = sample_trace();
        let counters: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"type\":\"counter\""))
            .collect();
        assert_eq!(counters.len(), 2);
        // Swap the two counter lines: names no longer ascend.
        let swapped: String = text
            .lines()
            .map(|l| {
                if l == counters[0] {
                    format!("{}\n", counters[1])
                } else if l == counters[1] {
                    format!("{}\n", counters[0])
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        let e = validate_trace(&swapped).unwrap_err();
        assert!(e.contains("non-monotonic"), "{e}");
        assert!(e.starts_with("line "), "{e}");
    }

    #[test]
    fn rejects_truncated_trace() {
        let text = sample_trace();
        // Dropping the final hist line orphans its spans.
        let truncated: String = text
            .lines()
            .take(text.lines().count() - 1)
            .map(|l| format!("{l}\n"))
            .collect();
        let e = validate_trace(&truncated).unwrap_err();
        assert!(e.contains("truncated"), "{e}");
        // Dropping one span line breaks its hist's count.
        let a_span = text
            .lines()
            .find(|l| l.contains("sweep.eval") && l.contains("\"type\":\"span\""))
            .unwrap();
        let mut removed_one = false;
        let spliced: String = text
            .lines()
            .filter(|l| {
                if *l == a_span && !removed_one {
                    removed_one = true;
                    false
                } else {
                    true
                }
            })
            .map(|l| format!("{l}\n"))
            .collect();
        let e = validate_trace(&spliced).unwrap_err();
        assert!(e.contains("truncated") && e.starts_with("line "), "{e}");
    }

    #[test]
    fn rejects_hist_without_spans() {
        let lone =
            "{\"type\":\"meta\",\"schema\":\"seqavf-trace/1\"}\n{\"type\":\"hist\",\"name\":\"x\",\"unit\":\"us\",\"count\":0,\"buckets\":[]}\n";
        let e = validate_trace(lone).unwrap_err();
        assert!(e.contains("no matching span"), "{e}");
    }

    #[test]
    fn bucket_lo_is_floor_power_of_two() {
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_lo(1), 1);
        assert_eq!(bucket_lo(2), 2);
        assert_eq!(bucket_lo(3), 2);
        assert_eq!(bucket_lo(1023), 512);
        assert_eq!(bucket_lo(1024), 1024);
    }
}
