//! Prometheus text exposition (format 0.0.4) over a registry snapshot.
//!
//! [`render_prometheus`] turns a [`RegistrySnapshot`] into the plain-text
//! format every Prometheus-compatible scraper understands:
//!
//! * dot-separated instrument names become underscore-separated metric
//!   names (`mq.lag` → `mq_lag`); counters additionally get the
//!   conventional `_total` suffix;
//! * the registry's `{k=v,...}` label blocks become quoted, escaped
//!   Prometheus label sets;
//! * log-bucketed histograms are emitted as cumulative `_bucket` series
//!   (`le` in **seconds**, converted from the recorded nanoseconds, with
//!   empty buckets elided) plus `_sum` and `_count`.
//!
//! The renderer is a pure function of the snapshot, so `/metrics` on the
//! ops server (see [`crate::ops`]) is just snapshot + render.

use crate::metrics::Snapshot;
use crate::registry::{instrument_name, RegistrySnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Sanitize an instrument name into the Prometheus name charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`: dots (and anything else illegal) become
/// underscores, and a leading digit gets an underscore prefix.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if ok {
            out.push(c);
        } else if c.is_ascii_digit() {
            // Leading digit: keep it, but prefix so the name stays legal.
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a label value per the exposition format: backslash, quote and
/// newline must be escaped inside the double-quoted value.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Split a rendered registry key (`name{k=v,k2=v2}` or bare `name`) into
/// the instrument name and its label pairs, undoing the backslash
/// escaping [`crate::registry::render_key`] applies to `,`, `=` and `\`
/// inside label values.
pub fn parse_key(key: &str) -> (&str, Vec<(String, String)>) {
    let name = instrument_name(key);
    let mut labels = Vec::new();
    if let Some(block) = key
        .strip_prefix(name)
        .and_then(|r| r.strip_prefix('{'))
        .and_then(|r| r.strip_suffix('}'))
    {
        let (mut k, mut v) = (String::new(), String::new());
        let mut in_value = false;
        let mut chars = block.chars();
        while let Some(c) = chars.next() {
            match c {
                '\\' => {
                    let cur = if in_value { &mut v } else { &mut k };
                    cur.push(chars.next().unwrap_or('\\'));
                }
                '=' if !in_value => in_value = true,
                ',' => {
                    if in_value {
                        labels.push((std::mem::take(&mut k), std::mem::take(&mut v)));
                    } else {
                        // Malformed pair without `=`: drop it, as the old
                        // split-based parser did.
                        k.clear();
                    }
                    in_value = false;
                }
                c => {
                    if in_value {
                        v.push(c)
                    } else {
                        k.push(c)
                    }
                }
            }
        }
        if in_value {
            labels.push((k, v));
        }
    }
    (name, labels)
}

/// Render a label set (optionally with an extra `le` pair) as
/// `{k="v",...}`; empty string when there are no labels.
fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}=\"{}\"", prometheus_name(k), escape_label_value(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

fn write_header(out: &mut String, done: &mut BTreeMap<String, ()>, name: &str, kind: &str) {
    if done.insert(name.to_string(), ()).is_none() {
        let _ = writeln!(out, "# HELP {name} helios instrument {name}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
    }
}

fn write_histogram(out: &mut String, name: &str, labels: &[(String, String)], snap: &Snapshot) {
    let exemplars = snap.exemplars();
    let mut cum = 0u64;
    for (bound_ns, cum_count) in snap.cumulative_buckets() {
        cum = cum_count;
        let le = format_seconds(bound_ns);
        // OpenMetrics exemplar: the trace id of a recent observation that
        // landed in this bucket, plus its value in seconds.
        let exemplar = exemplars
            .iter()
            .find(|(bound, _, _)| *bound == bound_ns)
            .map(|(_, trace, value)| {
                format!(" # {{trace_id=\"{trace}\"}} {}", format_seconds(*value))
            })
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "{name}_bucket{} {cum_count}{exemplar}",
            render_labels(labels, Some(&le))
        );
    }
    debug_assert!(cum <= snap.count);
    let _ = writeln!(
        out,
        "{name}_bucket{} {}",
        render_labels(labels, Some("+Inf")),
        snap.count
    );
    let _ = writeln!(
        out,
        "{name}_sum{} {}",
        render_labels(labels, None),
        snap.sum as f64 / 1e9
    );
    let _ = writeln!(
        out,
        "{name}_count{} {}",
        render_labels(labels, None),
        snap.count
    );
}

/// Nanoseconds as a decimal seconds literal without float noise
/// (histogram `le` bounds are exact integers of nanoseconds).
fn format_seconds(ns: u64) -> String {
    let secs = ns / 1_000_000_000;
    let frac = ns % 1_000_000_000;
    if frac == 0 {
        format!("{secs}")
    } else {
        let mut s = format!("{secs}.{frac:09}");
        while s.ends_with('0') {
            s.pop();
        }
        s
    }
}

/// Render the snapshot as Prometheus exposition text. Counters get a
/// `_total` suffix; histograms (recorded in nanoseconds) are exposed with
/// bucket bounds and sums in seconds, per Prometheus convention for
/// duration metrics.
pub fn render_prometheus(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    let mut headers = BTreeMap::new();
    for (key, value) in &snap.counters {
        let (name, labels) = parse_key(key);
        let name = format!("{}_total", prometheus_name(name));
        write_header(&mut out, &mut headers, &name, "counter");
        let _ = writeln!(out, "{name}{} {value}", render_labels(&labels, None));
    }
    for (key, value) in &snap.gauges {
        let (name, labels) = parse_key(key);
        let name = prometheus_name(name);
        write_header(&mut out, &mut headers, &name, "gauge");
        let _ = writeln!(out, "{name}{} {value}", render_labels(&labels, None));
    }
    for (key, hist) in &snap.histograms {
        let (name, labels) = parse_key(key);
        let name = prometheus_name(name);
        write_header(&mut out, &mut headers, &name, "histogram");
        write_histogram(&mut out, &name, &labels, hist);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn name_is_legal(name: &str) -> bool {
        let mut chars = name.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    /// Minimal exposition-format line parser used to round-trip-validate
    /// the renderer's output: returns (metric name, labels, value).
    fn parse_line(line: &str) -> (String, Vec<(String, String)>, f64) {
        // Exemplars (` # {trace_id="..."} value`) ride after the sample
        // value; strip them before parsing the series itself.
        let line = line.split(" # ").next().unwrap();
        let (head, value) = line.rsplit_once(' ').expect("value separator");
        let value: f64 = value.parse().unwrap_or(f64::INFINITY);
        match head.split_once('{') {
            None => (head.to_string(), Vec::new(), value),
            Some((name, rest)) => {
                let block = rest.strip_suffix('}').expect("closing brace");
                let mut labels = Vec::new();
                for pair in block.split(',') {
                    let (k, v) = pair.split_once('=').expect("label k=v");
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .expect("quoted label value");
                    labels.push((k.to_string(), v.to_string()));
                }
                (name.to_string(), labels, value)
            }
        }
    }

    #[test]
    fn names_are_sanitized() {
        assert_eq!(prometheus_name("mq.lag"), "mq_lag");
        assert_eq!(prometheus_name("e2e.freshness"), "e2e_freshness");
        assert_eq!(prometheus_name("7seas"), "_7seas");
        assert_eq!(prometheus_name("a-b c"), "a_b_c");
        assert!(name_is_legal(&prometheus_name("9.lives{x}")));
    }

    #[test]
    fn parse_key_splits_labels() {
        assert_eq!(parse_key("mq.lag"), ("mq.lag", vec![]));
        let (n, l) = parse_key("mq.lag{group=saw-0,topic=updates}");
        assert_eq!(n, "mq.lag");
        assert_eq!(
            l,
            vec![
                ("group".to_string(), "saw-0".to_string()),
                ("topic".to_string(), "updates".to_string())
            ]
        );
    }

    #[test]
    fn hostile_label_values_round_trip() {
        // A value exercising every escape class: backslash, the key
        // syntax's own delimiters, a quote, a newline and a brace.
        let hostile = "a\\b,c=d\"e\nf}";
        let key = crate::registry::render_key("odd.metric", &[("q", hostile), ("plain", "ok")]);
        let (name, labels) = parse_key(&key);
        assert_eq!(name, "odd.metric");
        assert_eq!(
            labels,
            vec![
                ("plain".to_string(), "ok".to_string()),
                ("q".to_string(), hostile.to_string())
            ]
        );
        // Plain values stay byte-identical through render_key.
        assert_eq!(
            crate::registry::render_key("mq.lag", &[("group", "saw-0")]),
            "mq.lag{group=saw-0}"
        );
        // The exposition output escapes backslash/quote/newline per
        // OpenMetrics, with the registry-level escapes undone first.
        let r = Registry::new();
        r.counter("odd.metric", &[("q", hostile)]).incr();
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("q=\"a\\\\b,c=d\\\"e\\nf}\""), "got: {text}");
    }

    #[test]
    fn histogram_buckets_carry_exemplars() {
        let r = Registry::new();
        let h = r.histogram("serving.latency", &[("worker", "0")]);
        h.record_with_exemplar(1_000_000, 0xBEEF);
        h.record(2_000_000_000);
        let text = render_prometheus(&r.snapshot());
        let trace = 0xBEEFu64;
        let line = text
            .lines()
            .find(|l| l.contains("trace_id"))
            .expect("an exemplar line");
        assert!(
            line.contains(&format!(" # {{trace_id=\"{trace}\"}} 0.001")),
            "exemplar format: {line}"
        );
        assert!(
            line.starts_with("serving_latency_bucket{"),
            "exemplar rides a bucket line: {line}"
        );
        // The un-exemplared observation produces plain bucket lines.
        assert!(text
            .lines()
            .any(|l| l.starts_with("serving_latency_bucket{") && !l.contains('#')));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter("odd.labels", &[("q", "a\"b\\c")]).incr();
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("q=\"a\\\"b\\\\c\""), "escaped output: {text}");
    }

    #[test]
    fn round_trip_is_valid_exposition_text() {
        let r = Registry::new();
        r.counter(
            "serving.decode_errors",
            &[("worker", "0"), ("replica", "1")],
        )
        .add(3);
        r.gauge("mq.lag", &[("group", "saw-0"), ("topic", "updates")])
            .set(-2);
        let h = r.histogram("e2e.freshness", &[]);
        for v in [1_000u64, 50_000, 1_000_000, 80_000_000] {
            h.record(v);
        }
        let text = render_prometheus(&r.snapshot());

        let mut seen_types: BTreeMap<String, String> = BTreeMap::new();
        let mut bucket_cum: BTreeMap<String, (f64, f64)> = BTreeMap::new(); // series → (last le, last cum)
        for line in text.lines() {
            assert!(!line.is_empty());
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').unwrap();
                seen_types.insert(name.to_string(), kind.to_string());
                continue;
            }
            if line.starts_with("# HELP ") {
                continue;
            }
            let (name, labels, value) = parse_line(line);
            assert!(name_is_legal(&name), "illegal metric name {name}");
            for (k, _) in &labels {
                assert!(name_is_legal(k), "illegal label name {k}");
            }
            if let Some(series) = name.strip_suffix("_bucket") {
                let le = labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| {
                        if v == "+Inf" {
                            f64::INFINITY
                        } else {
                            v.parse::<f64>().expect("numeric le")
                        }
                    })
                    .expect("bucket without le");
                let others: Vec<_> = labels.iter().filter(|(k, _)| k != "le").cloned().collect();
                let id = format!("{series}{others:?}");
                let entry = bucket_cum.entry(id).or_insert((-1.0, -1.0));
                assert!(le > entry.0, "le bounds must increase: {line}");
                assert!(value >= entry.1, "cumulative counts must not drop: {line}");
                *entry = (le, value);
            }
        }
        assert_eq!(
            seen_types
                .get("serving_decode_errors_total")
                .map(String::as_str),
            Some("counter")
        );
        assert_eq!(seen_types.get("mq_lag").map(String::as_str), Some("gauge"));
        assert_eq!(
            seen_types.get("e2e_freshness").map(String::as_str),
            Some("histogram")
        );
        assert!(text.contains("e2e_freshness_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("e2e_freshness_count 4"));
        // Sum of the recorded nanoseconds, in seconds.
        assert!(text.contains("e2e_freshness_sum 0.081051"), "{text}");
        assert!(text.contains("mq_lag{group=\"saw-0\",topic=\"updates\"} -2"));
    }

    #[test]
    fn seconds_formatting_is_exact() {
        assert_eq!(format_seconds(0), "0");
        assert_eq!(format_seconds(1_000_000_000), "1");
        assert_eq!(format_seconds(1_500_000_000), "1.5");
        assert_eq!(format_seconds(1_024), "0.000001024");
    }
}
