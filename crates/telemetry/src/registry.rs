//! Named, labelled instrument registry.
//!
//! The registry is the slow path: instruments are looked up (or created)
//! once, at wiring time, and the returned `Arc` handles are cached by the
//! instrumented component. The hot path is the handle itself — a relaxed
//! atomic add for counters/gauges, a couple of arithmetic ops plus one
//! atomic increment for histograms. Nothing on the recording path takes a
//! lock.
//!
//! ## Naming scheme
//!
//! Instrument names are dot-separated, with the leading segment naming the
//! subsystem: `mq.lag`, `sampler.updates_processed`, `serving.cache_hit`,
//! `kvstore.mem_bytes`, `actor.mailbox_depth`, `graphdb.cache_hit`.
//! Labels are `{key=value}` pairs appended to the name; the registry keys
//! instruments by the fully rendered form, e.g.
//! `mq.lag{group=sew-0-r0,topic=samples-0}`. Labels are sorted by key so
//! the same logical instrument always renders to the same string.

use helios_metrics::{Histogram, Snapshot, Table};
use helios_types::FxHashMap;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Monotone event counter. Cheap to clone (via `Arc`), wait-free to bump.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one event.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current total.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Point-in-time signed measurement (queue depth, bytes resident, lag).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// New gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrite the current value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust the current value by `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Render `name` plus sorted labels into the registry key form
/// `name{k=v,k2=v2}` (bare `name` when there are no labels). Label
/// values containing the key syntax's own delimiters (`,`, `=`) or a
/// backslash are escaped with a backslash so
/// [`crate::exposition::parse_key`] can recover the exact value; plain
/// values render byte-identical to their input.
pub fn render_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut labels: Vec<_> = labels.to_vec();
    labels.sort_unstable();
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                ',' => out.push_str("\\,"),
                '=' => out.push_str("\\="),
                c => out.push(c),
            }
        }
    }
    out.push('}');
    out
}

/// The instrument registry: one per deployment (plus a process-global one
/// for standalone components). Registration takes a write lock; repeated
/// lookups of an existing instrument take a read lock; *recording* through
/// a handle takes no lock at all.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<FxHashMap<String, Arc<Counter>>>,
    gauges: RwLock<FxHashMap<String, Arc<Gauge>>>,
    histograms: RwLock<FxHashMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = render_key(name, labels);
        if let Some(c) = self.counters.read().get(&key) {
            return Arc::clone(c);
        }
        Arc::clone(self.counters.write().entry(key).or_default())
    }

    /// Get or create the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = render_key(name, labels);
        if let Some(g) = self.gauges.read().get(&key) {
            return Arc::clone(g);
        }
        Arc::clone(self.gauges.write().entry(key).or_default())
    }

    /// Get or create the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let key = render_key(name, labels);
        if let Some(h) = self.histograms.read().get(&key) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.histograms
                .write()
                .entry(key)
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Register an externally created histogram under `name{labels}`,
    /// so components that own their histogram (e.g. a serving worker's
    /// latency histogram) can surface it without double recording. If the
    /// key already exists the existing instrument wins and is returned.
    pub fn register_histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        hist: Arc<Histogram>,
    ) -> Arc<Histogram> {
        let key = render_key(name, labels);
        Arc::clone(self.histograms.write().entry(key).or_insert(hist))
    }

    /// Point-in-time copy of every instrument.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let counters = self
            .counters
            .read()
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .read()
            .iter()
            .map(|(k, g)| (k.clone(), g.get()))
            .collect();
        let histograms = self
            .histograms
            .read()
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        RegistrySnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Immutable, mergeable copy of a registry's instruments. `BTreeMap`s so
/// rendering is deterministically ordered.
#[derive(Clone, Debug, Default)]
pub struct RegistrySnapshot {
    /// Counter totals by rendered key.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by rendered key.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by rendered key.
    pub histograms: BTreeMap<String, Snapshot>,
}

impl RegistrySnapshot {
    /// Merge another snapshot into this one: counters and gauges add,
    /// histograms merge bucket-wise. Used to aggregate per-worker
    /// registries into a deployment-wide view.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, s) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(s),
                None => {
                    self.histograms.insert(k.clone(), s.clone());
                }
            }
        }
    }

    /// Counter total for an exact rendered key (0 when absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Gauge value for an exact rendered key (0 when absent).
    pub fn gauge(&self, key: &str) -> i64 {
        self.gauges.get(key).copied().unwrap_or(0)
    }

    /// Sum of all counters whose *name* (the part before `{`) equals
    /// `name` — i.e. the label-aggregated total.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| instrument_name(k) == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// Sum of all gauges whose name equals `name`.
    pub fn gauge_total(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .filter(|(k, _)| instrument_name(k) == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// Merged histogram across every key whose name equals `name`
    /// (`None` when no such histogram exists).
    pub fn histogram_total(&self, name: &str) -> Option<Snapshot> {
        let mut merged: Option<Snapshot> = None;
        for (k, s) in &self.histograms {
            if instrument_name(k) != name {
                continue;
            }
            match merged.as_mut() {
                Some(m) => m.merge(s),
                None => merged = Some(s.clone()),
            }
        }
        merged
    }

    /// Distinct subsystem prefixes (the segment before the first `.`),
    /// sorted. A deployment snapshot covering sampler + serving + mq +
    /// kvstore reports at least those four.
    pub fn subsystems(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(|k| subsystem_of(k).to_string())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Render the snapshot as fixed-width tables (counters, gauges,
    /// histogram percentiles), suitable for printing on exit.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            let mut t = Table::new("telemetry: counters", &["counter", "total"]);
            for (k, v) in &self.counters {
                t.row(&[k.clone(), v.to_string()]);
            }
            out.push_str(&t.render());
        }
        if !self.gauges.is_empty() {
            let mut t = Table::new("telemetry: gauges", &["gauge", "value"]);
            for (k, v) in &self.gauges {
                t.row(&[k.clone(), v.to_string()]);
            }
            out.push_str(&t.render());
        }
        if !self.histograms.is_empty() {
            let mut t = Table::new(
                "telemetry: histograms (ms)",
                &["histogram", "count", "mean", "p50", "p99", "max"],
            );
            for (k, s) in &self.histograms {
                t.row(&[
                    k.clone(),
                    s.count.to_string(),
                    format!("{:.3}", s.mean_ms()),
                    format!("{:.3}", s.percentile_ms(50.0)),
                    format!("{:.3}", s.percentile_ms(99.0)),
                    format!("{:.3}", s.max as f64 / 1e6),
                ]);
            }
            out.push_str(&t.render());
        }
        if out.is_empty() {
            out.push_str("telemetry: (no instruments registered)\n");
        }
        out
    }
}

/// Instrument name of a rendered key: everything before the label block.
pub fn instrument_name(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

/// Subsystem prefix of a rendered key: the segment before the first `.`.
pub fn subsystem_of(key: &str) -> &str {
    let name = instrument_name(key);
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_rendering_sorts_labels() {
        assert_eq!(render_key("mq.lag", &[]), "mq.lag");
        assert_eq!(
            render_key("mq.lag", &[("topic", "updates"), ("group", "saw-0")]),
            "mq.lag{group=saw-0,topic=updates}"
        );
    }

    #[test]
    fn key_rendering_escapes_delimiters_in_values() {
        assert_eq!(
            render_key("x.y", &[("q", "a,b=c\\d")]),
            "x.y{q=a\\,b\\=c\\\\d}"
        );
        // Values without delimiters stay byte-identical.
        assert_eq!(
            render_key("x.y", &[("q", "plain-value_9\"z\n")]),
            "x.y{q=plain-value_9\"z\n}"
        );
    }

    #[test]
    fn counter_handles_are_shared() {
        let r = Registry::new();
        let a = r.counter("x.hits", &[("w", "0")]);
        let b = r.counter("x.hits", &[("w", "0")]);
        a.add(2);
        b.incr();
        assert_eq!(a.get(), 3);
        assert_eq!(r.snapshot().counter("x.hits{w=0}"), 3);
    }

    #[test]
    fn gauges_set_and_add() {
        let r = Registry::new();
        let g = r.gauge("q.depth", &[]);
        g.set(10);
        g.add(-3);
        assert_eq!(r.snapshot().gauge("q.depth"), 7);
    }

    #[test]
    fn registered_histogram_is_surfaced_not_copied() {
        let r = Registry::new();
        let h = Arc::new(Histogram::new());
        let got = r.register_histogram("s.latency", &[("w", "1")], Arc::clone(&h));
        assert!(Arc::ptr_eq(&h, &got));
        h.record(1_000_000);
        assert_eq!(r.snapshot().histograms["s.latency{w=1}"].count, 1);
        // Second registration under the same key returns the original.
        let other = r.register_histogram("s.latency", &[("w", "1")], Arc::new(Histogram::new()));
        assert!(Arc::ptr_eq(&h, &other));
    }

    #[test]
    fn snapshot_merge_adds_and_merges() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("s.n", &[]).add(5);
        b.counter("s.n", &[]).add(7);
        b.counter("s.only_b", &[]).add(1);
        a.gauge("s.g", &[]).set(2);
        b.gauge("s.g", &[]).set(3);
        a.histogram("s.lat", &[]).record(1_000);
        b.histogram("s.lat", &[]).record(1_000_000);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.counter("s.n"), 12);
        assert_eq!(snap.counter("s.only_b"), 1);
        assert_eq!(snap.gauge("s.g"), 5);
        let lat = &snap.histograms["s.lat"];
        assert_eq!(lat.count, 2);
        assert_eq!(lat.max, 1_000_000);
        assert_eq!(lat.min, 1_000);
    }

    #[test]
    fn label_aggregated_totals() {
        let r = Registry::new();
        r.counter("serving.cache_hit", &[("w", "0")]).add(3);
        r.counter("serving.cache_hit", &[("w", "1")]).add(4);
        r.counter("serving.cache_miss", &[("w", "0")]).add(9);
        r.gauge("mq.lag", &[("t", "a")]).set(2);
        r.gauge("mq.lag", &[("t", "b")]).set(5);
        r.histogram("serving.latency", &[("w", "0")]).record(10);
        r.histogram("serving.latency", &[("w", "1")]).record(20);
        let s = r.snapshot();
        assert_eq!(s.counter_total("serving.cache_hit"), 7);
        assert_eq!(s.gauge_total("mq.lag"), 7);
        assert_eq!(s.histogram_total("serving.latency").unwrap().count, 2);
        assert!(s.histogram_total("nope").is_none());
    }

    #[test]
    fn subsystems_are_distinct_prefixes() {
        let r = Registry::new();
        r.counter("sampler.updates_processed", &[("w", "0")]).incr();
        r.counter("sampler.published", &[]).incr();
        r.gauge("mq.lag", &[]).set(0);
        r.gauge("kvstore.mem_bytes", &[]).set(1);
        r.histogram("serving.latency", &[]).record(5);
        assert_eq!(
            r.snapshot().subsystems(),
            vec!["kvstore", "mq", "sampler", "serving"]
        );
    }

    #[test]
    fn render_includes_all_sections() {
        let r = Registry::new();
        r.counter("a.c", &[]).incr();
        r.gauge("b.g", &[]).set(-4);
        r.histogram("c.h", &[]).record(2_000_000);
        let out = r.snapshot().render();
        assert!(out.contains("a.c"));
        assert!(out.contains("-4"));
        assert!(out.contains("c.h"));
        assert!(out.contains("p99"));
        assert_eq!(Registry::new().snapshot().render().lines().count(), 1);
    }
}
