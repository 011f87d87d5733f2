//! Lock-free log-bucketed latency histogram.
//!
//! Values (nanoseconds) are mapped to buckets of bounded relative width:
//! each power-of-two range is split into `SUB_BUCKETS` linear sub-buckets,
//! giving a worst-case relative quantile error of `1/SUB_BUCKETS` (≈1.6%
//! with 64 sub-buckets) — comfortably below the noise floor of any latency
//! experiment in the paper. Recording is wait-free: one `leading_zeros`,
//! one shift, one relaxed atomic increment.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

const SUB_BUCKET_BITS: u32 = 6;
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS; // 64
/// Number of power-of-two ranges covered (values up to 2^40 ns ≈ 18 min).
const RANGES: usize = 41;
const BUCKETS: usize = RANGES * SUB_BUCKETS;

#[inline]
fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros(); // >= SUB_BUCKET_BITS
    let range = (msb - SUB_BUCKET_BITS + 1) as usize;
    let shifted = (value >> (msb - SUB_BUCKET_BITS)) as usize - SUB_BUCKETS / 2 + SUB_BUCKETS / 2;
    let sub = shifted & (SUB_BUCKETS - 1);
    let idx = range * SUB_BUCKETS + sub;
    idx.min(BUCKETS - 1)
}

#[inline]
fn bucket_upper_bound(idx: usize) -> u64 {
    let range = idx / SUB_BUCKETS;
    let sub = (idx % SUB_BUCKETS) as u64;
    if range == 0 {
        return sub;
    }
    let shift = (range - 1) as u32;
    ((SUB_BUCKETS as u64) + sub + 1) << shift
}

/// One exemplar slot: the trace id and value of a recent sample that
/// landed in this bucket. Written with relaxed stores (value first, then
/// trace); a torn pair under contention is acceptable for exemplars —
/// both halves still come from real samples in this bucket.
struct ExemplarSlot {
    trace: AtomicU64,
    value: AtomicU64,
}

/// Concurrent latency histogram. Clone-free sharing via `&`/`Arc`.
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    min: AtomicU64,
    // Lazily allocated on the first `record_with_exemplar` call, so
    // histograms that never see traced samples pay nothing.
    exemplars: OnceLock<Box<[ExemplarSlot]>>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        // Avoid a 64KiB stack temporary: build on the heap.
        let v: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; BUCKETS]> = v.into_boxed_slice().try_into().ok().unwrap();
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            exemplars: OnceLock::new(),
        }
    }

    /// Record a raw value (nanoseconds by convention).
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
    }

    /// Record a value and, when `trace_id != 0`, remember it as the
    /// bucket's exemplar — the OpenMetrics exposition attaches it to the
    /// matching `_bucket` line so a dashboard bucket links to the exact
    /// causal trace. With `trace_id == 0` this is plain [`Histogram::record`].
    #[inline]
    pub fn record_with_exemplar(&self, value: u64, trace_id: u64) {
        self.record(value);
        if trace_id != 0 {
            let slots = self.exemplar_slots();
            let slot = &slots[bucket_index(value)];
            slot.value.store(value, Ordering::Relaxed);
            slot.trace.store(trace_id, Ordering::Relaxed);
        }
    }

    /// Duration flavour of [`Histogram::record_with_exemplar`].
    #[inline]
    pub fn record_duration_with_exemplar(&self, d: Duration, trace_id: u64) {
        self.record_with_exemplar(d.as_nanos().min(u128::from(u64::MAX)) as u64, trace_id);
    }

    fn exemplar_slots(&self) -> &[ExemplarSlot] {
        self.exemplars.get_or_init(|| {
            (0..BUCKETS)
                .map(|_| ExemplarSlot {
                    trace: AtomicU64::new(0),
                    value: AtomicU64::new(0),
                })
                .collect()
        })
    }

    /// Record a [`Duration`] in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        if let Some(slots) = self.exemplars.get() {
            for s in slots.iter() {
                s.trace.store(0, Ordering::Relaxed);
                s.value.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Take a consistent-enough snapshot for reporting. (Relaxed loads:
    /// concurrent recording may skew the snapshot by a handful of samples,
    /// which is irrelevant for experiment reporting.)
    pub fn snapshot(&self) -> Snapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let exemplars = match self.exemplars.get() {
            None => Vec::new(),
            Some(slots) => slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| {
                    let trace = s.trace.load(Ordering::Relaxed);
                    if trace == 0 {
                        None
                    } else {
                        Some((
                            bucket_upper_bound(i),
                            trace,
                            s.value.load(Ordering::Relaxed),
                        ))
                    }
                })
                .collect(),
        };
        Snapshot {
            counts,
            exemplars,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
        }
    }

    /// Merge another live histogram into this one bucket-wise, so
    /// per-worker histograms can be folded into a deployment-wide one
    /// without first snapshotting. Concurrent recording on either side
    /// may skew the result by a handful of in-flight samples, same as
    /// [`Histogram::snapshot`].
    pub fn merge(&self, other: &Histogram) {
        for (a, b) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                a.fetch_add(n, Ordering::Relaxed);
            }
        }
        if let Some(theirs) = other.exemplars.get() {
            let ours = self.exemplar_slots();
            for (a, b) in ours.iter().zip(theirs.iter()) {
                let trace = b.trace.load(Ordering::Relaxed);
                if trace != 0 {
                    a.value
                        .store(b.value.load(Ordering::Relaxed), Ordering::Relaxed);
                    a.trace.store(trace, Ordering::Relaxed);
                }
            }
        }
        let other_count = other.count.load(Ordering::Relaxed);
        if other_count == 0 {
            return;
        }
        self.count.fetch_add(other_count, Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Convenience: percentile in milliseconds straight off a live histogram.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        self.snapshot().percentile(p) as f64 / 1e6
    }

    /// Convenience: mean in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.snapshot().mean() / 1e6
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Immutable snapshot of a histogram, supporting percentile queries and
/// merging across workers.
#[derive(Clone, Debug)]
pub struct Snapshot {
    counts: Vec<u64>,
    // `(bucket_upper_bound, trace_id, value)` for every bucket that has
    // an exemplar, in increasing bound order.
    exemplars: Vec<(u64, u64, u64)>,
    /// Total number of samples.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Maximum recorded value (exact).
    pub max: u64,
    /// Minimum recorded value (exact; 0 when empty).
    pub min: u64,
}

impl Snapshot {
    /// Value at quantile `p` in `[0, 100]`. Returns the upper bound of the
    /// bucket containing the p-th percentile sample; `0` when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Cumulative `(upper_bound, cumulative_count)` pairs over every
    /// occupied bucket, in increasing bound order. The last entry's count
    /// equals [`Snapshot::count`]. Empty buckets are skipped (the log
    /// layout has thousands of them), which keeps exposition formats like
    /// Prometheus text small; cumulative counts stay monotone regardless.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                cum += c;
                out.push((bucket_upper_bound(i), cum));
            }
        }
        out
    }

    /// Arithmetic mean of recorded values (exact, from the running sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Mean in milliseconds (values recorded as nanoseconds).
    pub fn mean_ms(&self) -> f64 {
        self.mean() / 1e6
    }

    /// Percentile in milliseconds (values recorded as nanoseconds).
    pub fn percentile_ms(&self, p: f64) -> f64 {
        self.percentile(p) as f64 / 1e6
    }

    /// `(bucket_upper_bound, trace_id, value)` exemplars captured via
    /// [`Histogram::record_with_exemplar`], in increasing bound order.
    pub fn exemplars(&self) -> &[(u64, u64, u64)] {
        &self.exemplars
    }

    /// Merge another snapshot into this one (e.g. across serving workers).
    pub fn merge(&mut self, other: &Snapshot) {
        assert_eq!(self.counts.len(), other.counts.len());
        // Exemplars: keep ours on a per-bucket conflict, adopt theirs for
        // buckets we have none (either side's is a real recent sample).
        for &(bound, trace, value) in &other.exemplars {
            match self.exemplars.binary_search_by_key(&bound, |e| e.0) {
                Ok(_) => {}
                Err(pos) => self.exemplars.insert(pos, (bound, trace, value)),
            }
        }
        self.min = match (self.count == 0, other.count == 0) {
            (true, true) => 0,
            (true, false) => other.min,
            (false, true) => self.min,
            (false, false) => self.min.min(other.min),
        };
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.percentile(99.0), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min, 0);
        assert!(s.exemplars().is_empty());
    }

    #[test]
    fn exemplars_track_buckets() {
        let h = Histogram::new();
        h.record(1000); // no exemplar
        h.record_with_exemplar(1000, 0); // trace 0 records no exemplar
        assert!(h.snapshot().exemplars().is_empty());
        h.record_with_exemplar(1000, 42);
        h.record_with_exemplar(1_000_000, 43);
        h.record_with_exemplar(1_000_001, 44); // same bucket: replaces 43
        let s = h.snapshot();
        let ex = s.exemplars();
        assert_eq!(ex.len(), 2);
        assert_eq!(ex[0].1, 42);
        assert_eq!(ex[0].2, 1000);
        assert!(ex[0].0 >= 1000, "bound covers the sample");
        assert_eq!(ex[1].1, 44);
        assert_eq!(ex[1].2, 1_000_001);
        assert!(ex[0].0 < ex[1].0, "exemplars sorted by bucket bound");
        // Exemplar bounds line up with exposed cumulative bucket bounds.
        let bucket_bounds: Vec<u64> = s.cumulative_buckets().iter().map(|&(b, _)| b).collect();
        assert!(ex.iter().all(|e| bucket_bounds.contains(&e.0)));
        // Reset clears them.
        h.reset();
        assert!(h.snapshot().exemplars().is_empty());
    }

    #[test]
    fn exemplars_survive_snapshot_and_live_merge() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record_with_exemplar(500, 7);
        b.record_with_exemplar(2_000_000, 8);
        b.record_with_exemplar(500, 9); // conflicts with a's bucket
        let mut sa = a.snapshot();
        let sb = b.snapshot();
        sa.merge(&sb);
        let ex = sa.exemplars();
        assert_eq!(ex.len(), 2);
        assert_eq!(ex[0].1, 7, "ours wins on a per-bucket conflict");
        assert_eq!(ex[1].1, 8, "theirs adopted where we had none");
        // Live merge: other's exemplars copied in.
        a.merge(&b);
        let ex = a.snapshot();
        let ex = ex.exemplars();
        assert_eq!(ex.len(), 2);
        assert_eq!(ex[0].1, 9, "live merge overwrites with other's slot");
        assert_eq!(ex[1].1, 8);
    }

    #[test]
    fn single_value() {
        let h = Histogram::new();
        h.record(1000);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.max, 1000);
        assert_eq!(s.min, 1000);
        assert_eq!(s.mean(), 1000.0);
        let p50 = s.percentile(50.0);
        assert!((990..=1020).contains(&p50), "p50 was {p50}");
    }

    #[test]
    fn percentile_relative_error_bounded() {
        let h = Histogram::new();
        // Uniform values 1..=100_000 ns
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        for &p in &[10.0, 50.0, 90.0, 99.0, 99.9] {
            let expected = p / 100.0 * 100_000.0;
            let got = s.percentile(p) as f64;
            let rel = (got - expected).abs() / expected;
            assert!(
                rel < 0.05,
                "p{p}: got {got}, expected ~{expected} (rel {rel:.3})"
            );
        }
    }

    #[test]
    fn max_is_exact_and_percentile_never_exceeds_it() {
        let h = Histogram::new();
        h.record(123_456_789);
        h.record(5);
        let s = h.snapshot();
        assert_eq!(s.max, 123_456_789);
        assert!(s.percentile(100.0) <= s.max);
    }

    #[test]
    fn live_merge_matches_snapshot_merge() {
        let h1 = Histogram::new();
        let h2 = Histogram::new();
        for v in 0..1000u64 {
            h1.record(v * 100);
            h2.record(v * 1_000 + 5_000_000);
        }
        let mut expect = h1.snapshot();
        expect.merge(&h2.snapshot());
        h1.merge(&h2);
        let got = h1.snapshot();
        assert_eq!(got.count, expect.count);
        assert_eq!(got.sum, expect.sum);
        assert_eq!(got.max, expect.max);
        assert_eq!(got.min, expect.min);
        for &p in &[1.0, 25.0, 50.0, 75.0, 99.0, 99.9] {
            assert_eq!(got.percentile(p), expect.percentile(p), "p{p} diverged");
        }
    }

    #[test]
    fn live_merge_of_empty_is_noop() {
        let h = Histogram::new();
        h.record(42);
        h.merge(&Histogram::new());
        let s = h.snapshot();
        assert_eq!((s.count, s.min, s.max), (1, 42, 42));
        // Merging into an empty histogram adopts the other's min.
        let e = Histogram::new();
        e.merge(&h);
        assert_eq!(e.snapshot().min, 42);
    }

    #[test]
    fn merged_percentiles_split_across_workers() {
        // Three "workers" each record a disjoint latency band; the merged
        // view must place p50 in the middle band and p99 in the top band.
        let workers: Vec<Histogram> = (0..3).map(|_| Histogram::new()).collect();
        for (i, w) in workers.iter().enumerate() {
            for v in 0..10_000u64 {
                w.record((i as u64 + 1) * 1_000_000 + v);
            }
        }
        let total = Histogram::new();
        for w in &workers {
            total.merge(w);
        }
        let s = total.snapshot();
        assert_eq!(s.count, 30_000);
        let p50 = s.percentile(50.0);
        assert!(
            (2_000_000..2_100_000).contains(&p50),
            "p50 {p50} not in middle band"
        );
        let p99 = s.percentile(99.0);
        assert!(p99 >= 3_000_000, "p99 {p99} not in top band");
    }

    #[test]
    fn merge_combines_counts() {
        let h1 = Histogram::new();
        let h2 = Histogram::new();
        for v in 0..100 {
            h1.record(v);
            h2.record(v + 1_000_000);
        }
        let mut s = h1.snapshot();
        s.merge(&h2.snapshot());
        assert_eq!(s.count, 200);
        assert_eq!(s.max, 1_000_099);
        assert_eq!(s.min, 0);
        // p99+ must land in h2's territory
        assert!(s.percentile(99.9) >= 1_000_000);
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_complete() {
        let h = Histogram::new();
        assert!(h.snapshot().cumulative_buckets().is_empty());
        for v in [5u64, 5, 1_000, 1_000_000, 1_000_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        let buckets = s.cumulative_buckets();
        assert_eq!(buckets.last().unwrap().1, s.count);
        for w in buckets.windows(2) {
            assert!(w[0].0 < w[1].0, "bounds strictly increasing");
            assert!(w[0].1 < w[1].1, "cumulative counts increasing");
        }
        // The first occupied bucket contains both 5s.
        assert_eq!(buckets[0].1, 2);
    }

    #[test]
    fn reset_clears_everything() {
        let h = Histogram::new();
        h.record(10);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.snapshot().max, 0);
    }

    #[test]
    fn duration_recording_in_ms_helpers() {
        let h = Histogram::new();
        h.record_duration(Duration::from_millis(10));
        assert!((h.mean_ms() - 10.0).abs() < 0.5);
        assert!((h.percentile_ms(50.0) - 10.0).abs() < 0.5);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    h.record(t * 10_000 + i);
                }
            }));
        }
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
    }

    #[test]
    fn bucket_index_monotone_on_boundaries() {
        let mut last = 0usize;
        for shift in 0..30 {
            let v = 1u64 << shift;
            let idx = bucket_index(v);
            assert!(idx >= last, "bucket index must be monotone");
            last = idx;
        }
    }

    #[test]
    fn huge_values_saturate_gracefully() {
        let h = Histogram::new();
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.max, u64::MAX);
        let _ = s.percentile(99.0); // must not panic
    }

    /// Values below `2^max_bits` spread over every magnitude, so the
    /// exact sub-64 range and the wide buckets are both exercised.
    fn seeded_values(rng: &mut StdRng, max_bits: u32, len: usize) -> Vec<u64> {
        (0..len)
            .map(|_| rng.gen::<u64>() >> rng.gen_range(64 - max_bits..64))
            .collect()
    }

    /// The documented guarantee: every reported percentile is an upper
    /// bound on the true empirical percentile, within the bucket's
    /// relative width (`1/SUB_BUCKETS`, with a +1 slack for the exact
    /// sub-64 range).
    #[test]
    fn seeded_percentile_relative_error_bounded() {
        for seed in 1..=96u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let len = rng.gen_range(1..200);
            let values = seeded_values(&mut rng, 40, len);
            let h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let s = h.snapshot();
            let mut sorted = values;
            sorted.sort_unstable();
            for _ in 0..8 {
                let p = f64::from(rng.gen_range(0u32..1001)) / 10.0;
                let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
                let truth = sorted[rank - 1];
                let got = s.percentile(p);
                assert!(
                    got >= truth,
                    "seed {seed} p{p}: reported {got} below true percentile {truth}"
                );
                let bound = truth + truth / (SUB_BUCKETS as u64 / 2) + 1;
                assert!(
                    got <= bound,
                    "seed {seed} p{p}: reported {got} exceeds error bound {bound} (true {truth})"
                );
            }
        }
    }

    /// Merging per-worker histograms must agree with recording the
    /// concatenated stream into one histogram, at every percentile.
    #[test]
    fn seeded_merge_equals_concatenation() {
        for seed in 1..=96u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (ha, hb, hall) = (Histogram::new(), Histogram::new(), Histogram::new());
            for h in [&ha, &hb] {
                let len = rng.gen_range(0..100);
                for v in seeded_values(&mut rng, 30, len) {
                    h.record(v);
                    hall.record(v);
                }
            }
            ha.merge(&hb);
            let merged = ha.snapshot();
            let direct = hall.snapshot();
            assert_eq!(merged.count, direct.count, "seed {seed}");
            assert_eq!(merged.sum, direct.sum, "seed {seed}");
            assert_eq!(merged.max, direct.max, "seed {seed}");
            assert_eq!(merged.min, direct.min, "seed {seed}");
            for p in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
                assert_eq!(
                    merged.percentile(p),
                    direct.percentile(p),
                    "seed {seed} p{p}"
                );
            }
        }
    }
}
