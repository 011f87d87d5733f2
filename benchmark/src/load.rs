//! The load generator: seed sequences, the open-loop schedule, and the
//! three timed phases (live, pipelined, burst) driven through one pooled
//! [`Client`] to the gateway.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use helios_datagen::ZipfSampler;
use helios_net::client::ServeCompletion;
use helios_net::Client;
use helios_types::{GraphUpdate, Timestamp, VertexId, VertexType, VertexUpdate};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::decode::decode_reply;
use crate::spec::{SeedDist, INGEST_BATCH, LIVE_TICK_MS, PIPELINE_DEPTH};
use crate::trace::{SpanLog, NO_PARENT};

/// A deterministic stream of request seeds.
pub struct SeedSequence {
    rng: StdRng,
    /// The seed population in a seeded random order, so the hot end of a
    /// Zipf draw is not simply the lowest vertex ids.
    ids: Vec<u64>,
    zipf: Option<ZipfSampler>,
}

impl SeedSequence {
    /// Seeds drawn by `dist` from vertex ids `[lo, hi)`.
    pub fn new(dist: SeedDist, (lo, hi): (u64, u64), seed: u64) -> SeedSequence {
        assert!(hi > lo, "empty seed population");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids: Vec<u64> = (lo..hi).collect();
        ids.shuffle(&mut rng);
        let zipf = match dist {
            SeedDist::Uniform => None,
            SeedDist::Zipf(s) => Some(ZipfSampler::new(hi - lo, s)),
        };
        SeedSequence { rng, ids, zipf }
    }

    pub fn next_seed(&mut self) -> u64 {
        let index = match &self.zipf {
            // Zipf ranks are 1-based.
            Some(zipf) => zipf.sample(&mut self.rng) as usize - 1,
            None => self.rng.gen_range(0..self.ids.len()),
        };
        self.ids[index]
    }

    /// The first `n` ids of the shuffled population: distinct real seeds.
    pub fn distinct(&self, n: usize) -> Vec<u64> {
        self.ids.iter().copied().take(n).collect()
    }
}

/// A clock the open-loop schedule can be tested against.
pub trait Clock {
    fn now(&self) -> Instant;
    /// Sleep until `deadline`; returns at once if it has passed.
    fn sleep_until(&self, deadline: Instant);
}

pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }
    fn sleep_until(&self, deadline: Instant) {
        let left = deadline.saturating_duration_since(Instant::now());
        if !left.is_zero() {
            std::thread::sleep(left);
        }
    }
}

/// Evenly spaced due times: slot `k` is due at `start + k × interval`,
/// whatever happened to the slots before it.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub interval: Duration,
}

impl Schedule {
    pub fn per_second(start: Instant, rate: u32) -> Schedule {
        Schedule {
            start,
            interval: Duration::from_secs_f64(1.0 / f64::from(rate.max(1))),
        }
    }

    pub fn due(&self, slot: u64) -> Instant {
        self.start + self.interval.mul_f64(slot as f64)
    }

    /// Slots whose due time falls inside `duration`.
    pub fn slots_in(&self, duration: Duration) -> u64 {
        (duration.as_secs_f64() / self.interval.as_secs_f64()).floor() as u64
    }
}

/// Run `slots` open-loop slots: wait for each slot's due time, then call
/// `issue(slot, due, lateness)`. A slot that comes due while an earlier
/// `issue` is still running is issued as soon as that returns — late, and
/// reported as such — never skipped and never re-timed: requests are timed
/// from `due`, so the stall shows up in their latency.
pub fn run_open_loop(
    clock: &impl Clock,
    schedule: Schedule,
    slots: u64,
    mut issue: impl FnMut(u64, Instant, Duration),
) {
    for slot in 0..slots {
        let due = schedule.due(slot);
        clock.sleep_until(due);
        let late = clock.now().saturating_duration_since(due);
        issue(slot, due, late);
    }
}

/// Latency samples and the failure count of a set of serve requests.
#[derive(Default)]
pub struct ServeSamples {
    /// Due time (open loop) or issue time (closed loop) to reply receipt,
    /// milliseconds; requests recorded with spans are kept apart so the
    /// cost of recording can be read off the difference.
    pub plain_ms: Vec<f64>,
    pub traced_ms: Vec<f64>,
    /// How late after its due time each open-loop request was issued.
    pub late_ms: Vec<f64>,
    pub reply_bytes: Vec<u32>,
    pub attempted: u64,
    pub failed: u64,
    /// Failures that were replies the decoder rejected: wrong output, as
    /// opposed to no output.
    pub malformed: u64,
    /// Sample-table parents and feature vectors in the replies.
    pub groups: u64,
    pub features: u64,
    /// The first few failures, verbatim, for the report.
    pub errors: Vec<String>,
}

impl ServeSamples {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    pub fn absorb(&mut self, other: ServeSamples) {
        self.plain_ms.extend(other.plain_ms);
        self.traced_ms.extend(other.traced_ms);
        self.late_ms.extend(other.late_ms);
        self.reply_bytes.extend(other.reply_bytes);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.malformed += other.malformed;
        self.groups += other.groups;
        self.features += other.features;
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// What the SUT was sent, in order, as references into the pre-generated
/// stream plus the marker updates made up on the fly — enough to feed the
/// in-process reference the identical sequence.
#[derive(Debug, Clone, PartialEq)]
pub enum Sent {
    /// `events[start..end]`, minus updates of marker seeds when `live`.
    Stream {
        start: usize,
        end: usize,
        live: bool,
    },
    Marker(VertexUpdate),
}

/// Whether the live writer sends `update`: a stream update of a marker
/// seed would overwrite an outstanding marker's sequence number.
pub fn live_filter(update: &GraphUpdate, marker_seeds: &[u64]) -> bool {
    match update {
        GraphUpdate::Vertex(v) => !marker_seeds.contains(&v.id.raw()),
        GraphUpdate::Edge(_) => true,
    }
}

/// Replay `sent` against `events`, handing each batch to `apply`.
pub fn replay(
    sent: &[Sent],
    events: &[GraphUpdate],
    marker_seeds: &[u64],
    mut apply: impl FnMut(&[GraphUpdate]) -> Result<(), String>,
) -> Result<(), String> {
    for entry in sent {
        match entry {
            Sent::Stream {
                start,
                end,
                live: false,
            } => {
                for chunk in events[*start..*end].chunks(INGEST_BATCH) {
                    apply(chunk)?;
                }
            }
            Sent::Stream {
                start,
                end,
                live: true,
            } => {
                let batch: Vec<GraphUpdate> = events[*start..*end]
                    .iter()
                    .filter(|u| live_filter(u, marker_seeds))
                    .cloned()
                    .collect();
                apply(&batch)?;
            }
            Sent::Marker(v) => apply(&[GraphUpdate::Vertex(v.clone())])?,
        }
    }
    Ok(())
}

/// Everything a serve-issuing thread needs.
#[derive(Clone, Copy)]
pub struct ServeCtx<'a> {
    pub client: &'a Client,
    pub fanouts: &'a [u32],
    /// Spans are recorded when set; `epoch` is their common time origin.
    pub traced: bool,
    pub epoch: Instant,
}

struct Marker {
    seq: u32,
    seed: u64,
    due: Instant,
}

/// One issued request on its way from the issuer to the harvester.
struct InFlight {
    slot: u64,
    seed: u64,
    due: Instant,
    issued: Instant,
    issue_done: Instant,
    completion: ServeCompletion,
    traced: bool,
}

pub struct LiveConfig<'a> {
    pub serve: ServeCtx<'a>,
    /// Traffic before the timed part; its samples are checked, not kept.
    pub lead_in: Duration,
    pub duration: Duration,
    pub serve_rate: u32,
    pub update_rate: u32,
    pub events: &'a [GraphUpdate],
    /// Index of the first stream event not yet sent.
    pub cursor: usize,
    pub marker_seeds: &'a [u64],
    pub seed_type: VertexType,
    pub feature_dim: usize,
    pub seeds: SeedSequence,
}

pub struct LiveOutcome {
    pub serve: ServeSamples,
    /// Marker due time to receipt of the first reply showing it, ms.
    pub freshness_ms: Vec<f64>,
    pub markers_sent: u64,
    /// Markers no reply had shown when the phase ended.
    pub markers_unseen: u64,
    pub sent: Vec<Sent>,
    pub cursor: usize,
    pub ingest_batches: u64,
    pub ingest_failed: u64,
    pub spans: SpanLog,
}

/// The live phase: one thread issues serves open loop at `serve_rate`
/// (a second harvests the replies, so a slow reply never delays the next
/// request), while a writer thread sends one update batch per tick and a
/// freshness marker on every second tick.
///
/// A marker is a `VertexUpdate` of a real seed whose `feature[0]` is the
/// marker's sequence number. While markers are outstanding the issuer's
/// slots ask for their seeds in turn; the marker's freshness is the time
/// from its batch's due time to the receipt of the first reply whose seed
/// feature carries its number.
pub fn live_phase(cfg: LiveConfig<'_>) -> LiveOutcome {
    let LiveConfig {
        serve: ctx,
        lead_in,
        duration,
        serve_rate,
        update_rate,
        events,
        cursor,
        marker_seeds,
        seed_type,
        feature_dim,
        mut seeds,
    } = cfg;
    let outstanding: Mutex<Vec<Marker>> = Mutex::new(Vec::new());
    let start = Instant::now() + Duration::from_millis(5);
    let timed_from = start + lead_in;
    let timed_until = timed_from + duration;
    let schedule = Schedule::per_second(start, serve_rate);
    let slots = schedule.slots_in(lead_in + duration);
    let tick = Duration::from_millis(LIVE_TICK_MS);
    let ticks = ((lead_in + duration).as_millis() as u64) / LIVE_TICK_MS;
    let per_tick = (u64::from(update_rate) * LIVE_TICK_MS / 1000) as usize;
    let last_ts = events[..cursor].last().map_or(0, |u| u.ts().millis());

    let (tx, rx) = mpsc::channel::<InFlight>();
    let pending_markers = &outstanding;
    let (issuer_out, harvest_out, writer_out) = std::thread::scope(|scope| {
        let issuer = scope.spawn(move || {
            let outstanding = pending_markers;
            let mut samples = ServeSamples::default();
            let mut rotate = 0usize;
            let mut issue = |slot: u64, due: Instant, late: Duration, probe_only: bool| {
                let seed = {
                    let pending = outstanding.lock().expect("marker list lock");
                    if pending.is_empty() {
                        None
                    } else {
                        rotate += 1;
                        Some(pending[rotate % pending.len()].seed)
                    }
                };
                let seed = match seed {
                    Some(seed) => seed,
                    None if probe_only => return false,
                    None => seeds.next_seed(),
                };
                // Alternate half-second blocks with and without spans.
                let traced =
                    ctx.traced && (slot / u64::from(serve_rate.max(2) / 2)).is_multiple_of(2);
                samples.attempted += 1;
                if due >= timed_from && due < timed_until {
                    samples.late_ms.push(late.as_secs_f64() * 1e3);
                }
                let issued = Instant::now();
                match ctx.client.begin_serve(VertexId(seed)) {
                    Ok(completion) => {
                        let _ = tx.send(InFlight {
                            slot,
                            seed,
                            due,
                            issued,
                            issue_done: Instant::now(),
                            completion,
                            traced,
                        });
                    }
                    Err(e) => samples.fail(format!("begin_serve({seed}): {e}")),
                }
                true
            };
            run_open_loop(&SystemClock, schedule, slots, |slot, due, late| {
                issue(slot, due, late, false);
            });
            // Lead-out: keep asking, at the same rate, for the seeds of
            // markers no reply has shown yet, so that a marker sent late in
            // the phase is not mistaken for a lost update. Two seconds
            // without seeing it is a failure.
            let lead_out = schedule.slots_in(Duration::from_secs(2));
            for slot in slots..slots + lead_out {
                let due = schedule.due(slot);
                SystemClock.sleep_until(due);
                if !issue(slot, due, Duration::ZERO, true) {
                    break;
                }
            }
            drop(tx);
            samples
        });

        let harvester = scope.spawn(move || {
            let outstanding = pending_markers;
            let mut samples = ServeSamples::default();
            let mut spans = SpanLog::new(ctx.epoch);
            let mut freshness_ms = Vec::new();
            for req in rx {
                let wait_from = Instant::now();
                let reply = req.completion.wait();
                let received = Instant::now();
                let bytes = match reply {
                    Ok(bytes) => bytes,
                    Err(e) => {
                        samples.fail(format!("serve({}): {e}", req.seed));
                        continue;
                    }
                };
                let summary = match decode_reply(&bytes, req.seed, ctx.fanouts) {
                    Ok(summary) => summary,
                    Err(e) => {
                        samples.malformed += 1;
                        samples.fail(format!("reply for {}: {e}", req.seed));
                        continue;
                    }
                };
                let decoded = Instant::now();
                let ms = received.duration_since(req.due).as_secs_f64() * 1e3;
                if req.due < timed_from || req.due >= timed_until {
                    // Lead-in and lead-out: checked above, not measured.
                } else if req.traced {
                    samples.traced_ms.push(ms);
                    let root =
                        spans.record("bench.request", req.due, received, NO_PARENT, req.slot);
                    spans.record("bench.schedule_wait", req.due, req.issued, root, req.slot);
                    spans.record(
                        "net.client.begin_serve",
                        req.issued,
                        req.issue_done,
                        root,
                        req.slot,
                    );
                    spans.record(
                        "net.client.wait",
                        wait_from.max(req.issue_done),
                        received,
                        root,
                        req.slot,
                    );
                    spans.record("bench.decode_reply", received, decoded, NO_PARENT, req.slot);
                } else {
                    samples.plain_ms.push(ms);
                }
                samples.reply_bytes.push(bytes.len() as u32);
                samples.groups += u64::from(summary.groups);
                samples.features += u64::from(summary.features);
                if let Some(shown) = summary.seed_feature0 {
                    let mut pending = outstanding.lock().expect("marker list lock");
                    pending.retain(|m| {
                        let seen = m.seed == req.seed && m.seq as f32 <= shown;
                        if seen && m.due >= timed_from {
                            freshness_ms.push(
                                received.saturating_duration_since(m.due).as_secs_f64() * 1e3,
                            );
                        }
                        !seen
                    });
                }
            }
            (samples, freshness_ms, spans)
        });

        let writer = scope.spawn(move || {
            let outstanding = pending_markers;
            let mut sent = Vec::new();
            let mut spans = SpanLog::new(ctx.epoch);
            let (mut cursor, mut ts) = (cursor, last_ts);
            let (mut markers_sent, mut failed) = (0u64, 0u64);
            let mut batches = 0u64;
            run_open_loop(
                &SystemClock,
                Schedule {
                    start,
                    interval: tick,
                },
                ticks,
                |tick_no, due, _late| {
                    let end = (cursor + per_tick).min(events.len());
                    let mut batch: Vec<GraphUpdate> = events[cursor..end]
                        .iter()
                        .filter(|u| live_filter(u, marker_seeds))
                        .cloned()
                        .collect();
                    if end > cursor {
                        sent.push(Sent::Stream {
                            start: cursor,
                            end,
                            live: true,
                        });
                        ts = ts.max(events[end - 1].ts().millis());
                        cursor = end;
                    }
                    // Every batch carries a freshness marker.
                    let seq = tick_no as u32 + 1;
                    let seed = marker_seeds[seq as usize % marker_seeds.len()];
                    ts += 1;
                    let mut feature = vec![0.0f32; feature_dim.max(1)];
                    feature[0] = seq as f32;
                    let marker = VertexUpdate {
                        vtype: seed_type,
                        id: VertexId(seed),
                        ts: Timestamp(ts),
                        feature,
                    };
                    sent.push(Sent::Marker(marker.clone()));
                    batch.push(GraphUpdate::Vertex(marker));
                    outstanding
                        .lock()
                        .expect("marker list lock")
                        .push(Marker { seq, seed, due });
                    markers_sent += 1;
                    if batch.is_empty() {
                        return;
                    }
                    let n = batch.len() as u64;
                    batches += 1;
                    let t0 = Instant::now();
                    match ctx.client.ingest(batch) {
                        Ok(acked) if acked == n => {}
                        _ => failed += 1,
                    }
                    if ctx.traced {
                        spans.record("net.client.ingest", t0, Instant::now(), NO_PARENT, tick_no);
                    }
                },
            );
            (sent, cursor, markers_sent, batches, failed, spans)
        });

        (
            issuer.join().expect("issuer thread"),
            harvester.join().expect("harvester thread"),
            writer.join().expect("writer thread"),
        )
    });

    let mut serve = issuer_out;
    let (harvested, freshness_ms, mut spans) = harvest_out;
    // The issuer counted attempts and its own failures; the harvester
    // counted the failures of requests that were issued.
    serve.absorb(harvested);
    let (sent, cursor, markers_sent, ingest_batches, ingest_failed, writer_spans) = writer_out;
    spans.absorb(writer_spans);
    let markers_unseen = outstanding.lock().expect("marker list lock").len() as u64;
    LiveOutcome {
        serve,
        freshness_ms,
        markers_sent,
        markers_unseen,
        sent,
        cursor,
        ingest_batches,
        ingest_failed,
        spans,
    }
}

/// Length of one throughput slice of the pipelined phase.
pub const QPS_SLICE: Duration = Duration::from_millis(250);

pub struct PipelinedOutcome {
    pub serve: ServeSamples,
    /// Replies received in each [`QPS_SLICE`] of the timed part.
    pub slices: Vec<u64>,
}

impl PipelinedOutcome {
    /// Replies per second in the median slice. A scheduling hiccup empties
    /// one or two slices; the median slice does not notice.
    pub fn median_qps(&self) -> f64 {
        let per_slice: Vec<f64> = self.slices.iter().map(|&n| n as f64).collect();
        crate::stats::median(&per_slice).unwrap_or(0.0) / QPS_SLICE.as_secs_f64()
    }
}

/// The pipelined phase: two threads each keep [`PIPELINE_DEPTH`] serves in
/// flight through the shared client for `lead_in + duration`. Replies
/// received during the lead-in are checked but not counted: on this
/// sandbox the first second after the load steps up runs at a different
/// speed from the steady state that follows, and capacity is a
/// steady-state figure. Requests still in flight at the end are waited
/// for and checked, but not counted either.
pub fn pipelined_phase(
    ctx: ServeCtx<'_>,
    lead_in: Duration,
    duration: Duration,
    mut sequences: Vec<SeedSequence>,
) -> PipelinedOutcome {
    let timed_from = Instant::now() + lead_in;
    let deadline = timed_from + duration;
    let n_slices = (duration.as_secs_f64() / QPS_SLICE.as_secs_f64()).floor() as usize;
    let outcomes: Vec<(ServeSamples, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = sequences
            .drain(..)
            .map(|mut seeds| {
                scope.spawn(move || {
                    let mut samples = ServeSamples::default();
                    let mut slices = vec![0u64; n_slices];
                    let mut window: VecDeque<(ServeCompletion, u64, Instant)> = VecDeque::new();
                    loop {
                        let open = Instant::now() < deadline;
                        while open && window.len() < PIPELINE_DEPTH {
                            let seed = seeds.next_seed();
                            samples.attempted += 1;
                            match ctx.client.begin_serve(VertexId(seed)) {
                                Ok(c) => window.push_back((c, seed, Instant::now())),
                                Err(e) => samples.fail(format!("begin_serve({seed}): {e}")),
                            }
                        }
                        let Some((completion, seed, issued)) = window.pop_front() else {
                            break;
                        };
                        match completion.wait() {
                            Ok(bytes) => match decode_reply(&bytes, seed, ctx.fanouts) {
                                Ok(summary) => {
                                    let received = Instant::now();
                                    if received >= timed_from {
                                        let slice = received.duration_since(timed_from).as_nanos()
                                            / QPS_SLICE.as_nanos();
                                        if let Some(count) = slices.get_mut(slice as usize) {
                                            *count += 1;
                                        }
                                        samples.plain_ms.push(
                                            received.duration_since(issued).as_secs_f64() * 1e3,
                                        );
                                    }
                                    samples.reply_bytes.push(bytes.len() as u32);
                                    samples.groups += u64::from(summary.groups);
                                    samples.features += u64::from(summary.features);
                                }
                                Err(e) => {
                                    samples.malformed += 1;
                                    samples.fail(format!("reply for {seed}: {e}"));
                                }
                            },
                            Err(e) => samples.fail(format!("serve({seed}): {e}")),
                        }
                    }
                    (samples, slices)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pipelining thread"))
            .collect()
    });
    let mut serve = ServeSamples::default();
    let mut slices = vec![0u64; n_slices];
    for (samples, per_thread) in outcomes {
        serve.absorb(samples);
        for (total, n) in slices.iter_mut().zip(per_thread) {
            *total += n;
        }
    }
    PipelinedOutcome { serve, slices }
}

pub struct IngestOutcome {
    pub updates: u64,
    pub batches: u64,
    pub failed_batches: u64,
    /// Per-batch send-to-ack time, microseconds.
    pub ack_us: Vec<f64>,
    pub started: Instant,
    pub sent_by: Instant,
    pub spans: SpanLog,
}

/// Send `events` through the gateway as back-to-back blocking batches of
/// [`INGEST_BATCH`]. One batch is in flight at a time, so the SUT sees the
/// stream in order and the result stays comparable with the reference.
pub fn ingest_blocking(ctx: ServeCtx<'_>, events: &[GraphUpdate]) -> IngestOutcome {
    let started = Instant::now();
    let mut out = IngestOutcome {
        updates: 0,
        batches: 0,
        failed_batches: 0,
        ack_us: Vec::with_capacity(events.len() / INGEST_BATCH + 1),
        started,
        sent_by: started,
        spans: SpanLog::new(ctx.epoch),
    };
    for chunk in events.chunks(INGEST_BATCH) {
        let t0 = Instant::now();
        let acked = ctx.client.ingest(chunk.to_vec());
        let t1 = Instant::now();
        out.batches += 1;
        match acked {
            Ok(n) if n == chunk.len() as u64 => out.updates += n,
            _ => out.failed_batches += 1,
        }
        out.ack_us.push(t1.duration_since(t0).as_secs_f64() * 1e6);
        if ctx.traced {
            out.spans
                .record("net.client.ingest", t0, t1, NO_PARENT, out.batches);
        }
    }
    out.sent_by = Instant::now();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to: `sleep_until` jumps to the
    /// deadline, and the test's `issue` callback injects stalls.
    struct FakeClock {
        now: Cell<Instant>,
    }

    impl Clock for FakeClock {
        fn now(&self) -> Instant {
            self.now.get()
        }
        fn sleep_until(&self, deadline: Instant) {
            if deadline > self.now.get() {
                self.now.set(deadline);
            }
        }
    }

    #[test]
    fn a_stall_delays_later_slots_without_moving_their_due_times() {
        let t0 = Instant::now();
        let clock = FakeClock { now: Cell::new(t0) };
        let schedule = Schedule {
            start: t0,
            interval: Duration::from_millis(10),
        };
        let mut seen = Vec::new();
        run_open_loop(&clock, schedule, 6, |slot, due, late| {
            seen.push((slot, due.duration_since(t0).as_millis(), late.as_millis()));
            if slot == 1 {
                // The issue of slot 1 blocks for 35 ms.
                clock.now.set(clock.now.get() + Duration::from_millis(35));
            }
        });
        assert_eq!(
            seen,
            vec![
                (0, 0, 0),
                (1, 10, 0),
                // Due at 20/30/40 ms, issued at 45 ms: late, never skipped,
                // due times untouched.
                (2, 20, 25),
                (3, 30, 15),
                (4, 40, 5),
                // Caught up: back on schedule.
                (5, 50, 0),
            ]
        );
    }

    #[test]
    fn schedules_count_whole_slots() {
        let s = Schedule::per_second(Instant::now(), 400);
        assert_eq!(s.slots_in(Duration::from_secs(5)), 2000);
        assert_eq!(s.due(400).duration_since(s.start), Duration::from_secs(1));
    }

    fn draw(dist: SeedDist, seed: u64, n: usize) -> Vec<u64> {
        let mut seq = SeedSequence::new(dist, (100, 1100), seed);
        (0..n).map(|_| seq.next_seed()).collect()
    }

    #[test]
    fn seed_sequences_repeat_per_seed_and_differ_across_seeds() {
        for dist in [SeedDist::Uniform, SeedDist::Zipf(1.1)] {
            assert_eq!(draw(dist, 7, 500), draw(dist, 7, 500));
            assert_ne!(draw(dist, 7, 500), draw(dist, 8, 500));
            assert!(draw(dist, 7, 500).iter().all(|s| (100..1100).contains(s)));
        }
    }

    #[test]
    fn zipf_seeds_repeat_far_more_than_uniform_seeds() {
        let distinct = |mut v: Vec<u64>| {
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        let uniform = distinct(draw(SeedDist::Uniform, 3, 2000));
        let zipf = distinct(draw(SeedDist::Zipf(1.1), 3, 2000));
        assert!(zipf * 2 < uniform, "zipf {zipf} vs uniform {uniform}");
    }

    #[test]
    fn replay_reproduces_live_batches_without_marker_seed_updates() {
        let vertex = |id: u64| {
            GraphUpdate::Vertex(VertexUpdate {
                vtype: VertexType(0),
                id: VertexId(id),
                ts: Timestamp(id),
                feature: vec![0.0],
            })
        };
        let events: Vec<GraphUpdate> = (0..10).map(vertex).collect();
        let marker = VertexUpdate {
            vtype: VertexType(0),
            id: VertexId(3),
            ts: Timestamp(99),
            feature: vec![1.0],
        };
        let sent = vec![
            Sent::Stream {
                start: 0,
                end: 4,
                live: false,
            },
            Sent::Stream {
                start: 4,
                end: 8,
                live: true,
            },
            Sent::Marker(marker.clone()),
        ];
        let mut got: Vec<u64> = Vec::new();
        replay(&sent, &events, &[5, 3], |batch| {
            got.extend(batch.iter().map(|u| u.ts().millis()));
            Ok(())
        })
        .unwrap();
        // Base updates of marker seeds stay; the live one (id 5) is dropped.
        assert_eq!(got, vec![0, 1, 2, 3, 4, 6, 7, 99]);
    }
}
