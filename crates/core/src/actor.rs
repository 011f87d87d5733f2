//! A minimal actor runtime over OS threads and crossbeam channels — the
//! reproduction of the "distributed actor-based framework" the paper's
//! workers are built on (§4.2/§4.3: polling threads, sampling threads,
//! publisher threads; polling threads, data-updating threads, serving
//! threads).
//!
//! Three primitives:
//!
//! * [`spawn`] — one actor on one named thread with a typed mailbox,
//!   handled one drain at a time (see [`Actor::flush`]);
//! * [`ShardedPool`] — N actors, each owning a *shard* of a key space;
//!   messages are routed by key hash, so per-key state (reservoir tables!)
//!   needs no locking and per-key message order is preserved;
//! * [`Liveness`] — heartbeat beacons that a coordinator polls to detect
//!   dead workers (§4.1: "monitors the liveliness of all workers via
//!   heartbeats").

use crate::config::POLL_BATCH;
use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An actor processes messages of one type, sequentially, on its own
/// thread. It works in drains: when it wakes it handles the messages
/// waiting in its mailbox, at most [`POLL_BATCH`] of them, then
/// [`Actor::flush`]es.
pub trait Actor: Send + 'static {
    /// Mailbox message type.
    type Msg: Send + 'static;

    /// Handle one message.
    fn handle(&mut self, msg: Self::Msg);

    /// Called after each drain (and before the thread exits when a
    /// drain ends at a stop): emit whatever the drain's messages left
    /// owed, so one drain produces its output once.
    fn flush(&mut self) {}

    /// Called once on the actor's own thread before the first message
    /// (e.g. to register with a thread-local profiler registry).
    fn on_start(&mut self) {}

    /// Called once after the mailbox closes, before the thread exits.
    fn on_stop(&mut self) {}
}

enum Envelope<M> {
    Msg(M),
    Stop,
}

/// Handle to a spawned actor: send messages, then [`ActorHandle::stop`].
pub struct ActorHandle<M: Send + 'static> {
    name: String,
    tx: Sender<Envelope<M>>,
    join: Mutex<Option<JoinHandle<()>>>,
}

impl<M: Send + 'static> ActorHandle<M> {
    /// The actor's thread name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Enqueue a message. Returns `false` if the actor has stopped.
    pub fn send(&self, msg: M) -> bool {
        self.tx.send(Envelope::Msg(msg)).is_ok()
    }

    /// Ask the actor to stop after draining its mailbox, and join it.
    pub fn stop(&self) {
        let _ = self.tx.send(Envelope::Stop);
        if let Some(j) = self.join.lock().take() {
            let _ = j.join();
        }
    }

    /// Number of messages waiting in the mailbox.
    pub fn backlog(&self) -> usize {
        self.tx.len()
    }
}

/// Spawn `actor` on a named thread, returning its handle.
pub fn spawn<A: Actor>(name: &str, mut actor: A) -> ActorHandle<A::Msg> {
    let (tx, rx) = unbounded::<Envelope<A::Msg>>();
    let thread_name = name.to_string();
    let join = std::thread::Builder::new()
        .name(thread_name.clone())
        .spawn(move || {
            actor.on_start();
            let mut stopping = false;
            while !stopping {
                let Ok(mut env) = rx.recv() else { break };
                let mut handled = 0;
                loop {
                    match env {
                        Envelope::Msg(m) => actor.handle(m),
                        Envelope::Stop => {
                            stopping = true;
                            break;
                        }
                    }
                    handled += 1;
                    if handled == POLL_BATCH {
                        break;
                    }
                    match rx.try_recv() {
                        Ok(next) => env = next,
                        Err(_) => break,
                    }
                }
                if handled > 0 {
                    actor.flush();
                }
            }
            actor.on_stop();
        })
        .expect("failed to spawn actor thread");
    ActorHandle {
        name: name.to_string(),
        tx,
        join: Mutex::new(Some(join)),
    }
}

/// A pool of N identical actors; messages are routed by a caller-supplied
/// key so that all messages for one key are handled by the same actor, in
/// order. This is how sampling workers shard their reservoir tables over
/// sampling threads without locks.
pub struct ShardedPool<M: Send + 'static> {
    handles: Vec<ActorHandle<M>>,
}

impl<M: Send + 'static> ShardedPool<M> {
    /// Spawn `n` actors produced by `factory(shard_index)`.
    pub fn new<A, F>(name: &str, n: usize, mut factory: F) -> Self
    where
        A: Actor<Msg = M>,
        F: FnMut(usize) -> A,
    {
        assert!(n > 0, "pool needs at least one shard");
        let handles = (0..n)
            .map(|i| spawn(&format!("{name}-{i}"), factory(i)))
            .collect();
        ShardedPool { handles }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.handles.len()
    }

    /// Route a message by key hash.
    pub fn send(&self, key: u64, msg: M) -> bool {
        let idx = (shard_hash(key) % self.handles.len() as u64) as usize;
        self.handles[idx].send(msg)
    }

    /// Send to an explicit shard.
    pub fn send_to(&self, shard: usize, msg: M) -> bool {
        self.handles[shard % self.handles.len()].send(msg)
    }

    /// Total backlog across shards.
    pub fn backlog(&self) -> usize {
        self.handles.iter().map(ActorHandle::backlog).sum()
    }

    /// Stop and join every shard (drains mailboxes first).
    pub fn stop(&self) {
        for h in &self.handles {
            h.stop();
        }
    }
}

/// The shard a [`ShardedPool`] routes `key` to is `shard_hash(key) % n`.
#[inline]
pub fn shard_hash(key: u64) -> u64 {
    // Deliberately a *different* mix than helios-types::fx_hash_u64: the
    // deployment routes vertices to workers with that hash, so keys
    // arriving at one worker satisfy `fx_hash(v) ≡ w (mod M)`. Re-using
    // the same hash here would correlate shard choice with worker choice
    // and leave shards idle whenever gcd(M, shards) > 1. (SplitMix64
    // finalizer.)
    let mut x = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A heartbeat beacon held by a worker; cheap to bump.
#[derive(Clone)]
pub struct Beacon {
    last_beat_ms: Arc<AtomicU64>,
    epoch: Instant,
}

impl Beacon {
    /// Record a heartbeat now.
    pub fn beat(&self) {
        let ms = self.epoch.elapsed().as_millis() as u64;
        self.last_beat_ms.store(ms, Ordering::Relaxed);
    }
}

/// Liveness registry: the coordinator's view of worker heartbeats.
pub struct Liveness {
    epoch: Instant,
    workers: Mutex<Vec<(String, Arc<AtomicU64>)>>,
}

impl Default for Liveness {
    fn default() -> Self {
        Self::new()
    }
}

impl Liveness {
    /// New registry.
    pub fn new() -> Self {
        Liveness {
            epoch: Instant::now(),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// Register a worker; it should `beat()` periodically.
    pub fn register(&self, name: &str) -> Beacon {
        let cell = Arc::new(AtomicU64::new(self.epoch.elapsed().as_millis() as u64));
        self.workers
            .lock()
            .push((name.to_string(), Arc::clone(&cell)));
        Beacon {
            last_beat_ms: cell,
            epoch: self.epoch,
        }
    }

    /// Names of workers whose last beat is older than `timeout`.
    pub fn dead_workers(&self, timeout: Duration) -> Vec<String> {
        let now = self.epoch.elapsed().as_millis() as u64;
        let cutoff = now.saturating_sub(timeout.as_millis() as u64);
        self.workers
            .lock()
            .iter()
            .filter(|(_, c)| c.load(Ordering::Relaxed) < cutoff)
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Number of registered workers.
    pub fn worker_count(&self) -> usize {
        self.workers.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    struct Counter {
        count: Arc<AtomicUsize>,
        stopped: Arc<AtomicUsize>,
    }

    impl Actor for Counter {
        type Msg = u64;
        fn handle(&mut self, _msg: u64) {
            self.count.fetch_add(1, Ordering::SeqCst);
        }
        fn on_stop(&mut self) {
            self.stopped.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn actor_processes_all_messages_before_stop() {
        let count = Arc::new(AtomicUsize::new(0));
        let stopped = Arc::new(AtomicUsize::new(0));
        let h = spawn(
            "counter",
            Counter {
                count: Arc::clone(&count),
                stopped: Arc::clone(&stopped),
            },
        );
        for i in 0..1000 {
            assert!(h.send(i));
        }
        h.stop();
        assert_eq!(count.load(Ordering::SeqCst), 1000);
        assert_eq!(stopped.load(Ordering::SeqCst), 1);
        assert!(!h.send(1), "send after stop must fail");
    }

    #[test]
    fn stop_is_idempotent() {
        let count = Arc::new(AtomicUsize::new(0));
        let stopped = Arc::new(AtomicUsize::new(0));
        let h = spawn(
            "idem",
            Counter {
                count,
                stopped: Arc::clone(&stopped),
            },
        );
        h.stop();
        h.stop();
        assert_eq!(stopped.load(Ordering::SeqCst), 1);
    }

    struct Recorder {
        shard: usize,
        seen: Arc<Mutex<Vec<(usize, u64)>>>,
    }

    impl Actor for Recorder {
        type Msg = u64;
        fn handle(&mut self, msg: u64) {
            self.seen.lock().push((self.shard, msg));
        }
    }

    #[test]
    fn sharded_pool_routes_consistently_and_in_order() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let pool = ShardedPool::new("pool", 4, |shard| Recorder {
            shard,
            seen: Arc::clone(&seen),
        });
        assert_eq!(pool.shards(), 4);
        // Send 50 messages for each of 20 keys.
        for seq in 0..50u64 {
            for key in 0..20u64 {
                assert!(pool.send(key, key * 1000 + seq));
            }
        }
        pool.stop();
        let seen = seen.lock();
        assert_eq!(seen.len(), 1000);
        // Per key: all messages on one shard, sequence increasing.
        for key in 0..20u64 {
            let msgs: Vec<(usize, u64)> = seen
                .iter()
                .filter(|(_, m)| m / 1000 == key)
                .copied()
                .collect();
            assert_eq!(msgs.len(), 50);
            let shard = msgs[0].0;
            let mut last = None;
            for (s, m) in msgs {
                assert_eq!(s, shard, "key {key} hopped shards");
                if let Some(l) = last {
                    assert!(m > l, "key {key} reordered");
                }
                last = Some(m);
            }
        }
    }

    #[test]
    fn send_to_explicit_shard() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let pool = ShardedPool::new("pool", 2, |shard| Recorder {
            shard,
            seen: Arc::clone(&seen),
        });
        pool.send_to(0, 100);
        pool.send_to(1, 200);
        pool.send_to(5, 300); // wraps mod 2 -> shard 1
        pool.stop();
        let mut seen = seen.lock().clone();
        seen.sort();
        assert_eq!(seen, vec![(0, 100), (1, 200), (1, 300)]);
    }

    #[test]
    fn liveness_detects_silent_workers() {
        let live = Liveness::new();
        let b1 = live.register("sampler-0");
        let _b2 = live.register("sampler-1");
        assert_eq!(live.worker_count(), 2);
        std::thread::sleep(Duration::from_millis(30));
        b1.beat();
        let dead = live.dead_workers(Duration::from_millis(20));
        assert_eq!(dead, vec!["sampler-1".to_string()]);
        let dead = live.dead_workers(Duration::from_secs(10));
        assert!(dead.is_empty());
    }

    /// Records the size of each drain it flushes.
    struct Drains {
        gate: crossbeam::channel::Receiver<()>,
        handled: usize,
        flushed: Arc<Mutex<Vec<usize>>>,
    }

    impl Actor for Drains {
        type Msg = u64;
        fn handle(&mut self, msg: u64) {
            if msg == 0 {
                let _ = self.gate.recv();
            }
            self.handled += 1;
        }
        fn flush(&mut self) {
            self.flushed.lock().push(std::mem::take(&mut self.handled));
        }
    }

    #[test]
    fn drains_are_capped_at_poll_batch_and_flushed_once_each() {
        let (open, gate) = crossbeam::channel::bounded(1);
        let flushed = Arc::new(Mutex::new(Vec::new()));
        let h = spawn(
            "drains",
            Drains {
                gate,
                handled: 0,
                flushed: Arc::clone(&flushed),
            },
        );
        // Message 0 holds the actor until the rest wait behind it.
        for i in 0..=2 * POLL_BATCH as u64 {
            assert!(h.send(i));
        }
        open.send(()).unwrap();
        h.stop();
        assert_eq!(*flushed.lock(), vec![POLL_BATCH, POLL_BATCH, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn empty_pool_panics() {
        let _ = ShardedPool::new("p", 0, |shard| Recorder {
            shard,
            seen: Arc::new(Mutex::new(Vec::new())),
        });
    }
}

#[cfg(test)]
mod hash_tests {
    use super::*;

    /// Regression: shard choice must not correlate with worker-routing
    /// residues. With the old (fx-identical) hash, keys with even fx-hash
    /// could only ever reach even shards, idling half a 4-shard pool
    /// behind a 2-worker router.
    #[test]
    fn shard_hash_decorrelated_from_fx_routing() {
        let workers = 2u64;
        let shards = 4u64;
        // Keys landing on worker 0:
        let mut shard_counts = vec![0u32; shards as usize];
        for v in 0..100_000u64 {
            if helios_types::fx_hash_u64(v).is_multiple_of(workers) {
                shard_counts[(shard_hash(v) % shards) as usize] += 1;
            }
        }
        let total: u32 = shard_counts.iter().sum();
        for (i, &c) in shard_counts.iter().enumerate() {
            let frac = f64::from(c) / f64::from(total);
            assert!(
                (0.15..0.35).contains(&frac),
                "shard {i} got {frac:.2} of worker-0 keys: {shard_counts:?}"
            );
        }
    }
}
