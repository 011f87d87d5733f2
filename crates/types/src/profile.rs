//! Named-thread registry and cooperative frame stacks for the in-process
//! sampling profiler.
//!
//! No crate in the workspace (and nothing in the container) can unwind
//! *another* thread's native call stack — `std::backtrace::Backtrace`
//! only captures the calling thread, and signal-based samplers need a
//! libc dependency this workspace deliberately avoids. Instead Helios
//! threads cooperate: long-lived worker threads [`register_thread`]
//! themselves under their OS thread name, and hot paths annotate their
//! phases with [`push_frame`] guards — a seqlock-protected fixed array
//! of interned `&'static str` labels, two relaxed RMWs plus two stores
//! per push/pop. A sampler (the telemetry crate's `/profile` handler)
//! periodically snapshots every registered thread's current stack via
//! [`sample_stacks`] and folds them into flamegraph-compatible
//! `thread;frame;frame count` lines. Torn reads (a push/pop racing the
//! snapshot) are detected by the seqlock and reported as dropped
//! samples, never as a corrupt stack.
//!
//! The registry is process-global so kvstore/mq background threads can
//! register without plumbing a handle; thread names are unique enough
//! in practice (`sew0r0-serve-1`, `helios-kv-flush`, …) and the sampler
//! reports whatever is alive at snapshot time.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Maximum tracked frame depth per thread. Deeper pushes keep the
/// push/pop protocol balanced but record no label; the sampler renders
/// the stack truncated at this depth.
pub const MAX_FRAMES: usize = 8;

/// Process-global switch for frame annotation. On by default; the
/// overhead benchmark flips it off to measure the annotation cost of
/// the serve path A/B in one process.
static PROFILING_ENABLED: AtomicBool = AtomicBool::new(true);

/// Enable or disable frame annotation process-wide. Thread
/// registration is unaffected (registered threads still show up as
/// `name;idle`).
pub fn set_profiling_enabled(on: bool) {
    PROFILING_ENABLED.store(on, Ordering::Relaxed);
}

/// Current state of the frame-annotation switch.
#[inline]
pub fn profiling_enabled() -> bool {
    PROFILING_ENABLED.load(Ordering::Relaxed)
}

/// A frame label interned on first use. Declare as a `static` next to
/// the annotated code:
///
/// ```
/// use helios_types::profile::{FrameLabel, push_frame};
/// static GATHER: FrameLabel = FrameLabel::new("feature_gather");
/// let _frame = push_frame(&GATHER);
/// ```
pub struct FrameLabel {
    name: &'static str,
    /// Interned id, 0 = not yet interned (ids start at 1).
    id: AtomicU32,
}

impl FrameLabel {
    /// A label with the given display name.
    pub const fn new(name: &'static str) -> Self {
        FrameLabel {
            name,
            id: AtomicU32::new(0),
        }
    }

    /// The interned id, interning on first call (one global lock, once
    /// per label per process).
    fn intern(&self) -> u32 {
        let id = self.id.load(Ordering::Relaxed);
        if id != 0 {
            return id;
        }
        let mut table = label_table().lock().unwrap();
        // Re-check under the lock: another thread may have interned it.
        let id = self.id.load(Ordering::Relaxed);
        if id != 0 {
            return id;
        }
        table.push(self.name);
        let id = table.len() as u32;
        self.id.store(id, Ordering::Relaxed);
        id
    }
}

fn label_table() -> &'static Mutex<Vec<&'static str>> {
    static TABLE: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Vec::new()))
}

fn label_name(id: u32) -> Option<&'static str> {
    let table = label_table().lock().unwrap();
    table.get(id as usize - 1).copied()
}

/// One registered thread's sampling slot.
struct ThreadSlot {
    name: String,
    /// Seqlock: odd while a push/pop is in flight.
    seq: AtomicU32,
    depth: AtomicU32,
    frames: [AtomicU32; MAX_FRAMES],
    alive: AtomicBool,
}

impl ThreadSlot {
    fn new(name: String) -> Self {
        ThreadSlot {
            name,
            seq: AtomicU32::new(0),
            depth: AtomicU32::new(0),
            frames: Default::default(),
            alive: AtomicBool::new(true),
        }
    }

    #[inline]
    fn push(&self, id: u32) {
        self.seq.fetch_add(1, Ordering::Release);
        let d = self.depth.load(Ordering::Relaxed) as usize;
        if d < MAX_FRAMES {
            self.frames[d].store(id, Ordering::Relaxed);
        }
        self.depth.store(d as u32 + 1, Ordering::Relaxed);
        self.seq.fetch_add(1, Ordering::Release);
    }

    #[inline]
    fn pop(&self) {
        self.seq.fetch_add(1, Ordering::Release);
        let d = self.depth.load(Ordering::Relaxed);
        self.depth.store(d.saturating_sub(1), Ordering::Relaxed);
        self.seq.fetch_add(1, Ordering::Release);
    }

    /// Snapshot the stack: `Some(label ids)` or `None` on a torn read.
    fn sample(&self) -> Option<Vec<u32>> {
        let s1 = self.seq.load(Ordering::Acquire);
        if !s1.is_multiple_of(2) {
            return None;
        }
        let depth = (self.depth.load(Ordering::Relaxed) as usize).min(MAX_FRAMES);
        let ids: Vec<u32> = (0..depth)
            .map(|i| self.frames[i].load(Ordering::Relaxed))
            .collect();
        let s2 = self.seq.load(Ordering::Acquire);
        if s1 != s2 {
            return None;
        }
        Some(ids)
    }
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadSlot>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadSlot>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<Arc<ThreadSlot>>> =
        const { std::cell::RefCell::new(None) };
}

/// Register the current thread under `name` for profiling. The returned
/// token deregisters on drop; hold it for the thread's lifetime. A
/// second registration on the same thread replaces the first.
pub fn register_thread(name: impl Into<String>) -> ThreadToken {
    let slot = Arc::new(ThreadSlot::new(name.into()));
    registry().lock().unwrap().push(Arc::clone(&slot));
    CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(&slot)));
    ThreadToken { slot }
}

/// Deregistration guard returned by [`register_thread`].
pub struct ThreadToken {
    slot: Arc<ThreadSlot>,
}

impl Drop for ThreadToken {
    fn drop(&mut self) {
        self.slot.alive.store(false, Ordering::Relaxed);
        CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            if cur.as_ref().is_some_and(|s| Arc::ptr_eq(s, &self.slot)) {
                *cur = None;
            }
        });
    }
}

/// Push a frame on the current thread's stack; the frame pops when the
/// returned guard drops. No-op (one thread-local read) on unregistered
/// threads or when profiling is disabled.
#[inline]
pub fn push_frame(label: &'static FrameLabel) -> FrameGuard {
    if !profiling_enabled() {
        return FrameGuard { pushed: false };
    }
    let pushed = CURRENT.with(|c| {
        if let Some(slot) = &*c.borrow() {
            slot.push(label.intern());
            true
        } else {
            false
        }
    });
    FrameGuard { pushed }
}

/// RAII frame guard; see [`push_frame`].
pub struct FrameGuard {
    pushed: bool,
}

impl Drop for FrameGuard {
    fn drop(&mut self) {
        if self.pushed {
            CURRENT.with(|c| {
                if let Some(slot) = &*c.borrow() {
                    slot.pop();
                }
            });
        }
    }
}

/// One sampling pass over every registered thread. Returns the folded
/// stack of each live thread (`thread;frame;…`, `thread;idle` when the
/// stack is empty) and the number of torn reads dropped. Dead slots are
/// pruned as a side effect.
pub fn sample_stacks() -> (Vec<String>, u64) {
    let mut reg = registry().lock().unwrap();
    reg.retain(|s| s.alive.load(Ordering::Relaxed));
    let mut stacks = Vec::with_capacity(reg.len());
    let mut dropped = 0u64;
    for slot in reg.iter() {
        match slot.sample() {
            None => dropped += 1,
            Some(ids) => {
                let mut line = slot.name.clone();
                if ids.is_empty() {
                    line.push_str(";idle");
                } else {
                    for id in ids {
                        line.push(';');
                        line.push_str(label_name(id).unwrap_or("?"));
                    }
                }
                stacks.push(line);
            }
        }
    }
    (stacks, dropped)
}

/// Names of all currently registered (live) threads, for tests and
/// `/vars`-style introspection.
pub fn registered_threads() -> Vec<String> {
    registry()
        .lock()
        .unwrap()
        .iter()
        .filter(|s| s.alive.load(Ordering::Relaxed))
        .map(|s| s.name.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    static OUTER: FrameLabel = FrameLabel::new("outer-frame");
    static INNER: FrameLabel = FrameLabel::new("inner-frame");

    #[test]
    fn registered_thread_samples_with_frames() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let h = std::thread::spawn(move || {
            let _token = register_thread("profile-test-worker");
            let _f1 = push_frame(&OUTER);
            let _f2 = push_frame(&INNER);
            ready_tx.send(()).unwrap();
            rx.recv().unwrap();
        });
        ready_rx.recv().unwrap();
        assert!(registered_threads().contains(&"profile-test-worker".to_string()));
        let line = loop {
            let (stacks, _) = sample_stacks();
            if let Some(l) = stacks.iter().find(|s| s.starts_with("profile-test-worker")) {
                if l.contains("inner-frame") {
                    break l.clone();
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(line, "profile-test-worker;outer-frame;inner-frame");
        tx.send(()).unwrap();
        h.join().unwrap();
        // Deregistered: the next sample prunes the slot.
        let _ = sample_stacks();
        assert!(!registered_threads().contains(&"profile-test-worker".to_string()));
    }

    #[test]
    fn idle_thread_renders_idle() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let h = std::thread::spawn(move || {
            let _token = register_thread("profile-test-idle");
            ready_tx.send(()).unwrap();
            rx.recv().unwrap();
        });
        ready_rx.recv().unwrap();
        let (stacks, _) = sample_stacks();
        assert!(
            stacks.iter().any(|s| s == "profile-test-idle;idle"),
            "{stacks:?}"
        );
        tx.send(()).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn unregistered_thread_frames_are_noops() {
        // This test thread never registers: the guard must be free of
        // side effects.
        let before = sample_stacks().0.len();
        let _f = push_frame(&OUTER);
        assert!(sample_stacks().0.len() <= before + 1); // other tests' threads may appear
    }

    #[test]
    fn disabling_profiling_skips_frames() {
        let _token = register_thread("profile-test-disabled");
        set_profiling_enabled(false);
        let f = push_frame(&OUTER);
        drop(f);
        set_profiling_enabled(true);
        let (stacks, _) = sample_stacks();
        assert!(
            stacks.iter().any(|s| s == "profile-test-disabled;idle"),
            "disabled frames must not appear: {stacks:?}"
        );
    }

    #[test]
    fn depth_overflow_stays_balanced() {
        let _token = register_thread("profile-test-deep");
        let guards: Vec<_> = (0..MAX_FRAMES + 4).map(|_| push_frame(&OUTER)).collect();
        let (stacks, _) = sample_stacks();
        let line = stacks
            .iter()
            .find(|s| s.starts_with("profile-test-deep"))
            .unwrap();
        assert_eq!(line.matches("outer-frame").count(), MAX_FRAMES);
        drop(guards);
        let (stacks, _) = sample_stacks();
        assert!(stacks.iter().any(|s| s == "profile-test-deep;idle"));
    }
}
