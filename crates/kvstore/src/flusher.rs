//! Background memtable flusher.
//!
//! One thread per hybrid-mode store. Writers rotate their over-budget
//! active memtable onto the shard's immutable list (under the brief
//! shard write lock) and send the shard index down a FIFO channel; this
//! thread pops the shard's **oldest** immutable, sorts its entries by key
//! and streams them into an SST with no locks held, and installs the run
//! with a short write lock whose scope is exactly the list swap.
//! Per-shard generation order is preserved because rotation sends happen
//! under the shard write lock (FIFO per shard) and this thread processes
//! jobs sequentially.
//!
//! On shutdown the thread drains every remaining immutable — even when
//! paused — so `drop` never loses rotated data.

use crate::sst::{SstWriter, StoredValue};
use crate::store::{KvEvent, Run, StoreInner, FLUSH_WAKE};
use crossbeam::channel::{Receiver, RecvTimeoutError};
use helios_types::profile::{push_frame, register_thread, FrameLabel};
use helios_types::Result;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

static FLUSH_SST: FrameLabel = FrameLabel::new("flush_sst");

pub(crate) fn run(inner: Arc<StoreInner>, rx: Receiver<usize>) {
    let _token = register_thread("helios-kv-flush");
    loop {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(FLUSH_WAKE) => {}
            Ok(idx) => {
                let _f = push_frame(&FLUSH_SST);
                flush_oldest(&inner, idx)
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if inner.stop.load(Ordering::Relaxed) {
            break;
        }
    }
    drain_all(&inner);
}

/// Flush the oldest immutable of `idx`, honoring the pause gate and
/// retrying on I/O errors (the data stays readable in memory while we
/// retry; a half-written output file reads as empty and is reclaimed on
/// reopen).
fn flush_oldest(inner: &StoreInner, idx: usize) {
    while inner.flush_paused.load(Ordering::Relaxed) && !inner.stop.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(5));
    }
    loop {
        match try_flush_oldest(inner, idx) {
            Ok(()) => return,
            Err(e) => {
                eprintln!("helios-kvstore: flush of shard {idx} failed: {e}; retrying");
                if inner.stop.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

fn try_flush_oldest(inner: &StoreInner, idx: usize) -> Result<()> {
    let imm = {
        let shard = inner.shards[idx].read();
        match shard.immutables.last() {
            Some(imm) => Arc::clone(imm),
            None => return Ok(()), // already drained
        }
    };
    let id = inner.next_sst_id.fetch_add(1, Ordering::Relaxed);
    let gen = inner.next_gen.fetch_add(1, Ordering::Relaxed);
    let path = inner.sst_path(gen, id);
    // The memtable is unordered; an SST is sorted. This is the one place
    // order is needed, so sort here, off the request path.
    let mut sorted: Vec<(&[u8], &StoredValue)> =
        imm.entries.iter().map(|(k, v)| (k.as_bytes(), v)).collect();
    sorted.sort_unstable_by_key(|&(k, _)| k);
    let mut w = SstWriter::create(&path)?;
    for (k, v) in sorted {
        w.add(k, v)?;
    }
    w.finish()?;
    let sst = Arc::new(inner.open_sst(&path)?);
    {
        let mut shard = inner.shards[idx].write();
        // The new run is newer than every existing one: front of the
        // copy-on-write list. Drop exactly the immutable we wrote.
        let mut runs: Vec<Run> = Vec::with_capacity(shard.runs.len() + 1);
        runs.push(Run { gen, id, sst });
        runs.extend(shard.runs.iter().cloned());
        shard.runs = Arc::new(runs);
        shard.immutables.retain(|m| m.seq != imm.seq);
        // The flushed table's bytes now live on disk (and in SST
        // metadata, charged by open_sst): release the memtable gauge.
        shard.mem.sub(imm.bytes);
    }
    let pending = inner
        .imm_count
        .fetch_sub(1, Ordering::Relaxed)
        .saturating_sub(1);
    inner.flushes.fetch_add(1, Ordering::Relaxed);
    inner.flush_cv.notify_all();
    inner.fire(&KvEvent::Flush {
        shard: idx,
        entries: imm.entries.len(),
        bytes: imm.bytes,
        pending,
    });
    if inner.shards[idx].read().runs.len() >= inner.config.l0_compact_trigger {
        inner.nudge_compactor();
    }
    Ok(())
}

/// Shutdown drain: flush every remaining immutable of every shard,
/// ignoring the pause gate. On a persistent I/O error the remaining
/// tables are abandoned (memory-only data is lost with the process
/// anyway).
fn drain_all(inner: &StoreInner) {
    for idx in 0..inner.shards.len() {
        loop {
            let empty = inner.shards[idx].read().immutables.is_empty();
            if empty {
                break;
            }
            if let Err(e) = try_flush_oldest(inner, idx) {
                eprintln!("helios-kvstore: shutdown flush of shard {idx} failed: {e}");
                break;
            }
        }
    }
}
