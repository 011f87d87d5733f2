//! A single partition: an in-memory log with offset addressing, a front
//! that its readers free as they pass it, and optional durable segment
//! backing.

use crate::record::Record;
use crate::segment::SegmentWriter;
use bytes::Bytes;
use helios_types::{MemGauge, PartitionId, Result};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug)]
struct Inner {
    /// Records currently retained; `log[i]` has offset `base_offset + i`.
    log: VecDeque<Record>,
    /// Offset of the front record.
    base_offset: u64,
    /// Next offset to assign.
    next_offset: u64,
    /// Bytes currently retained.
    bytes: usize,
    /// Durable backing, if configured.
    segment: Option<SegmentWriter>,
}

/// One partition of a topic.
#[derive(Debug)]
pub struct Partition {
    id: PartitionId,
    inner: Mutex<Inner>,
    /// Every position that may still read this partition: live consumer
    /// positions and committed group offsets. The front is freed below
    /// their minimum; with no reader, nothing is freed.
    readers: Mutex<Vec<Arc<AtomicU64>>>,
    /// Mirror of retained bytes for the memory accountant; every
    /// append/restore/release adjusts it, drop releases the rest.
    mem: MemGauge,
}

impl Partition {
    pub(crate) fn new(id: PartitionId, mem: MemGauge) -> Self {
        Partition {
            id,
            inner: Mutex::new(Inner {
                log: VecDeque::new(),
                base_offset: 0,
                next_offset: 0,
                bytes: 0,
                segment: None,
            }),
            readers: Mutex::new(Vec::new()),
            mem,
        }
    }

    pub(crate) fn attach_segment(&self, path: &Path) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.segment = Some(SegmentWriter::open(path)?);
        Ok(())
    }

    /// Partition id.
    pub fn id(&self) -> PartitionId {
        self.id
    }

    /// Append a record; returns its offset.
    pub fn append(&self, key: u64, payload: Bytes) -> Result<u64> {
        let mut inner = self.inner.lock();
        let offset = inner.next_offset;
        inner.next_offset += 1;
        if let Some(seg) = inner.segment.as_mut() {
            seg.append(key, &payload)?;
        }
        let rec = Record {
            partition: self.id,
            offset,
            key,
            payload,
            produced_at: crate::record::now_nanos(),
        };
        self.mem.add(rec.footprint());
        inner.bytes += rec.footprint();
        inner.log.push_back(rec);
        Ok(offset)
    }

    /// Restore a record during recovery without writing back to disk.
    pub(crate) fn restore(&self, key: u64, payload: Bytes) {
        let mut inner = self.inner.lock();
        let offset = inner.next_offset;
        inner.next_offset += 1;
        // Restored records predate this process; without a durable stamp
        // the dwell time is unknowable, so mark it as such.
        let rec = Record {
            partition: self.id,
            offset,
            key,
            payload,
            produced_at: 0,
        };
        self.mem.add(rec.footprint());
        inner.bytes += rec.footprint();
        inner.log.push_back(rec);
    }

    /// Fetch up to `max` records starting at `offset`. Returns records and
    /// the next offset to poll from. If `offset` has been freed already,
    /// reading resumes at the retained front (like Kafka's
    /// `auto.offset.reset=earliest`).
    pub fn fetch(&self, offset: u64, max: usize) -> (Vec<Record>, u64) {
        let inner = self.inner.lock();
        let start = offset.max(inner.base_offset);
        if start >= inner.next_offset {
            return (Vec::new(), inner.next_offset.max(offset));
        }
        let idx = (start - inner.base_offset) as usize;
        let records: Vec<Record> = inner.log.iter().skip(idx).take(max).cloned().collect();
        let next = records.last().map_or(start, |r| r.offset + 1);
        (records, next)
    }

    /// Register a position that pins every record at or above it.
    pub(crate) fn add_reader(&self, cell: Arc<AtomicU64>) {
        self.readers.lock().push(cell);
    }

    /// Unregister one registration of `cell` (a dropped consumer).
    pub(crate) fn remove_reader(&self, cell: &Arc<AtomicU64>) {
        let mut readers = self.readers.lock();
        if let Some(i) = readers.iter().position(|c| Arc::ptr_eq(c, cell)) {
            readers.swap_remove(i);
        }
    }

    /// Free every retained record below the lowest registered reader
    /// position. This frees memory only: a durable segment keeps them.
    /// The records are dropped after the log lock is released, so
    /// producers never wait on the allocator.
    pub(crate) fn release_consumed(&self) {
        let floor = self
            .readers
            .lock()
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .min();
        let Some(floor) = floor else {
            return;
        };
        let _freed: Vec<Record> = {
            let mut inner = self.inner.lock();
            let n = floor
                .min(inner.next_offset)
                .saturating_sub(inner.base_offset) as usize;
            if n == 0 {
                return;
            }
            let freed: Vec<Record> = inner.log.drain(..n).collect();
            let bytes: usize = freed.iter().map(Record::footprint).sum();
            inner.bytes -= bytes;
            inner.base_offset += n as u64;
            self.mem.sub(bytes);
            freed
        };
    }

    /// Offset that the next appended record will receive (= log end).
    pub fn end_offset(&self) -> u64 {
        self.inner.lock().next_offset
    }

    /// Oldest retained offset.
    pub fn base_offset(&self) -> u64 {
        self.inner.lock().base_offset
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.inner.lock().log.len()
    }

    /// Is the retained log empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes retained in memory.
    pub fn bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Flush the durable segment, if any.
    pub fn sync(&self) -> Result<()> {
        if let Some(seg) = self.inner.lock().segment.as_mut() {
            seg.sync()?;
        }
        Ok(())
    }
}

impl Drop for Partition {
    fn drop(&mut self) {
        // Topic deletion must return the retained bytes to the accountant.
        self.mem.sub(self.inner.get_mut().bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    impl Partition {
        fn new_test(id: PartitionId) -> Self {
            Partition::new(id, MemGauge::new())
        }

        /// Register a reader at `pos` and return its cell.
        fn reader_at(&self, pos: u64) -> Arc<AtomicU64> {
            let cell = Arc::new(AtomicU64::new(pos));
            self.add_reader(Arc::clone(&cell));
            cell
        }
    }

    #[test]
    fn offsets_are_dense_and_monotonic() {
        let p = Partition::new_test(PartitionId(0));
        for i in 0..10u64 {
            assert_eq!(p.append(i, bytes("x")).unwrap(), i);
        }
        assert_eq!(p.end_offset(), 10);
        assert_eq!(p.base_offset(), 0);
    }

    #[test]
    fn fetch_respects_offset_and_max() {
        let p = Partition::new_test(PartitionId(0));
        for i in 0..10u64 {
            p.append(i, bytes(&format!("m{i}"))).unwrap();
        }
        let (recs, next) = p.fetch(3, 4);
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[0].offset, 3);
        assert_eq!(next, 7);
        let (recs, next) = p.fetch(next, 100);
        assert_eq!(recs.len(), 3);
        assert_eq!(next, 10);
        let (recs, next) = p.fetch(next, 100);
        assert!(recs.is_empty());
        assert_eq!(next, 10);
    }

    #[test]
    fn release_frees_below_the_lowest_reader_and_fetch_resumes_at_the_front() {
        let p = Partition::new_test(PartitionId(0));
        for i in 0..20u64 {
            p.append(i, bytes("y")).unwrap();
        }
        p.release_consumed();
        assert_eq!(p.len(), 20, "no reader registered: nothing is freed");
        let fast = p.reader_at(15);
        let slow = p.reader_at(5);
        p.release_consumed();
        assert_eq!(
            (p.base_offset(), p.len()),
            (5, 15),
            "the slower reader pins"
        );
        p.remove_reader(&slow);
        p.release_consumed();
        assert_eq!((p.base_offset(), p.len()), (15, 5));
        // A position below the front resumes at the retained front.
        let (recs, next) = p.fetch(2, 100);
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[0].offset, 15);
        assert_eq!(next, 20);
        assert_eq!(p.end_offset(), 20, "freeing never moves the end");
        fast.store(20, Ordering::Relaxed);
        p.release_consumed();
        assert!(p.is_empty());
    }

    #[test]
    fn append_stamps_produce_time_but_restore_does_not() {
        let p = Partition::new_test(PartitionId(0));
        p.append(0, bytes("fresh")).unwrap();
        p.restore(1, bytes("recovered"));
        let (recs, _) = p.fetch(0, 10);
        assert!(recs[0].produced_at > 0, "appended records carry a stamp");
        assert_eq!(recs[1].produced_at, 0, "restored records have no stamp");
    }

    #[test]
    fn mem_gauge_mirrors_retained_bytes_and_drop_releases() {
        let g = MemGauge::new();
        let p = Partition::new(PartitionId(0), g.clone());
        let reader = p.reader_at(0);
        p.append(0, Bytes::from(vec![0u8; 100])).unwrap();
        p.restore(1, Bytes::from(vec![0u8; 100]));
        assert_eq!(g.get(), p.bytes() as i64, "gauge mirrors retained bytes");
        let two = g.get();
        p.append(2, Bytes::from(vec![0u8; 100])).unwrap();
        reader.store(1, Ordering::Relaxed);
        p.release_consumed();
        assert_eq!(g.get(), two, "release frees the passed record");
        assert_eq!(g.get(), p.bytes() as i64);
        drop(p);
        assert_eq!(g.get(), 0, "drop returns everything to the accountant");
    }

    #[test]
    fn byte_accounting_tracks_retention() {
        let p = Partition::new_test(PartitionId(0));
        let reader = p.reader_at(0);
        p.append(0, Bytes::from(vec![0u8; 1000])).unwrap();
        p.append(1, Bytes::from(vec![0u8; 1000])).unwrap();
        let two = p.bytes();
        for i in 2..10u64 {
            p.append(i, Bytes::from(vec![0u8; 1000])).unwrap();
            reader.store(i - 1, Ordering::Relaxed);
            p.release_consumed();
            assert_eq!(p.bytes(), two, "a reader two behind keeps two records");
        }
    }
}
