//! Topics: named sets of partitions with key-hashed routing and a
//! produce-notification used by blocking consumers.

use crate::partition::Partition;
use bytes::Bytes;
use helios_types::{fx_hash_u64, HeliosError, MemGauge, PartitionId, Result};
use parking_lot::{Condvar, Mutex};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Configuration for a topic.
#[derive(Debug, Clone)]
pub struct TopicConfig {
    /// Number of partitions (≥ 1).
    pub partitions: u32,
    /// Per-partition retained record cap (0 = unbounded).
    pub retention_records: usize,
    /// If set, partitions are backed by segment files under this directory
    /// and can be recovered after restart.
    pub segment_dir: Option<PathBuf>,
    /// Gauge mirroring the topic's retained log bytes (all partitions).
    /// Defaults to a fresh unobserved cell; wire the accountant's gauge
    /// in to include this topic in `mem.bytes{component="mq_log"}`.
    pub mem: MemGauge,
}

impl Default for TopicConfig {
    fn default() -> Self {
        TopicConfig {
            partitions: 1,
            retention_records: 0,
            segment_dir: None,
            mem: MemGauge::new(),
        }
    }
}

impl TopicConfig {
    /// In-memory topic with `partitions` partitions.
    pub fn in_memory(partitions: u32) -> Self {
        TopicConfig {
            partitions,
            ..Default::default()
        }
    }
}

/// A named, partitioned log.
pub struct Topic {
    name: String,
    partitions: Vec<Partition>,
    /// Bumped on every produce; consumers block on it.
    produce_seq: Mutex<u64>,
    produced: Condvar,
}

impl Topic {
    pub(crate) fn new(name: &str, config: &TopicConfig) -> Result<Self> {
        if config.partitions == 0 {
            return Err(HeliosError::InvalidConfig(format!(
                "topic '{name}' needs at least one partition"
            )));
        }
        let partitions: Vec<Partition> = (0..config.partitions)
            .map(|i| Partition::new(PartitionId(i), config.retention_records, config.mem.clone()))
            .collect();
        if let Some(dir) = &config.segment_dir {
            for p in &partitions {
                let path = dir.join(format!("{name}-{}.seg", p.id().0));
                p.attach_segment(&path)?;
            }
        }
        Ok(Topic {
            name: name.to_string(),
            partitions,
            produce_seq: Mutex::new(0),
            produced: Condvar::new(),
        })
    }

    /// Topic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> u32 {
        self.partitions.len() as u32
    }

    /// Access a partition.
    pub fn partition(&self, id: PartitionId) -> Result<&Partition> {
        self.partitions
            .get(id.0 as usize)
            .ok_or_else(|| HeliosError::NotFound(format!("partition {id:?} of '{}'", self.name)))
    }

    /// Partition a key routes to.
    pub fn route(&self, key: u64) -> PartitionId {
        PartitionId((fx_hash_u64(key) % self.partitions.len() as u64) as u32)
    }

    /// Produce with key-hashed routing. Returns `(partition, offset)`.
    pub fn produce(&self, key: u64, payload: Bytes) -> Result<(PartitionId, u64)> {
        let pid = self.route(key);
        let offset = self.produce_to(pid, key, payload)?;
        Ok((pid, offset))
    }

    /// Produce to an explicit partition.
    pub fn produce_to(&self, pid: PartitionId, key: u64, payload: Bytes) -> Result<u64> {
        let offset = self.partition(pid)?.append(key, payload)?;
        let mut seq = self.produce_seq.lock();
        *seq += 1;
        drop(seq);
        self.produced.notify_all();
        Ok(offset)
    }

    /// Produce a batch with key-hashed routing. Records land in their
    /// partitions in input order (per-key order is preserved), but the
    /// produce sequence is bumped and consumers are woken **once** for
    /// the whole batch rather than once per record. Returns the number
    /// of records produced. On a mid-batch error the records already
    /// appended are still announced before the error is returned.
    pub fn produce_many(&self, records: impl IntoIterator<Item = (u64, Bytes)>) -> Result<usize> {
        self.produce_many_to(
            records
                .into_iter()
                .map(|(key, payload)| (self.route(key), key, payload)),
        )
    }

    /// [`Topic::produce_many`] with explicit partitions per record (for
    /// producers with their own routing, e.g. the control plane's
    /// vertex-ownership routing).
    pub fn produce_many_to(
        &self,
        records: impl IntoIterator<Item = (PartitionId, u64, Bytes)>,
    ) -> Result<usize> {
        let mut n = 0usize;
        let mut failed = None;
        for (pid, key, payload) in records {
            match self.partition(pid).and_then(|p| p.append(key, payload)) {
                Ok(_) => n += 1,
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        // Announce whatever landed on every exit path: consumers must not
        // wait for the next produce (or a poll timeout) to see a prefix
        // that is already in the log.
        if n > 0 {
            let mut seq = self.produce_seq.lock();
            *seq += n as u64;
            drop(seq);
            self.produced.notify_all();
        }
        failed.map_or(Ok(n), Err)
    }

    pub(crate) fn restore_record(&self, pid: PartitionId, key: u64, payload: Bytes) -> Result<()> {
        self.partition(pid)?.restore(key, payload);
        Ok(())
    }

    /// Block until a produce happens after `last_seq`, or until `timeout`.
    /// Returns the current sequence number.
    pub fn wait_for_produce(&self, last_seq: u64, timeout: Duration) -> u64 {
        let deadline = Instant::now() + timeout;
        let mut seq = self.produce_seq.lock();
        while *seq == last_seq {
            if self.produced.wait_until(&mut seq, deadline).timed_out() {
                break;
            }
        }
        *seq
    }

    /// Current produce sequence number.
    pub fn produce_seq(&self) -> u64 {
        *self.produce_seq.lock()
    }

    /// Total records currently retained across partitions.
    pub fn total_len(&self) -> usize {
        self.partitions.iter().map(Partition::len).sum()
    }

    /// Total end-offset across partitions (= records ever produced while
    /// this instance was live, plus recovered ones).
    pub fn total_end_offset(&self) -> u64 {
        self.partitions.iter().map(Partition::end_offset).sum()
    }

    /// Flush all durable segments.
    pub fn sync(&self) -> Result<()> {
        for p in &self.partitions {
            p.sync()?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for Topic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Topic")
            .field("name", &self.name)
            .field("partitions", &self.partitions.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(i: u64) -> Bytes {
        Bytes::from(i.to_le_bytes().to_vec())
    }

    #[test]
    fn key_routing_is_stable() {
        let t = Topic::new("t", &TopicConfig::in_memory(4)).unwrap();
        let p1 = t.route(42);
        for _ in 0..10 {
            assert_eq!(t.route(42), p1);
        }
    }

    #[test]
    fn same_key_preserves_order() {
        let t = Topic::new("t", &TopicConfig::in_memory(4)).unwrap();
        for i in 0..100u64 {
            t.produce(7, payload(i)).unwrap();
        }
        let pid = t.route(7);
        let (recs, _) = t.partition(pid).unwrap().fetch(0, 1000);
        assert_eq!(recs.len(), 100);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.payload, payload(i as u64));
        }
    }

    #[test]
    fn zero_partitions_rejected() {
        let cfg = TopicConfig {
            partitions: 0,
            ..Default::default()
        };
        assert!(Topic::new("bad", &cfg).is_err());
    }

    #[test]
    fn wait_for_produce_wakes_consumer() {
        use std::sync::Arc;
        let t = Arc::new(Topic::new("t", &TopicConfig::in_memory(1)).unwrap());
        let t2 = Arc::clone(&t);
        let seq0 = t.produce_seq();
        let waiter = std::thread::spawn(move || t2.wait_for_produce(seq0, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        t.produce(1, payload(1)).unwrap();
        let seq = waiter.join().unwrap();
        assert_eq!(seq, seq0 + 1);
    }

    #[test]
    fn wait_for_produce_times_out() {
        let t = Topic::new("t", &TopicConfig::in_memory(1)).unwrap();
        let start = Instant::now();
        let seq = t.wait_for_produce(t.produce_seq(), Duration::from_millis(30));
        assert!(start.elapsed() >= Duration::from_millis(25));
        assert_eq!(seq, t.produce_seq());
    }

    #[test]
    fn produce_many_routes_orders_and_notifies_once() {
        use std::sync::Arc;
        let t = Arc::new(Topic::new("t", &TopicConfig::in_memory(4)).unwrap());
        let seq0 = t.produce_seq();
        let t2 = Arc::clone(&t);
        let waiter = std::thread::spawn(move || t2.wait_for_produce(seq0, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        let records: Vec<(u64, Bytes)> = (0..60u64).map(|i| (i % 3, payload(i))).collect();
        assert_eq!(t.produce_many(records).unwrap(), 60);
        // Sequence advances by the batch size, and the blocked consumer
        // wakes up.
        assert_eq!(t.produce_seq(), seq0 + 60);
        assert!(waiter.join().unwrap() > seq0);
        // Per-key order matches sequential produce() calls.
        let pid = t.route(1);
        let (recs, _) = t.partition(pid).unwrap().fetch(0, 1000);
        let mine: Vec<_> = recs.iter().filter(|r| r.key == 1).collect();
        assert_eq!(mine.len(), 20);
        for (i, r) in mine.iter().enumerate() {
            assert_eq!(r.payload, payload(i as u64 * 3 + 1));
        }
        // Empty batch: no sequence bump.
        assert_eq!(t.produce_many(Vec::new()).unwrap(), 0);
        assert_eq!(t.produce_seq(), seq0 + 60);
    }

    #[test]
    fn failed_batch_still_announces_its_appended_prefix() {
        use std::sync::Arc;
        let t = Arc::new(Topic::new("t", &TopicConfig::in_memory(2)).unwrap());
        let seq0 = t.produce_seq();
        let t2 = Arc::clone(&t);
        // Whichever side runs first, the waiter must come back with the
        // bumped sequence well before its timeout.
        let waiter = std::thread::spawn(move || t2.wait_for_produce(seq0, Duration::from_secs(5)));
        let batch = vec![
            (PartitionId(0), 1, payload(1)),
            (PartitionId(1), 2, payload(2)),
            (PartitionId(9), 3, payload(3)), // no such partition
            (PartitionId(0), 4, payload(4)), // never reached
        ];
        assert!(t.produce_many_to(batch).is_err());
        assert_eq!(t.total_len(), 2, "the prefix before the error landed");
        assert_eq!(t.produce_seq(), seq0 + 2, "and is announced");
        assert_eq!(waiter.join().unwrap(), seq0 + 2);
    }

    #[test]
    fn topic_deletion_releases_mem_gauge() {
        let g = MemGauge::new();
        let cfg = TopicConfig {
            partitions: 3,
            mem: g.clone(),
            ..Default::default()
        };
        let t = Topic::new("t", &cfg).unwrap();
        for i in 0..50u64 {
            t.produce(i, payload(i)).unwrap();
        }
        let retained: usize = (0..3)
            .map(|i| t.partition(PartitionId(i)).unwrap().bytes())
            .sum();
        assert!(retained > 0);
        assert_eq!(g.get(), retained as i64);
        drop(t);
        assert_eq!(g.get(), 0, "deleting the topic frees its log bytes");
    }

    #[test]
    fn totals_aggregate_partitions() {
        let t = Topic::new("t", &TopicConfig::in_memory(3)).unwrap();
        for i in 0..50u64 {
            t.produce(i, payload(i)).unwrap();
        }
        assert_eq!(t.total_len(), 50);
        assert_eq!(t.total_end_offset(), 50);
        assert_eq!(t.partition_count(), 3);
    }
}
