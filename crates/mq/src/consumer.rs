//! Consumers: offset-tracking, blocking batch polls, commit.

use crate::broker::Broker;
use crate::record::Record;
use crate::topic::Topic;
use helios_types::{FxHashMap, PartitionId, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A consumer bound to one topic and a set of its partitions, in a named
/// consumer group. Positions start at the group's committed offsets and
/// advance as records are polled; [`Consumer::commit`] persists them back
/// to the broker.
///
/// Positions live in cells shared with the broker, so
/// [`Broker::group_lag`](crate::Broker::group_lag) sees polls as they
/// happen without the reporter having to reach into every consumer. The
/// same cells are registered as readers of their partitions: a poll frees
/// every record all readers have passed, and dropping the consumer
/// unregisters its cells so it stops pinning the log.
pub struct Consumer {
    broker: Arc<Broker>,
    group: String,
    topic: Arc<Topic>,
    partitions: Vec<PartitionId>,
    positions: FxHashMap<PartitionId, Arc<AtomicU64>>,
    /// Round-robin cursor so one hot partition cannot starve the others.
    next_partition: usize,
}

impl Consumer {
    pub(crate) fn new(
        broker: Arc<Broker>,
        group: String,
        topic: Arc<Topic>,
        partitions: Vec<PartitionId>,
    ) -> Result<Self> {
        let parts = partitions
            .iter()
            .map(|&p| topic.partition(p))
            .collect::<Result<Vec<_>>>()?;
        let positions = parts
            .into_iter()
            .map(|p| (p.id(), broker.register_position(&group, topic.name(), p)))
            .collect();
        Ok(Consumer {
            broker,
            group,
            topic,
            partitions,
            positions,
            next_partition: 0,
        })
    }

    /// The consumer's group name.
    pub fn group(&self) -> &str {
        &self.group
    }

    /// Partitions this consumer reads.
    pub fn partitions(&self) -> &[PartitionId] {
        &self.partitions
    }

    /// Non-blocking poll: fetch up to `max` records across the assigned
    /// partitions (round-robin), advancing in-memory positions.
    pub fn poll_now(&mut self, max: usize) -> Vec<Record> {
        let mut out = Vec::new();
        let n = self.partitions.len();
        if n == 0 {
            return out;
        }
        for step in 0..n {
            if out.len() >= max {
                break;
            }
            let pid = self.partitions[(self.next_partition + step) % n];
            let Ok(part) = self.topic.partition(pid) else {
                continue;
            };
            let (recs, next) = part.fetch(
                self.positions[&pid].load(Ordering::Relaxed),
                max - out.len(),
            );
            if !recs.is_empty() {
                self.positions[&pid].store(next, Ordering::Relaxed);
                part.release_consumed();
                out.extend(recs);
            }
        }
        self.next_partition = (self.next_partition + 1) % n;
        out
    }

    /// Blocking poll: like [`Consumer::poll_now`], but waits up to
    /// `timeout` for records to arrive when the partitions are drained.
    pub fn poll(&mut self, max: usize, timeout: Duration) -> Vec<Record> {
        let deadline = Instant::now() + timeout;
        loop {
            let seq = self.topic.produce_seq();
            let recs = self.poll_now(max);
            if !recs.is_empty() {
                return recs;
            }
            let now = Instant::now();
            if now >= deadline {
                return Vec::new();
            }
            self.topic.wait_for_produce(seq, deadline - now);
        }
    }

    /// Current position (next offset to read) of a partition.
    pub fn position(&self, pid: PartitionId) -> Option<u64> {
        self.positions.get(&pid).map(|c| c.load(Ordering::Relaxed))
    }

    /// How many records remain unread across assigned partitions.
    pub fn lag(&self) -> u64 {
        self.partitions
            .iter()
            .map(|&pid| {
                let end = self
                    .topic
                    .partition(pid)
                    .map(|p| p.end_offset())
                    .unwrap_or(0);
                end.saturating_sub(self.positions[&pid].load(Ordering::Relaxed))
            })
            .sum()
    }

    /// Commit current positions to the broker so a future consumer in the
    /// same group resumes here.
    pub fn commit(&self) {
        for (&pid, cell) in &self.positions {
            self.broker
                .commit(&self.group, &self.topic, pid, cell.load(Ordering::Relaxed));
        }
    }

    /// Jump all positions to the current log end (skip the backlog).
    pub fn seek_to_end(&mut self) {
        for &pid in &self.partitions {
            if let Ok(p) = self.topic.partition(pid) {
                self.positions[&pid].store(p.end_offset(), Ordering::Relaxed);
            }
        }
    }
}

impl Drop for Consumer {
    fn drop(&mut self) {
        for (&pid, cell) in &self.positions {
            if let Ok(p) = self.topic.partition(pid) {
                p.remove_reader(cell);
            }
        }
    }
}

impl std::fmt::Debug for Consumer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Consumer")
            .field("group", &self.group)
            .field("topic", &self.topic.name())
            .field("partitions", &self.partitions.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topic::TopicConfig;
    use bytes::Bytes;

    fn setup(parts: u32) -> (Arc<Broker>, Arc<Topic>) {
        let b = Broker::new();
        let t = b.create_topic("t", TopicConfig::in_memory(parts)).unwrap();
        (b, t)
    }

    #[test]
    fn poll_drains_in_order_per_partition() {
        let (b, t) = setup(1);
        for i in 0..10u64 {
            t.produce(1, Bytes::from(vec![i as u8])).unwrap();
        }
        let mut c = b.consumer_all("g", "t").unwrap();
        let recs = c.poll_now(100);
        assert_eq!(recs.len(), 10);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.payload[0] as usize, i);
        }
        assert!(c.poll_now(100).is_empty());
    }

    #[test]
    fn two_consumers_same_group_resume_from_commit() {
        let (b, t) = setup(1);
        for i in 0..10u64 {
            t.produce(1, Bytes::from(vec![i as u8])).unwrap();
        }
        {
            let mut c = b.consumer_all("g", "t").unwrap();
            let recs = c.poll_now(4);
            assert_eq!(recs.len(), 4);
            c.commit();
        }
        let mut c2 = b.consumer_all("g", "t").unwrap();
        let recs = c2.poll_now(100);
        assert_eq!(recs.len(), 6);
        assert_eq!(recs[0].payload[0], 4);
    }

    #[test]
    fn uncommitted_positions_are_not_persisted() {
        let (b, t) = setup(1);
        t.produce(1, Bytes::from_static(b"x")).unwrap();
        {
            let mut c = b.consumer_all("g", "t").unwrap();
            // Committed at 0 before reading: the commit pins the record.
            c.commit();
            assert_eq!(c.poll_now(10).len(), 1);
            // no commit after the poll
        }
        let mut c2 = b.consumer_all("g", "t").unwrap();
        assert_eq!(c2.poll_now(10).len(), 1, "record re-delivered");
    }

    #[test]
    fn a_never_committed_groups_successor_resumes_at_the_retained_front() {
        let (b, t) = setup(1);
        t.produce(1, Bytes::from_static(b"old")).unwrap();
        {
            let mut c = b.consumer_all("g", "t").unwrap();
            assert_eq!(c.poll_now(10).len(), 1);
        }
        t.produce(1, Bytes::from_static(b"new")).unwrap();
        let mut c2 = b.consumer_all("g", "t").unwrap();
        let recs = c2.poll_now(10);
        assert_eq!(recs.len(), 1, "the freed record is not redelivered");
        assert_eq!((&recs[0].payload[..], recs[0].offset), (&b"new"[..], 1));
    }

    fn retained(t: &Topic) -> (u64, usize) {
        let p = t.partition(PartitionId(0)).unwrap();
        (p.base_offset(), p.len())
    }

    #[test]
    fn the_slower_of_two_groups_pins_the_front() {
        let (b, t) = setup(1);
        for i in 0..10u64 {
            t.produce(i, Bytes::from_static(b"r")).unwrap();
        }
        let mut fast = b.consumer_all("fast", "t").unwrap();
        let mut slow = b.consumer_all("slow", "t").unwrap();
        assert_eq!(slow.poll_now(3).len(), 3);
        assert_eq!(fast.poll_now(100).len(), 10);
        assert_eq!(retained(&t), (3, 7), "freed up to the slow group");
        assert_eq!(slow.poll_now(100).len(), 7);
        assert_eq!(retained(&t), (10, 0));
        assert_eq!(b.group_lag("fast", "t") + b.group_lag("slow", "t"), 0);
    }

    #[test]
    fn a_consumer_that_never_polls_pins_until_dropped() {
        let (b, t) = setup(1);
        let lazy = b.consumer_all("lazy-observer", "t").unwrap();
        let mut c = b.consumer_all("g", "t").unwrap();
        for i in 0..10u64 {
            t.produce(i, Bytes::from_static(b"r")).unwrap();
        }
        assert_eq!(c.poll_now(100).len(), 10);
        assert_eq!(retained(&t), (0, 10), "the idle consumer pins everything");
        assert_eq!(lazy.lag(), 10);
        drop(lazy);
        t.produce(10, Bytes::from_static(b"r")).unwrap();
        assert_eq!(c.poll_now(100).len(), 1);
        assert_eq!(retained(&t), (11, 0), "the next poll frees what it pinned");
        assert_eq!(t.partition(PartitionId(0)).unwrap().end_offset(), 11);
    }

    #[test]
    fn a_commit_pins_the_front() {
        let (b, t) = setup(1);
        for i in 0..10u64 {
            t.produce(i, Bytes::from_static(b"r")).unwrap();
        }
        let mut c = b.consumer_all("g", "t").unwrap();
        assert_eq!(c.poll_now(4).len(), 4);
        c.commit();
        assert_eq!(c.poll_now(100).len(), 6);
        assert_eq!(retained(&t), (4, 6), "the commit holds the log at 4");
        drop(c);
        let mut c2 = b.consumer_all("g", "t").unwrap();
        assert_eq!(c2.poll_now(100).len(), 6, "resumes at the commit");
        c2.commit();
        assert_eq!(c2.poll_now(100).len(), 0);
        t.produce(10, Bytes::from_static(b"r")).unwrap();
        assert_eq!(c2.poll_now(100).len(), 1);
        assert_eq!(retained(&t), (10, 1), "a newer commit moves the pin");
    }

    #[test]
    fn freed_bytes_leave_the_mem_gauge_exactly() {
        let g = helios_types::MemGauge::new();
        let b = Broker::new();
        let t = b
            .create_topic(
                "t",
                TopicConfig {
                    partitions: 2,
                    mem: g.clone(),
                    ..Default::default()
                },
            )
            .unwrap();
        let mut c = b.consumer_all("g", "t").unwrap();
        let mut produced = 0i64;
        for i in 0..40u64 {
            let payload = Bytes::from(vec![0u8; i as usize]);
            produced += (std::mem::size_of::<Record>() + payload.len()) as i64;
            t.produce(i, payload).unwrap();
        }
        assert_eq!(g.get(), produced);
        let mut freed = 0i64;
        while freed < produced {
            let recs = c.poll_now(7);
            assert!(!recs.is_empty(), "the log drained early");
            freed += recs.iter().map(|r| r.footprint() as i64).sum::<i64>();
            assert_eq!(
                g.get(),
                produced - freed,
                "the gauge drops by what was read"
            );
        }
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn different_groups_are_independent() {
        let (b, t) = setup(1);
        t.produce(1, Bytes::from_static(b"x")).unwrap();
        let mut c1 = b.consumer_all("g1", "t").unwrap();
        let mut c2 = b.consumer_all("g2", "t").unwrap();
        assert_eq!(c1.poll_now(10).len(), 1);
        assert_eq!(c2.poll_now(10).len(), 1);
    }

    #[test]
    fn blocking_poll_wakes_on_produce() {
        let (b, t) = setup(2);
        let mut c = b.consumer_all("g", "t").unwrap();
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            t.produce(9, Bytes::from_static(b"late")).unwrap();
        });
        let recs = c.poll(10, Duration::from_secs(5));
        producer.join().unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(&recs[0].payload[..], b"late");
    }

    #[test]
    fn blocking_poll_times_out_empty() {
        let (b, _t) = setup(1);
        let mut c = b.consumer_all("g", "t").unwrap();
        let start = Instant::now();
        let recs = c.poll(10, Duration::from_millis(30));
        assert!(recs.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn lag_and_seek_to_end() {
        let (b, t) = setup(2);
        for i in 0..20u64 {
            t.produce(i, Bytes::from_static(b"z")).unwrap();
        }
        let mut c = b.consumer_all("g", "t").unwrap();
        assert_eq!(c.lag(), 20);
        c.seek_to_end();
        assert_eq!(c.lag(), 0);
        assert!(c.poll_now(10).is_empty());
    }

    #[test]
    fn round_robin_does_not_starve_partitions() {
        let (b, t) = setup(2);
        // Flood partition of key k0; trickle on the other.
        let p0 = t.route(0);
        let other = PartitionId(1 - p0.0);
        for _ in 0..100 {
            t.produce_to(p0, 0, Bytes::from_static(b"flood")).unwrap();
        }
        t.produce_to(other, 1, Bytes::from_static(b"trickle"))
            .unwrap();
        let mut c = b.consumer_all("g", "t").unwrap();
        // Within two polls of 30, the trickle partition must be served.
        let mut seen_trickle = false;
        for _ in 0..2 {
            for r in c.poll_now(30) {
                if &r.payload[..] == b"trickle" {
                    seen_trickle = true;
                }
            }
        }
        assert!(seen_trickle, "round-robin must serve the quiet partition");
    }

    #[test]
    fn multi_threaded_producers_consumer_sees_all() {
        let (b, t) = setup(4);
        let mut handles = Vec::new();
        for th in 0..4u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    t.produce(th * 1000 + i, Bytes::from_static(b"m")).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut c = b.consumer_all("g", "t").unwrap();
        let mut total = 0;
        loop {
            let recs = c.poll_now(500);
            if recs.is_empty() {
                break;
            }
            total += recs.len();
        }
        assert_eq!(total, 4000);
    }
}
