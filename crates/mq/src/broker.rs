//! The broker: a registry of topics plus consumer-group offset storage.

use crate::consumer::Consumer;
use crate::partition::Partition;
use crate::segment::read_segment;
use crate::topic::{Topic, TopicConfig};
use helios_types::{FxHashMap, HeliosError, PartitionId, Result};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Committed offset key: (group, topic, partition).
type OffsetKey = (String, String, u32);

/// Live consumer lag for one (group, topic) pair, as reported by
/// [`Broker::lag_report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LagEntry {
    pub group: String,
    pub topic: String,
    /// Records produced but not yet polled by the group's consumers.
    pub lag: u64,
}

/// An in-process message broker. Cheaply clonable via `Arc`; every worker
/// in a Helios deployment holds a handle to the same broker (like every
/// node in the paper's cluster talks to the same Kafka deployment).
#[derive(Default)]
pub struct Broker {
    topics: RwLock<FxHashMap<String, Arc<Topic>>>,
    /// Committed offsets. Each cell is also registered as a reader of its
    /// partition: a group that has committed pins the log at its commit.
    offsets: RwLock<FxHashMap<OffsetKey, Arc<AtomicU64>>>,
    /// Live (uncommitted) consumer positions, shared with the consumers
    /// themselves so the broker can observe lag without polling them.
    positions: RwLock<FxHashMap<OffsetKey, Arc<AtomicU64>>>,
}

impl Broker {
    /// New empty broker.
    pub fn new() -> Arc<Self> {
        Arc::new(Broker::default())
    }

    /// Create a topic. Fails if it already exists.
    pub fn create_topic(&self, name: &str, config: TopicConfig) -> Result<Arc<Topic>> {
        let mut topics = self.topics.write();
        if topics.contains_key(name) {
            return Err(HeliosError::AlreadyExists(format!("topic '{name}'")));
        }
        let t = Arc::new(Topic::new(name, &config)?);
        topics.insert(name.to_string(), Arc::clone(&t));
        Ok(t)
    }

    /// Create a durable topic and replay any existing segment files from
    /// `config.segment_dir` into it (crash recovery).
    pub fn recover_topic(&self, name: &str, config: TopicConfig) -> Result<Arc<Topic>> {
        let dir = config.segment_dir.clone().ok_or_else(|| {
            HeliosError::InvalidConfig("recover_topic requires a segment_dir".into())
        })?;
        // Read old segments *before* creating the topic (which reopens the
        // files for append).
        let mut recovered: Vec<(PartitionId, Vec<(u64, bytes::Bytes)>)> = Vec::new();
        for pid in 0..config.partitions {
            let path = dir.join(format!("{name}-{pid}.seg"));
            recovered.push((PartitionId(pid), read_segment(&path)?));
        }
        let t = self.create_topic(name, config)?;
        for (pid, frames) in recovered {
            for (key, payload) in frames {
                t.restore_record(pid, key, payload)?;
            }
        }
        Ok(t)
    }

    /// Look up a topic.
    pub fn topic(&self, name: &str) -> Result<Arc<Topic>> {
        self.topics
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| HeliosError::NotFound(format!("topic '{name}'")))
    }

    /// Names of all topics.
    pub fn topic_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.topics.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Create a consumer in `group` reading the given partitions of a
    /// topic, resuming from committed offsets. Until it is dropped, the
    /// consumer pins every record from its position on.
    pub fn consumer(
        self: &Arc<Self>,
        group: &str,
        topic: &str,
        partitions: &[PartitionId],
    ) -> Result<Consumer> {
        Consumer::new(
            Arc::clone(self),
            group.to_string(),
            self.topic(topic)?,
            partitions.to_vec(),
        )
    }

    /// Create a consumer over *all* partitions of a topic.
    pub fn consumer_all(self: &Arc<Self>, group: &str, topic: &str) -> Result<Consumer> {
        let t = self.topic(topic)?;
        let parts: Vec<PartitionId> = (0..t.partition_count()).map(PartitionId).collect();
        self.consumer(group, topic, &parts)
    }

    fn committed(&self, group: &str, topic: &str, partition: PartitionId) -> u64 {
        self.offsets
            .read()
            .get(&(group.to_string(), topic.to_string(), partition.0))
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }

    /// Store `group`'s committed offset. The group's first commit on a
    /// partition registers the committed cell as one of its readers.
    pub(crate) fn commit(
        &self,
        group: &str,
        topic: &Arc<Topic>,
        partition: PartitionId,
        offset: u64,
    ) {
        let Ok(part) = topic.partition(partition) else {
            return;
        };
        self.offsets
            .write()
            .entry((group.to_string(), topic.name().to_string(), partition.0))
            .or_insert_with(|| {
                let cell = Arc::new(AtomicU64::new(offset));
                part.add_reader(Arc::clone(&cell));
                cell
            })
            .store(offset, Ordering::Relaxed);
    }

    /// Get-or-create the live position cell for (group, topic, partition),
    /// reset it to the group's committed offset — a new consumer resumes
    /// from the last commit, not from a dead predecessor's in-memory
    /// position — and register it as a reader of the partition. The
    /// consumer unregisters it when dropped.
    pub(crate) fn register_position(
        &self,
        group: &str,
        topic: &str,
        partition: &Partition,
    ) -> Arc<AtomicU64> {
        let committed = self.committed(group, topic, partition.id());
        let cell = Arc::clone(
            self.positions
                .write()
                .entry((group.to_string(), topic.to_string(), partition.id().0))
                .or_default(),
        );
        cell.store(committed, Ordering::Relaxed);
        partition.add_reader(Arc::clone(&cell));
        cell
    }

    /// Names of all consumer groups that have ever read (or committed)
    /// on this broker, sorted.
    pub fn consumer_groups(&self) -> Vec<String> {
        let mut groups: Vec<String> = self
            .positions
            .read()
            .keys()
            .map(|(g, _, _)| g.clone())
            .chain(self.offsets.read().keys().map(|(g, _, _)| g.clone()))
            .collect();
        groups.sort();
        groups.dedup();
        groups
    }

    /// Total unread records for `group` across the partitions of `topic`
    /// the group is assigned to — those with a live consumer position or
    /// a committed offset. Unassigned partitions are not the group's
    /// backlog (Helios workers deliberately split a topic's partitions
    /// across per-worker groups), and an unknown group has zero lag.
    pub fn group_lag(&self, group: &str, topic: &str) -> u64 {
        let t = match self.topic(topic) {
            Ok(t) => t,
            Err(_) => return 0,
        };
        let positions = self.positions.read();
        let offsets = self.offsets.read();
        (0..t.partition_count())
            .map(|p| {
                let key = (group.to_string(), topic.to_string(), p);
                let pos = match (positions.get(&key), offsets.get(&key)) {
                    (Some(cell), _) => cell.load(Ordering::Relaxed),
                    (None, Some(committed)) => committed.load(Ordering::Relaxed),
                    (None, None) => return 0, // not assigned to this group
                };
                let end = t
                    .partition(PartitionId(p))
                    .map(|p| p.end_offset())
                    .unwrap_or(0);
                end.saturating_sub(pos)
            })
            .sum()
    }

    /// Lag of every (group, topic) pair with a live or committed
    /// position, sorted by group then topic. This is what a periodic
    /// stats reporter polls to watch the sampling→serving pipeline.
    pub fn lag_report(&self) -> Vec<LagEntry> {
        let mut pairs: Vec<(String, String)> = self
            .positions
            .read()
            .keys()
            .map(|(g, t, _)| (g.clone(), t.clone()))
            .chain(
                self.offsets
                    .read()
                    .keys()
                    .map(|(g, t, _)| (g.clone(), t.clone())),
            )
            .collect();
        pairs.sort();
        pairs.dedup();
        pairs
            .into_iter()
            .map(|(group, topic)| {
                let lag = self.group_lag(&group, &topic);
                LagEntry { group, topic, lag }
            })
            .collect()
    }
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Broker")
            .field("topics", &self.topic_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::path::PathBuf;

    #[test]
    fn create_and_lookup() {
        let b = Broker::new();
        b.create_topic("updates", TopicConfig::in_memory(4))
            .unwrap();
        assert!(b.topic("updates").is_ok());
        assert!(b.topic("missing").is_err());
        assert!(b
            .create_topic("updates", TopicConfig::in_memory(4))
            .is_err());
        assert_eq!(b.topic_names(), vec!["updates".to_string()]);
    }

    #[test]
    fn consumer_validates_partitions() {
        let b = Broker::new();
        b.create_topic("t", TopicConfig::in_memory(2)).unwrap();
        assert!(b.consumer("g", "t", &[PartitionId(0)]).is_ok());
        assert!(b.consumer("g", "t", &[PartitionId(5)]).is_err());
        assert!(b.consumer("g", "missing", &[PartitionId(0)]).is_err());
    }

    fn tmpdir(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("helios-mq-broker-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn durable_topic_recovers_after_restart() {
        let dir = tmpdir("recover");
        let cfg = TopicConfig {
            partitions: 2,
            segment_dir: Some(dir.clone()),
            ..Default::default()
        };
        {
            let b = Broker::new();
            let t = b.create_topic("dur", cfg.clone()).unwrap();
            for i in 0..100u64 {
                t.produce(i, Bytes::from(format!("m{i}"))).unwrap();
            }
            t.sync().unwrap();
        }
        // "Restart": a fresh broker recovers the topic from disk.
        let b = Broker::new();
        let t = b.recover_topic("dur", cfg).unwrap();
        assert_eq!(t.total_end_offset(), 100);
        // New produces continue after the recovered tail.
        t.produce(7, Bytes::from_static(b"new")).unwrap();
        assert_eq!(t.total_end_offset(), 101);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_requires_segment_dir() {
        let b = Broker::new();
        assert!(b.recover_topic("x", TopicConfig::in_memory(1)).is_err());
    }

    #[test]
    fn group_lag_tracks_live_consumer_positions() {
        let b = Broker::new();
        let t = b.create_topic("t", TopicConfig::in_memory(2)).unwrap();
        for i in 0..20u64 {
            t.produce(i, Bytes::from_static(b"z")).unwrap();
        }
        // An unknown group is assigned no partitions, so it has no lag;
        // creating its consumer registers positions at the committed
        // offset (0) and the full backlog becomes visible.
        assert_eq!(b.group_lag("g", "t"), 0);
        let mut c = b.consumer_all("g", "t").unwrap();
        assert_eq!(b.group_lag("g", "t"), 20);
        let got = c.poll_now(12).len();
        assert_eq!(got, 12);
        // The broker sees the live positions without any commit.
        assert_eq!(b.group_lag("g", "t"), 8);
        assert_eq!(c.lag(), b.group_lag("g", "t"));
        while !c.poll_now(100).is_empty() {}
        assert_eq!(b.group_lag("g", "t"), 0);
        // Unknown topic is zero lag, not a panic.
        assert_eq!(b.group_lag("g", "missing"), 0);
    }

    #[test]
    fn lag_report_covers_all_groups_and_topics() {
        let b = Broker::new();
        let t1 = b.create_topic("a", TopicConfig::in_memory(1)).unwrap();
        let t2 = b.create_topic("b", TopicConfig::in_memory(1)).unwrap();
        for i in 0..5u64 {
            t1.produce(i, Bytes::from_static(b"x")).unwrap();
        }
        for i in 0..3u64 {
            t2.produce(i, Bytes::from_static(b"y")).unwrap();
        }
        let mut c1 = b.consumer_all("g1", "a").unwrap();
        let _c2 = b.consumer_all("g2", "b").unwrap();
        assert_eq!(c1.poll_now(2).len(), 2);
        let report = b.lag_report();
        assert_eq!(
            report,
            vec![
                LagEntry {
                    group: "g1".into(),
                    topic: "a".into(),
                    lag: 3
                },
                LagEntry {
                    group: "g2".into(),
                    topic: "b".into(),
                    lag: 3
                },
            ]
        );
        assert_eq!(
            b.consumer_groups(),
            vec!["g1".to_string(), "g2".to_string()]
        );
    }

    #[test]
    fn new_consumer_resets_live_position_to_committed() {
        let b = Broker::new();
        let t = b.create_topic("t", TopicConfig::in_memory(1)).unwrap();
        for i in 0..10u64 {
            t.produce(i, Bytes::from_static(b"m")).unwrap();
        }
        {
            let mut c = b.consumer_all("g", "t").unwrap();
            assert_eq!(c.poll_now(7).len(), 7);
            // no commit: the live position dies with the consumer
        }
        assert_eq!(b.group_lag("g", "t"), 3, "stale live position visible");
        let _c2 = b.consumer_all("g", "t").unwrap();
        assert_eq!(
            b.group_lag("g", "t"),
            10,
            "a fresh consumer resumes from the committed offset"
        );
    }
}
