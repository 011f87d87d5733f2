//! Epoch-versioned routing: slot-based assignment of seeds to logical
//! serving workers, and the wire messages that publish it.

use bytes::{Buf, BytesMut};
use helios_types::{hash::route, Decode, Encode, HeliosError, Result, ServingWorkerId, VertexId};
use parking_lot::RwLock;
use std::sync::Arc;

/// An epoch-versioned routing table: `slots` hash buckets, each assigned
/// to one logical serving worker. Seeds route `seed → slot → worker`, so
/// a rescale only has to reassign slots — every seed in an unmoved slot
/// keeps its owner, its subscriptions and its warmed cache entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTable {
    /// Monotonic version; bumped by every rescale.
    epoch: u64,
    /// Number of logical serving workers (`assignment` values are `< workers`).
    workers: u32,
    /// Slot → logical serving worker.
    assignment: Vec<u32>,
}

impl RouteTable {
    /// The epoch-0 table for a fresh deployment: `slots` buckets dealt
    /// round-robin over `workers` workers. Deterministic, so every
    /// sampling worker and the deployment front-end independently build
    /// the identical initial table.
    pub fn initial(workers: usize, slots: usize) -> RouteTable {
        assert!(
            workers > 0 && slots >= workers,
            "need slots >= workers >= 1"
        );
        RouteTable {
            epoch: 0,
            workers: workers as u32,
            assignment: (0..slots).map(|s| (s % workers) as u32).collect(),
        }
    }

    /// Table version.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of logical serving workers.
    pub fn workers(&self) -> usize {
        self.workers as usize
    }

    /// Number of hash slots.
    pub fn slots(&self) -> usize {
        self.assignment.len()
    }

    /// The slot `v` hashes to.
    pub fn slot_of(&self, v: VertexId) -> usize {
        route(v.raw(), self.assignment.len())
    }

    /// The logical serving worker owning `v`.
    pub fn owner_of(&self, v: VertexId) -> ServingWorkerId {
        ServingWorkerId(self.assignment[self.slot_of(v)])
    }

    /// The slot → worker assignment.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// A new table for `new_workers` workers at `epoch + 1`, moving the
    /// minimal number of slots: surviving workers keep their slots up to
    /// the balanced target; only the excess (and every slot of a removed
    /// worker) is reassigned.
    pub fn rebalanced(&self, new_workers: usize) -> RouteTable {
        self.rebalanced_at(new_workers, self.epoch + 1)
    }

    /// [`RouteTable::rebalanced`] with an explicit (strictly newer) epoch.
    /// Rescale attempts use this to give every attempt a unique epoch, so
    /// a retry after an abandoned handoff can never satisfy a prepare or
    /// commit watermark with the abandoned attempt's scans.
    pub fn rebalanced_at(&self, new_workers: usize, epoch: u64) -> RouteTable {
        assert!(epoch > self.epoch, "rebalance must advance the epoch");
        let slots = self.assignment.len();
        assert!(
            new_workers > 0 && slots >= new_workers,
            "need slots >= workers >= 1"
        );
        let n = new_workers;
        let base = slots / n;
        let extra = slots % n;
        let target = |w: usize| base + usize::from(w < extra);

        let mut assignment = self.assignment.clone();
        let mut counts = vec![0usize; n];
        let mut pool: Vec<usize> = Vec::new();
        // Slots of removed workers must move; surviving owners keep theirs
        // for now.
        for (slot, &w) in assignment.iter().enumerate() {
            if (w as usize) < n {
                counts[w as usize] += 1;
            } else {
                pool.push(slot);
            }
        }
        // Over-target survivors surrender their highest slots.
        for (w, count) in counts.iter_mut().enumerate() {
            for slot in (0..slots).rev() {
                if *count <= target(w) {
                    break;
                }
                if assignment[slot] as usize == w {
                    pool.push(slot);
                    *count -= 1;
                }
            }
        }
        // Deal the pool to under-target workers. Σ target == slots, so the
        // pool drains exactly.
        pool.sort_unstable();
        let mut pool = pool.into_iter();
        for (w, count) in counts.iter_mut().enumerate() {
            while *count < target(w) {
                let slot = pool.next().expect("pool size matches deficit");
                assignment[slot] = w as u32;
                *count += 1;
            }
        }
        debug_assert!(pool.next().is_none());
        RouteTable {
            epoch,
            workers: n as u32,
            assignment,
        }
    }

    /// Number of slots assigned differently than in `other`.
    pub fn moved_slots(&self, other: &RouteTable) -> usize {
        self.assignment
            .iter()
            .zip(other.assignment.iter())
            .filter(|(a, b)| a != b)
            .count()
    }
}

impl Encode for RouteTable {
    fn encode(&self, buf: &mut BytesMut) {
        self.epoch.encode(buf);
        self.workers.encode(buf);
        self.assignment.encode(buf);
    }
}

impl Decode for RouteTable {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        let epoch = u64::decode(buf)?;
        let workers = u32::decode(buf)?;
        let assignment = Vec::<u32>::decode(buf)?;
        if workers == 0 || assignment.len() < workers as usize {
            return Err(HeliosError::Codec(format!(
                "route table with {workers} workers over {} slots",
                assignment.len()
            )));
        }
        if assignment.iter().any(|&w| w >= workers) {
            return Err(HeliosError::Codec("slot assigned past worker count".into()));
        }
        Ok(RouteTable {
            epoch,
            workers,
            assignment,
        })
    }
}

/// A shared, atomically swappable handle to the current [`RouteTable`].
/// The deployment front-end and every sampling worker hold one; a rescale
/// installs the committed table with a pointer swap, so readers never
/// block on a rescale in progress.
pub struct Router {
    table: RwLock<Arc<RouteTable>>,
}

impl Router {
    /// A router starting at `table`.
    pub fn new(table: RouteTable) -> Router {
        Router {
            table: RwLock::new(Arc::new(table)),
        }
    }

    /// The current table.
    pub fn table(&self) -> Arc<RouteTable> {
        Arc::clone(&self.table.read())
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.table.read().epoch
    }

    /// The logical serving worker owning `v` under the current table.
    pub fn owner_of(&self, v: VertexId) -> ServingWorkerId {
        self.table.read().owner_of(v)
    }

    /// Install `table` if it is newer than the current one. Returns
    /// whether the swap happened (stale/duplicate installs are no-ops, so
    /// replayed Commit messages are harmless).
    pub fn install(&self, table: Arc<RouteTable>) -> bool {
        let mut cur = self.table.write();
        if table.epoch <= cur.epoch {
            return false;
        }
        *cur = table;
        true
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let t = self.table.read();
        f.debug_struct("Router")
            .field("epoch", &t.epoch)
            .field("workers", &t.workers)
            .field("slots", &t.assignment.len())
            .finish()
    }
}

const MBR_PREPARE: u8 = 0;
const MBR_COMMIT: u8 = 1;
const MBR_ABORT: u8 = 2;

/// Membership protocol messages, broadcast by the deployment to every
/// partition of the `membership` topic (one partition per sampling
/// worker) during a rescale.
///
/// * `Prepare` — samplers charge the *new* owners of moved seeds through
///   the §5.3 subscription path (snapshot push + transitive subscribes)
///   while live traffic keeps routing by the old table.
/// * `Commit` — after the catch-up watermark, samplers swap their router
///   to the new table and discharge the old owners of moved seeds.
/// * `Abort` — a Prepare that will never commit (the handoff timed out):
///   samplers discharge the pending owners it charged, so an abandoned
///   attempt leaks no subscriptions. Per-partition FIFO ordering makes
///   this safe to send at any point after the matching Prepare: it runs
///   after that Prepare's scan and before any retry's, and after a
///   Commit of the same table it matches nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MembershipMsg {
    /// Phase 1: start charging new owners per `table` (no unsubscribes).
    Prepare {
        /// The pending table (epoch > current).
        table: RouteTable,
    },
    /// Phase 2: route by `table`, discharge old owners of moved seeds.
    Commit {
        /// The now-authoritative table.
        table: RouteTable,
    },
    /// Roll back an abandoned Prepare: discharge `table`'s pending owners.
    Abort {
        /// The abandoned attempt's table.
        table: RouteTable,
    },
}

impl MembershipMsg {
    /// The table carried by any phase.
    pub fn table(&self) -> &RouteTable {
        match self {
            MembershipMsg::Prepare { table }
            | MembershipMsg::Commit { table }
            | MembershipMsg::Abort { table } => table,
        }
    }
}

impl Encode for MembershipMsg {
    fn encode(&self, buf: &mut BytesMut) {
        let (tag, table) = match self {
            MembershipMsg::Prepare { table } => (MBR_PREPARE, table),
            MembershipMsg::Commit { table } => (MBR_COMMIT, table),
            MembershipMsg::Abort { table } => (MBR_ABORT, table),
        };
        buf.extend_from_slice(&[tag]);
        table.encode(buf);
    }
}

impl Decode for MembershipMsg {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        match u8::decode(buf)? {
            MBR_PREPARE => Ok(MembershipMsg::Prepare {
                table: RouteTable::decode(buf)?,
            }),
            MBR_COMMIT => Ok(MembershipMsg::Commit {
                table: RouteTable::decode(buf)?,
            }),
            MBR_ABORT => Ok(MembershipMsg::Abort {
                table: RouteTable::decode(buf)?,
            }),
            t => Err(HeliosError::Codec(format!("invalid MembershipMsg tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn initial_covers_all_workers_evenly() {
        let t = RouteTable::initial(3, 64);
        assert_eq!(t.epoch(), 0);
        assert_eq!(t.workers(), 3);
        assert_eq!(t.slots(), 64);
        let mut counts = [0usize; 3];
        for &w in t.assignment() {
            counts[w as usize] += 1;
        }
        assert!(counts.iter().all(|&c| (21..=22).contains(&c)), "{counts:?}");
    }

    #[test]
    fn owner_is_stable_per_vertex() {
        let t = RouteTable::initial(4, 64);
        for v in 0..1000u64 {
            assert_eq!(t.owner_of(VertexId(v)), t.owner_of(VertexId(v)));
            assert!(t.owner_of(VertexId(v)).0 < 4);
        }
    }

    #[test]
    fn rebalance_out_moves_minimum() {
        let t2 = RouteTable::initial(2, 64);
        let t4 = t2.rebalanced(4);
        assert_eq!(t4.epoch(), 1);
        assert_eq!(t4.workers(), 4);
        // Exactly the slots the two new workers need move: 16 each.
        assert_eq!(t4.moved_slots(&t2), 32);
        // Surviving workers only *lost* slots; no slot moved between them.
        for (slot, (&old, &new)) in t2
            .assignment()
            .iter()
            .zip(t4.assignment().iter())
            .enumerate()
        {
            if old != new {
                assert!(new >= 2, "slot {slot} moved between survivors");
            }
        }
    }

    #[test]
    fn rebalance_in_moves_only_departing_slots() {
        let t4 = RouteTable::initial(2, 64).rebalanced(4);
        let t3 = t4.rebalanced(3);
        assert_eq!(t3.epoch(), 2);
        assert_eq!(t3.workers(), 3);
        // Worker 3 owned 16 slots; survivors are near target (21/22 vs
        // 16), so only worker 3's slots plus minor leveling move.
        let departed: usize = t4.assignment().iter().filter(|&&w| w == 3).count();
        assert_eq!(departed, 16);
        assert!(t3.moved_slots(&t4) >= departed);
        assert!(t3.assignment().iter().all(|&w| w < 3));
        // Balanced after: 64/3 → 22/21/21.
        let mut counts = [0usize; 3];
        for &w in t3.assignment() {
            counts[w as usize] += 1;
        }
        assert!(counts.iter().all(|&c| (21..=22).contains(&c)), "{counts:?}");
    }

    #[test]
    fn rebalanced_at_skips_epochs() {
        let t = RouteTable::initial(2, 16);
        // An abandoned attempt burned epoch 1; the retry takes epoch 2.
        let retry = t.rebalanced_at(3, 2);
        assert_eq!(retry.epoch(), 2);
        assert_eq!(retry.workers(), 3);
        assert_eq!(
            retry.assignment(),
            t.rebalanced(3).assignment(),
            "explicit epoch does not change the assignment math"
        );
    }

    #[test]
    #[should_panic(expected = "advance the epoch")]
    fn rebalanced_at_rejects_stale_epoch() {
        let t = RouteTable::initial(2, 16).rebalanced(3);
        let _ = t.rebalanced_at(2, 1);
    }

    #[test]
    fn roundtrip_wire_messages() {
        let table = RouteTable::initial(2, 16).rebalanced(3);
        for msg in [
            MembershipMsg::Prepare {
                table: table.clone(),
            },
            MembershipMsg::Commit {
                table: table.clone(),
            },
            MembershipMsg::Abort {
                table: table.clone(),
            },
        ] {
            let back = MembershipMsg::decode_from_slice(&msg.encode_to_bytes()).unwrap();
            assert_eq!(back, msg);
            assert_eq!(back.table(), &table);
        }
        assert!(MembershipMsg::decode_from_slice(&[9]).is_err());
    }

    #[test]
    fn decode_rejects_inconsistent_tables() {
        // workers = 0
        let mut buf = BytesMut::new();
        7u64.encode(&mut buf);
        0u32.encode(&mut buf);
        vec![0u32; 4].encode(&mut buf);
        assert!(RouteTable::decode_from_slice(&buf).is_err());
        // slot assigned past worker count
        let mut buf = BytesMut::new();
        7u64.encode(&mut buf);
        2u32.encode(&mut buf);
        vec![0u32, 1, 2, 0].encode(&mut buf);
        assert!(RouteTable::decode_from_slice(&buf).is_err());
    }

    #[test]
    fn router_installs_only_newer_epochs() {
        let router = Router::new(RouteTable::initial(2, 16));
        let v1 = Arc::new(RouteTable::initial(2, 16).rebalanced(3));
        assert!(router.install(Arc::clone(&v1)));
        assert_eq!(router.epoch(), 1);
        assert_eq!(router.table().workers(), 3);
        // Replayed or stale installs are no-ops.
        assert!(!router.install(Arc::clone(&v1)));
        assert!(!router.install(Arc::new(RouteTable::initial(2, 16))));
        assert_eq!(router.epoch(), 1);
        for v in 0..100u64 {
            assert_eq!(router.owner_of(VertexId(v)), v1.owner_of(VertexId(v)));
        }
    }

    #[test]
    fn seeded_rebalance_is_minimal_and_balanced() {
        let slots = 60; // divisible by 1..6 → exact targets
        for seed in 1..=64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = RouteTable::initial(rng.gen_range(1..6), slots);
            for step in 0..rng.gen_range(1..5) {
                let n: usize = rng.gen_range(1..6);
                let at = format!("seed {seed} step {step} ({} -> {n} workers)", t.workers());
                let next = t.rebalanced(n);
                assert_eq!(next.epoch(), t.epoch() + 1, "{at}");
                assert_eq!(next.workers(), n, "{at}");
                assert!(next.assignment().iter().all(|&w| (w as usize) < n), "{at}");
                // Balanced within 1.
                let mut counts = vec![0usize; n];
                for &w in next.assignment() {
                    counts[w as usize] += 1;
                }
                let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
                assert!(max - min <= 1, "{at}: unbalanced: {counts:?}");
                // Minimal: a slot only moves if its old owner departed or
                // was above the new target.
                let base = slots / n;
                for (slot, (&old, &new)) in t.assignment().iter().zip(next.assignment()).enumerate()
                {
                    if old != new {
                        let old_load = t.assignment().iter().filter(|&&w| w == old).count();
                        assert!(
                            old as usize >= n || old_load > base,
                            "{at}: slot {slot} moved from under-target worker {old}"
                        );
                    }
                }
                t = next;
            }
        }
    }
}
