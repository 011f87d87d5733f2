//! Byte-accurate memory gauges.
//!
//! A [`MemGauge`] is a cheap, cloneable handle to a shared signed byte
//! counter. Components adjust it with one relaxed atomic RMW at the
//! exact site where bytes are allocated or freed (memtable insert, block
//! cache evict, mq release of consumed records, …), so the gauge tracks *measured*
//! occupancy rather than a config knob. The telemetry crate's
//! `MemAccountant` collects these handles per component and exports them
//! as `mem.bytes{component,…}` registry gauges; this type lives in
//! `helios-types` so leaf crates (kvstore, mq) can account bytes without
//! a telemetry dependency.
//!
//! The counter is signed on purpose: a transient negative value is a
//! bug, but saturating at zero would hide it — tests assert gauges
//! return exactly to their pre-state instead.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Shared byte counter with relaxed-atomic adjustment. Cloning shares
/// the underlying cell, so one logical component (e.g. "memtables of
/// the samples table") can be fed from many shards.
#[derive(Clone, Debug, Default)]
pub struct MemGauge(Arc<AtomicI64>);

impl MemGauge {
    /// New gauge at zero bytes.
    pub fn new() -> Self {
        MemGauge::default()
    }

    /// Account `bytes` allocated.
    #[inline]
    pub fn add(&self, bytes: usize) {
        self.0.fetch_add(bytes as i64, Ordering::Relaxed);
    }

    /// Account `bytes` freed.
    #[inline]
    pub fn sub(&self, bytes: usize) {
        self.0.fetch_sub(bytes as i64, Ordering::Relaxed);
    }

    /// Apply a signed delta (overwrite paths that shrink or grow an
    /// entry in place).
    #[inline]
    pub fn add_signed(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raise the gauge to `bytes` if it is currently lower — high-water
    /// tracking for scratch arenas whose buffers only matter at peak.
    #[inline]
    pub fn raise_to(&self, bytes: usize) {
        self.0.fetch_max(bytes as i64, Ordering::Relaxed);
    }

    /// Current value in bytes (negative values indicate an accounting
    /// bug; nothing clamps them).
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    /// True when both handles share the same underlying counter.
    pub fn same_cell(&self, other: &MemGauge) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_roundtrip() {
        let g = MemGauge::new();
        g.add(100);
        g.add(28);
        g.sub(100);
        assert_eq!(g.get(), 28);
        g.sub(28);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn clones_share_the_cell() {
        let g = MemGauge::new();
        let h = g.clone();
        g.add(7);
        h.add(3);
        assert_eq!(g.get(), 10);
        assert!(g.same_cell(&h));
        assert!(!g.same_cell(&MemGauge::new()));
    }

    #[test]
    fn raise_to_is_monotone() {
        let g = MemGauge::new();
        g.raise_to(50);
        g.raise_to(20);
        assert_eq!(g.get(), 50);
        g.raise_to(80);
        assert_eq!(g.get(), 80);
    }

    #[test]
    fn signed_delta_can_go_negative() {
        let g = MemGauge::new();
        g.add_signed(-5);
        assert_eq!(g.get(), -5, "accounting bugs must stay visible");
    }
}
