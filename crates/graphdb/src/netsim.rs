//! A calibrated network cost model for the "threads-as-machines"
//! deployment. The paper's cluster has a 10 Gbps network; distributed
//! multi-hop sampling pays one cross-machine round trip per hop (§3.2),
//! which is the effect this module injects.
//!
//! The model charges `rtt + bytes / bandwidth` per message and actually
//! *sleeps* for that duration, so latency histograms measured by the
//! experiment harnesses include realistic network time. All traffic is
//! also counted, so harnesses can report messages/bytes per query
//! (Fig. 4(d)'s communication-overhead analysis).
//!
//! Scaling: experiments run with an RTT a few hundred µs by default —
//! loopback-scaled but preserving the *ratios* that matter (a 3-hop query
//! pays 1.5× the rounds of a 2-hop query regardless of the absolute RTT).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Network parameters for simulated cross-machine links.
#[derive(Debug, Clone, Copy)]
pub struct NetworkConfig {
    /// One-way latency charged per message.
    pub rtt: Duration,
    /// Link bandwidth in bytes/second.
    pub bandwidth_bps: u64,
}

impl NetworkConfig {
    /// The paper's testbed, scaled for a single machine: 200 µs RTT,
    /// 10 Gbps (= 1.25 GB/s) links.
    pub fn paper_scaled() -> Self {
        NetworkConfig {
            rtt: Duration::from_micros(200),
            bandwidth_bps: 1_250_000_000,
        }
    }

    /// A zero-cost network (co-located workers).
    pub fn zero() -> Self {
        NetworkConfig {
            rtt: Duration::ZERO,
            bandwidth_bps: u64::MAX,
        }
    }

    /// Delay for transferring `bytes` over this link.
    pub fn delay_for(&self, bytes: usize) -> Duration {
        if self.bandwidth_bps == u64::MAX {
            return self.rtt;
        }
        let transfer_ns = (bytes as u128 * 1_000_000_000) / self.bandwidth_bps as u128;
        self.rtt + Duration::from_nanos(transfer_ns.min(u128::from(u64::MAX)) as u64)
    }
}

/// Cumulative traffic counters for a simulated network.
#[derive(Debug, Default)]
pub struct TrafficStats {
    messages: AtomicU64,
    bytes: AtomicU64,
}

impl TrafficStats {
    /// Messages sent so far.
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Bytes sent so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Reset both counters.
    pub fn reset(&self) {
        self.messages.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
    }
}

/// A simulated cluster network: nodes are identified by index; messages
/// between different nodes pay the configured delay, messages within a
/// node are free.
#[derive(Debug, Clone)]
pub struct Network {
    config: NetworkConfig,
    stats: Arc<TrafficStats>,
}

impl Network {
    /// New network with the given link parameters.
    pub fn new(config: NetworkConfig) -> Self {
        Network {
            config,
            stats: Arc::new(TrafficStats::default()),
        }
    }

    /// The link configuration.
    pub fn config(&self) -> NetworkConfig {
        self.config
    }

    /// Shared traffic counters.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Simulate sending `bytes` from node `from` to node `to`: sleeps for
    /// the modelled delay (nothing for intra-node traffic) and accounts
    /// the transfer. Returns the charged delay.
    pub fn transfer(&self, from: usize, to: usize, bytes: usize) -> Duration {
        if from == to {
            return Duration::ZERO;
        }
        self.stats.messages.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        let d = self.config.delay_for(bytes);
        if !d.is_zero() {
            spin_sleep(d);
        }
        d
    }

    /// Account a transfer without sleeping (for closed-form cost
    /// analyses).
    pub fn charge_only(&self, from: usize, to: usize, bytes: usize) -> Duration {
        if from == to {
            return Duration::ZERO;
        }
        self.stats.messages.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.config.delay_for(bytes)
    }
}

/// Sleep with sub-millisecond fidelity: OS sleep for the bulk, spin for
/// the tail. `thread::sleep` alone oversleeps badly below ~1 ms, which
/// would distort every latency figure.
pub fn spin_sleep(d: Duration) {
    let start = std::time::Instant::now();
    if d > Duration::from_micros(300) {
        std::thread::sleep(d - Duration::from_micros(200));
    }
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn delay_combines_rtt_and_bandwidth() {
        let c = NetworkConfig {
            rtt: Duration::from_micros(100),
            bandwidth_bps: 1_000_000, // 1 MB/s
        };
        // 1000 bytes at 1 MB/s = 1 ms transfer + 100 µs RTT
        let d = c.delay_for(1000);
        assert_eq!(d, Duration::from_micros(1100));
        assert_eq!(c.delay_for(0), Duration::from_micros(100));
    }

    #[test]
    fn zero_network_is_free_of_transfer_cost() {
        let c = NetworkConfig::zero();
        assert_eq!(c.delay_for(1 << 30), Duration::ZERO);
    }

    #[test]
    fn intra_node_transfers_are_free_and_uncounted() {
        let n = Network::new(NetworkConfig::paper_scaled());
        let d = n.transfer(2, 2, 10_000);
        assert_eq!(d, Duration::ZERO);
        assert_eq!(n.stats().messages(), 0);
        assert_eq!(n.stats().bytes(), 0);
    }

    #[test]
    fn cross_node_transfers_sleep_and_count() {
        let n = Network::new(NetworkConfig {
            rtt: Duration::from_micros(500),
            bandwidth_bps: u64::MAX,
        });
        let start = Instant::now();
        n.transfer(0, 1, 100);
        n.transfer(1, 0, 200);
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_micros(1000), "slept {elapsed:?}");
        assert_eq!(n.stats().messages(), 2);
        assert_eq!(n.stats().bytes(), 300);
        n.stats().reset();
        assert_eq!(n.stats().messages(), 0);
    }

    #[test]
    fn charge_only_counts_without_sleeping() {
        let n = Network::new(NetworkConfig {
            rtt: Duration::from_secs(10),
            bandwidth_bps: u64::MAX,
        });
        let start = Instant::now();
        let d = n.charge_only(0, 1, 50);
        assert!(start.elapsed() < Duration::from_millis(100));
        assert_eq!(d, Duration::from_secs(10));
        assert_eq!(n.stats().messages(), 1);
    }

    #[test]
    fn spin_sleep_is_accurate_at_microsecond_scale() {
        for &us in &[50u64, 200, 800] {
            let d = Duration::from_micros(us);
            let start = Instant::now();
            spin_sleep(d);
            let e = start.elapsed();
            assert!(e >= d, "slept {e:?} < {d:?}");
            assert!(
                e < d + Duration::from_millis(2),
                "overslept {e:?} for {d:?}"
            );
        }
    }

    #[test]
    fn network_clone_shares_stats() {
        let n = Network::new(NetworkConfig::paper_scaled());
        let n2 = n.clone();
        n.charge_only(0, 1, 10);
        n2.charge_only(1, 2, 10);
        assert_eq!(n.stats().messages(), 2);
    }
}
