//! Ad-hoc (full-traversal) sampling over a materialized neighbor list.
//!
//! This is what graph databases do at *query time* (§3): every request
//! traverses the complete adjacency list of each frontier vertex, which is
//! exactly the behavior that produces degree-skewed tail latency. The
//! baseline in `helios-graphdb` calls these functions; Helios itself never
//! does (its reservoirs absorb the traversal cost at update time).
//!
//! Distribution equivalence with the event-driven reservoirs is asserted
//! by the property tests at the bottom of this module.

use helios_types::{Timestamp, VertexId};
use rand::seq::SliceRandom;
use rand::Rng;

/// A neighbor edge as stored in an adjacency list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborEdge {
    /// Destination vertex of the edge.
    pub neighbor: VertexId,
    /// Edge timestamp.
    pub ts: Timestamp,
    /// Edge weight.
    pub weight: f32,
}

/// Uniformly sample up to `k` neighbors without replacement.
///
/// Cost: O(n) — the whole list is touched (partial Fisher–Yates).
pub fn adhoc_random(neighbors: &[NeighborEdge], k: usize, rng: &mut impl Rng) -> Vec<NeighborEdge> {
    if neighbors.len() <= k {
        return neighbors.to_vec();
    }
    // `choose_multiple` performs a reservoir pass over the full slice.
    neighbors.choose_multiple(rng, k).copied().collect()
}

/// Select the `k` neighbors with the largest timestamps.
///
/// Cost: O(n log n) in this implementation (sort of the *entire* list),
/// deliberately mirroring the paper's description: "the timestamp of every
/// edge ... has to be collected and sorted" (§3.1).
pub fn adhoc_topk(neighbors: &[NeighborEdge], k: usize) -> Vec<NeighborEdge> {
    let mut all = neighbors.to_vec();
    all.sort_by_key(|e| std::cmp::Reverse(e.ts));
    all.truncate(k);
    all
}

/// Weighted sampling without replacement (A-Res over the full list).
///
/// Cost: O(n log k).
pub fn adhoc_weighted(
    neighbors: &[NeighborEdge],
    k: usize,
    rng: &mut impl Rng,
) -> Vec<NeighborEdge> {
    if neighbors.len() <= k {
        return neighbors.to_vec();
    }
    let mut keyed: Vec<(f32, NeighborEdge)> = neighbors
        .iter()
        .map(|e| {
            let w = if e.weight.is_finite() && e.weight > 0.0 {
                e.weight
            } else {
                f32::MIN_POSITIVE
            };
            let u: f32 = rng.gen_range(f32::MIN_POSITIVE..1.0);
            (u.powf(1.0 / w), *e)
        })
        .collect();
    keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("keys finite"));
    keyed.truncate(k);
    keyed.into_iter().map(|(_, e)| e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservoir::{Reservoir, SamplingStrategy};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn edges(n: u64) -> Vec<NeighborEdge> {
        (0..n)
            .map(|i| NeighborEdge {
                neighbor: VertexId(i),
                ts: Timestamp(i * 3 % n), // shuffled-ish timestamps
                weight: 1.0 + (i % 5) as f32,
            })
            .collect()
    }

    #[test]
    fn random_returns_k_distinct() {
        let es = edges(100);
        let mut g = StdRng::seed_from_u64(1);
        let s = adhoc_random(&es, 10, &mut g);
        assert_eq!(s.len(), 10);
        let mut ids: Vec<_> = s.iter().map(|e| e.neighbor).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 10);
    }

    #[test]
    fn random_small_list_returns_all() {
        let es = edges(3);
        let mut g = StdRng::seed_from_u64(1);
        assert_eq!(adhoc_random(&es, 10, &mut g), es);
    }

    #[test]
    fn topk_exact() {
        let es = edges(50);
        let top = adhoc_topk(&es, 5);
        assert_eq!(top.len(), 5);
        let mut all_ts: Vec<Timestamp> = es.iter().map(|e| e.ts).collect();
        all_ts.sort_by(|a, b| b.cmp(a));
        let got: Vec<Timestamp> = top.iter().map(|e| e.ts).collect();
        assert_eq!(got, all_ts[..5].to_vec());
    }

    #[test]
    fn weighted_prefers_heavy() {
        let mut es = edges(20);
        es[0].weight = 1000.0;
        let mut g = StdRng::seed_from_u64(3);
        let mut included = 0;
        for _ in 0..300 {
            let s = adhoc_weighted(&es, 3, &mut g);
            if s.iter().any(|e| e.neighbor == VertexId(0)) {
                included += 1;
            }
        }
        assert!(included > 250, "heavy edge included {included}/300");
    }

    // The headline equivalence (§5.2): "The data distribution of reservoir
    // sampling is the same as ad-hoc sampling". For TopK this is exact;
    // check it on arbitrary streams.
    #[test]
    fn seeded_topk_reservoir_equals_adhoc() {
        for seed in 1..=128u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let k: u32 = rng.gen_range(1..8);
            let es: Vec<NeighborEdge> = (0..rng.gen_range(1..60u64))
                .map(|i| NeighborEdge {
                    neighbor: VertexId(i),
                    ts: Timestamp(rng.gen_range(0..1000)),
                    weight: 1.0,
                })
                .collect();

            let mut r = Reservoir::new(SamplingStrategy::TopK, k);
            for e in &es {
                r.offer(e.neighbor, e.ts, e.weight, &mut rng);
            }
            let mut res_ts: Vec<u64> = r.entries().iter().map(|e| e.ts.millis()).collect();
            res_ts.sort_unstable();

            let mut adhoc_ts: Vec<u64> = adhoc_topk(&es, k as usize)
                .iter()
                .map(|e| e.ts.millis())
                .collect();
            adhoc_ts.sort_unstable();

            assert_eq!(res_ts, adhoc_ts, "seed {seed}: k {k}, {} edges", es.len());
        }
    }

    #[test]
    fn seeded_random_reservoir_size_invariant() {
        for seed in 1..=128u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (n, k): (u64, u32) = (rng.gen_range(1..200), rng.gen_range(1..16));
            let at = format!("seed {seed}: n {n}, k {k}");
            let mut r = Reservoir::new(SamplingStrategy::Random, k);
            for v in 0..n {
                r.offer(VertexId(v), Timestamp(v), 1.0, &mut rng);
            }
            assert_eq!(r.entries().len() as u64, n.min(u64::from(k)), "{at}");
            // All sampled neighbors must come from the stream.
            assert!(r.neighbors().all(|v| v.raw() < n), "{at}");
            // No duplicate neighbors for a distinct-neighbor stream.
            let mut ids: Vec<u64> = r.neighbors().map(|v| v.raw()).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), r.entries().len(), "{at}");
        }
    }

    /// Statistical equivalence of Random reservoir vs ad-hoc uniform:
    /// compare per-neighbor inclusion frequencies over many trials.
    #[test]
    fn random_reservoir_matches_adhoc_distribution() {
        let n = 30u64;
        let k = 3u32;
        let trials = 3000;
        let mut res_counts = vec![0u32; n as usize];
        let mut adhoc_counts = vec![0u32; n as usize];
        let es = (0..n)
            .map(|i| NeighborEdge {
                neighbor: VertexId(i),
                ts: Timestamp(i),
                weight: 1.0,
            })
            .collect::<Vec<_>>();
        let mut g = StdRng::seed_from_u64(77);
        for _ in 0..trials {
            let mut r = Reservoir::new(SamplingStrategy::Random, k);
            for e in &es {
                r.offer(e.neighbor, e.ts, e.weight, &mut g);
            }
            for v in r.neighbors() {
                res_counts[v.raw() as usize] += 1;
            }
            for e in adhoc_random(&es, k as usize, &mut g) {
                adhoc_counts[e.neighbor.raw() as usize] += 1;
            }
        }
        // Both should be ~ trials * k / n; compare each against expectation.
        let expected = trials as f64 * f64::from(k) / n as f64;
        for v in 0..n as usize {
            for (name, c) in [("reservoir", res_counts[v]), ("adhoc", adhoc_counts[v])] {
                let dev = (f64::from(c) - expected).abs() / expected;
                assert!(
                    dev < 0.40,
                    "{name} neighbor {v}: {c} vs expected {expected}"
                );
            }
        }
    }
}

#[cfg(test)]
mod weighted_equivalence {
    use super::*;
    use crate::reservoir::{Reservoir, SamplingStrategy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Statistical equivalence of EdgeWeight reservoir vs ad-hoc weighted
    /// sampling: per-neighbor inclusion frequencies must agree within
    /// sampling noise across a range of weight profiles.
    #[test]
    fn weighted_reservoir_matches_adhoc_distribution() {
        let n = 12u64;
        let k = 3usize;
        let trials = 4000;
        // Weight profile: geometric-ish spread.
        let es: Vec<NeighborEdge> = (0..n)
            .map(|i| NeighborEdge {
                neighbor: VertexId(i),
                ts: Timestamp(i),
                weight: 0.5 + (i % 4) as f32 * 2.0,
            })
            .collect();
        let mut res_counts = vec![0u32; n as usize];
        let mut adhoc_counts = vec![0u32; n as usize];
        let mut g = StdRng::seed_from_u64(4242);
        for _ in 0..trials {
            let mut r = Reservoir::new(SamplingStrategy::EdgeWeight, k as u32);
            for e in &es {
                r.offer(e.neighbor, e.ts, e.weight, &mut g);
            }
            for v in r.neighbors() {
                res_counts[v.raw() as usize] += 1;
            }
            for e in adhoc_weighted(&es, k, &mut g) {
                adhoc_counts[e.neighbor.raw() as usize] += 1;
            }
        }
        // Compare inclusion frequencies pointwise: both methods implement
        // A-Res, so they must agree within noise (~2–3% absolute).
        for v in 0..n as usize {
            let fr = f64::from(res_counts[v]) / f64::from(trials);
            let fa = f64::from(adhoc_counts[v]) / f64::from(trials);
            assert!(
                (fr - fa).abs() < 0.05,
                "neighbor {v}: reservoir {fr:.3} vs adhoc {fa:.3}"
            );
        }
        // And the heaviest class is sampled more than the lightest.
        let heavy: u32 = (0..n as usize)
            .filter(|v| v % 4 == 3)
            .map(|v| res_counts[v])
            .sum();
        let light: u32 = (0..n as usize)
            .filter(|v| v % 4 == 0)
            .map(|v| res_counts[v])
            .sum();
        assert!(heavy > light * 2, "heavy {heavy} vs light {light}");
    }
}
