//! The in-process reference: a `HeliosDeployment` fed exactly what the
//! multi-process deployment was sent, in the same order. It is both the
//! correctness oracle (replies over TCP must match its `serve_encoded`
//! byte for byte) and the place the `core.serving` / `core.sampler`
//! layer numbers are taken, free of any socket.

use std::time::{Duration, Instant};

use helios_core::HeliosDeployment;
use helios_net::Client;
use helios_query::KHopQuery;
use helios_types::{GraphUpdate, VertexId};

use crate::load::{replay, SeedSequence, Sent};
use crate::spec::Workload;
use crate::stats;

pub struct Reference {
    pub deployment: HeliosDeployment,
    pub updates: u64,
    /// Wall time of `ingest_batch` × n + `quiesce`.
    pub ingest: Duration,
    /// Σ sampling-thread busy time ÷ (wall × sampling threads).
    pub sampler_busy_share: f64,
}

impl Reference {
    pub fn build(
        workload: &Workload,
        query: &KHopQuery,
        sent: &[Sent],
        events: &[GraphUpdate],
        marker_seeds: &[u64],
    ) -> Result<Reference, String> {
        let config = workload.config();
        let threads = (config.sampling_workers * config.sampling_threads) as f64;
        let deployment = HeliosDeployment::start(config, query.clone())
            .map_err(|e| format!("reference deployment: {e}"))?;
        let t0 = Instant::now();
        let mut updates = 0u64;
        let fed = replay(sent, events, marker_seeds, |batch| {
            updates += batch.len() as u64;
            deployment
                .ingest_batch(batch)
                .map_err(|e| format!("reference ingest: {e}"))
        });
        let settled = fed.and_then(|()| {
            deployment
                .quiesce(Duration::from_secs(120))
                .then_some(())
                .ok_or_else(|| "reference deployment did not quiesce".to_string())
        });
        if let Err(e) = settled {
            deployment.shutdown();
            return Err(e);
        }
        let ingest = t0.elapsed();
        let busy: u64 = deployment
            .sampler_metrics()
            .iter()
            .map(|m| m.total_busy_nanos())
            .sum();
        Ok(Reference {
            sampler_busy_share: busy as f64 / (ingest.as_nanos() as f64 * threads).max(1.0),
            deployment,
            updates,
            ingest,
        })
    }

    /// The correctness gate: every seed in `seeds`, served over TCP
    /// through the gateway, must equal the reference's bytes exactly (or
    /// fail on both sides). Returns how many were compared.
    pub fn gate(&self, client: &Client, seeds: &[u64]) -> Result<usize, String> {
        let mut want = Vec::new();
        for &seed in seeds {
            let reference = self.deployment.serve_encoded(VertexId(seed), &mut want);
            match (client.serve(VertexId(seed)), reference) {
                (Ok(got), Ok(())) if got[..] == want[..] => {}
                (Ok(got), Ok(())) => {
                    return Err(format!(
                        "seed {seed}: reply over TCP ({} bytes) differs from the in-process \
                         reference ({} bytes)",
                        got.len(),
                        want.len()
                    ))
                }
                (Err(_), Err(_)) => {}
                (got, want) => {
                    return Err(format!(
                        "seed {seed}: in-process {} but TCP {}",
                        if want.is_ok() { "served" } else { "failed" },
                        if got.is_ok() { "served" } else { "failed" },
                    ))
                }
            }
        }
        Ok(seeds.len())
    }

    /// `serve_encoded` on the reference: latency, throughput on two
    /// threads, stage means from the existing `serving.stage_latency`
    /// histograms, and exact lookup counts.
    pub fn serving_probe(&self, seeds: &mut SeedSequence, twin: &mut SeedSequence) -> ServingProbe {
        let before_lookups = self.lookups();
        let before_stages = self.stage_sums();
        let n = 4000usize;
        let mut out = Vec::new();
        let mut us = Vec::with_capacity(n);
        let mut served = 0u64;
        for i in 0..n + n / 10 {
            let seed = VertexId(seeds.next_seed());
            let t0 = Instant::now();
            if self.deployment.serve_encoded(seed, &mut out).is_ok() {
                served += 1;
            }
            if i >= n / 10 {
                us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
        let after_lookups = self.lookups();
        let after_stages = self.stage_sums();
        stats::sort(&mut us);
        let hits = after_lookups.0 - before_lookups.0;
        let misses = after_lookups.1 - before_lookups.1;
        let stage_us = |i: usize| -> f64 {
            let (sum, count) = (
                after_stages[i].0 - before_stages[i].0,
                after_stages[i].1 - before_stages[i].1,
            );
            // A stage runs once per hop but is reported per serve.
            if count == 0 {
                0.0
            } else {
                sum as f64 / served.max(1) as f64 / 1e3
            }
        };

        // Throughput: two threads, half a second.
        let window = Duration::from_millis(500);
        let t0 = Instant::now();
        let counts: Vec<u64> = std::thread::scope(|scope| {
            [seeds, twin]
                .map(|seq| {
                    scope.spawn(move || {
                        let (mut out, mut done) = (Vec::new(), 0u64);
                        while t0.elapsed() < window {
                            let seed = VertexId(seq.next_seed());
                            if self.deployment.serve_encoded(seed, &mut out).is_ok() {
                                done += 1;
                            }
                        }
                        done
                    })
                })
                .map(|h| h.join().expect("serve thread"))
                .to_vec()
        });
        ServingProbe {
            serve_encoded_us: stats::percentile(&us, 0.5),
            serve_encoded_p99_us: stats::percentile(&us, 0.99),
            inproc_qps: counts.iter().sum::<u64>() as f64 / t0.elapsed().as_secs_f64(),
            stage_us: [stage_us(0), stage_us(1), stage_us(2), stage_us(3)],
            lookups_per_serve: (hits + misses) as f64 / served.max(1) as f64,
            lookup_hit_share: hits as f64 / (hits + misses).max(1) as f64,
        }
    }

    /// (hits, misses) over the sample and feature tables of every worker.
    fn lookups(&self) -> (u64, u64) {
        self.deployment
            .serving_workers()
            .iter()
            .fold((0, 0), |(h, m), w| {
                let (sh, sm) = w.sample_lookups();
                let (fh, fm) = w.feature_lookups();
                (h + sh + fh, m + sm + fm)
            })
    }

    /// (Σ nanoseconds, count) of each `serving.stage_latency` stage, in
    /// the order cache_lookup, hop_expand, feature_gather, encode. A stage
    /// whose instrument is absent reads as zeros.
    fn stage_sums(&self) -> [(u64, u64); 4] {
        let snapshot = self.deployment.telemetry_snapshot();
        ["cache_lookup", "hop_expand", "feature_gather", "encode"].map(|stage| {
            let label = format!("stage={stage}");
            snapshot
                .histograms
                .iter()
                .filter(|(key, _)| {
                    key.starts_with("serving.stage_latency{")
                        && key
                            .trim_end_matches('}')
                            .split(['{', ','])
                            .any(|part| part == label)
                })
                .fold((0, 0), |(sum, count), (_, h)| {
                    (sum + h.sum, count + h.count)
                })
        })
    }

    pub fn shutdown(self) {
        self.deployment.shutdown();
    }
}

pub struct ServingProbe {
    pub serve_encoded_us: f64,
    pub serve_encoded_p99_us: f64,
    pub inproc_qps: f64,
    /// Mean per serve: cache_lookup, hop_expand, feature_gather, encode.
    pub stage_us: [f64; 4],
    pub lookups_per_serve: f64,
    pub lookup_hit_share: f64,
}
