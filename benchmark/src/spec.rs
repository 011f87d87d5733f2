//! What the benchmark runs and what it reports: the four workloads and the
//! metric catalogue. `BENCHMARK.json` repeats the names, units and
//! directions given here; a unit test keeps the two in step.
//!
//! Every constant below is part of the benchmark's definition. Changing
//! one changes what every later result is compared against, so it is its
//! own change and re-measures the baseline.

use helios_core::HeliosConfig;
use helios_datagen::{Dataset, Preset};
use helios_query::{KHopQuery, SamplingStrategy};

/// How request seeds are drawn from the seed population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SeedDist {
    /// Every seed equally likely: nothing for a reply cache to hit.
    Uniform,
    /// Zipf with this exponent over a seeded permutation of the population.
    Zipf(f64),
}

/// One traffic mix.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// One line: which layers the workload loads and why it exists.
    pub why: &'static str,
    pub preset: Preset,
    /// Dataset scale. Fixed so that set-up fits the run budget on the
    /// commit that defined the benchmark; never retuned afterwards.
    pub scale: f64,
    pub strategy: SamplingStrategy,
    pub three_hop: bool,
    pub seeds: SeedDist,
    /// Open-loop request rate of the live phase, requests per second.
    pub serve_rate: u32,
    /// Graph updates per second streamed during the live phase, on top of
    /// the freshness markers (0 = the graph is otherwise static).
    pub update_rate: u32,
    /// Updates sent back-to-back in the burst phase.
    pub burst_updates: usize,
    /// Start from an empty graph and run the burst, cut from the head of
    /// the dataset's stream, before the serve phases. Otherwise set-up
    /// ingests the whole stream, and the live and burst phases send
    /// further updates drawn from the same distribution.
    pub burst_first: bool,
    pub sampling_workers: usize,
    pub serving_workers: usize,
}

/// Shares of `--seconds` given to the two time-boxed phases. The burst
/// phase is a fixed amount of work (`burst_updates`) that takes between
/// half a second and three on the commit that defined the benchmark.
pub const LIVE_SHARE: f64 = 0.4;
pub const PIPELINED_SHARE: f64 = 0.3;
/// Untimed closed-loop traffic before every timed closed-loop phase: it
/// opens the lazily opened connections, warms the caches, and gets the
/// sandbox past the first second after a step up in load, which runs at a
/// different speed from the steady state that follows.
pub const LEAD_IN_SECONDS: f64 = 1.5;
/// Untimed open-loop traffic at the start of the live phase.
pub const LIVE_LEAD_IN_SECONDS: f64 = 1.0;
/// Times the deployment is set up per run; `setup_s` is their median.
pub const SETUPS_PER_RUN: usize = 3;
/// Requests kept in flight by each of the two pipelining threads.
pub const PIPELINE_DEPTH: usize = 32;
/// Updates per `Updates` frame in set-up and in the burst phase.
pub const INGEST_BATCH: usize = 2048;
/// The live phase's writer sends one batch per tick, each carrying one
/// freshness marker: 100 probes per second.
pub const LIVE_TICK_MS: u64 = 10;
/// Markers rotate over this many real seed vertices.
pub const MARKER_SEEDS: usize = 64;
/// A run whose open-loop generator ran later than this at p99 did not
/// offer the load it claims to and is reported as invalid.
pub const MAX_GEN_LATE_P99_MS: f64 = 1.0;
/// Requests per window of the windowed latency percentiles (see
/// `stats::windowed_percentile`): p90 of 200 leaves twenty beyond it, and
/// a 10 s phase at 500 req/s still has 25 windows for the median to work
/// with. The ungated p99 uses windows of 1000: ten beyond.
pub const LATENCY_WINDOW: usize = 200;
pub const P99_WINDOW: usize = 1000;
/// Freshness probes per window of their windowed tail percentile: p90 of
/// 100 leaves ten beyond it.
pub const FRESHNESS_WINDOW: usize = 100;
/// Seeds compared byte-for-byte against the in-process reference.
pub const GATE_SEEDS: usize = 256;

pub fn workloads() -> Vec<Workload> {
    let base = Workload {
        name: "",
        why: "",
        preset: Preset::Inter,
        scale: 0.25,
        strategy: SamplingStrategy::Random,
        three_hop: false,
        seeds: SeedDist::Zipf(1.1),
        serve_rate: 400,
        update_rate: 0,
        burst_updates: 40_000,
        burst_first: false,
        sampling_workers: 1,
        serving_workers: 2,
    };
    vec![
        Workload {
            name: "serve_small",
            why: "BI 2-hop Random, uniform seeds: ~11 lookups and 84 B per serve, so wire, transport, \
                  server and gateway do nearly all the work and kvstore/assembly none",
            preset: Preset::Bi,
            scale: 0.5,
            seeds: SeedDist::Uniform,
            serve_rate: 1000,
            burst_updates: 110_000,
            ..base.clone()
        },
        Workload {
            name: "serve_large",
            why: "INTER 3-hop Random, Zipf(1.1) seeds: ~500 lookups and ~23 KB per reply, so \
                  core.serving assembly, kvstore.multi_get and per-byte wire cost dominate",
            three_hop: true,
            scale: 0.5,
            serve_rate: 500,
            burst_updates: 250_000,
            ..base.clone()
        },
        Workload {
            name: "ingest_burst",
            why: "INTER 2-hop TopK from an empty graph, updates sent back-to-back: sampler, \
                  reservoir, mq, relay and kvstore.write_batch do the work, the serve path none",
            strategy: SamplingStrategy::TopK,
            scale: 0.5,
            serve_rate: 500,
            burst_updates: 250_000,
            burst_first: true,
            ..base.clone()
        },
        Workload {
            name: "mixed_live",
            why: "INTER 2-hop Random, 1000 req/s of Zipf serves while 10000 updates/s stream \
                  in: the same kvstore, mq and sockets read and written at once",
            scale: 0.5,
            serve_rate: 1000,
            update_rate: 10_000,
            burst_updates: 350_000,
            ..base
        },
    ]
}

pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The dataset with its stream seeded by `seed`. The schema and query
    /// do not depend on the seed, so the `helios` processes (which only
    /// know preset and scale) compile the same query.
    pub fn dataset(&self, seed: u64) -> Dataset {
        let mut config = self.preset.config(self.scale);
        config.seed ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Dataset::new(config, self.preset)
    }

    pub fn query(&self, dataset: &Dataset) -> KHopQuery {
        dataset.table2_query(self.strategy, self.three_hop)
    }

    /// The deployment-wide configuration every `helios` process derives
    /// from the topology flags; the in-process reference uses the same.
    pub fn config(&self) -> HeliosConfig {
        HeliosConfig::with_workers(self.sampling_workers, self.serving_workers)
    }

    /// The launcher flags that make a child rebuild this topology.
    pub fn topology_args(&self) -> Vec<String> {
        let mut args = vec![
            "--preset".to_string(),
            match self.preset {
                Preset::Bi => "bi",
                Preset::Inter => "inter",
                Preset::Fin => "fin",
                Preset::Taobao => "taobao",
            }
            .into(),
            "--scale".into(),
            format!("{}", self.scale),
            "--strategy".into(),
            match self.strategy {
                SamplingStrategy::Random => "random",
                SamplingStrategy::TopK => "topk",
                SamplingStrategy::EdgeWeight => "edge-weight",
            }
            .into(),
            "--sampling-workers".into(),
            self.sampling_workers.to_string(),
            "--serving-workers".into(),
            self.serving_workers.to_string(),
        ];
        if self.three_hop {
            args.push("--three-hop".into());
        }
        args
    }
}

/// Name, unit and whether higher or lower is better.
pub type MetricSpec = (&'static str, &'static str, Better);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

/// What a user of the deployed system sees. Reported by every workload.
pub const END_TO_END: &[MetricSpec] = &[
    ("setup_s", "s", Lower),
    ("serve_p50_ms", "ms", Lower),
    ("serve_p90_ms", "ms", Lower),
    ("serve_qps", "1/s", Higher),
    ("ingest_updates_per_s", "1/s", Higher),
    ("freshness_p50_ms", "ms", Lower),
    ("freshness_p90_ms", "ms", Lower),
    ("cpu_us_per_serve", "us", Lower),
    ("cpu_us_per_update", "us", Lower),
    ("mem_rss_peak_mb", "MB", Lower),
];

/// Single-layer numbers from the traced run and the in-process probes.
/// Layers are this repository's modules; README.md says which end-to-end
/// metric each should move and on which workload.
pub const PER_LAYER: &[MetricSpec] = &[
    // net.wire
    ("net.wire.encode_serve_ns", "ns", Lower),
    ("net.wire.decode_reply_ns", "ns", Lower),
    ("net.wire.encode_updates_ns_per_update", "ns", Lower),
    ("net.wire.decode_updates_ns_per_update", "ns", Lower),
    ("net.reply_bytes_p50", "B", Lower),
    // net.transport + net.server
    ("net.loopback_rtt_us", "us", Lower),
    ("net.echo_rtt_us", "us", Lower),
    ("net.direct_serve_us", "us", Lower),
    ("net.direct_pipelined_qps", "1/s", Higher),
    // net.gateway
    ("net.gateway_echo_rtt_us", "us", Lower),
    ("net.gateway_hop_us", "us", Lower),
    ("net.gateway.admitted_total", "count", Higher),
    ("net.gateway.shed_total", "count", Lower),
    ("net.gateway.forward_errors", "count", Lower),
    ("net.ingest_ack_us_per_batch", "us", Lower),
    // proc, per OS role
    ("proc.gateway.cpu_us_per_serve", "us", Lower),
    ("proc.serve_worker.cpu_us_per_serve", "us", Lower),
    ("proc.client.cpu_us_per_serve", "us", Lower),
    ("proc.gateway.ctx_switches_per_serve", "count", Lower),
    ("proc.serve_worker.ctx_switches_per_serve", "count", Lower),
    ("proc.sampling.cpu_us_per_update", "us", Lower),
    ("proc.serve_worker.cpu_us_per_update", "us", Lower),
    ("proc.gateway.cpu_us_per_update", "us", Lower),
    ("proc.gateway.rss_peak_mb", "MB", Lower),
    ("proc.serve_worker.rss_peak_mb", "MB", Lower),
    ("proc.sampling.rss_peak_mb", "MB", Lower),
    // core.serving + query, on the in-process reference
    ("core.serving.serve_encoded_us", "us", Lower),
    ("core.serving.serve_encoded_p99_us", "us", Lower),
    ("core.serving.inproc_qps", "1/s", Higher),
    ("core.serving.stage.cache_lookup_us", "us", Lower),
    ("core.serving.stage.hop_expand_us", "us", Lower),
    ("core.serving.stage.feature_gather_us", "us", Lower),
    ("core.serving.stage.encode_us", "us", Lower),
    ("core.serving.lookups_per_serve", "count", Lower),
    ("core.serving.lookup_hit_share", "share", Higher),
    // kvstore
    ("kvstore.get_ns", "ns", Lower),
    ("kvstore.put_ns", "ns", Lower),
    ("kvstore.multi_get_us_per_256", "us", Lower),
    ("kvstore.write_batch_us_per_256", "us", Lower),
    ("kvstore.hybrid.multi_get_us_per_256", "us", Lower),
    ("kvstore.hybrid.fit.multi_get_us_per_256", "us", Lower),
    ("kvstore.hybrid.block_cache_hit_share", "share", Higher),
    ("kvstore.hybrid.write_batch_us_per_256", "us", Lower),
    ("kvstore.hybrid.stall_share", "share", Lower),
    ("kvstore.hybrid.disk_bytes_per_user_byte", "B/B", Lower),
    // mq
    ("mq.produce_many_ns_per_record", "ns", Lower),
    ("mq.poll_ns_per_record", "ns", Lower),
    ("mq.wake_latency_us", "us", Lower),
    ("mq.updates_lag_max", "count", Lower),
    // sampling
    ("sampling.offer_ns.random", "ns", Lower),
    ("sampling.offer_ns.topk", "ns", Lower),
    ("sampling.offer_ns.edge_weight", "ns", Lower),
    ("sampling.replace_share.random", "share", Lower),
    ("sampling.replace_share.topk", "share", Lower),
    // core.sampler + relay
    ("core.sampler.inproc_updates_per_s", "1/s", Higher),
    ("core.sampler.busy_share", "share", Lower),
    ("core.sampler.publish_per_update", "count", Lower),
    ("core.sampler.control_per_update", "count", Lower),
    ("core.sampler.backlog_max", "count", Lower),
    ("net.relay.lag_max", "count", Lower),
    ("core.serving.apply_lag_max", "count", Lower),
    // membership
    ("membership.owner_of_ns", "ns", Lower),
    // tails this sandbox cannot hold steady enough to gate (see README.md)
    ("serve_p99_ms", "ms", Lower),
    ("freshness_p95_ms", "ms", Lower),
    // the benchmark itself, and the latency budget
    ("bench.gen_late_p99_ms", "ms", Lower),
    ("bench.trace_overhead_share", "share", Lower),
    ("budget.serve_unattributed_share", "share", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn contract() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .expect(key)
            .as_array()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn coded(specs: &[MetricSpec]) -> Vec<(String, String, String)> {
        specs
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.as_str().to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_and_workloads_coded_here() {
        let doc = contract();
        assert_eq!(listed(&doc, "end_to_end"), coded(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), coded(PER_LAYER));
        let names: Vec<String> = doc
            .get("workloads")
            .expect("workloads")
            .as_array()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string()
            })
            .collect();
        let coded: Vec<String> = workloads().iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names, coded);
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_within_the_contracts_cap() {
        for m in contract().get("end_to_end").expect("end_to_end").as_array() {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        }
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contracts_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn the_seed_changes_the_stream_but_not_the_query() {
        let w = workload("mixed_live").unwrap();
        let (a, b) = (w.dataset(1), w.dataset(2));
        assert_eq!(w.query(&a), w.query(&b));
        assert_ne!(
            a.events().take(2000).collect::<Vec<_>>(),
            b.events().take(2000).collect::<Vec<_>>()
        );
        assert_eq!(
            a.events().take(2000).collect::<Vec<_>>(),
            w.dataset(1).events().take(2000).collect::<Vec<_>>()
        );
    }
}
