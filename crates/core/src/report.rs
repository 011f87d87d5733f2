//! Aggregated deployment status — what an operator's dashboard would show
//! (and what the example binaries print).

use crate::deployment::HeliosDeployment;
use std::fmt;

/// Snapshot of one serving worker's counters.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Logical serving worker id.
    pub sew: u32,
    /// Replica index.
    pub replica: u32,
    /// Requests served.
    pub served: u64,
    /// Sample-queue records applied to the cache.
    pub applied: u64,
    /// Sample-queue records that failed to decode (not applied).
    pub decode_errors: u64,
    /// Serving latency, milliseconds.
    pub serve_avg_ms: f64,
    /// Serving P99 latency, milliseconds.
    pub serve_p99_ms: f64,
    /// Ingestion latency P99, milliseconds (0 when nothing recorded).
    pub ingestion_p99_ms: f64,
    /// Sample-queue dwell P99, milliseconds — how long applied records
    /// sat in the broker (0 when nothing recorded).
    pub mq_dwell_p99_ms: f64,
    /// Cache footprint in bytes (memory + disk).
    pub cache_bytes: u64,
    /// Byte-accurate accounted footprint of this replica (sample/feature
    /// memtables + block cache + SST indexes + serve scratch), from the
    /// worker's [`crate::ServingMemGauges`].
    pub accounted_bytes: i64,
}

/// Snapshot of one sampling worker's counters.
#[derive(Debug, Clone)]
pub struct SamplingReport {
    /// Sampling worker id.
    pub saw: u32,
    /// Updates processed.
    pub updates_processed: u64,
    /// Control messages processed.
    pub control_processed: u64,
    /// Sample/feature messages published.
    pub published: u64,
    /// Update-queue dwell P99, milliseconds — how long consumed updates
    /// sat in the broker (0 when nothing recorded).
    pub update_dwell_p99_ms: f64,
    /// Critical-path busy seconds (busiest sampling thread).
    pub max_shard_busy_secs: f64,
}

/// A whole-deployment snapshot.
#[derive(Debug, Clone)]
pub struct DeploymentReport {
    /// Per-sampling-worker counters.
    pub sampling: Vec<SamplingReport>,
    /// Per-serving-worker (replica) counters.
    pub serving: Vec<ServingReport>,
    /// Workers that missed their heartbeat window.
    pub dead_workers: Vec<String>,
    /// Accounted bytes per memory component (`mem.bytes` ledger), sorted
    /// by component name.
    pub mem_components: Vec<(String, i64)>,
    /// Sum of all accounted component bytes.
    pub mem_total_bytes: i64,
    /// Configured memory budget, when one is set.
    pub mem_budget_bytes: Option<u64>,
}

impl DeploymentReport {
    /// Build a snapshot of `deployment`.
    pub fn capture(deployment: &HeliosDeployment) -> DeploymentReport {
        let sampling = deployment
            .tier
            .workers()
            .iter()
            .map(|w| {
                let m = w.metrics();
                SamplingReport {
                    saw: w.id().0,
                    updates_processed: m.updates_processed.get(),
                    control_processed: m.control_processed.get(),
                    published: m.published.get(),
                    update_dwell_p99_ms: m.update_dwell.percentile_ms(99.0),
                    max_shard_busy_secs: m.max_shard_busy_nanos() as f64 / 1e9,
                }
            })
            .collect();
        let serving = deployment
            .serving_workers()
            .iter()
            .map(|w| ServingReport {
                sew: w.id().0,
                replica: w.replica(),
                served: w.served(),
                applied: w.applied(),
                decode_errors: w.decode_errors(),
                serve_avg_ms: w.serve_latency().mean_ms(),
                serve_p99_ms: w.serve_latency().percentile_ms(99.0),
                ingestion_p99_ms: w.ingestion_latency().percentile_ms(99.0),
                mq_dwell_p99_ms: w.mq_dwell().percentile_ms(99.0),
                cache_bytes: w.cache_bytes(),
                accounted_bytes: {
                    let g = w.mem_gauges();
                    g.sample_table.get()
                        + g.feature_table.get()
                        + g.block_cache.get()
                        + g.sst_index.get()
                        + g.serve_scratch.get()
                },
            })
            .collect();
        let accountant = deployment.mem_accountant();
        let mem_components = accountant
            .components()
            .into_iter()
            .map(|c| {
                let bytes = accountant.component_bytes(&c);
                (c, bytes)
            })
            .collect();
        DeploymentReport {
            sampling,
            serving,
            dead_workers: deployment
                .coordinator()
                .dead_workers(std::time::Duration::from_secs(5)),
            mem_components,
            mem_total_bytes: accountant.total_bytes(),
            mem_budget_bytes: accountant.budget_bytes(),
        }
    }

    /// Total updates processed across sampling workers.
    pub fn total_updates(&self) -> u64 {
        self.sampling.iter().map(|s| s.updates_processed).sum()
    }

    /// Total requests served across serving workers.
    pub fn total_served(&self) -> u64 {
        self.serving.iter().map(|s| s.served).sum()
    }
}

impl fmt::Display for DeploymentReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "helios deployment report")?;
        for s in &self.sampling {
            writeln!(
                f,
                "  SAW{}: {} updates (dwell p99 {:.3} ms), {} control, {} published, busy {:.2}s",
                s.saw,
                s.updates_processed,
                s.update_dwell_p99_ms,
                s.control_processed,
                s.published,
                s.max_shard_busy_secs
            )?;
        }
        for s in &self.serving {
            writeln!(
                f,
                "  SEW{}r{}: {} served (avg {:.3} ms / p99 {:.3} ms), {} applied (dwell p99 {:.3} ms), {} decode errors, cache {} KB, accounted {} KB",
                s.sew,
                s.replica,
                s.served,
                s.serve_avg_ms,
                s.serve_p99_ms,
                s.applied,
                s.mq_dwell_p99_ms,
                s.decode_errors,
                s.cache_bytes / 1024,
                s.accounted_bytes.max(0) / 1024
            )?;
        }
        let components = self
            .mem_components
            .iter()
            .map(|(c, b)| format!("{c} {b}"))
            .collect::<Vec<_>>()
            .join(", ");
        match self.mem_budget_bytes {
            Some(budget) => writeln!(
                f,
                "  MEM: {} bytes of {budget} budget ({})",
                self.mem_total_bytes, components
            )?,
            None => writeln!(
                f,
                "  MEM: {} bytes, no budget ({})",
                self.mem_total_bytes, components
            )?,
        }
        if !self.dead_workers.is_empty() {
            writeln!(f, "  DEAD: {:?}", self.dead_workers)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HeliosConfig, HeliosDeployment};
    use helios_query::{KHopQuery, SamplingStrategy};
    use helios_types::{EdgeType, VertexType};

    #[test]
    fn report_captures_and_renders() {
        let q = KHopQuery::builder(VertexType(0))
            .hop(EdgeType(0), VertexType(1), 2, SamplingStrategy::Random)
            .build()
            .unwrap();
        let helios = HeliosDeployment::start(HeliosConfig::with_workers(2, 2), q).unwrap();
        let report = DeploymentReport::capture(&helios);
        assert_eq!(report.sampling.len(), 2);
        assert_eq!(report.serving.len(), 2);
        assert_eq!(report.total_updates(), 0);
        assert_eq!(report.total_served(), 0);
        let text = report.to_string();
        assert!(text.contains("SAW0"));
        assert!(text.contains("SEW1r0"));
        assert!(text.contains("MEM:"), "report shows the memory ledger");
        for component in ["mq_log", "sample_table", "feature_table", "trace_retention"] {
            assert!(
                report.mem_components.iter().any(|(c, _)| c == component),
                "ledger tracks {component}"
            );
        }
        assert!(
            report.dead_workers.is_empty(),
            "freshly started workers are alive"
        );
        helios.shutdown();
    }
}
