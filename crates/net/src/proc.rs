//! Per-process hosts: the pieces a multi-process deployment is built
//! from, mirroring GraphWorker's worker/partitioner/executer split.
//!
//! A single-process `HeliosDeployment` wires sampling workers to serving
//! workers through in-memory mq topics. Here the same unmodified workers
//! run in separate OS processes:
//!
//! - [`SamplingHost`] owns the update/control/membership topics and the
//!   sampling workers. Per serving worker, a **relay** thread consumes
//!   the local `samples-<s>` topic and ships each batch over TCP as a
//!   `Produce` frame, waiting for the ack before the next batch so the
//!   per-partition record order — the thing cache convergence depends
//!   on — is preserved end to end.
//! - [`ServeHost`] owns one serving worker and its local `samples-<s>`
//!   topic. Incoming `Produce` frames are appended partition-for-
//!   partition, key-for-key, so the worker's updater threads see exactly
//!   the sequence they would have seen in process, and serve replies are
//!   byte-identical to the in-process transport on the same stream.
//!
//! The sampling host is the same [`SamplingTier`] `HeliosDeployment`
//! runs in process. Both hosts expose the drain numbers (`StatsOk`) a
//! coordinator needs to decide "all ingested data has been applied":
//! [`Watermarks::from_stats`] joins them into the one drain equation
//! `HeliosDeployment::quiesce` reads.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use helios_core::sampler::topics;
use helios_core::{Coordinator, HeliosConfig, SamplingTier, ServingWorker, Watermarks};
use helios_mq::{Broker, Topic, TopicConfig};
use helios_query::KHopQuery;
use helios_telemetry::registry::Registry;
use helios_telemetry::{FlightRecorder, HealthReport, OpsServer, OpsState, TraceCtx};
use helios_types::{HeliosError, Result, ServingWorkerId, VertexId};

use crate::server::{NetServer, NetService};
use crate::transport::{NetMetrics, TcpOptions, TcpTransport, Transport};
use crate::wire::{ErrCode, Payload, RelayRecord};

/// How long a relay sleeps between redelivery attempts to a serve
/// worker that is down or unreachable.
const RELAY_RETRY: Duration = Duration::from_millis(100);

/// Configuration for a [`ServeHost`] process.
pub struct ServeHostConfig {
    /// Which serving worker this process hosts.
    pub sew: u32,
    /// Wire listen address (`127.0.0.1:0` for ephemeral).
    pub listen: String,
    /// Ops/metrics HTTP address; `None` disables it.
    pub ops_addr: Option<String>,
    /// The deployment-wide config — must be identical on every process
    /// (partition counts and route slots are topology-defining).
    pub config: HeliosConfig,
    /// The query every process compiles.
    pub query: KHopQuery,
}

struct ServeHostService {
    sew: u32,
    worker: Arc<ServingWorker>,
    topic: Arc<Topic>,
}

impl NetService for ServeHostService {
    fn serve_encoded(&self, seed: VertexId, out: &mut Vec<u8>) -> Result<()> {
        self.worker.serve_encoded(seed, TraceCtx::NONE, out)
    }

    fn handle(&self, payload: Payload) -> Payload {
        match payload {
            Payload::Produce { sew, records } => {
                if sew != self.sew {
                    return Payload::Error {
                        code: ErrCode::NotFound,
                        message: format!("this process hosts sew {}, not {sew}", self.sew),
                    };
                }
                // One sequence bump and one wake-up for the whole relayed
                // batch, not one per record.
                let landed = self.topic.produce_many_to(
                    records
                        .into_iter()
                        .map(|rec| (rec.partition, rec.key, rec.payload)),
                );
                match landed {
                    Ok(count) => Payload::Ack {
                        count: count as u64,
                    },
                    Err(e) => Payload::Error {
                        code: ErrCode::from_error(&e),
                        message: e.to_string(),
                    },
                }
            }
            Payload::HealthReq => Payload::HealthOk {
                healthy: true,
                detail: format!(
                    "sew {} applied {} served {}",
                    self.sew,
                    self.worker.applied(),
                    self.worker.served()
                ),
            },
            Payload::StatsReq => Payload::StatsOk {
                entries: vec![
                    (Watermarks::APPLIED.into(), self.worker.applied()),
                    (
                        Watermarks::DECODE_ERRORS.into(),
                        self.worker.decode_errors(),
                    ),
                    ("served".into(), self.worker.served()),
                ],
            },
            other => Payload::Error {
                code: ErrCode::NotFound,
                message: format!("serve worker does not handle {} frames", other.kind_name()),
            },
        }
    }
}

/// A serving-worker process: one unmodified [`ServingWorker`] behind a
/// [`NetServer`].
pub struct ServeHost {
    addr: SocketAddr,
    ops_addr: Option<SocketAddr>,
    server: Option<NetServer>,
    worker: Arc<ServingWorker>,
    registry: Arc<Registry>,
    _ops: Option<OpsServer>,
}

impl ServeHost {
    /// Start the host: local sample topic, serving worker, wire server.
    pub fn start(host: ServeHostConfig) -> Result<ServeHost> {
        let registry = Arc::new(Registry::new());
        let recorder = FlightRecorder::new(host.config.flight_recorder_capacity);
        let broker = Broker::new();
        let topic = broker.create_topic(
            &topics::samples(host.sew),
            TopicConfig::in_memory(host.config.sample_queue_partitions),
        )?;
        let coordinator = Coordinator::new(host.query.clone());
        let beacon = coordinator.register_worker(&format!("sew{}-r0", host.sew));
        let worker = ServingWorker::start(
            ServingWorkerId(host.sew),
            0,
            &host.config,
            &host.query,
            &broker,
            beacon,
            &registry,
            &recorder,
        )?;
        let service = Arc::new(ServeHostService {
            sew: host.sew,
            worker: Arc::clone(&worker),
            topic,
        });
        let net = NetMetrics::new(&registry, "worker");
        let server = NetServer::start(&host.listen, service, net, Some(Arc::clone(&recorder)))?;
        let ops = match &host.ops_addr {
            Some(addr) => {
                let snap = Arc::clone(&registry);
                let probe_worker = Arc::clone(&worker);
                let sew = host.sew;
                let state = OpsState::new(move || snap.snapshot())
                    .probe(move || {
                        HealthReport::new(
                            format!("serve-worker-{sew}"),
                            true,
                            format!("applied {}", probe_worker.applied()),
                        )
                    })
                    .recorder(Arc::clone(&recorder));
                Some(OpsServer::start(addr, state)?)
            }
            None => None,
        };
        Ok(ServeHost {
            addr: server.addr(),
            ops_addr: ops.as_ref().map(|o| o.addr()),
            server: Some(server),
            worker,
            registry,
            _ops: ops,
        })
    }

    /// The wire address clients (gateway, relays) connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The ops address, when an ops server was started.
    pub fn ops_addr(&self) -> Option<SocketAddr> {
        self.ops_addr
    }

    /// This process's metrics registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The hosted worker (tests assert on its counters).
    pub fn worker(&self) -> &Arc<ServingWorker> {
        &self.worker
    }

    /// Stop the wire server, then the worker.
    pub fn shutdown(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.worker.shutdown();
    }
}

/// Configuration for a [`SamplingHost`] process.
pub struct SamplingHostConfig {
    /// Wire listen address for ingest/stats traffic.
    pub listen: String,
    /// Ops/metrics HTTP address; `None` disables it.
    pub ops_addr: Option<String>,
    /// The deployment-wide config (same instance everywhere).
    pub config: HeliosConfig,
    /// The query every process compiles.
    pub query: KHopQuery,
    /// Serve-worker wire addresses, indexed by serving worker id; one
    /// relay per entry.
    pub serve_workers: Vec<String>,
}

/// Frame dispatch for the sampling host: ingest into the tier, report
/// its watermarks with each relay's acked count.
struct SamplingHostService {
    tier: Arc<SamplingTier>,
    /// Records each relay has had acked, by serving worker.
    forwarded: Arc<Vec<AtomicU64>>,
}

impl NetService for SamplingHostService {
    fn serve_encoded(&self, _seed: VertexId, _out: &mut Vec<u8>) -> Result<()> {
        Err(HeliosError::NotFound(
            "sampling host does not serve queries".into(),
        ))
    }

    fn handle(&self, payload: Payload) -> Payload {
        match payload {
            Payload::Updates { updates } => match self.tier.ingest_batch(&updates) {
                Ok(()) => Payload::Ack {
                    count: updates.len() as u64,
                },
                Err(e) => Payload::Error {
                    code: ErrCode::from_error(&e),
                    message: e.to_string(),
                },
            },
            Payload::HealthReq => Payload::HealthOk {
                healthy: true,
                detail: format!("backlog {}", self.tier.backlog()),
            },
            Payload::StatsReq => {
                let mut marks = self.tier.watermarks(self.forwarded.len() as u32);
                for (queue, acked) in marks.queues.iter_mut().zip(self.forwarded.iter()) {
                    queue.forwarded = acked.load(Ordering::SeqCst);
                }
                Payload::StatsOk {
                    entries: marks.stats_entries(),
                }
            }
            other => Payload::Error {
                code: ErrCode::NotFound,
                message: format!("sampling host does not handle {} frames", other.kind_name()),
            },
        }
    }
}

/// A sampling process: the [`SamplingTier`] plus one relay per serving
/// worker shipping `samples-<s>` over TCP.
pub struct SamplingHost {
    addr: SocketAddr,
    ops_addr: Option<SocketAddr>,
    server: Option<NetServer>,
    tier: Arc<SamplingTier>,
    relays: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    registry: Arc<Registry>,
    _ops: Option<OpsServer>,
}

impl SamplingHost {
    /// Start the host: the sampling tier, relays, wire server.
    pub fn start(host: SamplingHostConfig) -> Result<SamplingHost> {
        let config = host.config;
        if host.serve_workers.len() != config.serving_workers {
            return Err(HeliosError::InvalidConfig(format!(
                "{} serve-worker endpoints for {} serving workers",
                host.serve_workers.len(),
                config.serving_workers
            )));
        }
        let registry = Arc::new(Registry::new());
        let recorder = FlightRecorder::new(config.flight_recorder_capacity);
        let mut tier = SamplingTier::create(&config)?;
        let coordinator = Coordinator::new(host.query.clone());
        tier.start_workers(&host.query, &coordinator, &registry, &recorder, None)?;
        let tier = Arc::new(tier);
        let forwarded: Arc<Vec<AtomicU64>> = Arc::new(
            host.serve_workers
                .iter()
                .map(|_| AtomicU64::new(0))
                .collect(),
        );
        let net = NetMetrics::new(&registry, "relay");
        let stop = Arc::new(AtomicBool::new(false));
        let mut relays = Vec::with_capacity(host.serve_workers.len());
        for (s, addr) in host.serve_workers.iter().enumerate() {
            let consumer = tier
                .broker()
                .consumer_all(&format!("relay-{s}"), &topics::samples(s as u32))?;
            let transport = TcpTransport::with_options(
                addr,
                TcpOptions {
                    pool: 1,
                    metrics: Arc::clone(&net),
                    ..TcpOptions::default()
                },
            );
            let stop = Arc::clone(&stop);
            let forwarded = Arc::clone(&forwarded);
            let poll_batch = config.poll_batch;
            let poll_timeout = config.poll_timeout;
            relays.push(
                std::thread::Builder::new()
                    .name(format!("relay-{s}"))
                    .spawn(move || {
                        relay_loop(
                            s,
                            consumer,
                            transport,
                            stop,
                            forwarded,
                            poll_batch,
                            poll_timeout,
                        );
                    })
                    .expect("spawn relay"),
            );
        }
        let service = Arc::new(SamplingHostService {
            tier: Arc::clone(&tier),
            forwarded,
        });
        let net_server = NetMetrics::new(&registry, "worker");
        let server = NetServer::start(
            &host.listen,
            service,
            net_server,
            Some(Arc::clone(&recorder)),
        )?;
        let ops = match &host.ops_addr {
            Some(addr) => {
                let snap = Arc::clone(&registry);
                let probe_tier = Arc::clone(&tier);
                let state = OpsState::new(move || snap.snapshot())
                    .probe(move || {
                        HealthReport::new(
                            "sampling-host",
                            true,
                            format!("backlog {}", probe_tier.backlog()),
                        )
                    })
                    .recorder(Arc::clone(&recorder));
                Some(OpsServer::start(addr, state)?)
            }
            None => None,
        };
        Ok(SamplingHost {
            addr: server.addr(),
            ops_addr: ops.as_ref().map(|o| o.addr()),
            server: Some(server),
            tier,
            relays,
            stop,
            registry,
            _ops: ops,
        })
    }

    /// The wire address the gateway/clients send ingest to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The ops address, when an ops server was started.
    pub fn ops_addr(&self) -> Option<SocketAddr> {
        self.ops_addr
    }

    /// This process's metrics registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Stop relays (after they drain), the wire server, then the tier.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for relay in self.relays.drain(..) {
            let _ = relay.join();
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.tier.shutdown();
    }
}

/// Relay: poll the local sample topic, ship each batch as a `Produce`
/// frame, wait for the ack so per-partition order is preserved, retry
/// forever (the serve worker owns the data; dropping is not an option)
/// until the host shuts down.
fn relay_loop(
    sew: usize,
    mut consumer: helios_mq::Consumer,
    transport: TcpTransport,
    stop: Arc<AtomicBool>,
    forwarded: Arc<Vec<AtomicU64>>,
    poll_batch: usize,
    poll_timeout: Duration,
) {
    loop {
        let recs = consumer.poll(poll_batch, poll_timeout);
        if recs.is_empty() {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            continue;
        }
        let count = recs.len() as u64;
        let records: Vec<RelayRecord> = recs
            .into_iter()
            .map(|r| RelayRecord {
                partition: r.partition,
                key: r.key,
                payload: r.payload,
            })
            .collect();
        let request = Payload::Produce {
            sew: sew as u32,
            records,
        };
        loop {
            match transport.call(request.clone()) {
                Ok(Payload::Ack { .. }) => {
                    forwarded[sew].fetch_add(count, Ordering::SeqCst);
                    break;
                }
                Ok(_) | Err(_) => {
                    // Not acked: the batch was not applied. Redeliver the
                    // same frame — produce_to is append-only, and the
                    // receiver only acks after every record landed, so
                    // retrying a failed delivery cannot reorder.
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::sleep(RELAY_RETRY);
                }
            }
        }
    }
}
