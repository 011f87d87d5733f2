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
//! Both hosts expose the drain watermarks (`StatsOk`) a coordinator
//! needs to decide "all ingested data has been applied" — the
//! multi-process mirror of `HeliosDeployment::quiesce`.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use helios_core::sampler::topics;
use helios_core::{Coordinator, HeliosConfig, SamplingWorker, ServingWorker, UpdateEnvelope};
use helios_membership::{RouteTable, Router};
use helios_mq::{Broker, Topic, TopicConfig};
use helios_query::KHopQuery;
use helios_telemetry::registry::Registry;
use helios_telemetry::{FlightRecorder, HealthReport, OpsServer, OpsState, TraceCtx};
use helios_types::{
    hash::route, Encode, GraphUpdate, HeliosError, MemGauge, PartitionId, Result, SamplingWorkerId,
    ServingWorkerId, VertexId,
};
use parking_lot::Mutex;

use crate::server::{NetServer, NetService};
use crate::transport::{NetMetrics, TcpOptions, TcpTransport, Transport};
use crate::wire::{ErrCode, Payload, RelayRecord};

/// How long a relay sleeps between redelivery attempts to a serve
/// worker that is down or unreachable.
const RELAY_RETRY: Duration = Duration::from_millis(100);

fn mq_topic(partitions: u32, mem: &MemGauge) -> TopicConfig {
    TopicConfig {
        partitions,
        mem: mem.clone(),
        ..Default::default()
    }
}

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
                    ("applied".into(), self.worker.applied()),
                    ("decode_errors".into(), self.worker.decode_errors()),
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
        let mq_mem = MemGauge::new();
        let topic = broker.create_topic(
            &topics::samples(host.sew),
            mq_topic(host.config.sample_queue_partitions, &mq_mem),
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

struct SamplingHostService {
    config: HeliosConfig,
    updates_topic: Arc<Topic>,
    control_topic: Arc<Topic>,
    sample_topics: Vec<Arc<Topic>>,
    workers: Arc<Mutex<Vec<SamplingWorker>>>,
    forwarded: Arc<Vec<AtomicU64>>,
}

impl SamplingHostService {
    fn ingest(&self, update: &GraphUpdate) -> Result<()> {
        let m = self.config.sampling_workers;
        match update {
            GraphUpdate::Vertex(_) => {
                self.produce_update(update.clone(), update.routing_vertex(), m)
            }
            GraphUpdate::Edge(e) => {
                for (rv, copy) in self.config.policy.copies(e) {
                    self.produce_update(GraphUpdate::Edge(copy), rv, m)?;
                }
                Ok(())
            }
        }
    }

    fn produce_update(&self, update: GraphUpdate, rv: VertexId, m: usize) -> Result<()> {
        let env = UpdateEnvelope::stamp(update);
        let partition = PartitionId(route(rv.raw(), m) as u32);
        self.updates_topic
            .produce_to(partition, rv.raw(), env.encode_to_bytes())?;
        Ok(())
    }

    fn stats(&self) -> Vec<(String, u64)> {
        let workers = self.workers.lock();
        let mut entries = vec![
            ("updates_end".into(), self.updates_topic.total_end_offset()),
            (
                "updates_done".into(),
                workers
                    .iter()
                    .map(|w| w.metrics().updates_processed.get())
                    .sum(),
            ),
            ("control_end".into(), self.control_topic.total_end_offset()),
            (
                "control_done".into(),
                workers
                    .iter()
                    .map(|w| w.metrics().control_processed.get())
                    .sum(),
            ),
            (
                "backlog".into(),
                workers.iter().map(|w| w.backlog() as u64).sum(),
            ),
        ];
        for (s, topic) in self.sample_topics.iter().enumerate() {
            entries.push((format!("samples_end_{s}"), topic.total_end_offset()));
            entries.push((
                format!("forwarded_{s}"),
                self.forwarded[s].load(Ordering::SeqCst),
            ));
        }
        entries
    }
}

impl NetService for SamplingHostService {
    fn serve_encoded(&self, _seed: VertexId, _out: &mut Vec<u8>) -> Result<()> {
        Err(HeliosError::NotFound(
            "sampling host does not serve queries".into(),
        ))
    }

    fn handle(&self, payload: Payload) -> Payload {
        match payload {
            Payload::Updates { updates } => {
                let count = updates.len() as u64;
                for update in &updates {
                    if let Err(e) = self.ingest(update) {
                        return Payload::Error {
                            code: ErrCode::from_error(&e),
                            message: e.to_string(),
                        };
                    }
                }
                Payload::Ack { count }
            }
            Payload::HealthReq => {
                let backlog: u64 = self.workers.lock().iter().map(|w| w.backlog() as u64).sum();
                Payload::HealthOk {
                    healthy: true,
                    detail: format!("backlog {backlog}"),
                }
            }
            Payload::StatsReq => Payload::StatsOk {
                entries: self.stats(),
            },
            other => Payload::Error {
                code: ErrCode::NotFound,
                message: format!("sampling host does not handle {} frames", other.kind_name()),
            },
        }
    }
}

/// A sampling process: the ingest topics, all sampling workers, and one
/// relay per serving worker shipping `samples-<s>` over TCP.
pub struct SamplingHost {
    addr: SocketAddr,
    ops_addr: Option<SocketAddr>,
    server: Option<NetServer>,
    workers: Arc<Mutex<Vec<SamplingWorker>>>,
    relays: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    registry: Arc<Registry>,
    service: Arc<SamplingHostService>,
    _ops: Option<OpsServer>,
}

impl SamplingHost {
    /// Start the host: topics, sampling workers, relays, wire server.
    pub fn start(host: SamplingHostConfig) -> Result<SamplingHost> {
        let config = host.config;
        let registry = Arc::new(Registry::new());
        let recorder = FlightRecorder::new(config.flight_recorder_capacity);
        let broker = Broker::new();
        let mq_mem = MemGauge::new();
        let m = config.sampling_workers as u32;
        let n = host.serve_workers.len() as u32;
        let updates_topic = broker.create_topic(topics::UPDATES, mq_topic(m, &mq_mem))?;
        let control_topic = broker.create_topic(topics::CONTROL, mq_topic(m, &mq_mem))?;
        broker.create_topic(topics::MEMBERSHIP, mq_topic(m, &mq_mem))?;
        let mut sample_topics = Vec::with_capacity(n as usize);
        for s in 0..n {
            sample_topics.push(broker.create_topic(
                &topics::samples(s),
                mq_topic(config.sample_queue_partitions, &mq_mem),
            )?);
        }
        let router = Arc::new(Router::new(RouteTable::initial(
            n as usize,
            config.route_slots as usize,
        )));
        let coordinator = Coordinator::new(host.query.clone());
        let mut workers = Vec::with_capacity(m as usize);
        for w in 0..m {
            let beacon = coordinator.register_worker(&format!("saw{w}"));
            workers.push(SamplingWorker::start(
                SamplingWorkerId(w),
                &config,
                &host.query,
                &broker,
                Arc::clone(&router),
                beacon,
                &registry,
                &recorder,
            )?);
        }
        let workers = Arc::new(Mutex::new(workers));
        let forwarded: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let net = NetMetrics::new(&registry, "relay");
        let stop = Arc::new(AtomicBool::new(false));
        let mut relays = Vec::with_capacity(n as usize);
        for (s, addr) in host.serve_workers.iter().enumerate() {
            let consumer =
                broker.consumer_all(&format!("relay-{s}"), &topics::samples(s as u32))?;
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
            config,
            updates_topic,
            control_topic,
            sample_topics,
            workers: Arc::clone(&workers),
            forwarded,
        });
        let net_server = NetMetrics::new(&registry, "worker");
        let server = NetServer::start(
            &host.listen,
            Arc::clone(&service) as Arc<dyn NetService>,
            net_server,
            Some(Arc::clone(&recorder)),
        )?;
        let ops = match &host.ops_addr {
            Some(addr) => {
                let snap = Arc::clone(&registry);
                let probe_workers = Arc::clone(&workers);
                let state = OpsState::new(move || snap.snapshot())
                    .probe(move || {
                        let backlog: u64 = probe_workers
                            .lock()
                            .iter()
                            .map(|w| w.backlog() as u64)
                            .sum();
                        HealthReport::new("sampling-host", true, format!("backlog {backlog}"))
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
            workers,
            relays,
            stop,
            registry,
            service,
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

    /// Ingest a batch locally (launcher-side convenience; the wire path
    /// goes through `Updates` frames).
    pub fn ingest_batch(&self, updates: &[GraphUpdate]) -> Result<()> {
        for u in updates {
            self.service.ingest(u)?;
        }
        Ok(())
    }

    /// The drain watermarks this host reports over `StatsReq`.
    pub fn stats(&self) -> Vec<(String, u64)> {
        self.service.stats()
    }

    /// Stop relays (after they drain), workers, and the wire server.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for relay in self.relays.drain(..) {
            let _ = relay.join();
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        for worker in self.workers.lock().drain(..) {
            worker.shutdown();
        }
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
