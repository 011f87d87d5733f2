//! In-process probes of single layers, timed from outside around public
//! functions and shaped by the workload's own keys, values and reply
//! sizes. They run only in the traced run and feed the per-layer ledger;
//! no end-to-end metric depends on them.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use helios_kvstore::{KvConfig, KvStore, WriteOp};
use helios_membership::RouteTable;
use helios_mq::{Broker, TopicConfig};
use helios_net::transport::serve_via;
use helios_net::wire::{Frame, Payload};
use helios_net::{Client, TcpOptions, TcpTransport, Transport};
use helios_sampling::{Reservoir, SamplingStrategy};
use helios_types::{GraphUpdate, Timestamp, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::load::SeedSequence;
use crate::stats;

/// Run `f` in five windows of at least 30 ms each (after one untimed
/// window) and return the median nanoseconds per call.
pub fn ns_per_call(mut f: impl FnMut()) -> f64 {
    const WINDOW: Duration = Duration::from_millis(30);
    let mut per_call = Vec::with_capacity(5);
    for window in 0..6 {
        let (t0, mut calls) = (Instant::now(), 0u64);
        while t0.elapsed() < WINDOW {
            for _ in 0..64 {
                f();
            }
            calls += 64;
        }
        if window > 0 {
            per_call.push(t0.elapsed().as_nanos() as f64 / calls as f64);
        }
    }
    stats::median(&per_call).expect("five windows")
}

/// Median of `n` timed calls of `f`, microseconds.
fn median_us(n: usize, mut f: impl FnMut()) -> f64 {
    let mut us = Vec::with_capacity(n);
    for i in 0..n + n / 10 {
        let t0 = Instant::now();
        f();
        // The first tenth warms connections and caches.
        if i >= n / 10 {
            us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    stats::median(&us).expect("at least one call")
}

pub struct WireProbe {
    pub encode_serve_ns: f64,
    pub decode_reply_ns: f64,
    pub encode_updates_ns_per_update: f64,
    pub decode_updates_ns_per_update: f64,
}

/// Wire encode/decode cost for a serve request, a reply of the workload's
/// median size, and an update batch cut from the workload's own stream.
pub fn wire(reply: &[u8], updates: &[GraphUpdate]) -> WireProbe {
    let mut buf = BytesMut::with_capacity(64);
    let mut id = 0u64;
    let encode_serve_ns = ns_per_call(|| {
        buf.clear();
        id += 1;
        Frame {
            request_id: id,
            payload: Payload::Serve { seed: VertexId(id) },
        }
        .encode(&mut buf);
        black_box(&buf);
    });
    let reply_frame = Frame {
        request_id: 1,
        payload: Payload::ServeOk {
            bytes: Bytes::copy_from_slice(reply),
        },
    }
    .to_bytes();
    let decode_reply_ns = ns_per_call(|| {
        black_box(Frame::decode(black_box(&reply_frame)).expect("own frame decodes"));
    });
    let batch = Frame {
        request_id: 1,
        payload: Payload::Updates {
            updates: updates.to_vec(),
        },
    };
    let n = updates.len().max(1) as f64;
    let mut big = BytesMut::with_capacity(updates.len() * 64);
    let encode_updates = ns_per_call(|| {
        big.clear();
        batch.encode(&mut big);
        black_box(&big);
    });
    let batch_bytes = batch.to_bytes();
    let decode_updates = ns_per_call(|| {
        black_box(Frame::decode(black_box(&batch_bytes)).expect("own frame decodes"));
    });
    WireProbe {
        encode_serve_ns,
        decode_reply_ns,
        encode_updates_ns_per_update: encode_updates / n,
        decode_updates_ns_per_update: decode_updates / n,
    }
}

/// Round trip of a 32-byte message over a bare loopback `TcpStream` pair:
/// the syscall floor under every framed hop. Microseconds, median.
pub fn loopback_rtt_us() -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        let mut buf = [0u8; 32];
        // Ends with an error when the client hangs up.
        loop {
            stream.read_exact(&mut buf)?;
            stream.write_all(&buf)?;
        }
    });
    let io = |e: std::io::Error| e.to_string();
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    let mut buf = [7u8; 32];
    let mut failed = None;
    let rtt = median_us(2000, || {
        if let Err(e) = stream
            .write_all(&buf)
            .and_then(|()| stream.read_exact(&mut buf))
        {
            failed = Some(e.to_string());
        }
    });
    drop(stream);
    let _ = echo.join();
    failed.map_or(Ok(rtt), Err)
}

pub struct NetProbe {
    pub echo_rtt_us: f64,
    pub direct_serve_us: f64,
    pub direct_pipelined_qps: f64,
    pub gateway_echo_rtt_us: f64,
    /// Sequential blocking serves through the gateway, same seeds as
    /// `direct_serve_us`; the difference is the gateway hop.
    pub gateway_serve_us: f64,
}

/// Framed round trips against the live deployment: to a worker directly
/// and through the gateway, one request at a time, plus direct pipelining.
pub fn net(
    gateway: &Client,
    worker_addrs: &[String],
    route_slots: usize,
    seeds: &mut SeedSequence,
) -> Result<NetProbe, String> {
    let single = || TcpOptions {
        pool: 1,
        ..TcpOptions::default()
    };
    let workers: Vec<TcpTransport> = worker_addrs
        .iter()
        .map(|a| TcpTransport::with_options(a, single()))
        .collect();
    let table = RouteTable::initial(workers.len(), route_slots);
    let owner = |seed: u64| &workers[table.owner_of(VertexId(seed)).0 as usize % workers.len()];
    let mut failed: Option<String> = None;
    let mut note = |r: Result<(), String>| {
        if let Err(e) = r {
            failed.get_or_insert(e);
        }
    };

    let echo_rtt_us = median_us(2000, || {
        note(
            workers[0]
                .call(Payload::HealthReq)
                .map(drop)
                .map_err(|e| format!("worker health: {e}")),
        );
    });
    let gateway_echo_rtt_us = median_us(2000, || {
        note(
            gateway
                .health()
                .map(drop)
                .map_err(|e| format!("gateway health: {e}")),
        );
    });
    let probe_seeds: Vec<u64> = (0..1000).map(|_| seeds.next_seed()).collect();
    let mut out = Vec::new();
    let mut next = probe_seeds.iter().cycle();
    let direct_serve_us = median_us(1000, || {
        let seed = *next.next().expect("cycle");
        out.clear();
        note(
            serve_via(owner(seed), VertexId(seed), &mut out)
                .map_err(|e| format!("direct serve: {e}")),
        );
    });
    let mut next = probe_seeds.iter().cycle();
    let gateway_serve_us = median_us(1000, || {
        let seed = *next.next().expect("cycle");
        note(
            gateway
                .serve(VertexId(seed))
                .map(drop)
                .map_err(|e| format!("gateway serve: {e}")),
        );
    });

    // Direct pipelining: 32 requests in flight across the workers.
    let window = Duration::from_millis(500);
    let (t0, mut done) = (Instant::now(), 0u64);
    let mut inflight = std::collections::VecDeque::new();
    let mut next = probe_seeds.iter().cycle();
    while t0.elapsed() < window {
        while inflight.len() < crate::spec::PIPELINE_DEPTH {
            let seed = *next.next().expect("cycle");
            match owner(seed).begin(Payload::Serve {
                seed: VertexId(seed),
            }) {
                Ok(c) => inflight.push_back(c),
                Err(e) => return Err(format!("direct pipelined begin: {e}")),
            }
        }
        let completion = inflight.pop_front().expect("window is full");
        completion
            .wait()
            .map_err(|e| format!("direct pipelined serve: {e}"))?;
        done += 1;
    }
    let direct_pipelined_qps = done as f64 / t0.elapsed().as_secs_f64();
    for c in inflight {
        let _ = c.wait();
    }
    match failed {
        Some(e) => Err(e),
        None => Ok(NetProbe {
            echo_rtt_us,
            direct_serve_us,
            direct_pipelined_qps,
            gateway_echo_rtt_us,
            gateway_serve_us,
        }),
    }
}

pub struct KvProbe {
    pub get_ns: f64,
    pub put_ns: f64,
    pub multi_get_us_per_256: f64,
    pub write_batch_us_per_256: f64,
    pub hybrid_multi_get_us_per_256: f64,
    pub hybrid_fit_multi_get_us_per_256: f64,
    pub hybrid_block_cache_hit_share: f64,
    pub hybrid_write_batch_us_per_256: f64,
    pub hybrid_stall_share: f64,
    pub hybrid_disk_bytes_per_user_byte: f64,
}

fn kv_key(i: u64) -> [u8; 10] {
    // The serving cache's sample keys are a 2-byte hop id plus the
    // 8-byte vertex id.
    let mut key = [0u8; 10];
    key[2..].copy_from_slice(&i.to_be_bytes());
    key
}

fn kv_err(e: helios_types::HeliosError) -> String {
    format!("kvstore probe: {e}")
}

/// Load `n` values of `value_len` bytes in batches of 256; returns the
/// median microseconds per batch and the wall time of the whole load.
fn kv_load(store: &KvStore, n: u64, value: &Bytes) -> Result<(f64, Duration), String> {
    let t0 = Instant::now();
    let mut per_batch = Vec::new();
    for base in (0..n).step_by(256) {
        let ops: Vec<WriteOp> = (base..(base + 256).min(n))
            .map(|i| WriteOp::put(kv_key(i).to_vec(), value.clone(), Timestamp(i + 1)))
            .collect();
        let b0 = Instant::now();
        store.write_batch(ops).map_err(kv_err)?;
        per_batch.push(b0.elapsed().as_secs_f64() * 1e6);
    }
    Ok((stats::median(&per_batch).unwrap_or(0.0), t0.elapsed()))
}

/// Median microseconds of 200 `multi_get`s of 256 random keys.
fn kv_multi_get(store: &KvStore, n: u64, rng: &mut StdRng) -> Result<f64, String> {
    let mut failed = None;
    let us = median_us(200, || {
        let keys: Vec<[u8; 10]> = (0..256).map(|_| kv_key(rng.gen_range(0..n))).collect();
        match store.multi_get(&keys) {
            Ok(values) => {
                black_box(values);
            }
            Err(e) => failed = Some(kv_err(e)),
        }
    });
    failed.map_or(Ok(us), Err)
}

/// The kvstore layer in memory mode and in hybrid mode, with values the
/// size of one of the workload's sample granules. Hybrid mode is measured
/// twice: with data four times the block-cache budget, and with a copy
/// that fits in it. `scratch` must be a directory this run owns.
pub fn kvstore(value_len: usize, scratch: &Path, seed: u64) -> Result<KvProbe, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let value = Bytes::from(vec![0xA5u8; value_len.max(8)]);
    let n = 20_000u64;
    let mem = KvStore::open(KvConfig::in_memory(4)).map_err(kv_err)?;
    let t0 = Instant::now();
    for i in 0..n {
        mem.put(&kv_key(i), value.clone(), Timestamp(i + 1))
            .map_err(kv_err)?;
    }
    let put_ns = t0.elapsed().as_nanos() as f64 / n as f64;
    let mut failed = None;
    let get_ns = ns_per_call(|| match mem.get(&kv_key(rng.gen_range(0..n))) {
        Ok(v) => {
            black_box(v);
        }
        Err(e) => failed = Some(kv_err(e)),
    });
    if let Some(e) = failed {
        return Err(e);
    }
    let multi_get_us_per_256 = kv_multi_get(&mem, n, &mut rng)?;
    let batch_store = KvStore::open(KvConfig::in_memory(4)).map_err(kv_err)?;
    let (write_batch_us_per_256, _) = kv_load(&batch_store, n, &value)?;

    const BLOCK_CACHE: usize = 1 << 20;
    let hybrid = |name: &str, data_bytes: usize| -> Result<(KvStore, u64), String> {
        let dir = scratch.join(name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let store = KvStore::open(KvConfig {
            block_cache_bytes: BLOCK_CACHE,
            ..KvConfig::hybrid(4, 64 << 10, dir)
        })
        .map_err(kv_err)?;
        Ok((store, (data_bytes / value.len()).max(256) as u64))
    };
    let (big, big_n) = hybrid("kv-big", 4 * BLOCK_CACHE)?;
    let (hybrid_write_batch_us_per_256, load_wall) = kv_load(&big, big_n, &value)?;
    big.flush().map_err(kv_err)?;
    let loaded = big.stats();
    let hybrid_multi_get_us_per_256 = kv_multi_get(&big, big_n, &mut rng)?;
    let read = big.stats();
    let (hits, misses) = (
        read.block_cache_hits - loaded.block_cache_hits,
        read.block_cache_misses - loaded.block_cache_misses,
    );
    let user_bytes = big_n as f64 * (value.len() + 10) as f64;
    let (fit, fit_n) = hybrid("kv-fit", BLOCK_CACHE / 4)?;
    kv_load(&fit, fit_n, &value)?;
    fit.flush().map_err(kv_err)?;
    let hybrid_fit_multi_get_us_per_256 = kv_multi_get(&fit, fit_n, &mut rng)?;
    Ok(KvProbe {
        get_ns,
        put_ns,
        multi_get_us_per_256,
        write_batch_us_per_256,
        hybrid_multi_get_us_per_256,
        hybrid_fit_multi_get_us_per_256,
        hybrid_block_cache_hit_share: hits as f64 / (hits + misses).max(1) as f64,
        hybrid_write_batch_us_per_256,
        hybrid_stall_share: loaded.stall_nanos as f64 / load_wall.as_nanos().max(1) as f64,
        hybrid_disk_bytes_per_user_byte: loaded.disk_bytes as f64 / user_bytes,
    })
}

pub struct MqProbe {
    pub produce_many_ns_per_record: f64,
    pub poll_ns_per_record: f64,
    pub wake_latency_us: f64,
}

/// The mq layer: batched produce, batched poll, and the time from a
/// produce to a consumer blocked in `poll` on another thread returning —
/// a hand-off every update pays twice on its way to a serving cache.
pub fn mq(payload_len: usize) -> Result<MqProbe, String> {
    let err = |e: helios_types::HeliosError| format!("mq probe: {e}");
    let broker = Broker::new();
    let payload = Bytes::from(vec![0x5Au8; payload_len.max(8)]);
    const BATCH: u64 = 1024;
    const ROUNDS: u64 = 100;
    let topic = broker
        .create_topic("bench-batch", TopicConfig::in_memory(2))
        .map_err(err)?;
    let t0 = Instant::now();
    for round in 0..ROUNDS {
        topic
            .produce_many((0..BATCH).map(|i| (round * BATCH + i, payload.clone())))
            .map_err(err)?;
    }
    let produce_many_ns_per_record = t0.elapsed().as_nanos() as f64 / (BATCH * ROUNDS) as f64;
    let mut consumer = broker.consumer_all("bench", "bench-batch").map_err(err)?;
    let (t0, mut polled) = (Instant::now(), 0u64);
    loop {
        let records = consumer.poll_now(BATCH as usize);
        if records.is_empty() {
            break;
        }
        polled += records.len() as u64;
        black_box(records);
    }
    let poll_ns_per_record = t0.elapsed().as_nanos() as f64 / polled.max(1) as f64;

    let wake_topic = broker
        .create_topic("bench-wake", TopicConfig::in_memory(1))
        .map_err(err)?;
    let mut waiter = broker.consumer_all("bench", "bench-wake").map_err(err)?;
    let (ready_tx, ready_rx) = mpsc::channel::<()>();
    let (woke_tx, woke_rx) = mpsc::channel::<Option<Instant>>();
    const WAKES: usize = 200;
    let mut wake_us = Vec::with_capacity(WAKES);
    std::thread::scope(|scope| -> Result<(), String> {
        scope.spawn(move || {
            for _ in 0..WAKES {
                if ready_tx.send(()).is_err() {
                    return;
                }
                let got = waiter.poll(1, Duration::from_secs(5));
                let woke = Instant::now();
                if woke_tx.send((!got.is_empty()).then_some(woke)).is_err() {
                    return;
                }
            }
        });
        for i in 0..WAKES {
            ready_rx.recv().map_err(|_| "mq waiter thread died")?;
            // Give the waiter time to block inside poll.
            std::thread::sleep(Duration::from_micros(300));
            let produced = Instant::now();
            wake_topic.produce(i as u64, payload.clone()).map_err(err)?;
            match woke_rx.recv() {
                Ok(Some(woke)) => {
                    wake_us.push(woke.saturating_duration_since(produced).as_secs_f64() * 1e6)
                }
                _ => return Err("mq waiter timed out on a produced record".into()),
            }
        }
        Ok(())
    })?;
    Ok(MqProbe {
        produce_many_ns_per_record,
        poll_ns_per_record,
        wake_latency_us: stats::median(&wake_us).unwrap_or(0.0),
    })
}

pub struct SamplingProbe {
    /// ns per offer and share of offers that changed the reservoir.
    pub random: (f64, f64),
    pub topk: (f64, f64),
    pub edge_weight: (f64, f64),
}

/// `Reservoir::offer` per strategy over the workload's own edge stream:
/// each source vertex has one reservoir of the first hop's fan-out, edges
/// are offered in stream order.
pub fn sampling(events: &[GraphUpdate], fanout: u32, seed: u64) -> SamplingProbe {
    let mut index: HashMap<u64, usize> = HashMap::new();
    let offers: Vec<(usize, VertexId, Timestamp, f32)> = events
        .iter()
        .filter_map(|u| match u {
            GraphUpdate::Edge(e) => {
                let next = index.len();
                let slot = *index.entry(e.src.raw()).or_insert(next);
                Some((slot, e.dst, e.ts, e.weight))
            }
            GraphUpdate::Vertex(_) => None,
        })
        .take(200_000)
        .collect();
    let run = |strategy: SamplingStrategy| -> (f64, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reservoirs: Vec<Reservoir> = (0..index.len().max(1))
            .map(|_| Reservoir::new(strategy, fanout.max(1)))
            .collect();
        let (t0, mut changed) = (Instant::now(), 0u64);
        for &(slot, dst, ts, weight) in &offers {
            if reservoirs[slot].offer(dst, ts, weight, &mut rng).changed() {
                changed += 1;
            }
        }
        let n = offers.len().max(1) as f64;
        (t0.elapsed().as_nanos() as f64 / n, changed as f64 / n)
    };
    SamplingProbe {
        random: run(SamplingStrategy::Random),
        topk: run(SamplingStrategy::TopK),
        edge_weight: run(SamplingStrategy::EdgeWeight),
    }
}

/// `RouteTable::owner_of`, nanoseconds per call.
pub fn owner_of_ns(workers: usize, route_slots: usize) -> f64 {
    let table = RouteTable::initial(workers, route_slots);
    let mut v = 0u64;
    ns_per_call(|| {
        v = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
        black_box(table.owner_of(VertexId(v)));
    })
}
