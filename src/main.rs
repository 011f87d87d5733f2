//! The `helios` multi-process launcher.
//!
//! One binary, three roles:
//!
//! - `helios serve-worker`    — one serving worker behind a wire server.
//! - `helios sampling-worker` — the sampling tier plus per-serving-worker
//!   relays that forward sample batches over TCP.
//! - `helios gateway`         — the client-facing front end: admission
//!   control, seed routing, update forwarding, health fan-out.
//!
//! The deployment is driven — and checked byte for byte against an
//! in-process reference — by `bash benchmark/run.sh`.
//!
//! Worker and gateway processes print `HELIOS_NET_OPS <addr>` (when an
//! ops server is configured) and then `HELIOS_NET_LISTEN <addr>` on
//! stdout once they are ready, and run until stdin reaches EOF. The
//! parent holds the write end of the stdin pipe, so dropping it — or the
//! parent dying — shuts every child down; no PID files, no signals.
//!
//! Every process rebuilds the identical `HeliosConfig` and query from
//! the shared `--preset/--scale/--strategy/--three-hop/--sampling-workers/
//! --serving-workers` flags: partition counts and route slots are
//! topology-defining, so they must agree everywhere.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::time::Duration;

use helios_core::HeliosConfig;
use helios_datagen::Preset;
use helios_net::{
    Gateway, GatewayConfig, SamplingHost, SamplingHostConfig, ServeHost, ServeHostConfig,
};
use helios_query::{KHopQuery, SamplingStrategy};

const USAGE: &str = "\
usage: helios <subcommand> [flags]

subcommands:
  serve-worker     host one serving worker     (--sew N)
  sampling-worker  host the sampling tier      (--serve-workers a,b)
  gateway          client-facing front end     (--workers a,b [--sampling c]
                                                [--admission N] [--ops-addr a])

shared topology flags (must be identical across a deployment):
  --preset bi|inter|fin|taobao   --scale F   --strategy random|topk|edge-weight
  --three-hop   --sampling-workers M   --serving-workers N

worker/gateway flags:
  --listen ADDR (default 127.0.0.1:0)   --ops-addr ADDR (default: no ops server)

workers and the gateway print `HELIOS_NET_LISTEN <addr>` once ready and
exit when stdin reaches EOF.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve-worker") => cmd_serve_worker(&parse_flags(&args[1..])),
        Some("sampling-worker") => cmd_sampling_worker(&parse_flags(&args[1..])),
        Some("gateway") => cmd_gateway(&parse_flags(&args[1..])),
        Some("--help") | Some("-h") | Some("help") | None => {
            println!("{USAGE}");
        }
        Some(other) => die(&format!("unknown subcommand `{other}`\n\n{USAGE}")),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("helios: {msg}");
    std::process::exit(2);
}

// ---------------------------------------------------------------------------
// Flag parsing (hand rolled; the launcher takes no new dependencies).

/// `--key value` pairs plus bare boolean switches.
struct Flags(HashMap<String, String>);

/// Flags that take no value.
const SWITCHES: &[&str] = &["three-hop"];

fn parse_flags(args: &[String]) -> Flags {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(key) = args[i].strip_prefix("--") else {
            die(&format!("expected a --flag, got `{}`", args[i]));
        };
        if SWITCHES.contains(&key) {
            map.insert(key.to_string(), "1".to_string());
            i += 1;
        } else {
            let Some(value) = args.get(i + 1) else {
                die(&format!("flag --{key} needs a value"));
            };
            map.insert(key.to_string(), value.clone());
            i += 2;
        }
    }
    Flags(map)
}

impl Flags {
    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            None => default,
            Some(raw) => raw
                .parse()
                .unwrap_or_else(|_| die(&format!("bad value `{raw}` for --{key}"))),
        }
    }

    fn listen(&self) -> String {
        self.get("listen").unwrap_or("127.0.0.1:0").to_string()
    }
}

// ---------------------------------------------------------------------------
// Shared topology: every process derives the same config and query.

/// The deployment config and the query every process compiles, with
/// this process's `--ops-addr` (if any) in `HeliosConfig::ops_addr`.
fn topology(flags: &Flags) -> (HeliosConfig, KHopQuery) {
    let preset = match flags.get("preset").unwrap_or("inter") {
        "bi" => Preset::Bi,
        "inter" => Preset::Inter,
        "fin" => Preset::Fin,
        "taobao" => Preset::Taobao,
        other => die(&format!("unknown preset `{other}`")),
    };
    let strategy = match flags.get("strategy").unwrap_or("random") {
        "random" => SamplingStrategy::Random,
        "topk" => SamplingStrategy::TopK,
        "edge-weight" => SamplingStrategy::EdgeWeight,
        other => die(&format!("unknown strategy `{other}`")),
    };
    let sampling = flags.parse_or("sampling-workers", 2usize);
    let serving = flags.parse_or("serving-workers", 2usize);
    let query = preset
        .dataset(flags.parse_or("scale", 0.015f64))
        .table2_query(strategy, flags.has("three-hop"));
    let config = HeliosConfig {
        ops_addr: flags.get("ops-addr").map(str::to_string),
        ..HeliosConfig::with_workers(sampling, serving)
    };
    (config, query)
}

// ---------------------------------------------------------------------------
// Worker / gateway roles: start, announce on stdout, block on stdin EOF.

/// Print the ready handshake (`HELIOS_NET_OPS` first so the parent can
/// stop reading at `HELIOS_NET_LISTEN`), then block until stdin closes.
fn announce_and_wait(addr: std::net::SocketAddr, ops: Option<std::net::SocketAddr>) {
    if let Some(ops) = ops {
        println!("HELIOS_NET_OPS {ops}");
    }
    println!("HELIOS_NET_LISTEN {addr}");
    std::io::stdout().flush().ok();
    let mut sink = Vec::new();
    let _ = std::io::stdin().lock().read_to_end(&mut sink);
}

fn cmd_serve_worker(flags: &Flags) {
    let (config, query) = topology(flags);
    let host = ServeHost::start(ServeHostConfig {
        sew: flags.parse_or("sew", 0u32),
        listen: flags.listen(),
        config,
        query,
    })
    .unwrap_or_else(|e| die(&format!("serve worker failed to start: {e}")));
    announce_and_wait(host.addr(), host.ops_addr());
    host.shutdown();
}

fn cmd_sampling_worker(flags: &Flags) {
    let (config, query) = topology(flags);
    let serve_workers: Vec<String> = flags
        .get("serve-workers")
        .unwrap_or_else(|| die("sampling-worker needs --serve-workers a,b"))
        .split(',')
        .map(str::to_string)
        .collect();
    let host = SamplingHost::start(SamplingHostConfig {
        listen: flags.listen(),
        config,
        query,
        serve_workers,
    })
    .unwrap_or_else(|e| die(&format!("sampling worker failed to start: {e}")));
    announce_and_wait(host.addr(), host.ops_addr());
    host.shutdown();
}

fn cmd_gateway(flags: &Flags) {
    let (config, _) = topology(flags);
    let workers: Vec<String> = flags
        .get("workers")
        .unwrap_or_else(|| die("gateway needs --workers a,b"))
        .split(',')
        .map(str::to_string)
        .collect();
    let gateway = Gateway::start(GatewayConfig {
        listen: flags.listen(),
        workers,
        sampling: flags.get("sampling").map(str::to_string),
        admission: flags.parse_or("admission", 256usize),
        route_slots: config.route_slots as usize,
        probe_timeout: Duration::from_millis(flags.parse_or("probe-timeout-ms", 500u64)),
        ops_addr: config.ops_addr,
    })
    .unwrap_or_else(|e| die(&format!("gateway failed to start: {e}")));
    announce_and_wait(gateway.addr(), gateway.ops_addr());
    gateway.shutdown();
}
