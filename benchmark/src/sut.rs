//! The system under test: `helios gateway` + serve workers + one sampling
//! worker as real OS processes on ephemeral loopback ports, plus the
//! `/proc` readers that account their CPU, context switches and memory.
//!
//! Children are started through the launcher's own `HELIOS_NET_LISTEN`
//! stdout handshake and stopped by closing their stdin. [`Sut`] stops and
//! reaps every child when dropped, so a panic or a failed correctness
//! gate cannot leave a `helios` process behind.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use helios_net::{Client, TcpOptions};

use crate::spec::Workload;

/// How long a child may take to announce its listen address.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(20);
/// How long a child may take to exit after stdin EOF before it is killed.
const STOP_TIMEOUT: Duration = Duration::from_secs(5);
/// Linux reports `utime`/`stime` in units of `USER_HZ`, which is 100 on
/// every supported architecture; std offers no `sysconf` to ask.
const CLOCK_TICK_US: f64 = 10_000.0;

/// Which of the deployment's three roles a child plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoleKind {
    Gateway,
    ServeWorker,
    Sampling,
}

pub struct Role {
    pub kind: RoleKind,
    pub addr: String,
    pub pid: u32,
    child: Child,
    stdin: Option<ChildStdin>,
    /// Drains the child's stdout after the handshake so it can never
    /// block on a full pipe; ends at the child's exit.
    stdout_drain: Option<JoinHandle<()>>,
}

impl Role {
    fn spawn(helios: &Path, kind: RoleKind, args: &[String]) -> Result<Role, String> {
        let mut cmd = Command::new(helios);
        cmd.args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        // A stray HELIOS_* knob in the caller's shell (cache dir, memory
        // budget, trace sampling) would silently change what is measured.
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("HELIOS_") {
                cmd.env_remove(key);
            }
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", helios.display()))?;
        let pid = child.id();
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel();
        let stdout_drain = std::thread::spawn(move || {
            let mut announce = Some(tx);
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.strip_prefix("HELIOS_NET_LISTEN ") {
                    if let Some(tx) = announce.take() {
                        let _ = tx.send(addr.trim().to_string());
                    }
                }
            }
        });
        let mut role = Role {
            kind,
            addr: String::new(),
            pid,
            child,
            stdin,
            stdout_drain: Some(stdout_drain),
        };
        match rx.recv_timeout(HANDSHAKE_TIMEOUT) {
            Ok(addr) => {
                role.addr = addr;
                Ok(role)
            }
            // `role` drops here, which kills and reaps the child.
            Err(_) => Err(format!(
                "{kind:?} (pid {pid}) did not announce a listen address"
            )),
        }
    }

    /// Close stdin (the launcher's shutdown signal), wait, kill if ignored.
    fn stop(&mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + STOP_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    eprintln!(
                        "benchmark: {:?} (pid {}) ignored shutdown, killing",
                        self.kind, self.pid
                    );
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(drain) = self.stdout_drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Role {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One running deployment.
pub struct Sut {
    /// Serve workers first (by id), then the sampling worker, then the
    /// gateway: the order they were started in.
    pub roles: Vec<Role>,
    /// Direct stats connections used to watch the drain watermarks.
    sampling_stats: Client,
    worker_stats: Vec<Client>,
}

/// The drain watermarks of the whole pipeline at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Watermarks {
    pub updates_end: u64,
    pub updates_done: u64,
    pub control_end: u64,
    pub control_done: u64,
    pub backlog: u64,
    /// Σ over serve workers.
    pub samples_end: u64,
    pub forwarded: u64,
    pub applied: u64,
    /// Whether every stage had caught up with the one before it.
    pub drained: bool,
}

fn stat(entries: &[(String, u64)], key: &str) -> u64 {
    entries
        .iter()
        .find(|(k, _)| k == key)
        .map_or(0, |(_, v)| *v)
}

impl Sut {
    /// Start the deployment for `workload` and wait for every handshake.
    pub fn start(helios: &Path, workload: &Workload) -> Result<Sut, String> {
        let topology = workload.topology_args();
        let mut roles = Vec::new();
        for sew in 0..workload.serving_workers {
            let mut args = vec!["serve-worker".to_string(), "--sew".into(), sew.to_string()];
            args.extend(topology.iter().cloned());
            roles.push(Role::spawn(helios, RoleKind::ServeWorker, &args)?);
        }
        let worker_addrs: Vec<String> = roles.iter().map(|r| r.addr.clone()).collect();
        let mut args = vec![
            "sampling-worker".to_string(),
            "--serve-workers".into(),
            worker_addrs.join(","),
        ];
        args.extend(topology.iter().cloned());
        let sampling = Role::spawn(helios, RoleKind::Sampling, &args)?;
        let mut args = vec![
            "gateway".to_string(),
            "--workers".into(),
            worker_addrs.join(","),
            "--sampling".into(),
            sampling.addr.clone(),
        ];
        args.extend(topology.iter().cloned());
        let gateway = Role::spawn(helios, RoleKind::Gateway, &args)?;
        let one_conn = || TcpOptions {
            pool: 1,
            ..TcpOptions::default()
        };
        let sut = Sut {
            sampling_stats: Client::with_options(&sampling.addr, one_conn()),
            worker_stats: worker_addrs
                .iter()
                .map(|a| Client::with_options(a, one_conn()))
                .collect(),
            roles: {
                roles.push(sampling);
                roles.push(gateway);
                roles
            },
        };
        Ok(sut)
    }

    pub fn gateway_addr(&self) -> &str {
        &self.role(RoleKind::Gateway).addr
    }

    pub fn worker_addrs(&self) -> Vec<String> {
        self.roles
            .iter()
            .filter(|r| r.kind == RoleKind::ServeWorker)
            .map(|r| r.addr.clone())
            .collect()
    }

    fn role(&self, kind: RoleKind) -> &Role {
        self.roles
            .iter()
            .find(|r| r.kind == kind)
            .expect("every deployment has each role")
    }

    /// Read every process's drain watermarks once.
    pub fn watermarks(&self) -> Result<Watermarks, String> {
        let s = self
            .sampling_stats
            .stats()
            .map_err(|e| format!("sampling stats: {e}"))?;
        let mut w = Watermarks {
            updates_end: stat(&s, "updates_end"),
            updates_done: stat(&s, "updates_done"),
            control_end: stat(&s, "control_end"),
            control_done: stat(&s, "control_done"),
            backlog: stat(&s, "backlog"),
            ..Watermarks::default()
        };
        let mut relayed = true;
        for (sew, client) in self.worker_stats.iter().enumerate() {
            let ws = client
                .stats()
                .map_err(|e| format!("serve worker {sew} stats: {e}"))?;
            let end = stat(&s, &format!("samples_end_{sew}"));
            let forwarded = stat(&s, &format!("forwarded_{sew}"));
            let applied = stat(&ws, "applied") + stat(&ws, "decode_errors");
            // `>=`: a relay retry after a lost ack can deliver a batch
            // twice; duplicates are idempotent downstream.
            relayed &= forwarded == end && applied >= forwarded;
            w.samples_end += end;
            w.forwarded += forwarded;
            w.applied += applied;
        }
        w.drained = relayed
            && w.updates_done == w.updates_end
            && w.control_done == w.control_end
            && w.backlog == 0;
        Ok(w)
    }

    /// Block until the pipeline has drained — every update consumed, every
    /// sample batch relayed and applied — on two consecutive identical
    /// polls. Returns the instant of the first of the two.
    pub fn wait_drained(&self, timeout: Duration) -> Result<Instant, String> {
        let started = Instant::now();
        let deadline = started + timeout;
        let mut stable: Option<(Watermarks, Instant)> = None;
        while Instant::now() < deadline {
            let at = Instant::now();
            let w = self.watermarks()?;
            match stable {
                Some((prev, since)) if w.drained && prev == w => return Ok(since),
                _ => stable = w.drained.then_some((w, at)),
            }
            // Each poll is a stats round trip to three busy processes:
            // poll fast only while a drain can still be short, so a long
            // drain is not slowed by being watched.
            let pause = if started.elapsed() < Duration::from_millis(100) {
                2
            } else {
                20
            };
            std::thread::sleep(Duration::from_millis(pause));
        }
        Err(format!("pipeline did not drain within {timeout:?}"))
    }

    /// CPU, context-switch and memory counters of every role right now.
    pub fn usage(&self) -> Vec<(RoleKind, ProcUsage)> {
        self.roles
            .iter()
            .map(|r| (r.kind, ProcUsage::read(r.pid)))
            .collect()
    }
}

impl Drop for Sut {
    /// Stop every child: gateway first, so nothing is forwarded into a
    /// worker that is already shutting down.
    fn drop(&mut self) {
        while let Some(mut role) = self.roles.pop() {
            role.stop();
        }
    }
}

/// Cumulative resource counters of one process, from `/proc/<pid>`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcUsage {
    /// `utime + stime`, microseconds, including threads that have exited.
    pub cpu_us: f64,
    /// Voluntary + involuntary context switches, summed over live threads.
    pub ctx_switches: u64,
    /// Peak resident set size (`VmHWM`), MiB.
    pub rss_peak_mb: f64,
}

impl ProcUsage {
    /// Read the counters of `pid`; a process that has gone reads as zeros.
    pub fn read(pid: u32) -> ProcUsage {
        let proc = PathBuf::from(format!("/proc/{pid}"));
        let mut usage = ProcUsage::default();
        if let Ok(stat) = std::fs::read_to_string(proc.join("stat")) {
            usage.cpu_us = parse_stat_cpu_ticks(&stat).unwrap_or(0) as f64 * CLOCK_TICK_US;
        }
        if let Ok(status) = std::fs::read_to_string(proc.join("status")) {
            usage.rss_peak_mb = status_field(&status, "VmHWM:").unwrap_or(0) as f64 / 1024.0;
        }
        if let Ok(tasks) = std::fs::read_dir(proc.join("task")) {
            for task in tasks.flatten() {
                if let Ok(status) = std::fs::read_to_string(task.path().join("status")) {
                    usage.ctx_switches += status_field(&status, "voluntary_ctxt_switches:")
                        .unwrap_or(0)
                        + status_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0);
                }
            }
        }
        usage
    }

    pub fn myself() -> ProcUsage {
        ProcUsage::read(std::process::id())
    }

    /// Counters accumulated since `earlier` (peak RSS is not a rate and
    /// keeps the later value).
    pub fn since(&self, earlier: &ProcUsage) -> ProcUsage {
        ProcUsage {
            cpu_us: (self.cpu_us - earlier.cpu_us).max(0.0),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            rss_peak_mb: self.rss_peak_mb,
        }
    }
}

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name in field 2 may contain spaces and parentheses, so fields
/// are counted from the last `)`.
fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is 11 fields further on.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The leading integer of the `/proc/<pid>/status` line starting with `key`.
fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_fields_survive_a_hostile_command_name() {
        let line = "42 (a b) c) S 1 42 42 0 -1 4194560 100 0 0 0 7 5 0 0 20 0 3 0 100 1 2";
        assert_eq!(parse_stat_cpu_ticks(line), Some(12));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn status_fields_parse_by_exact_key() {
        let status = "Name:\tx\nVmHWM:\t  2048 kB\nvoluntary_ctxt_switches:\t7\n\
                      nonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(status, "VmHWM:"), Some(2048));
        assert_eq!(status_field(status, "voluntary_ctxt_switches:"), Some(7));
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches:"), Some(3));
        assert_eq!(status_field(status, "VmPeak:"), None);
    }

    #[test]
    fn this_process_has_used_some_cpu_and_memory() {
        let me = ProcUsage::myself();
        assert!(me.rss_peak_mb > 0.0);
        assert!(me.ctx_switches > 0);
    }
}
