//! Elastic membership: live scale-out/scale-in of serving workers.
//!
//! [`HeliosDeployment::scale_to`] changes the number of logical serving
//! workers on a *running* deployment without dropping a query. The
//! handoff is a two-phase protocol over the `membership` topic:
//!
//! 1. **Prepare** — the rebalanced [`helios_membership::RouteTable`]
//!    (epoch + 1) is
//!    broadcast to every sampling worker. Each one charges the *new*
//!    owner of every moved seed through the §5.3 subscription path, whose
//!    idempotent snapshot-push is exactly the bootstrap a joining worker
//!    needs: reservoir contents and features stream into its cache while
//!    live traffic keeps routing by the old table.
//! 2. **Catch-up watermark** — the deployment waits until every sampling
//!    worker has run its Prepare scan, the transitive subscribe cascade
//!    has drained, and every serving worker has consumed its sample queue
//!    to the end. Only then is the new table safe to serve from.
//! 3. **Commit** — the table is broadcast again; samplers install it
//!    (new traffic routes to new owners) and discharge the old owners of
//!    moved seeds, whose refcounted unsubscribe cascade strips everything
//!    only they pinned. Scale-in then shuts the departed workers down and
//!    deletes their queues.
//!
//! The serving-set/table ordering is the zero-drop invariant: a scale-out
//! extends the serving set *before* Prepare, a scale-in truncates it only
//! *after* the commit watermark, so the router never points a query at a
//! worker that is not in the set.
//!
//! A handoff that misses its watermark deadline is **abandoned**: routing
//! stays on the old table, an `Abort` broadcast discharges the charges
//! the Prepare scans made, and the attempt's epoch is burned — the next
//! attempt allocates a strictly larger one, so its watermarks can only be
//! satisfied by its own scans.
//!
//! [`HeliosDeployment::start_autoscaler`] drives `scale_to` from
//! telemetry: a [`ScaleController`] watches consumer lag, the freshness
//! SLO burn rate and serve p99 per tick and issues hysteresis-damped
//! decisions. [`HeliosDeployment::register_scale_endpoint`] adds a
//! `/scale?target=N` manual override to the ops server.

use crate::deployment::HeliosDeployment;
use crate::sampler::topics;
use helios_membership::{MembershipMsg, ScaleController, ScalePolicy, ScaleSignals};
use helios_telemetry::{EventKind, StatsReporter};
use helios_types::{Encode, HeliosError, PartitionId, Result};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The autoscaler thread; stops on drop.
pub type AutoscalerGuard = StatsReporter;

impl HeliosDeployment {
    /// Rescale the serving fleet to `target` logical workers, live. Safe
    /// to call while queries and updates are flowing; serialized against
    /// concurrent rescales. Returns the committed routing epoch (the
    /// current one when `target` already matches).
    ///
    /// On timeout ([`crate::HeliosConfig::rescale_timeout`]) the rescale
    /// is abandoned *before* commit: routing is untouched, the attempt's
    /// pending subscription charges are rolled back with an `Abort`
    /// broadcast, and a scale-out's extra prepared workers stay warm in
    /// the serving set — harmless, and a retry picks them up. Every
    /// attempt uses a fresh epoch (never reusing an abandoned one), so a
    /// retry's watermarks can only be satisfied by its own scans.
    pub fn scale_to(&self, target: usize) -> Result<u64> {
        let _guard = self.rescale_lock.lock();
        if target == 0 {
            return Err(HeliosError::InvalidConfig(
                "cannot scale to zero serving workers".into(),
            ));
        }
        if target > self.config.route_slots as usize {
            return Err(HeliosError::InvalidConfig(format!(
                "target {target} exceeds route_slots {} (slots bound elasticity)",
                self.config.route_slots
            )));
        }
        let cur_table = self.tier.router().table();
        let cur = cur_table.workers();
        if target == cur {
            return Ok(cur_table.epoch());
        }
        let started = Instant::now();
        let deadline = started + self.config.rescale_timeout;
        self.plane.recorder().record(
            EventKind::HandoffStarted,
            u32::MAX,
            cur_table.epoch(),
            cur as u64,
            target as u64,
        );
        // Allocate an attempt-unique epoch: at least cur+1, and strictly
        // above every previous attempt's. An abandoned attempt leaves the
        // samplers' prepare/commit watermarks at its epoch; reusing it
        // would let a retry's watermark pass off the *abandoned* attempt's
        // scans and commit before the new owners are warm.
        let epoch = self
            .next_rescale_epoch
            .load(std::sync::atomic::Ordering::SeqCst)
            .max(cur_table.epoch() + 1);
        self.next_rescale_epoch
            .store(epoch + 1, std::sync::atomic::Ordering::SeqCst);
        let new_table = Arc::new(cur_table.rebalanced_at(target, epoch));

        // Scale-out: bring the joining workers up (queue, cache, threads)
        // and extend the serving set BEFORE any routing change, so the
        // moment a commit lands there is a worker behind every slot.
        // `have` (set size) can exceed `cur` (routed size) after an
        // abandoned scale-out; those workers are reused, not re-created.
        // New sample queues charge the shared mq_log gauge, and joining
        // workers' caches join the memory ledger — the accountant follows
        // the fleet through rescales.
        let have = self.serving.logical();
        if target > have {
            for s in have as u32..target as u32 {
                self.tier.create_sample_queue(s)?;
            }
            self.serving.extend_to(target)?;
        }

        // Phase 1: Prepare. New owners of moved seeds get charged (cache
        // warm-up through the idempotent snapshot path); routing unchanged.
        // On abandonment, broadcast Abort so samplers discharge the
        // attempt's pending charges: per-partition FIFO runs that scan
        // after this attempt's Prepare and before any retry's, so the
        // abandoned table's owners don't keep receiving fan-out forever.
        let prepared = self
            .broadcast_membership(&MembershipMsg::Prepare {
                table: (*new_table).clone(),
            })
            .and_then(|()| {
                self.await_watermark(deadline, "prepare scan", || {
                    self.tier
                        .workers()
                        .iter()
                        .all(|w| w.prepared_epoch() >= epoch)
                })
            })
            .and_then(|()| self.await_catch_up(deadline));
        if let Err(e) = prepared {
            let _ = self.broadcast_membership(&MembershipMsg::Abort {
                table: (*new_table).clone(),
            });
            self.plane.recorder().record(
                EventKind::HandoffAborted,
                u32::MAX,
                epoch,
                target as u64,
                started.elapsed().as_millis().min(u128::from(u64::MAX)) as u64,
            );
            return Err(e);
        }

        // Phase 2: Commit. Samplers install the table (the router is
        // shared with the front-end, so queries repoint instantly) and
        // discharge the old owners of moved seeds.
        self.broadcast_membership(&MembershipMsg::Commit {
            table: (*new_table).clone(),
        })?;
        self.await_watermark(deadline, "commit scan", || {
            self.tier
                .workers()
                .iter()
                .all(|w| w.committed_epoch() >= epoch)
        })?;
        // Defense in depth: with zero sampling workers the broadcast has
        // no installer (idempotent — normally already done by a sampler).
        self.tier.router().install(Arc::clone(&new_table));
        self.plane.recorder().record(
            EventKind::EpochBump,
            u32::MAX,
            epoch,
            target as u64,
            new_table.moved_slots(&cur_table) as u64,
        );

        // Scale-in: the committed table routes nothing at any worker
        // >= target, so truncate the set, stop the removed workers, and
        // delete their queues (purging offsets, so a later scale-out's
        // re-created topic starts clean). The removed range is derived
        // from the *set* size, not the previously routed count `cur`: an
        // abandoned scale-out can leave warm spares above `cur`, and
        // truncation removes those too — their topics must go with them
        // or they'd linger with no consumer.
        let have = self.serving.logical();
        if target < have {
            self.serving.truncate_to(target);
            for s in target as u32..have as u32 {
                let _ = self.tier.broker().delete_topic(&topics::samples(s));
            }
            for w in self.tier.workers() {
                w.invalidate_sample_topics(target as u32);
            }
        }

        self.plane.recorder().record(
            EventKind::HandoffCompleted,
            u32::MAX,
            epoch,
            target as u64,
            started.elapsed().as_millis().min(u128::from(u64::MAX)) as u64,
        );
        Ok(epoch)
    }

    /// Broadcast one membership message to every partition of the
    /// `membership` topic (one partition per sampling worker).
    fn broadcast_membership(&self, msg: &MembershipMsg) -> Result<()> {
        let topic = self.tier.broker().topic(topics::MEMBERSHIP)?;
        let payload = msg.encode_to_bytes();
        for p in 0..self.config.sampling_workers as u32 {
            topic.produce_to(PartitionId(p), u64::from(p), payload.clone())?;
        }
        Ok(())
    }

    /// Spin (with a short sleep) until `done` or `deadline`.
    fn await_watermark(
        &self,
        deadline: Instant,
        what: &str,
        done: impl Fn() -> bool,
    ) -> Result<()> {
        loop {
            // Deadline first: a watermark reached *after* the deadline
            // still abandons. Checking `done()` first would let an
            // expired attempt race through whenever the samplers happen
            // to ack between the broadcast and the first check.
            let expired = Instant::now() >= deadline;
            if done() && !expired {
                return Ok(());
            }
            if expired {
                return Err(HeliosError::Timeout(format!(
                    "rescale abandoned: {what} watermark not reached"
                )));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The §5.3 bootstrap catch-up: wait for the subscribe cascade the
    /// Prepare scans kicked off to drain (one round per DAG hop, since
    /// each subscribe can transitively trigger one more hop's worth), then
    /// for every serving worker to have consumed its sample queue to the
    /// observed end. After this, a joining worker's cache holds everything
    /// the old owner's did for the moved seeds.
    fn await_catch_up(&self, deadline: Instant) -> Result<()> {
        let rounds = self.coordinator.dag().len() + 1;
        for _ in 0..rounds {
            let control_end = self.tier.watermarks(0).control_end;
            self.await_watermark(deadline, "control drain", || {
                self.tier.watermarks(0).control_done >= control_end
            })?;
        }
        self.await_watermark(deadline, "sample-queue catch-up", || {
            self.max_sample_lag() == 0
        })
    }

    /// The worst consumer lag over every serving worker's sample queue.
    fn max_sample_lag(&self) -> u64 {
        self.tier
            .broker()
            .lag_report()
            .iter()
            .filter(|e| e.topic.starts_with("samples-"))
            .map(|e| e.lag)
            .max()
            .unwrap_or(0)
    }

    /// Register the `/scale?target=N` manual override on the deployment's
    /// dynamic ops routes. Responds `202` and runs the rescale on a
    /// background thread (a handoff can take seconds; an ops request must
    /// not), `409` while another rescale is in flight, `400` on a missing
    /// or unparseable target.
    pub fn register_scale_endpoint(self: &Arc<Self>) {
        let weak = Arc::downgrade(self);
        // One endpoint-initiated rescale at a time. An atomic claim (not
        // a dropped `try_lock` probe) spans the busy-check *and* the
        // spawned rescale: of two concurrent requests exactly one wins
        // the claim and gets 202; the loser gets 409 instead of silently
        // queueing a second rescale behind the first.
        let inflight = Arc::new(std::sync::atomic::AtomicBool::new(false));
        self.dyn_routes().register("/scale", move |_method, query| {
            use std::sync::atomic::Ordering;
            let Some(target) = parse_target(query) else {
                return (
                    400,
                    "text/plain".to_string(),
                    "usage: /scale?target=<workers>\n".to_string(),
                );
            };
            let Some(deployment) = weak.upgrade() else {
                return (
                    503,
                    "text/plain".to_string(),
                    "deployment shut down\n".to_string(),
                );
            };
            let busy = inflight
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_err();
            // Advisory: also report 409 while a directly-invoked or
            // autoscaler-driven rescale holds the lock.
            if busy || deployment.rescale_lock.try_lock().is_none() {
                if !busy {
                    inflight.store(false, Ordering::SeqCst);
                }
                return (
                    409,
                    "text/plain".to_string(),
                    "rescale already in progress\n".to_string(),
                );
            }
            let claim = Arc::clone(&inflight);
            let _ = std::thread::Builder::new()
                .name("helios-scale".into())
                .spawn(move || {
                    // Release the claim even if scale_to panics.
                    struct Release(Arc<std::sync::atomic::AtomicBool>);
                    impl Drop for Release {
                        fn drop(&mut self) {
                            self.0.store(false, std::sync::atomic::Ordering::SeqCst);
                        }
                    }
                    let _release = Release(claim);
                    let _ = deployment.scale_to(target);
                });
            (
                202,
                "text/plain".to_string(),
                format!("scaling to {target}\n"),
            )
        });
    }

    /// Spawn the SLO-driven autoscaler: every `tick` it feeds the
    /// controller one [`ScaleSignals`] observation (worst sample-queue
    /// lag, freshness SLO short-window burn, worst-replica serve p99) and
    /// executes whatever decision comes back. The returned guard stops
    /// the thread on drop.
    pub fn start_autoscaler(
        self: &Arc<Self>,
        policy: ScalePolicy,
        tick: Duration,
    ) -> AutoscalerGuard {
        let weak = Arc::downgrade(self);
        let mut controller = ScaleController::new(policy);
        StatsReporter::start("helios-autoscaler", tick, move || {
            let Some(d) = weak.upgrade() else {
                return;
            };
            let signals = d.scale_signals();
            if let Some(decision) = controller.observe(&signals) {
                // Failures (e.g. a timed-out handoff) leave routing
                // untouched; the cooldown keeps us from hammering.
                let _ = d.scale_to(decision.target());
            }
        })
    }

    /// One tick's autoscaler inputs, straight off live telemetry.
    pub fn scale_signals(&self) -> ScaleSignals {
        let serve_p99_ms = self
            .serving
            .workers()
            .iter()
            .map(|w| w.serve_latency().percentile_ms(99.0))
            .fold(0.0f64, f64::max);
        ScaleSignals {
            workers: self.tier.router().table().workers(),
            max_sample_lag: self.max_sample_lag(),
            slo_short_burn: self.slo.short_burn(),
            serve_p99_ms,
        }
    }
}

/// Pull `target=<n>` out of an ops query string.
fn parse_target(query: &str) -> Option<usize> {
    query
        .split('&')
        .find_map(|kv| kv.strip_prefix("target="))
        .and_then(|v| v.parse::<usize>().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_membership::RouteTable;

    #[test]
    fn parse_target_handles_query_shapes() {
        assert_eq!(parse_target("target=4"), Some(4));
        assert_eq!(parse_target("foo=1&target=7&bar=2"), Some(7));
        assert_eq!(parse_target(""), None);
        assert_eq!(parse_target("target=x"), None);
        assert_eq!(parse_target("count=4"), None);
    }

    #[test]
    fn rebalance_table_is_what_scale_to_broadcasts() {
        // Sanity-pin the table math scale_to relies on: epoch bump +
        // bounded movement.
        let t = RouteTable::initial(2, 64);
        let out = t.rebalanced(4);
        assert_eq!(out.epoch(), 1);
        assert_eq!(out.workers(), 4);
        assert_eq!(out.moved_slots(&t), 32);
        let back = out.rebalanced(3);
        assert_eq!(back.epoch(), 2);
        assert!(back.assignment().iter().all(|&w| w < 3));
    }
}
