//! The FCFS core: what an arrival and a server's attention event do, and
//! the per-completion recording every handler funnels into. All it knows of
//! tracked requests is to ask the component, when one is installed, to admit
//! an arrival, and to forget a zombie's completion or retire a live one; of
//! a replay or downstream tiers, to hand them each completion.

use bighouse_des::{Control, Pending, Time};
use bighouse_models::{FinishedJob, Job, JobId};
use bighouse_stats::MetricId;

use super::{ClusterEvent, ClusterSim};
#[cfg(test)]
use crate::audit::SeededBug;
use crate::config::MetricKind;

impl ClusterSim {
    /// Samples the next inter-arrival gap, compressed by the overload ramp
    /// while it is active. With no resilience config this is exactly one
    /// workload draw — the identical RNG sequence as before the ramp
    /// existed.
    pub(super) fn next_interarrival(&mut self, now: Time) -> f64 {
        let dt = self.interarrival_guide.sample_from_bits(self.rng.raw_u64());
        match self.config.resilience.as_ref().and_then(|r| r.ramp) {
            Some(ramp) if ramp.active_at(now.as_seconds()) => dt / ramp.multiplier,
            _ => dt,
        }
    }

    /// Draws one service demand (one RNG draw), floored away from zero.
    pub(super) fn draw_service(&mut self) -> f64 {
        self.service_guide
            .sample_from_bits(self.rng.raw_u64())
            .max(1e-12)
    }

    /// Lands `job` on `server`, records the completions that folding the
    /// server forward to `now` produced, and re-aims its attention event.
    pub(super) fn place(
        &mut self,
        server: usize,
        job: Job,
        now: Time,
        cal: &mut impl Pending<ClusterEvent>,
    ) {
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.note_queue_depth(self.servers[server].outstanding());
        }
        self.finished.clear();
        self.servers[server].arrive_into(job, now, &mut self.finished);
        self.record_buffered(cal);
        self.reschedule_attention(server, cal);
    }

    /// Folds `server` forward to `now` and records its completions.
    pub(super) fn sync_server(
        &mut self,
        server: usize,
        now: Time,
        cal: &mut impl Pending<ClusterEvent>,
    ) {
        self.finished.clear();
        self.servers[server].sync_into(now, &mut self.finished);
        self.record_buffered(cal);
    }

    /// Records the shared buffer's completions (most events leave none).
    /// The buffer is lent out for the call: nothing `record_finished`
    /// reaches fills it again. A downstream tier's placements do, so the
    /// visits it queued are placed once the buffer is back.
    fn record_buffered(&mut self, cal: &mut impl Pending<ClusterEvent>) {
        if self.finished.is_empty() {
            return;
        }
        let finished = std::mem::take(&mut self.finished);
        self.record_finished(&finished, cal);
        self.finished = finished;
        if self.tiers.is_some() {
            self.forward_due(cal);
        }
    }

    /// Whether `kind` is among the experiment's metrics.
    pub(super) fn tracks(&self, kind: MetricKind) -> bool {
        self.metric_ids[kind as usize].is_some()
    }

    /// Records an observation of `kind` if the experiment tracks it,
    /// vetting it through the auditor first: a non-finite or negative
    /// value is dropped (never poisoning an estimator) and the recorded
    /// violation stops the run at the current event boundary. With
    /// auditing and telemetry off this is exactly `stats.record` plus
    /// three null checks.
    #[inline]
    pub(super) fn observe(&mut self, kind: MetricKind, x: f64, now: Time) {
        if let Some(id) = self.metric_ids[kind as usize] {
            self.observe_metric(id, x, now);
        }
    }

    /// [`ClusterSim::observe`] for a registered metric.
    #[inline]
    pub(super) fn observe_metric(&mut self, id: MetricId, x: f64, now: Time) {
        if let Some(audit) = self.audit.as_deref_mut() {
            if !audit.check_observation(self.stats.metric(id).spec().name(), x) {
                if let Some(t) = self.telemetry.as_deref_mut() {
                    t.note_sample_rejected();
                }
                return;
            }
        }
        self.stats.record(id, x);
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.note_sample_recorded();
            t.sync_phase(&self.stats, id, now);
        }
    }

    /// Per-event audit hook: counts the event, runs an invariant sweep on
    /// the configured cadence, and reports whether a violation (from a
    /// sweep or an earlier observation tripwire) requires the run to stop.
    #[inline]
    fn audit_tick(&mut self, now: Time) -> bool {
        if self.audit.is_none() {
            return false;
        }
        let ledger = self.ledger();
        let Some(audit) = self.audit.as_deref_mut() else {
            return false;
        };
        if audit.event_due() {
            audit.sweep(now, &self.servers, &ledger);
        }
        audit.failed()
    }

    pub(super) fn record_finished(
        &mut self,
        finished: &[FinishedJob],
        cal: &mut impl Pending<ClusterEvent>,
    ) {
        for f in finished {
            #[cfg(test)]
            if self.seeded_bug == Some(SeededBug::DropCompletion) {
                // Mutation hook: lose this completion entirely — no stats,
                // no ledger retirement, no timeout cancellation. The
                // auditor's completion cross-check must catch the drift.
                self.seeded_bug = None;
                continue;
            }
            if let Some(audit) = self.audit.as_deref_mut() {
                audit.note_completion();
            }
            let requests = self.requests.as_deref_mut();
            if requests.is_some_and(|rq| rq.zombies.remove(&f.id.raw())) {
                // An abandoned attempt finishing long after its client
                // gave up: the server really burned the time (it stays in
                // the server's books and the audit cross-check), but the
                // completion is invisible to the client — no response
                // observation, no ledger retirement.
                continue;
            }
            let response = f.response_time();
            #[cfg(test)]
            let response = if self.seeded_bug == Some(SeededBug::NanObservation) {
                self.seeded_bug = None;
                f64::NAN
            } else {
                response
            };
            if let Some(replay) = self.replay.as_deref_mut() {
                replay.keep(response, f.waiting_time());
                continue;
            }
            let now = cal.now();
            if self.tiers.is_some() {
                self.record_visit(f, response, now);
                continue;
            }
            self.observe(MetricKind::ResponseTime, response, now);
            // Waiting observations exist only for tasks that queued — the
            // rarity driving Figure 9's "+Waiting" runtimes.
            let wait = f.waiting_time();
            if wait > 0.0 {
                self.observe(MetricKind::WaitingTime, wait, now);
            }
            if self.requests.is_some() {
                self.retire_completion(f.id.raw(), response, cal);
            }
        }
    }

    /// The untracked arrival: one service draw and a fresh job on `server`.
    fn inject(&mut self, server: usize, now: Time, cal: &mut impl Pending<ClusterEvent>) {
        let size = self.draw_service();
        let job = Job::new(JobId::new(self.job_counter), now, size);
        self.job_counter += 1;
        self.place(server, job, now, cal);
    }

    /// Re-aims `server`'s attention event at its next instant. An event
    /// already pending at that instant stays where it was filed, keeping
    /// its place among time ties (DESIGN.md "Analytic fast path").
    pub(super) fn reschedule_attention(
        &mut self,
        server: usize,
        cal: &mut impl Pending<ClusterEvent>,
    ) {
        // Guard against sub-nanosecond floating-point drift below `now`.
        let at = self.servers[server].next_event().map(|t| t.max(cal.now()));
        let pending = &mut self.attention[server];
        if pending.map(|(_, when)| when) == at {
            return;
        }
        if let Some((handle, _)) = pending.take() {
            cal.cancel(handle);
        }
        if let Some(at) = at {
            *pending = Some((cal.schedule(at, ClusterEvent::Attention { server }), at));
        }
    }

    /// Handles one event popped from `cal`: [`Simulation::handle`] over
    /// either pending-set store.
    ///
    /// The components' handlers are `#[inline(never)]`: inlined here they
    /// triple this function and the frame every arrival and attention event
    /// sets up (2.5 % of `fcfs_small`'s event; DESIGN.md "Analytic fast
    /// path").
    ///
    /// [`Simulation::handle`]: bighouse_des::Simulation::handle
    pub(crate) fn handle_on(
        &mut self,
        now: Time,
        event: ClusterEvent,
        cal: &mut impl Pending<ClusterEvent>,
    ) -> Control {
        match event {
            ClusterEvent::Arrival { .. } | ClusterEvent::BalancedArrival => {
                let home = match event {
                    ClusterEvent::Arrival { server } => Some(server),
                    _ => None,
                };
                if self.requests.is_some() {
                    self.admit(home, now, cal);
                } else {
                    // Route straight off server state — no per-arrival
                    // queue-length snapshot Vec.
                    let servers = &self.servers;
                    let target = home.or_else(|| {
                        self.balancer
                            .as_mut()
                            .map(|b| b.pick_by(|i| servers[i].outstanding(), &mut self.rng))
                    });
                    if let Some(server) = target {
                        self.inject(server, now, cal);
                    }
                }
                let dt = self.next_interarrival(now);
                cal.schedule_in(dt, event);
            }
            ClusterEvent::Attention { server } => {
                self.attention[server] = None;
                self.sync_server(server, now, cal);
                self.reschedule_attention(server, cal);
            }
            ClusterEvent::TraceArrival { index } => self.trace_arrival(index, now, cal),
            ClusterEvent::Epoch => self.epoch_tick(now, cal),
            ClusterEvent::ServerFailure { server } => self.handle_failure(server, now, cal),
            ClusterEvent::ServerRepair { server } => self.handle_repair(server, now, cal),
            ClusterEvent::RequestTimeout { job } => self.handle_timeout(job, now, cal),
            ClusterEvent::Redispatch { job } => self.handle_redispatch(job, now, cal),
            ClusterEvent::HedgeFire { job } => self.handle_hedge_fire(job, now, cal),
        }
        #[cfg(test)]
        if self.seeded_bug == Some(SeededBug::Livelock) {
            // Mutation hook: reschedule at `now` from every handler — a
            // zero-advance livelock for the progress guard to break.
            cal.schedule(now, ClusterEvent::Attention { server: 0 });
        }
        if self.audit_tick(now) {
            return Control::Stop;
        }
        if self.stop_on_convergence && self.stats.all_converged() {
            Control::Stop
        } else {
            Control::Continue
        }
    }
}
