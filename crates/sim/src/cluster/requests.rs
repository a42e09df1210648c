//! Tracked requests: the component installed for fault injection, client
//! retries and the resilience layer. It remembers every admitted request
//! until it is goodput or timed out, and schedules the failure, repair,
//! timeout, redispatch and hedge events.
//!
//! Placing a request lands a job on a server, which can complete other jobs,
//! whose retirement comes back here (`record_finished` ↔ `retire_completion`):
//! so the handlers are `impl ClusterSim` blocks, and none holds the component
//! across a call into the core — each re-borrows it ([`installed`]).

use std::collections::VecDeque;

use bighouse_des::{EventHandle, FastMap, FastSet, Time};
use bighouse_models::{Job, JobId};

use super::{ClusterEvent, ClusterSim};
use crate::audit::{AuditLedger, SeededBug};
use crate::config::{ExperimentConfig, MetricKind};
use crate::pending::Pending;
use crate::report::FaultSummary;
use crate::resilience::{ResilienceState, ResilienceSummary};

/// A live hedge duplicate: its own job id and where it runs.
#[derive(Debug, Clone, Copy)]
struct HedgeJob {
    job: u64,
    server: usize,
}

/// Per-request bookkeeping.
///
/// The [`Job`] keeps its original arrival time across preemptions and
/// retries, so the recorded response time spans the whole request saga.
#[derive(Debug)]
struct RequestState {
    job: Job,
    /// Dispatch attempt currently in flight (1 = first try).
    attempt: u32,
    /// Fixed target in per-server arrival mode; `None` under a balancer.
    home: Option<usize>,
    /// Where the job currently sits, if placed.
    server: Option<usize>,
    /// Live timeout event, if a retry policy is armed.
    timeout: Option<EventHandle>,
    /// A [`ClusterEvent::Redispatch`] is pending (backoff in progress);
    /// repair-time drains must not double-place the request.
    pending_redispatch: bool,
    /// Priority class (0 = most important; always 0 with one class).
    class: u8,
    /// Live hedge-deadline event, if a hedge policy is armed.
    hedge_fire: Option<EventHandle>,
    /// Live hedge duplicate, if one has been launched.
    hedge: Option<HedgeJob>,
}

/// The tracked-request component: the request ledger and everything that
/// hangs off it.
#[derive(Debug, Default)]
pub(super) struct Requests {
    /// Per-request state, touched on every admit/complete/timeout — a
    /// deterministic fast-hash map, never iterated.
    live: FastMap<u64, RequestState>,
    /// Maps a live hedge duplicate's job id to its primary's key.
    hedge_of: FastMap<u64, u64>,
    /// Job ids abandoned by a non-cancelling timeout
    /// ([`bighouse_faults::RetryPolicy::with_cancel_on_timeout`]): still on a
    /// server but invisible to the client. Their completions are real work
    /// for the server books yet must not be recorded as responses.
    pub(super) zombies: FastSet<u64>,
    /// Requests with no live server to run on, awaiting a repair.
    stranded: VecDeque<u64>,
    failures: u64,
    admitted: u64,
    goodput: u64,
    timed_out: u64,
    retries: u64,
    preempted: u64,
    /// Overload-resilience runtime state (`None` when resilience is off).
    resilience: Option<ResilienceState>,
}

impl Requests {
    /// The component, if the configuration gives it anything to track.
    pub(super) fn install(config: &ExperimentConfig) -> Option<Box<Requests>> {
        let resilience = config.resilience.as_ref().map(ResilienceState::new);
        let tracked = config.faults.is_some() || config.retry.is_some() || resilience.is_some();
        tracked.then(|| {
            Box::new(Requests {
                resilience,
                ..Requests::default()
            })
        })
    }

    /// One epoch's resilience rates (`None` when resilience is off).
    pub(super) fn epoch_rates(&mut self) -> Option<[(MetricKind, Option<f64>); 3]> {
        let state = self.resilience.as_mut()?;
        Some(state.epoch_rates(self.goodput, self.timed_out))
    }

    /// Exact fault and retry accounting.
    pub(super) fn fault_summary(&self, mean_failed_fraction: f64) -> FaultSummary {
        FaultSummary {
            server_failures: self.failures,
            admitted: self.admitted,
            goodput: self.goodput,
            timed_out: self.timed_out,
            retries: self.retries,
            preempted_jobs: self.preempted,
            in_flight_at_end: self.live.len() as u64,
            mean_failed_fraction,
        }
    }

    /// Exact request disposition (`None` when resilience is off).
    pub(super) fn resilience_summary(&self) -> Option<ResilienceSummary> {
        let state = self.resilience.as_ref()?;
        Some(ResilienceSummary {
            offered: state.offered,
            admitted: self.admitted,
            shed: state.shed,
            goodput: self.goodput,
            timed_out: self.timed_out,
            in_flight_at_end: self.live.len() as u64,
            hedges_launched: state.hedges_launched,
            hedge_wins: state.hedge_wins,
            hedge_cancelled: state.hedge_cancelled,
            slo_met: state.slo_met,
            per_class: if state.per_class.len() > 1 {
                state.per_class.clone()
            } else {
                Vec::new()
            },
        })
    }

    /// The request ledger for an audit sweep.
    pub(super) fn ledger(&self, injected: u64) -> AuditLedger {
        let state = self.resilience.as_ref();
        AuditLedger {
            tracked: true,
            resilience: state.is_some(),
            injected,
            offered: state.map_or(0, |s| s.offered),
            admitted: self.admitted,
            shed: state.map_or(0, |s| s.shed),
            goodput: self.goodput,
            timed_out: self.timed_out,
            in_flight: self.live.len() as u64,
        }
    }
}

/// The component, for its own handlers: each is reached only through an
/// event or a call that exists because `build` installed it.
fn installed(requests: &mut Option<Box<Requests>>) -> &mut Requests {
    requests
        .as_deref_mut()
        .expect("tracked-request handlers run only with the component installed")
}

impl ClusterSim {
    /// Schedules each server's first failure, if faults are configured.
    pub(super) fn prime_failures(&mut self, cal: &mut impl Pending) {
        if let Some(faults) = self.config.faults.as_ref() {
            for s in 0..self.servers.len() {
                let up = faults.sample_uptime(&mut self.rng);
                cal.schedule_in(up, ClusterEvent::ServerFailure { server: s });
            }
        }
    }

    /// Admits a request under tracking: runs it past admission control and
    /// class shedding, then samples its size, registers it, arms its
    /// timeout (if a retry policy is set), and places it. A shed arrival
    /// consumes no service-time draw: the request never exists.
    pub(super) fn admit(&mut self, home: Option<usize>, now: Time, cal: &mut impl Pending) {
        let requests = installed(&mut self.requests);
        let mut class = 0;
        if let (Some(policy), Some(state)) = (
            self.config.resilience.as_ref(),
            requests.resilience.as_mut(),
        ) {
            class = state.draw_class(&mut self.rng);
            if !state.admit_gate(policy, class, requests.live.len(), now) {
                return;
            }
        }
        let size = self.draw_service();
        let job = Job::new(JobId::new(self.job_counter), now, size);
        self.job_counter += 1;
        let key = job.id().raw();
        let timeout = self.arm_timeout(key, cal);
        let requests = installed(&mut self.requests);
        requests.admitted += 1;
        requests.live.insert(
            key,
            RequestState {
                job,
                attempt: 1,
                home,
                server: None,
                timeout,
                pending_redispatch: false,
                class,
                hedge_fire: None,
                hedge: None,
            },
        );
        self.try_place(key, now, cal);
    }

    /// Schedules the client-side timeout of a request's attempt, if retries
    /// are configured, for the caller to file with the request. The timeout
    /// covers an attempt window: it survives preemptions and strandings, and
    /// is re-armed only after a backoff/redispatch cycle.
    fn arm_timeout(&self, key: u64, cal: &mut impl Pending) -> Option<EventHandle> {
        let policy = self.config.retry?;
        Some(cal.schedule_in(policy.timeout(), ClusterEvent::RequestTimeout { job: key }))
    }

    /// Places an unassigned request on a live server, or strands it until
    /// a repair frees capacity.
    fn try_place(&mut self, key: u64, now: Time, cal: &mut impl Pending) {
        let Some(req) = installed(&mut self.requests).live.get_mut(&key) else {
            return;
        };
        debug_assert!(req.server.is_none(), "placing an already-placed request");
        let job = req.job;
        let target = match req.home {
            Some(h) => (!self.servers[h].is_failed()).then_some(h),
            // Route straight off server state — no per-arrival
            // queue/availability snapshot Vecs.
            None => self.balancer.as_mut().and_then(|balancer| {
                balancer.pick_available_by(
                    |i| self.servers[i].outstanding(),
                    |i| !self.servers[i].is_failed(),
                    &mut self.rng,
                )
            }),
        };
        req.server = target;
        match target {
            Some(s) => {
                self.place(s, job, now, cal);
                self.arm_hedge(key, cal);
            }
            None => installed(&mut self.requests).stranded.push_back(key),
        }
    }

    /// Arms the hedge deadline for a freshly placed request, if a hedge
    /// policy is configured and neither a hedge nor a deadline is already
    /// live for it.
    fn arm_hedge(&mut self, key: u64, cal: &mut impl Pending) {
        let Some(policy) = self.config.resilience.as_ref().and_then(|r| r.hedge) else {
            return;
        };
        let Some(req) = installed(&mut self.requests).live.get_mut(&key) else {
            return;
        };
        if req.server.is_none() || req.hedge.is_some() || req.hedge_fire.is_some() {
            return;
        }
        req.hedge_fire =
            Some(cal.schedule_in(policy.deadline, ClusterEvent::HedgeFire { job: key }));
    }

    /// Takes `job` off `server` mid-flight, recording whatever folding the
    /// server forward to `now` completes. Returns `false` when `job` itself
    /// completed in this instant: the completion wins, and has been retired.
    fn cancel_on(&mut self, server: usize, job: u64, now: Time, cal: &mut impl Pending) -> bool {
        let (finished, cancelled) = self.servers[server].cancel_job(JobId::new(job), now);
        self.record_finished(&finished, cal);
        self.reschedule_attention(server, cal);
        cancelled
    }

    /// [`ClusterSim::cancel_on`] for the losing copy of a hedged pair — the
    /// tail-at-scale bet paying off through the calendar's O(1) cancel.
    fn cancel_loser(&mut self, server: usize, job: u64, now: Time, cal: &mut impl Pending) -> bool {
        let cancelled = self.cancel_on(server, job, now, cal);
        if cancelled {
            if let Some(state) = installed(&mut self.requests).resilience.as_mut() {
                state.hedge_cancelled += 1;
            }
        }
        cancelled
    }

    /// Retires one tracked completion: the finished job is either a hedge
    /// duplicate (retire its primary and cancel the primary's execution)
    /// or a primary (retire it and cancel its hedge, if one is running).
    /// Retirement happens exactly when the request leaves the map, so a
    /// hedged pair can never be credited twice.
    #[inline(never)]
    pub(super) fn retire_completion(&mut self, fid: u64, response: f64, cal: &mut impl Pending) {
        let requests = installed(&mut self.requests);
        // A hedge that finished first leaves its primary still running.
        let hedge_won = requests.hedge_of.remove(&fid);
        let key = hedge_won.unwrap_or(fid);
        let Some(mut req) = requests.live.remove(&key) else {
            return;
        };
        if self.seeded_bug == Some(SeededBug::DoubleHedgeCompletion)
            && hedge_won.is_none()
            && req.hedge.is_some()
        {
            // Mutation hook: credit goodput but keep the request tracked
            // (and its hedge mapping live), so the hedge completion retires
            // the same request a second time. The request ledger must catch
            // the double credit.
            self.seeded_bug = None;
            requests.goodput += 1;
            req.timeout = None;
            req.hedge_fire = None;
            req.server = None;
            requests.live.insert(fid, req);
            return;
        }
        requests.goodput += 1;
        if let Some(handle) = req.timeout {
            cal.cancel(handle);
        }
        if let Some(handle) = req.hedge_fire {
            cal.cancel(handle);
        }
        let loser = match hedge_won {
            Some(primary) => req.server.map(|server| (server, primary)),
            None => req.hedge.take().map(|hedge| {
                requests.hedge_of.remove(&hedge.job);
                (hedge.server, hedge.job)
            }),
        };
        let now = cal.now();
        if let Some(state) = requests.resilience.as_mut() {
            state.hedge_wins += u64::from(hedge_won.is_some());
            let deadline = self.config.resilience.as_ref().and_then(|r| r.slo_deadline);
            if let Some(met) = state.note_goodput_slo(deadline, req.class, response) {
                self.observe(MetricKind::SloAttainment, f64::from(u8::from(met)), now);
            }
        }
        if let Some((server, job)) = loser {
            self.cancel_loser(server, job, now, cal);
        }
    }

    /// The hedge deadline fired: the request is still unfinished, so
    /// duplicate it to the least-loaded *other* live server. The duplicate
    /// keeps the original arrival time, so whichever copy finishes first
    /// records the true request latency.
    #[inline(never)]
    pub(super) fn handle_hedge_fire(&mut self, key: u64, now: Time, cal: &mut impl Pending) {
        let Some(req) = installed(&mut self.requests).live.get_mut(&key) else {
            return; // stale: the request already completed
        };
        req.hedge_fire = None;
        // Unplaced (stranded or awaiting a redispatch), the deadline re-arms
        // at the next placement.
        let (None, Some(primary_server)) = (req.hedge, req.server) else {
            return;
        };
        let arrival = req.job.arrival();
        // Deterministic target pick — least outstanding work, lowest index
        // on ties; no RNG, so hedging perturbs no other draw.
        let candidates = self.servers.iter().enumerate();
        let Some((s, _)) = candidates
            .filter(|(i, server)| *i != primary_server && !server.is_failed())
            .min_by_key(|(_, server)| server.outstanding())
        else {
            return; // nowhere to hedge to right now
        };
        let size = self.draw_service();
        let hid = self.job_counter;
        self.job_counter += 1;
        let job = Job::new(JobId::new(hid), arrival, size);
        let requests = installed(&mut self.requests);
        if let Some(req) = requests.live.get_mut(&key) {
            req.hedge = Some(HedgeJob {
                job: hid,
                server: s,
            });
        }
        requests.hedge_of.insert(hid, key);
        if let Some(state) = requests.resilience.as_mut() {
            state.hedges_launched += 1;
        }
        self.place(s, job, now, cal);
    }

    #[inline(never)]
    pub(super) fn handle_failure(&mut self, server: usize, now: Time, cal: &mut impl Pending) {
        let (finished, lost) = self.servers[server].fail(now);
        self.record_finished(&finished, cal);
        installed(&mut self.requests).failures += 1;
        // A failed server generates no internal events until its repair.
        self.reschedule_attention(server, cal);
        for job in lost {
            let requests = installed(&mut self.requests);
            requests.preempted += 1;
            let key = job.id().raw();
            if requests.zombies.remove(&key) {
                // An abandoned attempt died with the server: nobody is
                // waiting for it, and it will never complete.
                continue;
            }
            if let Some(primary) = requests.hedge_of.remove(&key) {
                // A hedge duplicate died with the server; its primary
                // fights on alone (a fresh deadline re-arms only after a
                // retry redispatch).
                if let Some(req) = requests.live.get_mut(&primary) {
                    req.hedge = None;
                }
                continue;
            }
            match requests.live.get_mut(&key) {
                // The request keeps its running timeout across the
                // preemption; only its placement is reset.
                Some(req) => req.server = None,
                None => continue,
            }
            self.try_place(key, now, cal);
        }
        if let Some(faults) = self.config.faults.as_ref() {
            let down = faults.sample_downtime(&mut self.rng);
            cal.schedule_in(down, ClusterEvent::ServerRepair { server });
        }
    }

    #[inline(never)]
    pub(super) fn handle_repair(&mut self, server: usize, now: Time, cal: &mut impl Pending) {
        self.servers[server].repair(now);
        self.reschedule_attention(server, cal);
        if let Some(faults) = self.config.faults.as_ref() {
            let up = faults.sample_uptime(&mut self.rng);
            cal.schedule_in(up, ClusterEvent::ServerFailure { server });
        }
        // Give every request stranded so far one placement chance; those
        // that still have nowhere to go re-strand, at the back, inside
        // try_place.
        for _ in 0..installed(&mut self.requests).stranded.len() {
            let requests = installed(&mut self.requests);
            let Some(key) = requests.stranded.pop_front() else {
                break;
            };
            let eligible = matches!(
                requests.live.get(&key),
                Some(req) if req.server.is_none() && !req.pending_redispatch
            );
            if eligible {
                self.try_place(key, now, cal);
            }
        }
    }

    #[inline(never)]
    pub(super) fn handle_timeout(&mut self, key: u64, now: Time, cal: &mut impl Pending) {
        let Some(policy) = self.config.retry else {
            return;
        };
        let requests = installed(&mut self.requests);
        let Some(req) = requests.live.get_mut(&key) else {
            return; // stale: request already completed
        };
        req.timeout = None; // it just fired
        let (attempt, server) = (req.attempt, req.server);
        let abandons = !policy.cancels_on_timeout() && server.is_some();
        if abandons {
            // The client gave up but the server never hears about it:
            // the attempt keeps its queue slot or core and will
            // complete as zombie work. Mark it so record_finished
            // swallows that completion.
            requests.zombies.insert(key);
        } else if let Some(s) = server {
            if !self.cancel_on(s, key, now, cal) {
                // The job completed in the same instant the timeout
                // fired: the completion wins, and record_finished has
                // already retired the request as goodput.
                return;
            }
        }
        // The attempt is over: the hedge (if any) dies with it.
        let (hedge, hedge_fire) = match installed(&mut self.requests).live.get_mut(&key) {
            Some(req) => (req.hedge.take(), req.hedge_fire.take()),
            None => return,
        };
        if let Some(handle) = hedge_fire {
            cal.cancel(handle);
        }
        if let Some(hedge) = hedge {
            // If the hedge completed in this same instant (not cancelled),
            // the completion wins: record_finished retires the request as a
            // hedge win via the still-live hedge_of mapping, and the re-get
            // below comes up empty.
            if self.cancel_loser(hedge.server, hedge.job, now, cal) {
                installed(&mut self.requests).hedge_of.remove(&hedge.job);
            }
        }
        let requests = installed(&mut self.requests);
        let Some(req) = requests.live.get_mut(&key) else {
            return;
        };
        if attempt > policy.max_retries() {
            requests.timed_out += 1;
            requests.live.remove(&key);
            return;
        }
        requests.retries += 1;
        req.attempt += 1;
        req.server = None;
        req.pending_redispatch = true;
        let retry_key = if abandons {
            // The old id stays with the zombie: the retry reaches the
            // cluster as a brand-new job under a fresh id, so the request
            // is re-keyed. Old and new attempts now coexist on the
            // servers — the work amplification that fuels a retry storm.
            let mut req = requests.live.remove(&key).expect("fetched above");
            let fresh = self.job_counter;
            self.job_counter += 1;
            req.job = Job::new(JobId::new(fresh), req.job.arrival(), req.job.size());
            requests.live.insert(fresh, req);
            fresh
        } else {
            key
        };
        let delay = policy.backoff_delay(attempt, &mut self.rng);
        cal.schedule_in(delay, ClusterEvent::Redispatch { job: retry_key });
    }

    #[inline(never)]
    pub(super) fn handle_redispatch(&mut self, key: u64, now: Time, cal: &mut impl Pending) {
        let Some(req) = installed(&mut self.requests).live.get_mut(&key) else {
            return;
        };
        req.pending_redispatch = false;
        if req.server.is_some() {
            return;
        }
        // A retried attempt is a fresh execution, not a replay: its service
        // demand is a fresh draw (the hedge path at `hedge_fire` does the
        // same). Replaying the original draw would make any request whose
        // size exceeds the client timeout unservable on every attempt, and
        // a heavy-tailed workload has enough of those to poison the run.
        // The job id and arrival are preserved so the recorded response
        // time still spans the whole request saga.
        let size = self.draw_service();
        let timeout = self.arm_timeout(key, cal);
        if let Some(req) = installed(&mut self.requests).live.get_mut(&key) {
            req.job = Job::new(req.job.id(), req.job.arrival(), size);
            req.timeout = timeout;
        }
        self.try_place(key, now, cal);
    }
}
