//! The multi-core server model.

use std::collections::VecDeque;

use bighouse_des::Time;

use crate::job::{FinishedJob, Job, JobId};
use crate::policy::IdlePolicy;
use crate::power::{DvfsModel, LinearPowerModel};

/// Remaining-work tolerance (seconds of demand) below which a job is
/// complete; absorbs floating-point residue from folding progress across
/// speed changes.
const WORK_EPSILON: f64 = 1e-9;

/// Whether the server is awake, napping, or in a wake transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SleepState {
    /// Awake and processing (or ready to process) jobs.
    Active,
    /// In the idle low-power state; nothing executes.
    Napping,
    /// Transitioning from nap back to active; service resumes at `until`.
    Waking {
        /// When the wake transition completes.
        until: Time,
    },
}

/// A task inside the server, with its accumulated progress and delay.
#[derive(Debug, Clone, Copy)]
struct Task {
    job: Job,
    /// When the task first received service (None until it starts).
    first_service: Option<Time>,
    /// Remaining service demand in seconds at nominal speed.
    remaining: f64,
    /// Accumulated time spent *not* being served (DreamWeaver's per-task
    /// delay, compared against the wake threshold). Kept under DreamWeaver
    /// only; it stays 0 under every other policy.
    delayed: f64,
}

/// A multi-core FCFS server with modulated service rate and idle low-power
/// states.
///
/// This is the central object of the BigHouse queuing network (§2.1: "the
/// server model might be subclassed or extended to include state variables
/// for various ACPI power modes, which modulate task run time, control
/// state transitions, and output power/energy estimates"). In Rust we
/// compose instead of subclass: the server takes an [`IdlePolicy`], a
/// [`DvfsModel`], and optionally a [`LinearPowerModel`] for energy
/// accounting.
///
/// ## Driving the server
///
/// The server is a passive state machine designed for a discrete-event
/// loop:
///
/// 1. deliver arrivals with [`Server::arrive`],
/// 2. when the calendar fires an event for this server, call
///    [`Server::sync`] with the current time and collect finished jobs,
/// 3. after *any* interaction, re-aim the server's single pending calendar
///    event when [`Server::next_event`] moved; it is O(1) (the server
///    caches the instant whenever its state changes).
///
/// Service rates can change mid-job ([`Server::set_frequency`]); progress
/// is folded exactly at each change, so completions remain correct under
/// any sequence of DVFS transitions — the mechanism the global power
/// capping study (§4.1) exercises every simulated second.
///
/// # Examples
///
/// ```
/// use bighouse_des::Time;
/// use bighouse_models::{Job, JobId, Server};
///
/// let mut server = Server::new(2);
/// server.arrive(Job::new(JobId::new(1), Time::ZERO, 1.0), Time::ZERO);
/// let eta = server.next_event().unwrap();
/// assert_eq!(eta, Time::from_seconds(1.0));
/// let done = server.sync(eta);
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].response_time(), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Server {
    cores: usize,
    policy: IdlePolicy,
    dvfs: DvfsModel,
    frequency: f64,
    speed: f64,
    power_model: Option<LinearPowerModel>,
    state: SleepState,
    /// Whether the server is down (fault injection): no service, no sleep
    /// transitions, failed-state power draw. Orthogonal to [`SleepState`].
    failed: bool,
    queue: VecDeque<Task>,
    running: Vec<Task>,
    /// When the server last became completely idle (for timeout policies).
    idle_since: Option<Time>,
    last_update: Time,
    /// [`Server::next_event`]'s answer: `compute_next` of the current
    /// state, refreshed at the end of every method that changes it.
    next: Option<Time>,
    // Lifetime accounting.
    created: Time,
    energy_joules: f64,
    full_idle_seconds: f64,
    nap_seconds: f64,
    failed_seconds: f64,
    busy_core_seconds_total: f64,
    completed_jobs: u64,
    // Per-epoch accounting for the power capper.
    epoch_start: Time,
    busy_core_seconds_epoch: f64,
}

impl Server {
    /// Creates an always-on server with `cores` cores at nominal frequency.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "a server needs at least one core");
        Server {
            cores,
            policy: IdlePolicy::AlwaysOn,
            dvfs: DvfsModel::default(),
            frequency: 1.0,
            speed: 1.0,
            power_model: None,
            state: SleepState::Active,
            failed: false,
            queue: VecDeque::new(),
            running: Vec::new(),
            idle_since: Some(Time::ZERO),
            last_update: Time::ZERO,
            next: None,
            created: Time::ZERO,
            energy_joules: 0.0,
            full_idle_seconds: 0.0,
            nap_seconds: 0.0,
            failed_seconds: 0.0,
            busy_core_seconds_total: 0.0,
            completed_jobs: 0,
            epoch_start: Time::ZERO,
            busy_core_seconds_epoch: 0.0,
        }
    }

    /// Sets the idle low-power policy.
    ///
    /// # Panics
    ///
    /// Panics if [`IdlePolicy::validate`] refuses the policy (a latency or
    /// threshold negative, non-finite or above `Time::MAX_SPAN`).
    #[must_use]
    pub fn with_policy(mut self, policy: IdlePolicy) -> Self {
        policy.validate().expect("valid idle policy");
        self.policy = policy;
        // Eagerly napping policies start asleep; timeout policies start
        // active with the idle clock running.
        let starts_napping = matches!(
            policy,
            IdlePolicy::PowerNap { .. } | IdlePolicy::DreamWeaver { .. }
        );
        if starts_napping && self.outstanding() == 0 {
            self.state = SleepState::Napping;
        }
        self.refresh_next();
        self
    }

    /// Sets the DVFS performance model (Eq. 6).
    #[must_use]
    pub fn with_dvfs(mut self, dvfs: DvfsModel) -> Self {
        self.dvfs = dvfs;
        self.speed = dvfs.speedup(self.frequency);
        self.refresh_next();
        self
    }

    /// Attaches a power model; the server then integrates energy over time.
    #[must_use]
    pub fn with_power_model(mut self, model: LinearPowerModel) -> Self {
        self.power_model = Some(model);
        self
    }

    /// Number of cores.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Jobs waiting in the queue (not receiving service).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Jobs currently receiving service.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Total jobs in the server (queued + running).
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.queue.len() + self.running.len()
    }

    /// Current sleep state.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn state(&self) -> SleepState {
        self.state
    }

    /// Whether the server is currently failed (down, awaiting repair).
    #[must_use]
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Cumulative seconds spent in the failed state.
    #[must_use]
    pub fn failed_seconds(&self) -> f64 {
        self.failed_seconds
    }

    /// Fraction of lifetime spent failed — the complement of measured
    /// availability, to compare against the analytic
    /// `MTTR / (MTBF + MTTR)`.
    #[must_use]
    pub fn failed_fraction(&self, now: Time) -> f64 {
        let lifetime = now - self.created;
        if lifetime <= 0.0 {
            return 0.0;
        }
        self.failed_seconds / lifetime
    }

    /// Current effective service-rate factor (Eq. 6 applied to `f`).
    #[must_use]
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Jobs completed so far.
    #[must_use]
    pub fn completed_jobs(&self) -> u64 {
        self.completed_jobs
    }

    /// Energy consumed so far in joules (0 unless a power model is
    /// attached).
    #[must_use]
    pub fn energy_joules(&self) -> f64 {
        self.energy_joules
    }

    /// Fraction of lifetime the *entire* server was idle (napping, or awake
    /// with no job in service) — the y-axis of Figure 6.
    #[must_use]
    pub fn full_idle_fraction(&self, now: Time) -> f64 {
        let lifetime = now - self.created;
        if lifetime <= 0.0 {
            return 0.0;
        }
        self.full_idle_seconds / lifetime
    }

    /// Fraction of lifetime spent in the nap state.
    #[must_use]
    pub fn nap_fraction(&self, now: Time) -> f64 {
        let lifetime = now - self.created;
        if lifetime <= 0.0 {
            return 0.0;
        }
        self.nap_seconds / lifetime
    }

    /// Lifetime average utilization (busy core-seconds / core-seconds).
    #[must_use]
    pub fn average_utilization(&self, now: Time) -> f64 {
        let lifetime = now - self.created;
        if lifetime <= 0.0 {
            return 0.0;
        }
        self.busy_core_seconds_total / (lifetime * self.cores as f64)
    }

    /// Ends the current accounting epoch, returning the utilization over it
    /// and starting a new one. The power capper calls this each budgeting
    /// interval.
    ///
    /// The caller must [`Server::sync`] to `now` first (debug-asserted).
    pub fn take_epoch_utilization(&mut self, now: Time) -> f64 {
        debug_assert!(
            now >= self.last_update,
            "sync the server before ending an epoch"
        );
        let span = now - self.epoch_start;
        let u = if span > 0.0 {
            (self.busy_core_seconds_epoch / (span * self.cores as f64)).min(1.0)
        } else {
            0.0
        };
        self.epoch_start = now;
        self.busy_core_seconds_epoch = 0.0;
        u
    }

    /// Delivers an arriving job, returning any jobs that completed when
    /// folding time forward to `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the server's last update (time travel).
    pub fn arrive(&mut self, job: Job, now: Time) -> Vec<FinishedJob> {
        let mut finished = Vec::new();
        self.arrive_into(job, now, &mut finished);
        finished
    }

    /// As [`Server::arrive`], appending completions to a caller-owned
    /// buffer instead of allocating — the hot-loop entry point for callers
    /// that process millions of arrivals. Identical state evolution and
    /// completion order.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the server's last update (time travel).
    pub fn arrive_into(&mut self, job: Job, now: Time, finished: &mut Vec<FinishedJob>) {
        debug_assert!(
            !self.failed,
            "arrivals must be routed away from failed servers"
        );
        self.fold_to(now, finished);
        let task = Task {
            job,
            first_service: None,
            remaining: job.size(),
            delayed: 0.0,
        };
        if self.state == SleepState::Active
            && self.queue.is_empty()
            && self.running.len() < self.cores
            && !matches!(self.policy, IdlePolicy::DreamWeaver { .. })
        {
            // Direct start: what queueing the task would do in this state.
            // `evaluate_sleep` only clears the idle clock (work is present,
            // and only DreamWeaver, which keeps the queued path, may nap an
            // awake server that has some), and `refill` starts the task on
            // a free core at once.
            self.idle_since = None;
            self.running.push(Task {
                first_service: Some(now),
                ..task
            });
        } else {
            self.queue.push_back(task);
            self.evaluate_sleep(now);
            self.refill(now);
        }
        self.refresh_next();
    }

    /// Folds simulated time forward to `now`: accounts state time and
    /// energy, applies service progress, completes finished jobs, performs
    /// sleep-state transitions, and starts queued jobs on free cores.
    ///
    /// The fold is piecewise: if the server's own events (completions, wake
    /// transitions, delay-threshold expiries) occur strictly before `now`,
    /// they are processed at their exact timestamps, so accounting and
    /// completion records are correct even when the caller jumps far ahead.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the server's last update.
    pub fn sync(&mut self, now: Time) -> Vec<FinishedJob> {
        let mut finished = Vec::new();
        self.sync_into(now, &mut finished);
        finished
    }

    /// As [`Server::sync`], appending completions to a caller-owned buffer
    /// instead of allocating. Identical state evolution and completion
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the server's last update.
    pub fn sync_into(&mut self, now: Time, finished: &mut Vec<FinishedJob>) {
        self.fold_to(now, finished);
        self.refresh_next();
    }

    /// [`Server::sync_into`] minus the closing refresh of the cached next
    /// instant, for the methods that change state further and refresh once
    /// at their end. The cache is current on entry, so only an intermediate
    /// step needs a recomputation.
    fn fold_to(&mut self, now: Time, finished: &mut Vec<FinishedJob>) {
        while let Some(t_ev) = self.next {
            if t_ev >= now {
                break;
            }
            self.step_to(t_ev, finished);
            self.refresh_next();
        }
        self.step_to(now, finished);
    }

    fn step_to(&mut self, now: Time, finished: &mut Vec<FinishedJob>) {
        self.advance(now);
        self.collect_completions_into(now, finished);
        self.evaluate_sleep(now);
        self.refill(now);
    }

    /// Changes the DVFS frequency factor, folding progress at the old speed
    /// first. Returns any jobs that completed during the fold.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < f <= 1`, or if `now` precedes the last update.
    pub fn set_frequency(&mut self, f: f64, now: Time) -> Vec<FinishedJob> {
        assert!(
            f > 0.0 && f <= 1.0,
            "frequency factor must be in (0, 1], got {f}"
        );
        let mut finished = Vec::new();
        self.fold_to(now, &mut finished);
        self.frequency = f;
        self.speed = self.dvfs.speedup(f);
        self.refresh_next();
        finished
    }

    /// Takes the server down (fault injection), preempting every in-flight
    /// and queued job: their progress is lost and the original [`Job`]s are
    /// returned for the caller to requeue, redispatch, or strand.
    ///
    /// Jobs that complete exactly at `now` (folding time forward) still
    /// finish — a completion tied with a failure resolves in the job's
    /// favor — and are returned in the first vector.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the server's last update. Debug-panics if
    /// the server is already failed.
    pub fn fail(&mut self, now: Time) -> (Vec<FinishedJob>, Vec<Job>) {
        let mut finished = Vec::new();
        self.fold_to(now, &mut finished);
        debug_assert!(!self.failed, "server failed twice without a repair");
        self.failed = true;
        // Sleep-state machinery is frozen while down; park in Active so a
        // stale Waking{until} can't linger past the repair.
        self.state = SleepState::Active;
        self.idle_since = None;
        // Preserve FCFS order in the returned list: running tasks arrived
        // no later than queued ones.
        self.running.sort_by_key(|t| t.job.arrival());
        let mut lost: Vec<Job> = self.running.drain(..).map(|t| t.job).collect();
        lost.extend(self.queue.drain(..).map(|t| t.job));
        self.refresh_next();
        (finished, lost)
    }

    /// Brings a failed server back into service, empty, with its idle
    /// clock restarted (eagerly-napping policies re-enter the nap state).
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the server's last update. Debug-panics if
    /// the server is not failed.
    pub fn repair(&mut self, now: Time) {
        // A failed server holds no jobs, so the fold completes none.
        self.fold_to(now, &mut Vec::new());
        debug_assert!(self.failed, "repair of a healthy server");
        self.failed = false;
        self.state = SleepState::Active;
        self.idle_since = Some(now);
        self.evaluate_sleep(now);
        self.refresh_next();
    }

    /// Cancels a specific job (client-side timeout): folds time forward to
    /// `now`, then removes the job from the queue or from service,
    /// discarding its progress.
    ///
    /// Returns the jobs that completed during the fold and whether the
    /// requested job was actually cancelled — `false` means it had already
    /// finished (its completion record is in the first element).
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the server's last update.
    pub fn cancel_job(&mut self, id: JobId, now: Time) -> (Vec<FinishedJob>, bool) {
        let mut finished = Vec::new();
        self.fold_to(now, &mut finished);
        let cancelled = if let Some(pos) = self.running.iter().position(|t| t.job.id() == id) {
            self.running.swap_remove(pos);
            true
        } else if let Some(pos) = self.queue.iter().position(|t| t.job.id() == id) {
            self.queue.remove(pos);
            true
        } else {
            false
        };
        if cancelled {
            // A freed core can pull the next queued task immediately.
            self.evaluate_sleep(now);
            self.refill(now);
        }
        self.refresh_next();
        (finished, cancelled)
    }

    /// When this server next needs attention from the event loop:
    /// the earliest of its next job completion, wake-transition end, or
    /// DreamWeaver delay-threshold expiry. `None` if the server is fully
    /// quiescent (waiting on external arrivals only).
    ///
    /// O(1): the instant is cached when the state changes, not derived on
    /// each call.
    #[must_use]
    pub fn next_event(&self) -> Option<Time> {
        debug_assert_eq!(
            self.next,
            self.compute_next(),
            "the cached next instant is stale"
        );
        self.next
    }

    fn refresh_next(&mut self) {
        self.next = self.compute_next();
    }

    /// [`Server::next_event`] derived from the state: a scan of the running
    /// tasks (or, napping under DreamWeaver, of the queue).
    fn compute_next(&self) -> Option<Time> {
        if self.failed {
            // A failed server generates no internal events; the repair is
            // scheduled externally by the fault process.
            return None;
        }
        let mut next: Option<Time> = None;
        let mut consider = |t: Time| {
            next = Some(match next {
                Some(cur) => cur.min(t),
                None => t,
            });
        };
        match self.state {
            SleepState::Active => {
                if let Some(min_remaining) = first_min(self.running.iter().map(|t| t.remaining)) {
                    consider(self.last_update + (min_remaining / self.speed).max(0.0));
                }
                if let IdlePolicy::TimeoutNap { idle_timeout, .. } = self.policy {
                    if let Some(idle_since) = self.idle_since {
                        if self.outstanding() == 0 {
                            consider(idle_since + idle_timeout);
                        }
                    }
                }
            }
            SleepState::Waking { until } => consider(until),
            SleepState::Napping => {
                if let IdlePolicy::DreamWeaver { max_delay, .. } = self.policy {
                    if let Some(min_slack) =
                        first_min(self.queue.iter().map(|t| (max_delay - t.delayed).max(0.0)))
                    {
                        consider(self.last_update + min_slack);
                    }
                }
            }
        }
        next
    }

    fn advance(&mut self, now: Time) {
        let dt = now - self.last_update;
        assert!(
            dt >= -1e-9,
            "server time cannot run backwards ({} -> {now})",
            self.last_update
        );
        if self.failed {
            if dt > 0.0 {
                self.failed_seconds += dt;
                if let Some(model) = &self.power_model {
                    self.energy_joules += model.failed_watts() * dt;
                }
            }
            self.last_update = now;
            return;
        }
        if dt > 0.0 {
            let active_running = if self.state == SleepState::Active {
                self.running.len()
            } else {
                0
            };
            let busy = dt * active_running as f64;
            self.busy_core_seconds_total += busy;
            self.busy_core_seconds_epoch += busy;
            match self.state {
                SleepState::Napping => {
                    self.nap_seconds += dt;
                    self.full_idle_seconds += dt;
                }
                SleepState::Active if self.running.is_empty() => {
                    self.full_idle_seconds += dt;
                }
                _ => {}
            }
            if let Some(model) = &self.power_model {
                let watts = match self.state {
                    SleepState::Napping => model.nap_watts(),
                    _ => model.power(active_running as f64 / self.cores as f64, self.frequency),
                };
                self.energy_joules += watts * dt;
            }
            if self.state == SleepState::Active {
                for task in &mut self.running {
                    task.remaining = (task.remaining - dt * self.speed).max(0.0);
                }
            }
            // Tasks not in service accumulate delay, which only DreamWeaver
            // reads.
            if matches!(self.policy, IdlePolicy::DreamWeaver { .. }) {
                for task in &mut self.queue {
                    task.delayed += dt;
                }
            }
        }
        self.last_update = now;
        if let SleepState::Waking { until } = self.state {
            if now >= until {
                self.state = SleepState::Active;
            }
        }
    }

    fn collect_completions_into(&mut self, now: Time, finished: &mut Vec<FinishedJob>) {
        if self.state != SleepState::Active {
            return;
        }
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].remaining <= WORK_EPSILON {
                let task = self.running.swap_remove(i);
                self.completed_jobs += 1;
                finished.push(FinishedJob {
                    id: task.job.id(),
                    arrival: task.job.arrival(),
                    first_service: task.first_service.unwrap_or(now),
                    completion: now,
                    size: task.job.size(),
                });
            } else {
                i += 1;
            }
        }
    }

    fn refill(&mut self, now: Time) {
        if self.state != SleepState::Active {
            return;
        }
        while self.running.len() < self.cores {
            let Some(mut task) = self.queue.pop_front() else {
                break;
            };
            if task.first_service.is_none() {
                task.first_service = Some(now);
            }
            self.running.push(task);
        }
    }

    fn evaluate_sleep(&mut self, now: Time) {
        if self.failed {
            return;
        }
        // Maintain the idle clock: running while the server is completely
        // empty, cleared as soon as any work is present.
        if self.outstanding() == 0 {
            if self.idle_since.is_none() {
                self.idle_since = Some(now);
            }
        } else {
            self.idle_since = None;
        }
        match self.policy {
            IdlePolicy::AlwaysOn => {}
            IdlePolicy::TimeoutNap {
                idle_timeout,
                wake_latency,
            } => match self.state {
                SleepState::Active => {
                    if let Some(idle_since) = self.idle_since {
                        if now - idle_since >= idle_timeout - 1e-12 {
                            self.state = SleepState::Napping;
                        }
                    }
                }
                SleepState::Napping => {
                    if self.outstanding() > 0 {
                        self.begin_wake(now, wake_latency);
                    }
                }
                SleepState::Waking { .. } => {}
            },
            IdlePolicy::PowerNap { wake_latency } => match self.state {
                SleepState::Active => {
                    if self.outstanding() == 0 {
                        self.state = SleepState::Napping;
                    }
                }
                SleepState::Napping => {
                    if self.outstanding() > 0 {
                        self.begin_wake(now, wake_latency);
                    }
                }
                SleepState::Waking { .. } => {}
            },
            IdlePolicy::DreamWeaver {
                max_delay,
                wake_latency,
            } => match self.state {
                SleepState::Active => {
                    // A task whose delay budget is exhausted must run to
                    // completion; napping again would violate the per-task
                    // delay bound (and thrash through wake transitions).
                    let budget_exhausted = self
                        .queue
                        .iter()
                        .chain(self.running.iter())
                        .any(|t| t.delayed >= max_delay - 1e-12);
                    if self.outstanding() < self.cores && !budget_exhausted {
                        self.preempt_all();
                        self.state = SleepState::Napping;
                    }
                }
                SleepState::Napping => {
                    let threshold_hit = self.queue.iter().any(|t| t.delayed >= max_delay - 1e-12);
                    if self.outstanding() >= self.cores || threshold_hit {
                        self.begin_wake(now, wake_latency);
                    }
                }
                SleepState::Waking { .. } => {}
            },
        }
    }

    fn begin_wake(&mut self, now: Time, wake_latency: f64) {
        if wake_latency <= 0.0 {
            self.state = SleepState::Active;
            self.refill(now);
        } else {
            self.state = SleepState::Waking {
                until: now + wake_latency,
            };
        }
    }

    /// Moves all running tasks back to the head of the queue (DreamWeaver
    /// preemption), preserving FCFS order and accumulated progress.
    fn preempt_all(&mut self) {
        // Running tasks arrived no later than queued ones under FCFS; keep
        // their relative order by arrival when re-queueing at the front.
        self.running.sort_by_key(|t| t.job.arrival());
        for task in self.running.drain(..).rev() {
            self.queue.push_front(task);
        }
    }
}

/// The first minimum of `values`, which are finite.
fn first_min(mut values: impl Iterator<Item = f64>) -> Option<f64> {
    let first = values.next()?;
    let min = values.fold(first, |min, x| if x < min { x } else { min });
    debug_assert!(min.is_finite(), "a server's work and delays are finite");
    Some(min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use bighouse_des::SimRng;

    fn job(id: u64, arrival: f64, size: f64) -> Job {
        Job::new(JobId::new(id), Time::from_seconds(arrival), size)
    }

    fn t(s: f64) -> Time {
        Time::from_seconds(s)
    }

    #[test]
    fn single_job_completes_after_its_size() {
        let mut s = Server::new(1);
        s.arrive(job(1, 0.0, 2.0), Time::ZERO);
        assert_eq!(s.next_event(), Some(t(2.0)));
        let done = s.sync(t(2.0));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].response_time(), 2.0);
        assert_eq!(done[0].waiting_time(), 0.0);
        assert_eq!(s.outstanding(), 0);
        assert_eq!(s.completed_jobs(), 1);
    }

    #[test]
    fn fcfs_queueing_on_single_core() {
        let mut s = Server::new(1);
        s.arrive(job(1, 0.0, 1.0), Time::ZERO);
        s.arrive(job(2, 0.1, 1.0), t(0.1));
        assert_eq!(s.queue_len(), 1);
        let done = s.sync(t(1.0));
        assert_eq!(done[0].id, JobId::new(1));
        // Job 2 starts at 1.0, finishes at 2.0; waited 0.9.
        let done = s.sync(t(2.0));
        assert_eq!(done[0].id, JobId::new(2));
        assert!((done[0].waiting_time() - 0.9).abs() < 1e-9);
        assert!((done[0].response_time() - 1.9).abs() < 1e-9);
    }

    #[test]
    fn multicore_runs_jobs_in_parallel() {
        let mut s = Server::new(2);
        s.arrive(job(1, 0.0, 1.0), Time::ZERO);
        s.arrive(job(2, 0.0, 1.0), Time::ZERO);
        assert_eq!(s.running_len(), 2);
        let done = s.sync(t(1.0));
        assert_eq!(done.len(), 2, "both jobs finish simultaneously");
    }

    #[test]
    fn slowdown_stretches_service() {
        // Fully CPU-bound: speed == f.
        let mut s = Server::new(1).with_dvfs(DvfsModel::new(1.0));
        s.set_frequency(0.5, Time::ZERO);
        s.arrive(job(1, 0.0, 1.0), Time::ZERO);
        assert_eq!(s.next_event(), Some(t(2.0)));
        let done = s.sync(t(2.0));
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn mid_job_frequency_change_is_exact() {
        // 1s of demand: 0.5s at full speed (0.5 done), then at f=0.5
        // (speed 0.55 with α=0.9) the rest takes 0.5/0.55 s.
        let mut s = Server::new(1).with_dvfs(DvfsModel::new(0.9));
        s.arrive(job(1, 0.0, 1.0), Time::ZERO);
        s.set_frequency(0.5, t(0.5));
        let expected = 0.5 + 0.5 / 0.55;
        let eta = s.next_event().unwrap();
        assert!((eta.as_seconds() - expected).abs() < 1e-9, "eta {eta}");
        let done = s.sync(eta);
        assert_eq!(done.len(), 1);
        assert!((done[0].response_time() - expected).abs() < 1e-9);
    }

    #[test]
    fn repeated_epoch_frequency_changes_preserve_work() {
        // Change speed every 0.1s; total progress must still sum to size.
        let mut s = Server::new(1).with_dvfs(DvfsModel::new(1.0));
        s.arrive(job(1, 0.0, 1.0), Time::ZERO);
        let mut now = 0.0;
        let mut done = Vec::new();
        let freqs = [0.5, 1.0, 0.7, 0.9, 0.6, 1.0, 0.8, 0.5, 1.0, 0.75];
        let mut progressed = 0.0;
        for f in freqs {
            if progressed >= 1.0 {
                break;
            }
            now += 0.1;
            progressed += 0.1 * s.speed();
            done.extend(s.set_frequency(f, t(now)));
        }
        if done.is_empty() {
            let eta = s.next_event().unwrap();
            done.extend(s.sync(eta));
        }
        assert_eq!(done.len(), 1);
        // Reconstruct analytic completion: accumulate work piecewise.
        let mut work = 0.0;
        let mut clock: f64 = 0.0;
        let mut speed = 1.0;
        let mut completion = None;
        for f in freqs {
            let next_work = work + 0.1 * speed;
            if next_work >= 1.0 {
                completion = Some(clock + (1.0 - work) / speed);
                break;
            }
            work = next_work;
            clock += 0.1;
            speed = f;
        }
        // If the schedule runs out, the job finishes at the final speed.
        let expected = completion.unwrap_or(clock + (1.0 - work) / speed);
        assert!(
            (done[0].response_time() - expected).abs() < 1e-9,
            "got {}, want {expected}",
            done[0].response_time()
        );
    }

    #[test]
    fn powernap_sleeps_when_empty_and_pays_wake_latency() {
        let policy = IdlePolicy::PowerNap { wake_latency: 0.1 };
        let mut s = Server::new(1).with_policy(policy);
        assert_eq!(s.state(), SleepState::Napping);
        s.arrive(job(1, 1.0, 0.5), t(1.0));
        assert_eq!(s.state(), SleepState::Waking { until: t(1.1) });
        assert_eq!(s.next_event(), Some(t(1.1)));
        let done = s.sync(t(1.1));
        assert!(done.is_empty());
        assert_eq!(s.state(), SleepState::Active);
        assert_eq!(s.running_len(), 1);
        // Completes at 1.1 + 0.5; response includes the wake penalty.
        let done = s.sync(t(1.6));
        assert_eq!(done.len(), 1);
        assert!((done[0].response_time() - 0.6).abs() < 1e-9);
        assert!((done[0].waiting_time() - 0.1).abs() < 1e-9);
        // After completion the server naps again.
        assert_eq!(s.state(), SleepState::Napping);
    }

    #[test]
    fn powernap_accumulates_nap_time() {
        let mut s = Server::new(1).with_policy(IdlePolicy::PowerNap { wake_latency: 0.0 });
        s.sync(t(10.0));
        assert!((s.nap_fraction(t(10.0)) - 1.0).abs() < 1e-9);
        assert!((s.full_idle_fraction(t(10.0)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn always_on_idle_is_full_idle_but_not_nap() {
        let mut s = Server::new(1);
        s.sync(t(5.0));
        assert_eq!(s.nap_fraction(t(5.0)), 0.0);
        assert!((s.full_idle_fraction(t(5.0)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dreamweaver_delays_single_job_until_threshold() {
        let policy = IdlePolicy::DreamWeaver {
            max_delay: 0.5,
            wake_latency: 0.1,
        };
        let mut s = Server::new(4).with_policy(policy);
        assert_eq!(s.state(), SleepState::Napping);
        // One job on a 4-core server: outstanding < cores, stays asleep.
        s.arrive(job(1, 0.0, 0.2), Time::ZERO);
        assert_eq!(s.state(), SleepState::Napping);
        // Wake is scheduled for when the job's delay hits the threshold.
        assert_eq!(s.next_event(), Some(t(0.5)));
        s.sync(t(0.5));
        assert_eq!(s.state(), SleepState::Waking { until: t(0.6) });
        s.sync(t(0.6));
        assert_eq!(s.state(), SleepState::Active);
        let done = s.sync(t(0.8));
        assert_eq!(done.len(), 1);
        // Response = 0.5 delay + 0.1 wake + 0.2 service.
        assert!((done[0].response_time() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn dreamweaver_wakes_when_cores_fill() {
        let policy = IdlePolicy::DreamWeaver {
            max_delay: 10.0,
            wake_latency: 0.0,
        };
        let mut s = Server::new(2).with_policy(policy);
        s.arrive(job(1, 0.0, 1.0), Time::ZERO);
        assert_eq!(s.state(), SleepState::Napping);
        s.arrive(job(2, 0.1, 1.0), t(0.1));
        // Outstanding == cores: wake immediately (zero latency).
        assert_eq!(s.state(), SleepState::Active);
        assert_eq!(s.running_len(), 2);
    }

    #[test]
    fn dreamweaver_preempts_when_cores_drain() {
        let policy = IdlePolicy::DreamWeaver {
            max_delay: 10.0,
            wake_latency: 0.0,
        };
        let mut s = Server::new(2).with_policy(policy);
        s.arrive(job(1, 0.0, 1.0), Time::ZERO);
        s.arrive(job(2, 0.0, 2.0), Time::ZERO);
        assert_eq!(s.state(), SleepState::Active);
        // Job 1 finishes at 1.0; job 2 alone < 2 cores -> preempt + nap.
        let done = s.sync(t(1.0));
        assert_eq!(done.len(), 1);
        assert_eq!(s.state(), SleepState::Napping);
        assert_eq!(s.queue_len(), 1);
        assert_eq!(s.running_len(), 0);
        // Job 2 already progressed 1.0 of its 2.0; when it eventually runs
        // it needs only 1.0 more. Fill the other core to wake.
        s.arrive(job(3, 2.0, 1.0), t(2.0));
        assert_eq!(s.state(), SleepState::Active);
        let done = s.sync(t(3.0));
        assert_eq!(done.len(), 2, "both finish at 3.0: {done:?}");
    }

    #[test]
    fn dreamweaver_trades_latency_for_idleness() {
        // Same sparse arrivals under AlwaysOn vs DreamWeaver: DreamWeaver
        // must produce more full-system idle time and higher latency.
        let arrivals: Vec<(f64, f64)> = (0..50).map(|i| (i as f64 * 1.0, 0.1)).collect();
        let run = |policy: IdlePolicy| -> (f64, f64) {
            let mut s = Server::new(4).with_policy(policy);
            let mut total_response = 0.0;
            let mut now = Time::ZERO;
            for (count, &(at, size)) in arrivals.iter().enumerate() {
                now = t(at);
                for f in s.arrive(job(count as u64, at, size), now) {
                    total_response += f.response_time();
                }
                while let Some(eta) = s.next_event() {
                    if eta.as_seconds() > at + 0.9 {
                        break;
                    }
                    for f in s.sync(eta) {
                        total_response += f.response_time();
                    }
                }
            }
            // Drain.
            while let Some(eta) = s.next_event() {
                now = eta;
                for f in s.sync(eta) {
                    total_response += f.response_time();
                }
            }
            (
                total_response / arrivals.len() as f64,
                s.full_idle_fraction(now),
            )
        };
        let (lat_on, idle_on) = run(IdlePolicy::AlwaysOn);
        let (lat_dw, idle_dw) = run(IdlePolicy::DreamWeaver {
            max_delay: 0.5,
            wake_latency: 0.01,
        });
        assert!(
            lat_dw > lat_on,
            "DreamWeaver must add latency: {lat_dw} vs {lat_on}"
        );
        assert!(
            idle_dw >= idle_on - 1e-9,
            "DreamWeaver must not reduce idleness: {idle_dw} vs {idle_on}"
        );
    }

    #[test]
    fn utilization_accounting() {
        let mut s = Server::new(2);
        s.arrive(job(1, 0.0, 1.0), Time::ZERO);
        s.sync(t(2.0));
        // One core busy for 1s out of 2 cores * 2s.
        assert!((s.average_utilization(t(2.0)) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn epoch_utilization_resets() {
        let mut s = Server::new(1);
        s.arrive(job(1, 0.0, 0.5), Time::ZERO);
        s.sync(t(1.0));
        let u1 = s.take_epoch_utilization(t(1.0));
        assert!((u1 - 0.5).abs() < 1e-9);
        s.sync(t(2.0));
        let u2 = s.take_epoch_utilization(t(2.0));
        assert!(u2.abs() < 1e-9, "second epoch idle, got {u2}");
    }

    #[test]
    fn energy_integration_uses_power_model() {
        let model = LinearPowerModel::new(100.0, 100.0, 5.0);
        let mut s = Server::new(1).with_power_model(model);
        s.arrive(job(1, 0.0, 1.0), Time::ZERO);
        s.sync(t(1.0)); // 1s fully busy: 200 J
        s.sync(t(2.0)); // 1s idle: 100 J
        assert!((s.energy_joules() - 300.0).abs() < 1e-6);
    }

    #[test]
    fn napping_server_uses_nap_power() {
        let model = LinearPowerModel::new(100.0, 100.0, 5.0);
        let mut s = Server::new(1)
            .with_power_model(model)
            .with_policy(IdlePolicy::PowerNap { wake_latency: 0.0 });
        s.sync(t(10.0));
        assert!((s.energy_joules() - 50.0).abs() < 1e-6);
    }

    #[test]
    fn next_event_none_when_quiescent() {
        let s = Server::new(2);
        assert_eq!(s.next_event(), None);
        let s = Server::new(2).with_policy(IdlePolicy::PowerNap { wake_latency: 0.1 });
        assert_eq!(s.next_event(), None);
    }

    #[test]
    #[should_panic(expected = "time cannot run backwards")]
    fn sync_rejects_time_travel() {
        let mut s = Server::new(1);
        s.sync(t(5.0));
        s.sync(t(4.0));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = Server::new(0);
    }

    #[test]
    fn work_conservation_under_load() {
        // Feed a burst; total busy core-seconds must equal total demand.
        let mut s = Server::new(3);
        let sizes = [0.3, 1.2, 0.7, 2.0, 0.1, 0.9, 1.5, 0.4];
        for (i, &size) in sizes.iter().enumerate() {
            s.arrive(job(i as u64, 0.0, size), Time::ZERO);
        }
        let mut finished = 0;
        let mut last = Time::ZERO;
        while let Some(eta) = s.next_event() {
            last = eta;
            finished += s.sync(eta).len();
        }
        assert_eq!(finished, sizes.len());
        let total: f64 = sizes.iter().sum();
        assert!((s.busy_core_seconds_total - total).abs() < 1e-6);
        assert!(s.average_utilization(last) <= 1.0);
    }

    #[test]
    fn fail_preempts_and_returns_lost_jobs() {
        let mut s = Server::new(2);
        s.arrive(job(1, 0.0, 1.0), Time::ZERO);
        s.arrive(job(2, 0.0, 2.0), Time::ZERO);
        s.arrive(job(3, 0.1, 1.0), t(0.1));
        let (finished, lost) = s.fail(t(0.5));
        assert!(finished.is_empty(), "nothing completes before 0.5");
        assert_eq!(lost.len(), 3, "all jobs preempted");
        // FCFS order preserved in the lost list.
        assert_eq!(lost[0].id(), JobId::new(1));
        assert!(s.is_failed());
        assert_eq!(s.outstanding(), 0);
        assert_eq!(s.next_event(), None, "no events while down");
    }

    #[test]
    fn completion_tied_with_failure_wins() {
        let mut s = Server::new(1);
        s.arrive(job(1, 0.0, 1.0), Time::ZERO);
        let (finished, lost) = s.fail(t(1.0));
        assert_eq!(
            finished.len(),
            1,
            "job finishing at the failure instant counts"
        );
        assert!(lost.is_empty());
    }

    #[test]
    fn failed_time_and_power_are_accounted() {
        let model = LinearPowerModel::new(100.0, 100.0, 5.0).with_failed_watts(20.0);
        let mut s = Server::new(1).with_power_model(model);
        s.fail(Time::ZERO);
        s.sync(t(10.0));
        assert!((s.failed_seconds() - 10.0).abs() < 1e-9);
        assert!((s.failed_fraction(t(10.0)) - 1.0).abs() < 1e-9);
        assert!(
            (s.energy_joules() - 200.0).abs() < 1e-6,
            "failed draw is 20 W"
        );
        s.repair(t(10.0));
        assert!(!s.is_failed());
        s.sync(t(11.0));
        // Awake idle again: 100 W.
        assert!((s.energy_joules() - 300.0).abs() < 1e-6);
    }

    #[test]
    fn repair_restores_service_and_sleep_policy() {
        let mut s = Server::new(1).with_policy(IdlePolicy::PowerNap { wake_latency: 0.0 });
        s.fail(t(1.0));
        s.repair(t(2.0));
        assert_eq!(
            s.state(),
            SleepState::Napping,
            "eager policy naps after repair"
        );
        s.arrive(job(1, 2.5, 0.5), t(2.5));
        let done = s.sync(t(3.0));
        assert_eq!(done.len(), 1);
        assert_eq!(s.completed_jobs(), 1);
    }

    #[test]
    fn cancel_job_removes_running_and_queued() {
        let mut s = Server::new(1);
        s.arrive(job(1, 0.0, 5.0), Time::ZERO);
        s.arrive(job(2, 0.0, 1.0), Time::ZERO);
        // Cancel the running job: the queued one takes the core.
        let (_, cancelled) = s.cancel_job(JobId::new(1), t(1.0));
        assert!(cancelled);
        assert_eq!(s.running_len(), 1);
        let done = s.sync(t(2.0));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, JobId::new(2));
        // Cancelling a finished job reports false.
        let (_, cancelled) = s.cancel_job(JobId::new(2), t(2.0));
        assert!(!cancelled);
    }

    #[test]
    fn cancel_job_collects_tied_completion() {
        let mut s = Server::new(1);
        s.arrive(job(1, 0.0, 1.0), Time::ZERO);
        // Timeout fires exactly when the job completes: the completion is
        // folded in and the cancel is a no-op.
        let (finished, cancelled) = s.cancel_job(JobId::new(1), t(1.0));
        assert_eq!(finished.len(), 1);
        assert!(!cancelled);
    }

    #[test]
    fn timeout_nap_waits_for_idle_timeout() {
        let policy = IdlePolicy::TimeoutNap {
            idle_timeout: 1.0,
            wake_latency: 0.1,
        };
        let mut s = Server::new(1).with_policy(policy);
        // Starts active (unlike PowerNap) with the idle clock running.
        assert_eq!(s.state(), SleepState::Active);
        // Before the timeout the server stays awake...
        s.sync(t(0.5));
        assert_eq!(s.state(), SleepState::Active);
        // ...and the timeout expiry is the server's next event.
        assert_eq!(s.next_event(), Some(t(1.0)));
        s.sync(t(1.0));
        assert_eq!(s.state(), SleepState::Napping);
    }

    #[test]
    fn timeout_nap_restarts_clock_after_work() {
        let policy = IdlePolicy::TimeoutNap {
            idle_timeout: 1.0,
            wake_latency: 0.0,
        };
        let mut s = Server::new(1).with_policy(policy);
        s.arrive(job(1, 0.5, 0.25), t(0.5)); // busy 0.5 -> 0.75
        let done = s.sync(t(0.75));
        assert_eq!(done.len(), 1);
        assert_eq!(s.state(), SleepState::Active);
        // Idle clock restarted at 0.75: nap at 1.75, not at 1.0.
        assert_eq!(s.next_event(), Some(t(1.75)));
        s.sync(t(1.75));
        assert_eq!(s.state(), SleepState::Napping);
    }

    #[test]
    fn timeout_nap_wakes_on_arrival_with_latency() {
        let policy = IdlePolicy::TimeoutNap {
            idle_timeout: 0.5,
            wake_latency: 0.2,
        };
        let mut s = Server::new(1).with_policy(policy);
        s.sync(t(0.5));
        assert_eq!(s.state(), SleepState::Napping);
        s.arrive(job(1, 2.0, 0.3), t(2.0));
        assert_eq!(s.state(), SleepState::Waking { until: t(2.2) });
        let done = s.sync(t(2.5));
        assert_eq!(done.len(), 1);
        assert!((done[0].waiting_time() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn timeout_nap_sleeps_less_than_powernap() {
        // Same bursty arrivals: the timeout policy should accumulate less
        // nap time (it hedges) but avoid some wake transitions.
        let arrivals: Vec<f64> = (0..20).map(|i| i as f64 * 1.0).collect();
        let run = |policy: IdlePolicy| -> f64 {
            let mut s = Server::new(1).with_policy(policy);
            for (id, &at) in arrivals.iter().enumerate() {
                s.arrive(job(id as u64, at, 0.1), t(at));
            }
            while let Some(eta) = s.next_event() {
                s.sync(eta);
                if s.outstanding() == 0 && !matches!(s.state(), SleepState::Active) {
                    break;
                }
                if s.outstanding() == 0 && s.next_event().is_none() {
                    break;
                }
            }
            let end = t(arrivals.last().unwrap() + 2.0);
            s.sync(end);
            s.nap_fraction(end)
        };
        let powernap = run(IdlePolicy::PowerNap { wake_latency: 0.01 });
        let timeout = run(IdlePolicy::TimeoutNap {
            idle_timeout: 0.4,
            wake_latency: 0.01,
        });
        assert!(
            powernap > timeout,
            "powernap {powernap} vs timeout {timeout}"
        );
        assert!(timeout > 0.0, "timeout policy must nap eventually");
    }

    /// The queued arrival path `arrive_into`'s direct start short-cuts:
    /// the task joins the queue and `evaluate_sleep` / `refill` place it.
    fn arrive_queued(s: &mut Server, job: Job, now: Time, finished: &mut Vec<FinishedJob>) {
        s.fold_to(now, finished);
        s.queue.push_back(Task {
            job,
            first_service: None,
            remaining: job.size(),
            delayed: 0.0,
        });
        s.evaluate_sleep(now);
        s.refill(now);
        s.refresh_next();
    }

    fn bits(f: &FinishedJob) -> [u64; 5] {
        [
            f.id.raw(),
            f.arrival.as_seconds().to_bits(),
            f.first_service.as_seconds().to_bits(),
            f.completion.as_seconds().to_bits(),
            f.size.to_bits(),
        ]
    }

    /// Feeds one random operation sequence to a server that arrives through
    /// `arrive_into` and to one that arrives through `arrive_queued`, and
    /// holds them to bit-equal completions, losses and next instants after
    /// every operation (`next_event` itself debug-asserts the cache against
    /// a recomputation). Returns how many arrivals started at once.
    fn direct_start_differential(policy: IdlePolicy, cores: usize, seed: u64, ops: usize) -> usize {
        let build = || {
            Server::new(cores)
                .with_policy(policy)
                .with_dvfs(DvfsModel::new(0.8))
                .with_power_model(LinearPowerModel::new(100.0, 100.0, 5.0))
        };
        let (mut a, mut b) = (build(), build());
        let mut rng = SimRng::from_seed(seed);
        let mut pick = |n: usize| (rng.raw_u64() % n as u64) as usize;
        // Few distinct gaps and sizes, zero among the gaps, so instants tie.
        let gaps = [0.0, 0.0, 0.01, 0.05, 0.1, 0.25];
        let sizes = [0.02, 0.05, 0.1, 0.2, 0.3];
        let (mut now, mut next_id, mut started) = (Time::ZERO, 0u64, 0usize);
        let (mut done_a, mut done_b) = (Vec::new(), Vec::new());
        for _ in 0..ops {
            now += gaps[pick(gaps.len())];
            match pick(20) {
                0..=7 if !a.is_failed() => {
                    let job = Job::new(JobId::new(next_id), now, sizes[pick(sizes.len())]);
                    next_id += 1;
                    a.arrive_into(job, now, &mut done_a);
                    arrive_queued(&mut b, job, now, &mut done_b);
                    if a.running.last().map(|t| t.job.id()) == Some(job.id()) {
                        started += 1;
                    }
                }
                8 | 9 => {
                    a.sync_into(now, &mut done_a);
                    b.sync_into(now, &mut done_b);
                }
                // Land exactly on the server's own next instant.
                10..=12 => {
                    if let Some(at) = a.next_event() {
                        now = now.max(at);
                    }
                    a.sync_into(now, &mut done_a);
                    b.sync_into(now, &mut done_b);
                }
                13 => {
                    let f = [0.5, 0.75, 1.0][pick(3)];
                    done_a.extend(a.set_frequency(f, now));
                    done_b.extend(b.set_frequency(f, now));
                }
                14..=16 if a.is_failed() => {
                    a.repair(now);
                    b.repair(now);
                }
                14 => {
                    let (fa, lost_a) = a.fail(now);
                    let (fb, lost_b) = b.fail(now);
                    done_a.extend(fa);
                    done_b.extend(fb);
                    assert_eq!(lost_a, lost_b);
                }
                15 if next_id > 0 => {
                    let id = JobId::new(next_id - 1 - pick(4.min(next_id as usize)) as u64);
                    let (fa, ca) = a.cancel_job(id, now);
                    let (fb, cb) = b.cancel_job(id, now);
                    done_a.extend(fa);
                    done_b.extend(fb);
                    assert_eq!(ca, cb);
                }
                _ => {}
            }
            assert_eq!(a.next_event(), b.next_event());
            assert_eq!(b.next_event(), b.compute_next());
            assert_eq!(a.state(), b.state());
            assert_eq!(
                (a.queue_len(), a.running_len()),
                (b.queue_len(), b.running_len())
            );
            assert_eq!(a.energy_joules().to_bits(), b.energy_joules().to_bits());
        }
        let (done_a, done_b): (Vec<_>, Vec<_>) = (
            done_a.iter().map(bits).collect(),
            done_b.iter().map(bits).collect(),
        );
        assert_eq!(done_a, done_b, "{policy:?} on {cores} cores");
        assert!(done_a.len() > ops / 10, "the sequence must complete jobs");
        started
    }

    #[test]
    fn direct_start_and_cached_next_instant_match_the_queued_path() {
        let policies = [
            IdlePolicy::AlwaysOn,
            IdlePolicy::PowerNap { wake_latency: 0.05 },
            IdlePolicy::TimeoutNap {
                idle_timeout: 0.2,
                wake_latency: 0.05,
            },
            IdlePolicy::DreamWeaver {
                max_delay: 0.3,
                wake_latency: 0.05,
            },
        ];
        let mut started = 0;
        for (p, policy) in policies.into_iter().enumerate() {
            for cores in [1, 2, 4] {
                let seed = 500 + 10 * p as u64 + cores as u64;
                let n = direct_start_differential(policy, cores, seed, 6_000);
                if policy == IdlePolicy::AlwaysOn {
                    assert!(n > 500, "{cores} cores: {n} arrivals started at once");
                }
                started += n;
            }
        }
        assert!(started > 5_000, "{started} arrivals started at once");
    }
}
