//! Trace replay (§2.2): a [`Trace`] as the cluster's arrival-and-size
//! source. Installed only by [`ClusterSim::replaying`]; it files one
//! [`ClusterEvent::TraceArrival`] at a time, at the entry's own instant, and
//! keeps every completion's response and wait in place of the statistics
//! engine — a replay's answer is the exact sample, not an estimate.

use bighouse_des::{Pending, Time};
use bighouse_models::{Job, JobId};
use bighouse_stats::RunningStats;

use super::{ClusterEvent, ClusterSim};
use crate::config::ExperimentConfig;
use crate::error::SimError;
use crate::trace::Trace;

/// The replay component: the trace and what its requests measured.
#[derive(Debug)]
pub(super) struct Replay {
    trace: Trace,
    responses: Vec<f64>,
    /// Every request's wait, zero waits included.
    waiting: RunningStats,
}

impl Replay {
    /// The instant the `index`-th request arrives.
    pub(super) fn arrival(&self, index: usize) -> Time {
        Time::from_seconds(self.trace.entries()[index].arrival)
    }

    pub(super) fn keep(&mut self, response: f64, wait: f64) {
        self.responses.push(response);
        self.waiting.push(wait);
    }
}

impl ClusterSim {
    /// Builds a cluster that replays `trace` through `config`'s servers
    /// and arrival mode in place of the workload's arrival draws. It does
    /// not stop on convergence: it runs until the trace has drained.
    pub(crate) fn replaying(
        config: ExperimentConfig,
        trace: &Trace,
        seed: u64,
    ) -> Result<Self, SimError> {
        let mut sim = Self::build(config, seed)?;
        sim.replay = Some(Box::new(Replay {
            trace: trace.clone(),
            responses: Vec::with_capacity(trace.len()),
            waiting: RunningStats::new(),
        }));
        sim.stop_on_convergence = false;
        Ok(sim)
    }

    /// The kept responses, in completion order, and the waits.
    ///
    /// # Panics
    ///
    /// Panics unless built by [`ClusterSim::replaying`].
    pub(crate) fn into_replay(self) -> (Vec<f64>, RunningStats) {
        let replay = self.replay.expect("built by ClusterSim::replaying");
        (replay.responses, replay.waiting)
    }

    /// The `index`-th request arrives: file the next one at its own
    /// instant — absolute, because `now + gap` need not land on it bit for
    /// bit — then route this one and place it at its traced size.
    #[inline(never)]
    pub(super) fn trace_arrival(
        &mut self,
        index: usize,
        now: Time,
        cal: &mut impl Pending<ClusterEvent>,
    ) {
        let replay = self
            .replay
            .as_deref()
            .expect("trace arrivals are filed only by a replay");
        let size = replay.trace.entries()[index].size;
        if index + 1 < replay.trace.len() {
            let next = replay.arrival(index + 1);
            cal.schedule(next, ClusterEvent::TraceArrival { index: index + 1 });
        }
        let servers = &self.servers;
        let server = self.balancer.as_mut().map_or(0, |b| {
            b.pick_by(|i| servers[i].outstanding(), &mut self.rng)
        });
        let job = Job::new(JobId::new(self.job_counter), now, size);
        self.job_counter += 1;
        self.place(server, job, now, cal);
    }
}
