//! Tasks: the fundamental unit of work in a stochastic queuing simulation.

use bighouse_des::Time;

/// Unique identifier of a job within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u64);

impl JobId {
    /// Creates a job id from a raw counter value.
    #[must_use]
    pub fn new(raw: u64) -> Self {
        JobId(raw)
    }

    /// The raw counter value.
    #[must_use]
    pub fn raw(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// A task awaiting or receiving service.
///
/// `size` is the job's service demand in seconds *at nominal speed*
/// (frequency factor 1.0); DVFS slowdowns stretch the wall-clock time the
/// demand takes, not the demand itself.
///
/// # Examples
///
/// ```
/// use bighouse_des::Time;
/// use bighouse_models::{Job, JobId};
///
/// let job = Job::new(JobId::new(1), Time::from_seconds(0.5), 0.0042);
/// assert_eq!(job.size(), 0.0042);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    id: JobId,
    arrival: Time,
    size: f64,
}

impl Job {
    /// Creates a job arriving at `arrival` with service demand `size`
    /// seconds.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not finite and positive.
    #[must_use]
    pub fn new(id: JobId, arrival: Time, size: f64) -> Self {
        assert!(
            size.is_finite() && size > 0.0,
            "job size must be finite and positive, got {size}"
        );
        Job { id, arrival, size }
    }

    /// The job's identifier.
    #[must_use]
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Arrival timestamp.
    #[must_use]
    pub fn arrival(&self) -> Time {
        self.arrival
    }

    /// Service demand in seconds at nominal speed.
    #[must_use]
    pub fn size(&self) -> f64 {
        self.size
    }
}

/// The record emitted when a job completes service — the raw material for
/// every per-task output metric (§2.3: "when a task is completed, its
/// response time can be recorded and then aggregated").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FinishedJob {
    /// The job's identifier.
    pub id: JobId,
    /// When the job arrived at the server.
    pub arrival: Time,
    /// When the job first received service.
    pub first_service: Time,
    /// When the job completed.
    pub completion: Time,
    /// Service demand (seconds at nominal speed).
    pub size: f64,
}

impl FinishedJob {
    /// Total sojourn: completion − arrival.
    #[must_use]
    pub fn response_time(&self) -> f64 {
        self.completion - self.arrival
    }

    /// Queueing delay before first service: first_service − arrival.
    #[must_use]
    pub fn waiting_time(&self) -> f64 {
        self.first_service - self.arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_accessors() {
        let j = Job::new(JobId::new(7), Time::from_seconds(1.0), 0.25);
        assert_eq!(j.id().raw(), 7);
        assert_eq!(j.arrival(), Time::from_seconds(1.0));
        assert_eq!(j.size(), 0.25);
        assert_eq!(j.id().to_string(), "job#7");
    }

    #[test]
    #[should_panic(expected = "job size must be finite and positive")]
    fn rejects_zero_size() {
        let _ = Job::new(JobId::new(1), Time::ZERO, 0.0);
    }

    #[test]
    fn finished_job_derived_times() {
        let f = FinishedJob {
            id: JobId::new(1),
            arrival: Time::from_seconds(1.0),
            first_service: Time::from_seconds(1.5),
            completion: Time::from_seconds(2.25),
            size: 0.75,
        };
        assert_eq!(f.response_time(), 1.25);
        assert_eq!(f.waiting_time(), 0.5);
    }
}
