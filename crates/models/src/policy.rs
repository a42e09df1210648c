//! Idle low-power policies.

use bighouse_des::Time;

/// How a server exploits idleness, selecting among the behaviors of the
/// paper's case studies.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum IdlePolicy {
    /// The server never sleeps (baseline queuing server).
    #[default]
    AlwaysOn,
    /// PowerNap-style (paper ref. 23): enter a nap state whenever **no**
    /// work is present; wake on arrival, paying `wake_latency` seconds
    /// before service resumes.
    PowerNap {
        /// Transition latency from nap back to active, in seconds.
        wake_latency: f64,
    },
    /// Classic ACPI-style timeout policy: nap only after the server has
    /// been completely idle for `idle_timeout` seconds (hedging against
    /// immediately paying a wake penalty on bursty traffic); wake on
    /// arrival with `wake_latency`. The §2.1 "ACPI power modes" extension
    /// point, realized as a policy.
    TimeoutNap {
        /// Continuous idle time required before napping, in seconds.
        idle_timeout: f64,
        /// Transition latency from nap back to active, in seconds.
        wake_latency: f64,
    },
    /// DreamWeaver (paper ref. 26, §3.2): "preempt execution and enter
    /// deep sleep if there are fewer outstanding tasks than cores. However,
    /// if any task is delayed by more than a pre-specified threshold, the
    /// system wakes up." Trades per-request latency for coalesced
    /// full-system idleness.
    DreamWeaver {
        /// Maximum per-task delay before a forced wake, in seconds — the
        /// tuning knob swept in Figure 6.
        max_delay: f64,
        /// Transition latency from nap back to active, in seconds.
        wake_latency: f64,
    },
}

bighouse_json::json_enum!(IdlePolicy {
    AlwaysOn,
    PowerNap { wake_latency },
    TimeoutNap { idle_timeout, wake_latency },
    DreamWeaver { max_delay, wake_latency },
});

impl IdlePolicy {
    /// The wake transition latency (0 for [`IdlePolicy::AlwaysOn`]).
    #[must_use]
    pub fn wake_latency(&self) -> f64 {
        match self {
            IdlePolicy::AlwaysOn => 0.0,
            IdlePolicy::PowerNap { wake_latency }
            | IdlePolicy::TimeoutNap { wake_latency, .. }
            | IdlePolicy::DreamWeaver { wake_latency, .. } => *wake_latency,
        }
    }

    /// Checks the policy's parameters: every latency and threshold must lie
    /// in `[0, Time::MAX_SPAN]`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field as
    /// `idle_policy.<field>`.
    pub fn validate(&self) -> Result<(), String> {
        let fields: &[(&str, f64)] = match *self {
            IdlePolicy::AlwaysOn => &[],
            IdlePolicy::PowerNap { wake_latency } => &[("wake_latency", wake_latency)],
            IdlePolicy::TimeoutNap {
                idle_timeout,
                wake_latency,
            } => &[
                ("idle_timeout", idle_timeout),
                ("wake_latency", wake_latency),
            ],
            IdlePolicy::DreamWeaver {
                max_delay,
                wake_latency,
            } => &[("max_delay", max_delay), ("wake_latency", wake_latency)],
        };
        match fields
            .iter()
            .find(|(_, v)| !(0.0..=Time::MAX_SPAN).contains(v))
        {
            Some((name, v)) => Err(format!(
                "idle_policy.{name} = {v:?}: must be in [0, {:e}] seconds",
                Time::MAX_SPAN
            )),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_latency_accessor() {
        assert_eq!(IdlePolicy::AlwaysOn.wake_latency(), 0.0);
        assert_eq!(
            IdlePolicy::PowerNap {
                wake_latency: 0.005
            }
            .wake_latency(),
            0.005
        );
    }

    #[test]
    fn validate_rejects_negative_latency() {
        assert_eq!(
            IdlePolicy::PowerNap { wake_latency: -1.0 }.validate(),
            Err("idle_policy.wake_latency = -1.0: must be in [0, 1e12] seconds".into())
        );
        let nan = IdlePolicy::DreamWeaver {
            max_delay: f64::NAN,
            wake_latency: 0.001,
        };
        assert!(nan
            .validate()
            .unwrap_err()
            .starts_with("idle_policy.max_delay = NaN"));
        let timeout = IdlePolicy::TimeoutNap {
            idle_timeout: 0.5,
            wake_latency: f64::INFINITY,
        };
        assert!(timeout
            .validate()
            .unwrap_err()
            .starts_with("idle_policy.wake_latency"));
        assert_eq!(IdlePolicy::AlwaysOn.validate(), Ok(()));
        // `Display` would spell f64::MAX as a 309-digit integer.
        assert_eq!(
            IdlePolicy::PowerNap {
                wake_latency: f64::MAX
            }
            .validate(),
            Err(
                "idle_policy.wake_latency = 1.7976931348623157e308: must be in [0, 1e12] seconds"
                    .into()
            )
        );
    }
}
