//! Typed simulation errors.

/// Error raised while building or running a simulation.
///
/// Replaces the panicking paths on the simulation hot path: invalid
/// configurations, a drained calendar, a parallel run losing every slave,
/// and corrupt checkpoints or frames are all reported to the caller
/// instead of aborting the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The experiment configuration is internally inconsistent (e.g. a
    /// metric requiring a model that is not configured).
    InvalidConfig(String),
    /// The event calendar drained before the named phase completed —
    /// cannot happen with open arrival processes, so it indicates a
    /// configuration or model error.
    CalendarDrained {
        /// The phase that was still running ("calibration", …).
        phase: &'static str,
    },
    /// Every slave of a parallel run died before delivering results.
    NoSurvivingSlaves {
        /// How many slaves panicked.
        panicked: usize,
    },
    /// A checkpoint could not be written, read, or applied.
    Checkpoint(String),
    /// A filesystem operation failed (short write, ENOSPC, permissions…).
    /// Carries the offending path so the operator knows *which* file to
    /// fix, plus a rendering of the OS error. Rendered strings (rather
    /// than `std::io::Error`) keep `SimError` cloneable and comparable.
    Io {
        /// The operation that failed ("create", "write", "fsync", …).
        op: &'static str,
        /// The path the operation was addressing.
        path: String,
        /// A rendering of the underlying OS error.
        cause: String,
    },
    /// A frame on the master↔slave IPC fabric was malformed: truncated
    /// mid-frame, failed its FNV-1a checksum, carried a foreign magic or
    /// format version, oversized its declared length, or would not
    /// deserialize.
    /// Corruption on the pipe is reported as data, never as a panic.
    Frame {
        /// What the decoder rejected ("truncated header", "checksum
        /// mismatch", …).
        detail: String,
    },
    /// A slave child process failed outside the frame protocol: it could
    /// not be spawned, exited with a non-zero status, or was killed by a
    /// signal before delivering its final shard.
    SlaveProcess {
        /// Which slave (index into the run's slave set).
        slave: usize,
        /// A rendering of what happened ("exit code 70", "signal", …).
        detail: String,
    },
    /// A caller-supplied parameter is outside its legal range. Used by
    /// builders that validate instead of asserting, so malformed input
    /// (e.g. a hostile experiment spec) surfaces as an error, not a panic.
    InvalidParameter {
        /// Which parameter was rejected.
        name: &'static str,
        /// The offending value, rendered (NaN/∞ survive this way).
        value: String,
        /// What the parameter must satisfy.
        requirement: &'static str,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidConfig(msg) => write!(f, "invalid experiment config: {msg}"),
            SimError::CalendarDrained { phase } => {
                write!(f, "event calendar drained before {phase} completed")
            }
            SimError::NoSurvivingSlaves { panicked } => {
                write!(
                    f,
                    "all {panicked} parallel slaves panicked; no results to merge"
                )
            }
            SimError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            SimError::Io { op, path, cause } => {
                write!(f, "I/O error: cannot {op} {path}: {cause}")
            }
            SimError::Frame { detail } => {
                write!(f, "frame protocol error: {detail}")
            }
            SimError::SlaveProcess { slave, detail } => {
                write!(f, "slave process {slave} failed: {detail}")
            }
            SimError::InvalidParameter {
                name,
                value,
                requirement,
            } => {
                write!(f, "invalid parameter {name}={value}: must be {requirement}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(SimError::InvalidConfig("x".into())
            .to_string()
            .contains("invalid"));
        assert!(SimError::CalendarDrained {
            phase: "calibration"
        }
        .to_string()
        .contains("calibration"));
        assert!(SimError::NoSurvivingSlaves { panicked: 4 }
            .to_string()
            .contains('4'));
        assert!(SimError::Checkpoint("bad magic".into())
            .to_string()
            .contains("bad magic"));
        let io = SimError::Io {
            op: "write",
            path: "/ckpt/bighouse.ckpt.tmp".into(),
            cause: "No space left on device (os error 28)".into(),
        };
        assert!(io.to_string().contains("bighouse.ckpt.tmp"));
        assert!(io.to_string().contains("No space left"));
        let frame = SimError::Frame {
            detail: "checksum mismatch: stored 1 computed 2".into(),
        };
        assert!(frame.to_string().contains("checksum"));
        let proc = SimError::SlaveProcess {
            slave: 3,
            detail: "killed by signal".into(),
        };
        assert!(proc.to_string().contains('3'));
        assert!(proc.to_string().contains("signal"));
        let param = SimError::InvalidParameter {
            name: "sweep.entries",
            value: "NaN".into(),
            requirement: "positive and finite",
        };
        assert!(param.to_string().contains("sweep.entries"));
        assert!(param.to_string().contains("NaN"));
    }
}
