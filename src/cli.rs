//! Shared plumbing for the `ppml-*` binaries: typed exit codes with a
//! one-line stderr reason, and the `--secagg` flag pair both ends of a
//! distributed run must parse identically.
//!
//! Scripts and CI drive these daemons and need to distinguish *why* a
//! process died without parsing prose — a learner that exited because the
//! whole run lost quorum is a different signal than one that hit a bad
//! flag. The contract, shared by `ppml-coordinator` and `ppml-learner`:
//!
//! | code | meaning |
//! |---|---|
//! | 0 | success |
//! | 1 | anything not covered below (solver failures, internal errors) |
//! | 2 | usage or configuration error (bad flag, bad dataset, bad range) |
//! | 3 | I/O or checkpoint error (unreadable/incompatible snapshot, sink) |
//! | 4 | transport or protocol error (timeout, dead peer, bad frame) |
//! | 5 | the run lost quorum — every learner was declared dropped |
//!
//! Exactly one `binary-name: reason` line is printed to stderr on any
//! nonzero exit (usage errors additionally print the usage block).

use std::collections::BTreeMap;
use std::process::ExitCode;

use ppml_core::{SecAggConfig, SecAggKind, TrainError};

/// Usage or configuration error.
pub const EXIT_USAGE: u8 = 2;
/// I/O or checkpoint error.
pub const EXIT_IO: u8 = 3;
/// Transport or protocol error.
pub const EXIT_TRANSPORT: u8 = 4;
/// The run lost quorum (every learner dropped).
pub const EXIT_DROPPED: u8 = 5;

/// A failure carrying the exit code it should terminate the process with
/// and the one-line reason to print on stderr.
#[derive(Debug)]
pub struct CliError {
    /// Process exit code, per the table in the module docs.
    pub code: u8,
    /// One-line human reason.
    pub msg: String,
}

impl CliError {
    /// Usage/configuration error (exit 2).
    pub fn usage(msg: impl Into<String>) -> Self {
        Self {
            code: EXIT_USAGE,
            msg: msg.into(),
        }
    }

    /// I/O or checkpoint error (exit 3).
    pub fn io(msg: impl Into<String>) -> Self {
        Self {
            code: EXIT_IO,
            msg: msg.into(),
        }
    }

    /// Transport or protocol error (exit 4).
    pub fn transport(msg: impl Into<String>) -> Self {
        Self {
            code: EXIT_TRANSPORT,
            msg: msg.into(),
        }
    }

    /// The exit code as [`ExitCode`].
    pub fn exit_code(&self) -> ExitCode {
        ExitCode::from(self.code)
    }
}

impl From<TrainError> for CliError {
    fn from(e: TrainError) -> Self {
        let code = match &e {
            TrainError::BadConfig { .. } | TrainError::BadPartition { .. } => EXIT_USAGE,
            TrainError::Checkpoint { .. } => EXIT_IO,
            TrainError::Transport(_) | TrainError::Protocol { .. } => EXIT_TRANSPORT,
            TrainError::Dropped { .. } => EXIT_DROPPED,
            _ => 1,
        };
        Self {
            code,
            msg: e.to_string(),
        }
    }
}

/// Secure-aggregation backend selection from `--secagg` and
/// `--secagg-threshold` — shared by `ppml-coordinator` and
/// `ppml-learner`, whose choices must match.
///
/// # Errors
///
/// A one-line usage message naming the offending flag.
pub fn secagg_config(flags: &BTreeMap<String, String>) -> Result<SecAggConfig, String> {
    let kind = match flags.get("secagg") {
        Some(v) => v
            .parse::<SecAggKind>()
            .map_err(|e| format!("--secagg: {e}"))?,
        None => SecAggKind::Pairwise,
    };
    let mut secagg = SecAggConfig::new(kind);
    if let Some(t) = flags.get("secagg-threshold") {
        secagg = secagg.with_threshold(
            t.parse()
                .map_err(|_| format!("--secagg-threshold: bad value {t}"))?,
        );
    }
    Ok(secagg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_errors_map_to_the_documented_exit_codes() {
        let cases: Vec<(TrainError, u8)> = vec![
            (
                TrainError::BadConfig {
                    reason: "rho".into(),
                },
                EXIT_USAGE,
            ),
            (
                TrainError::BadPartition {
                    reason: "empty".into(),
                },
                EXIT_USAGE,
            ),
            (
                TrainError::Checkpoint {
                    reason: "crc".into(),
                },
                EXIT_IO,
            ),
            (
                TrainError::Transport(ppml_transport::TransportError::Timeout),
                EXIT_TRANSPORT,
            ),
            (
                TrainError::Protocol {
                    reason: "bad frame".into(),
                },
                EXIT_TRANSPORT,
            ),
            (TrainError::Dropped { parties: vec![0] }, EXIT_DROPPED),
        ];
        for (err, want) in cases {
            let cli = CliError::from(err);
            assert_eq!(cli.code, want, "{}", cli.msg);
            assert!(!cli.msg.is_empty());
        }
    }

    #[test]
    fn uncategorized_errors_fall_back_to_one() {
        let cli = CliError::from(TrainError::Qp(ppml_qp::QpError::InvalidBounds {
            lo: 1.0,
            hi: 0.0,
        }));
        assert_eq!(cli.code, 1);
    }

    #[test]
    fn constructors_carry_their_codes() {
        assert_eq!(CliError::usage("x").code, EXIT_USAGE);
        assert_eq!(CliError::io("x").code, EXIT_IO);
        assert_eq!(CliError::transport("x").code, EXIT_TRANSPORT);
    }
}
