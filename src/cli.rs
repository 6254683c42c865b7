//! Shared plumbing for the `ppml-*` binaries: typed exit codes with a
//! one-line stderr reason, and the flag parsing both ends of a
//! distributed run (`ppml-coordinator`, `ppml-learner`) must do
//! identically — the `--flag value` parser, the synthetic dataset, the
//! ADMM config and the `--secagg` flag pair.
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

use ppml_core::{AdmmConfig, SecAggConfig, SecAggKind, TrainError};
use ppml_data::{synth, Dataset};

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

/// Parses `--flag value` pairs into a map. Any flag outside `known` is
/// an error naming it, so a mistyped or retired flag fails the run
/// instead of being silently ignored.
///
/// # Errors
///
/// A one-line usage message: a bare word, a flag with no value, or an
/// unknown flag.
pub fn parse_flags(args: &[String], known: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {flag}"))?;
        if !known.contains(&key) {
            return Err(format!("unknown flag --{key}"));
        }
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    Ok(map)
}

/// The value of `--key` parsed as `T`, or `default` when the flag is
/// absent.
///
/// # Errors
///
/// A one-line usage message naming the flag and its unparsable value.
pub fn numeric<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad value {v}")),
        None => Ok(default),
    }
}

/// Regenerates the synthetic dataset of a distributed run from
/// `(--dataset, --n, --data-seed)`. Every process regenerates it
/// locally, so no training data crosses the wire.
///
/// # Errors
///
/// A one-line usage message for a bad number or an unknown dataset.
pub fn dataset(flags: &BTreeMap<String, String>) -> Result<Dataset, String> {
    let n: usize = numeric(flags, "n", 96)?;
    let seed: u64 = numeric(flags, "data-seed", 5)?;
    let name = flags.get("dataset").map(String::as_str).unwrap_or("blobs");
    Ok(match name {
        "cancer" => synth::cancer_like(n, seed),
        "higgs" => synth::higgs_like(n, seed),
        "ocr" => synth::ocr_like(n, seed),
        "blobs" => synth::blobs(n, seed),
        "xor" => synth::xor_like(n, seed),
        other => return Err(format!("unknown dataset {other}")),
    })
}

/// The ADMM configuration from `--iters`, `--c`, `--rho`, `--seed` and
/// `--tol`.
///
/// # Errors
///
/// A one-line usage message naming the offending flag.
pub fn admm_config(flags: &BTreeMap<String, String>) -> Result<AdmmConfig, String> {
    let mut cfg = AdmmConfig::default()
        .with_max_iter(numeric(flags, "iters", 12)?)
        .with_c(numeric(flags, "c", 50.0)?)
        .with_rho(numeric(flags, "rho", 100.0)?)
        .with_seed(numeric(flags, "seed", 11)?);
    if let Some(tol) = flags.get("tol") {
        cfg = cfg.with_tol(tol.parse().map_err(|_| format!("--tol: bad value {tol}"))?);
    }
    Ok(cfg)
}

/// The `main` of a daemon: parses the process arguments against
/// `known`, runs `run` on the flags, and turns any failure into one
/// `bin: reason` stderr line (plus the `usage` block for usage errors,
/// since the fix is a different invocation) and its typed exit code.
pub fn daemon_main(
    bin: &str,
    usage: &str,
    known: &[&str],
    run: impl FnOnce(BTreeMap<String, String>) -> Result<(), CliError>,
) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_flags(&args, known)
        .map_err(CliError::usage)
        .and_then(run)
    {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            if e.code == EXIT_USAGE {
                eprintln!("{bin}: {}\n{usage}", e.msg);
            } else {
                eprintln!("{bin}: {}", e.msg);
            }
            e.exit_code()
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
