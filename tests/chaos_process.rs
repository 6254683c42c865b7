//! OS-process chaos drills: real `ppml-coordinator` / `ppml-learner`
//! children over loopback TCP, with actual `SIGKILL`s instead of
//! fault-plan frame drops.
//!
//! The in-process sweeps in `chaos_sweep.rs` prove the protocol math
//! (exact-reference equality under seeded fault schedules); these tests
//! prove the *operational* story end to end:
//!
//! - kill the coordinator process mid-run and restart it with
//!   `--resume` on the same port — the final model is byte-identical to
//!   an uninterrupted run, and the telemetry tells the resume story;
//! - kill a learner (via scripted defection) and bring a fresh process
//!   back with `--rejoin true` — the coordinator drops it, re-keys, then
//!   re-admits it, and `ppml-trace` renders the rejoin story;
//! - SIGKILL a learner of a 4-party `--secagg shamir` run mid-collect —
//!   the round still completes from the survivors' shares, with no
//!   re-key round anywhere in the telemetry;
//! - every documented exit code (2 usage, 3 I/O/checkpoint,
//!   4 transport, 5 lost quorum) is produced by a real invocation.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ppml::core::jobs::{train_linear_on_cluster, ClusterTuning};
use ppml::core::{AdmmConfig, Checkpoint};
use ppml::data::{synth, Partition};
use ppml::trace::{Stream, Timeline};

const COORDINATOR: &str = env!("CARGO_BIN_EXE_ppml-coordinator");
const LEARNER: &str = env!("CARGO_BIN_EXE_ppml-learner");
const TRACE: &str = env!("CARGO_BIN_EXE_ppml-trace");

/// Per-test scratch directory. `PPML_CHAOS_DIR=BASE` pins it to
/// `BASE/<test>` and keeps it after the test, so CI can feed the
/// telemetry files to `ppml-trace` in a follow-up step; otherwise a
/// pid-unique temp dir is used and removed at the end.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = match std::env::var_os("PPML_CHAOS_DIR") {
        Some(base) => PathBuf::from(base).join(test),
        None => std::env::temp_dir().join(format!("ppml_chaos_{test}_{}", std::process::id())),
    };
    cleanup(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn cleanup(dir: &PathBuf) {
    if std::env::var_os("PPML_CHAOS_DIR").is_none() {
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// Spawns a coordinator or learner child. `PPML_SECAGG=pairwise|shamir|paillier`
/// appends `--secagg` to every child so CI can run the whole drill
/// matrix against any aggregation backend, except for drills that pin
/// a specific backend themselves (the SIGKILL drill below needs a pairwise
/// reference next to a shamir run).
fn spawn(bin: &str, argv: &[String]) -> Child {
    let mut argv = argv.to_vec();
    if let Ok(backend) = std::env::var("PPML_SECAGG") {
        if !backend.is_empty() && !argv.iter().any(|a| a == "--secagg") {
            argv.extend(["--secagg".to_string(), backend]);
        }
    }
    Command::new(bin)
        .args(&argv)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn child")
}

/// Reads the child's stdout line by line until the `listening on ADDR`
/// banner, then hands the remainder of the stream to a drain thread.
/// Returns `None` on EOF before the banner (e.g. the bind failed and
/// the process is exiting) — callers retry or inspect the exit status.
fn await_listening(child: &mut Child) -> Option<(String, Vec<String>, JoinHandle<String>)> {
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut reader = BufReader::new(stdout);
    let mut pre = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read child stdout") == 0 {
            return None;
        }
        let line = line.trim_end().to_string();
        if let Some(addr) = line.strip_prefix("listening on ") {
            let addr = addr.to_string();
            let drain = thread::spawn(move || {
                let mut rest = String::new();
                reader
                    .read_to_string(&mut rest)
                    .expect("drain child stdout");
                rest
            });
            return Some((addr, pre, drain));
        }
        pre.push(line);
    }
}

/// Waits for a coordinator whose banner was already consumed, joining
/// the stdout drain thread and slurping stderr. Returns
/// `(success, stdout_after_banner, stderr)`.
fn finish(mut child: Child, drain: JoinHandle<String>) -> (bool, String, String) {
    let status = child.wait().expect("wait for child");
    let stdout = drain.join().expect("join drain thread");
    let mut stderr = String::new();
    if let Some(mut pipe) = child.stderr.take() {
        pipe.read_to_string(&mut stderr).ok();
    }
    (status.success(), stdout, stderr)
}

/// The model a coordinator (`model: `) or learner (`consensus model: `)
/// printed: `LinearSvm::to_text` is several lines (header, bias,
/// weights), closed by a blank line.
fn model_text(stdout: &str) -> String {
    let at = stdout
        .find("model: ")
        .unwrap_or_else(|| panic!("no model line in:\n{stdout}"));
    let text = &stdout[at + "model: ".len()..];
    text[..text.find("\n\n").map_or(text.len(), |end| end + 1)].to_string()
}

fn rounds_completed(coordinator_stdout: &str) -> u64 {
    coordinator_stdout
        .lines()
        .find_map(|l| l.strip_prefix("converged in "))
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no convergence line in:\n{coordinator_stdout}"))
        .parse()
        .expect("round count")
}

/// Kill the coordinator process partway through a checkpointed run,
/// restart it with `--resume` on the same port, and demand the exact
/// model an uninterrupted run produces. The learners are never touched:
/// they ride out the outage on their patience budget and redial the
/// reborn coordinator via heartbeat nudges.
#[test]
fn coordinator_crash_and_resume_across_processes() {
    let dir = scratch_dir("resume");
    let ckpt = dir.join("run.ckpt");
    let telemetry_b = dir.join("coordinator-resumed.jsonl");
    // A dataset big enough that 120 rounds take whole seconds: the
    // checkpoint poll below must observe an early round long before the
    // run can finish. Recovery lives in the round driver, so a
    // PPML_SECAGG override applies to this drill like to any other.
    let shared = [
        "--dataset",
        "blobs",
        "--n",
        "512",
        "--data-seed",
        "5",
        "--iters",
        "120",
        "--seed",
        "11",
        "--tol",
        "1e-12",
    ];
    let coord_flags = |extra: &[&str]| {
        let mut v = args(&["--learners", "3", "--round-timeout", "20"]);
        v.extend(args(&shared));
        v.extend(args(extra));
        v
    };
    let learner_flags = |party: usize, addr: &str| {
        let mut v = args(&[
            "--party",
            &party.to_string(),
            "--learners",
            "3",
            "--coordinator",
            addr,
            "--patience",
            "60",
        ]);
        v.extend(args(&shared));
        v
    };

    // Reference: the same run, never interrupted (checkpointing only
    // adds snapshot writes, so it is omitted here).
    let mut reference = spawn(COORDINATOR, &coord_flags(&[]));
    let (ref_addr, _, ref_drain) = await_listening(&mut reference).expect("reference banner");
    let ref_learners: Vec<Child> = (0..3)
        .map(|p| spawn(LEARNER, &learner_flags(p, &ref_addr)))
        .collect();
    let (ok, ref_stdout, ref_stderr) = finish(reference, ref_drain);
    assert!(ok, "reference run failed:\n{ref_stderr}");
    let want_model = model_text(&ref_stdout);
    let total_rounds = rounds_completed(&ref_stdout);
    for child in ref_learners {
        let out = child.wait_with_output().expect("reference learner");
        assert!(out.status.success());
    }

    // Real processes == the cluster job, bit for bit: the same
    // partition, seed and iteration cap on the in-process `Cluster`
    // (the binaries' defaults are c 50, rho 100, part-seed 1).
    let parts = Partition::horizontal(&synth::blobs(512, 5), 3, 1).expect("partition");
    let cfg = AdmmConfig::default()
        .with_max_iter(120)
        .with_c(50.0)
        .with_rho(100.0)
        .with_seed(11)
        .with_tol(1e-12);
    let (on_cluster, _) =
        train_linear_on_cluster(&parts, &cfg, None, ClusterTuning::default()).expect("cluster run");
    assert_eq!(on_cluster.model.to_text(), want_model);

    // Crash run, act one: checkpoint every round, then die by SIGKILL as
    // soon as the snapshot shows round 2 was accepted.
    let mut doomed = spawn(
        COORDINATOR,
        &coord_flags(&["--checkpoint", ckpt.to_str().expect("ckpt path")]),
    );
    let (addr, _, doomed_drain) = await_listening(&mut doomed).expect("doomed banner");
    let learners: Vec<Child> = (0..3)
        .map(|p| spawn(LEARNER, &learner_flags(p, &addr)))
        .collect();
    let poll_deadline = Instant::now() + Duration::from_secs(60);
    let killed_at = loop {
        assert!(
            Instant::now() < poll_deadline,
            "checkpoint never reached round 2"
        );
        if let Ok(snapshot) = Checkpoint::load(&ckpt) {
            if snapshot.next_round >= 2 {
                break snapshot.next_round;
            }
        }
        thread::sleep(Duration::from_millis(1));
    };
    doomed.kill().expect("kill coordinator");
    let (ok, _, _) = finish(doomed, doomed_drain);
    assert!(!ok, "the doomed coordinator must die by signal");
    assert!(
        killed_at < total_rounds,
        "run outpaced the checkpoint poll: killed at round {killed_at} of {total_rounds}"
    );

    // Act two: resurrect on the SAME port (the learners have it baked
    // in). The old accepted sockets may hold the port briefly, so retry
    // bind failures (typed exit 4) until the listener comes up.
    let port = addr.rsplit(':').next().expect("port in addr");
    let mut revived = None;
    for _ in 0..50 {
        let mut child = spawn(
            COORDINATOR,
            &coord_flags(&[
                "--port",
                port,
                "--checkpoint",
                ckpt.to_str().expect("ckpt path"),
                "--resume",
                ckpt.to_str().expect("ckpt path"),
                "--telemetry",
                telemetry_b.to_str().expect("telemetry path"),
            ]),
        );
        match await_listening(&mut child) {
            Some((resumed_addr, pre, drain)) => {
                assert_eq!(resumed_addr, addr, "resume must re-bind the original port");
                assert!(
                    pre.iter().any(|l| l.starts_with("resuming from ")),
                    "missing resume banner in {pre:?}"
                );
                revived = Some((child, drain));
                break;
            }
            None => {
                let status = child.wait().expect("failed resume attempt");
                assert_eq!(
                    status.code(),
                    Some(4),
                    "resume attempt died with a non-transport error"
                );
                thread::sleep(Duration::from_millis(300));
            }
        }
    }
    let (revived, drain) = revived.expect("resume coordinator never bound the port");
    let (ok, stdout, stderr) = finish(revived, drain);
    assert!(ok, "resumed run failed:\n{stderr}");

    // Bit-identical model, no dropouts, and every learner — which lived
    // through the crash — agrees with it.
    assert_eq!(model_text(&stdout), want_model);
    assert!(
        !stdout.contains("dropped learners"),
        "resume must not drop anyone:\n{stdout}"
    );
    for child in learners {
        let out = child.wait_with_output().expect("crash-run learner");
        assert!(out.status.success(), "learner died during the outage");
        let text = String::from_utf8(out.stdout).expect("utf-8 learner stdout");
        assert_eq!(model_text(&text), want_model);
    }

    // The resumed incarnation's telemetry tells the story on its own:
    // one resume, a checkpoint per accepted round, and a rendered
    // `resume story:` line.
    let timeline = Timeline::correlate(vec![
        Stream::load(&telemetry_b).expect("resumed coordinator stream")
    ]);
    let (checkpoints, resumes, rejoins) = timeline.recovery_counts();
    assert_eq!(resumes, 1);
    assert_eq!(rejoins, 0);
    assert!(
        checkpoints as u64 >= total_rounds - killed_at,
        "expected a snapshot per resumed round, got {checkpoints}"
    );
    let report = timeline.render();
    assert!(
        report.contains("resume story: coordinator re-entered at round"),
        "{report}"
    );
    assert!(
        report.contains("rounds:") && report.contains("complete"),
        "{report}"
    );

    cleanup(&dir);
}

/// Kill a learner process (scripted defection runs out its patience,
/// exit code 4), then bring a fresh `--rejoin true` process back while
/// the coordinator is still stalled on the dead learner's round. The
/// coordinator drops it, re-keys over the survivors, re-admits it at
/// the next round boundary, and `ppml-trace` renders the rejoin story.
#[test]
fn learner_death_and_rejoin_across_processes() {
    let dir = scratch_dir("rejoin");
    let coord_jsonl = dir.join("coordinator.jsonl");
    let shared = [
        "--n",
        "96",
        "--data-seed",
        "5",
        "--iters",
        "8",
        "--seed",
        "11",
    ];
    let learner_flags = |party: usize, addr: &str, extra: &[&str]| {
        let mut v = args(&[
            "--party",
            &party.to_string(),
            "--learners",
            "3",
            "--coordinator",
            addr,
        ]);
        v.extend(args(&shared));
        v.extend(args(extra));
        v
    };

    let mut coordinator = {
        let mut v = args(&[
            "--learners",
            "3",
            "--round-timeout",
            "6",
            "--telemetry",
            coord_jsonl.to_str().expect("telemetry path"),
        ]);
        v.extend(args(&shared));
        spawn(COORDINATOR, &v)
    };
    let (addr, _, drain) = await_listening(&mut coordinator).expect("coordinator banner");

    let survivors: Vec<Child> = [0usize, 2]
        .iter()
        .map(|&p| spawn(LEARNER, &learner_flags(p, &addr, &["--patience", "60"])))
        .collect();
    // Party 1 plays round 0, then goes silent; its own 2s patience kills
    // the process long before the coordinator's 6s round deadline fires,
    // leaving a wide window to start the replacement.
    let victim = spawn(
        LEARNER,
        &learner_flags(1, &addr, &["--defect-after", "1", "--patience", "2"]),
    );
    let out = victim.wait_with_output().expect("victim learner");
    assert_eq!(
        out.status.code(),
        Some(4),
        "the defector must die with the typed transport code"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("ppml-learner:"),
        "missing one-line stderr reason"
    );

    // The coordinator is now mid-stall on round 1. A brand-new process
    // asks to rejoin; it is admitted at the round-2 boundary.
    let rejoiner = spawn(
        LEARNER,
        &learner_flags(1, &addr, &["--rejoin", "true", "--patience", "60"]),
    );

    let (ok, stdout, stderr) = finish(coordinator, drain);
    assert!(ok, "coordinator failed:\n{stderr}");
    // The re-admission heals the run: the final dropped list is empty
    // again, so the coordinator reports no dropped learners at exit.
    assert!(!stdout.contains("dropped learners"), "{stdout}");
    let want_model = model_text(&stdout);

    let out = rejoiner.wait_with_output().expect("rejoined learner");
    assert!(out.status.success(), "rejoined learner failed");
    let text = String::from_utf8(out.stdout).expect("utf-8 rejoiner stdout");
    assert!(text.contains("asking to rejoin the run"), "{text}");
    assert_eq!(model_text(&text), want_model);
    for child in survivors {
        let out = child.wait_with_output().expect("survivor learner");
        assert!(out.status.success());
        let text = String::from_utf8(out.stdout).expect("utf-8 survivor stdout");
        assert_eq!(model_text(&text), want_model);
    }

    // The coordinator's stream alone carries the whole arc:
    // Dropout(1) -> Rejoin(1) -> and, under pairwise, a RekeyEpoch over
    // the full set again. The stateless backends (PPML_SECAGG=shamir or
    // paillier) must re-admit with no re-key round at all.
    let timeline =
        Timeline::correlate(vec![Stream::load(&coord_jsonl).expect("coordinator stream")]);
    let stories = timeline.rejoin_stories();
    assert_eq!(stories.len(), 1, "{stories:?}");
    assert_eq!(stories[0].party, 1);
    assert_eq!(stories[0].dropped_at, Some(1));
    assert_eq!(stories[0].iteration, 2);
    let stateless = matches!(
        std::env::var("PPML_SECAGG").as_deref(),
        Ok("shamir") | Ok("paillier")
    );
    if stateless {
        assert_eq!(
            stories[0].rekey, None,
            "stateless backend re-keyed: {stories:?}"
        );
    } else {
        assert_eq!(stories[0].rekey.map(|(_, survivors)| survivors), Some(3));
    }
    let report = timeline.render();
    assert!(report.contains("rejoin story: party 1"), "{report}");

    // And the ppml-trace binary tells the same story from the file.
    let output = Command::new(TRACE)
        .arg(&coord_jsonl)
        .output()
        .expect("run ppml-trace");
    assert!(output.status.success());
    let cli_report = String::from_utf8(output.stdout).expect("utf-8 report");
    assert!(cli_report.contains("rejoin story: party 1"), "{cli_report}");

    cleanup(&dir);
}

/// Runs a binary to completion: `(exit code, stdout, stderr)`.
fn run_to_exit(bin: &str, argv: &[String]) -> (Option<i32>, String, String) {
    let out = Command::new(bin).args(argv).output().expect("run binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Every documented exit code, produced by a real invocation, with the
/// one-line `binary-name: reason` stderr contract.
#[test]
fn typed_exit_codes_come_from_real_invocations() {
    let dir = scratch_dir("exit_codes");

    // 2 — usage: a flag missing its value (and the usage block).
    let (code, _, stderr) = run_to_exit(COORDINATOR, &args(&["--learners"]));
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("ppml-coordinator:") && stderr.contains("usage:"),
        "{stderr}"
    );

    // 2 — usage: an unknown flag is named, never silently ignored.
    let (code, _, stderr) = run_to_exit(
        COORDINATOR,
        &args(&["--learners", "2", "--transport", "threads"]),
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--transport"), "{stderr}");

    // 2 — usage: a bad value is rejected before the socket binds, so no
    // connect wait precedes the error.
    let (code, stdout, stderr) = run_to_exit(
        COORDINATOR,
        &args(&["--learners", "2", "--round-timeout", "abc"]),
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--round-timeout"), "{stderr}");
    assert!(!stdout.contains("listening on"), "{stdout}");

    // 2 — usage: mutually exclusive learner flags, caught before any I/O.
    let (code, _, stderr) = run_to_exit(
        LEARNER,
        &args(&[
            "--party",
            "0",
            "--learners",
            "2",
            "--coordinator",
            "127.0.0.1:9",
            "--rejoin",
            "true",
            "--defect-after",
            "1",
        ]),
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("exclusive"), "{stderr}");

    // 3 — checkpoint: --resume pointing at a snapshot that does not
    // exist fails before the socket ever binds.
    let missing = dir.join("missing.ckpt");
    let (code, _, stderr) = run_to_exit(
        COORDINATOR,
        &args(&[
            "--learners",
            "1",
            "--resume",
            missing.to_str().expect("missing path"),
        ]),
    );
    assert_eq!(code, Some(3), "{stderr}");
    assert!(stderr.contains("ppml-coordinator:"), "{stderr}");

    // 4 — transport: nobody is listening on the discard port, and one
    // second of patience is not going to change that.
    let (code, _, stderr) = run_to_exit(
        LEARNER,
        &args(&[
            "--party",
            "0",
            "--learners",
            "1",
            "--coordinator",
            "127.0.0.1:9",
            "--patience",
            "1",
        ]),
    );
    assert_eq!(code, Some(4), "{stderr}");
    assert!(stderr.contains("ppml-learner:"), "{stderr}");

    // 5 — lost quorum: the coordinator's only learner defects from
    // round 0, so the first deadline miss empties the survivor set.
    let mut coordinator = spawn(
        COORDINATOR,
        &args(&["--learners", "1", "--iters", "4", "--round-timeout", "1"]),
    );
    let (addr, _, drain) = await_listening(&mut coordinator).expect("coordinator banner");
    let defector = spawn(
        LEARNER,
        &args(&[
            "--party",
            "0",
            "--learners",
            "1",
            "--coordinator",
            &addr,
            "--iters",
            "4",
            "--defect-after",
            "0",
            "--patience",
            "2",
        ]),
    );
    let status = coordinator.wait().expect("coordinator exit");
    let _ = drain.join();
    let mut stderr = String::new();
    if let Some(mut pipe) = coordinator.stderr.take() {
        pipe.read_to_string(&mut stderr).ok();
    }
    assert_eq!(status.code(), Some(5), "{stderr}");
    assert!(stderr.contains("ppml-coordinator:"), "{stderr}");
    let out = defector.wait_with_output().expect("defector learner");
    assert_eq!(out.status.code(), Some(4));

    cleanup(&dir);
}

/// SIGKILL a learner of a 4-party `--secagg shamir` run after it has
/// distributed its round-2 shares but before it submits its sum — the
/// paper's dropout case for threshold sharing. The round must still
/// complete *with the victim's input counted* (reconstructed from the
/// survivors' blinded blocks), there must be no re-key round anywhere,
/// and the survivors' model must be bit-identical to the reference.
///
/// The reference is a pairwise run whose victim defects one round
/// later: pairwise loses the victim's round-d input at the collect,
/// Shamir keeps it, so shamir-defect-at-2 and pairwise-defect-at-3 see
/// identical per-round memberships (the in-process sweep pins the same
/// equivalence bit for bit).
#[test]
fn shamir_mid_collect_sigkill_across_processes() {
    let dir = scratch_dir("secagg_sigkill");
    let coord_jsonl = dir.join("coordinator-shamir.jsonl");
    let shared = [
        "--n",
        "128",
        "--data-seed",
        "5",
        "--iters",
        "8",
        "--seed",
        "11",
    ];
    let learner_flags = |party: usize, addr: &str, extra: &[&str]| {
        let mut v = args(&[
            "--party",
            &party.to_string(),
            "--learners",
            "4",
            "--coordinator",
            addr,
        ]);
        v.extend(args(&shared));
        v.extend(args(extra));
        v
    };

    // Reference: pairwise, the victim scripted to defect at round 3 and
    // starve out on a short patience.
    let mut reference = {
        let mut v = args(&[
            "--learners",
            "4",
            "--round-timeout",
            "6",
            "--secagg",
            "pairwise",
        ]);
        v.extend(args(&shared));
        spawn(COORDINATOR, &v)
    };
    let (ref_addr, _, ref_drain) = await_listening(&mut reference).expect("reference banner");
    let ref_survivors: Vec<Child> = [0usize, 2, 3]
        .iter()
        .map(|&p| {
            spawn(
                LEARNER,
                &learner_flags(p, &ref_addr, &["--secagg", "pairwise", "--patience", "60"]),
            )
        })
        .collect();
    let ref_victim = spawn(
        LEARNER,
        &learner_flags(
            1,
            &ref_addr,
            &[
                "--secagg",
                "pairwise",
                "--defect-after",
                "3",
                "--patience",
                "2",
            ],
        ),
    );
    let (ok, ref_stdout, ref_stderr) = finish(reference, ref_drain);
    assert!(ok, "reference run failed:\n{ref_stderr}");
    let want_model = model_text(&ref_stdout);
    assert_eq!(
        ref_victim
            .wait_with_output()
            .expect("reference victim")
            .status
            .code(),
        Some(4)
    );
    for child in ref_survivors {
        let out = child.wait_with_output().expect("reference survivor");
        assert!(out.status.success());
        let text = String::from_utf8(out.stdout).expect("utf-8 survivor stdout");
        assert_eq!(model_text(&text), want_model);
    }

    // The shamir run. The victim distributes round-2 shares and then
    // never submits; its patience is long so only the SIGKILL below
    // ends it.
    let mut coordinator = {
        let mut v = args(&[
            "--learners",
            "4",
            "--round-timeout",
            "6",
            "--secagg",
            "shamir",
            "--telemetry",
            coord_jsonl.to_str().expect("telemetry path"),
        ]);
        v.extend(args(&shared));
        spawn(COORDINATOR, &v)
    };
    let (addr, _, drain) = await_listening(&mut coordinator).expect("coordinator banner");
    let survivors: Vec<Child> = [0usize, 2, 3]
        .iter()
        .map(|&p| {
            spawn(
                LEARNER,
                &learner_flags(p, &addr, &["--secagg", "shamir", "--patience", "60"]),
            )
        })
        .collect();
    let mut victim = spawn(
        LEARNER,
        &learner_flags(
            1,
            &addr,
            &[
                "--secagg",
                "shamir",
                "--defect-after",
                "2",
                "--patience",
                "60",
            ],
        ),
    );

    // The JSONL sink writes unbuffered, so poll it for round 2 opening,
    // give the victim's distribution frame a beat to land, then deliver
    // a real SIGKILL mid-collect. (If the kill raced the distribution,
    // the scripted defection still guarantees the mid-collect shape —
    // the round-2 blocks are sent before the defection check bites.)
    let poll_deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(Instant::now() < poll_deadline, "round 2 never opened");
        let text = std::fs::read_to_string(&coord_jsonl).unwrap_or_default();
        if text
            .lines()
            .any(|l| l.contains("\"kind\":\"round_open\"") && l.contains("\"iteration\":2"))
        {
            break;
        }
        thread::sleep(Duration::from_millis(1));
    }
    thread::sleep(Duration::from_millis(300));
    victim.kill().expect("SIGKILL the victim");
    let out = victim.wait_with_output().expect("victim learner");
    assert!(!out.status.success(), "the victim must die by signal");

    let (ok, stdout, stderr) = finish(coordinator, drain);
    assert!(ok, "shamir coordinator failed:\n{stderr}");
    assert_eq!(
        model_text(&stdout),
        want_model,
        "shamir survivors diverged from the pairwise reference"
    );
    for child in survivors {
        let out = child.wait_with_output().expect("shamir survivor");
        assert!(out.status.success(), "a shamir survivor failed");
        let text = String::from_utf8(out.stdout).expect("utf-8 survivor stdout");
        assert_eq!(model_text(&text), want_model);
    }

    // The telemetry must show the dropout, a shamir label on every
    // round, and — the point of the backend — not a single re-key.
    let text = std::fs::read_to_string(&coord_jsonl).expect("coordinator telemetry");
    assert!(text.contains("\"kind\":\"dropout\""), "no dropout recorded");
    assert!(
        !text.contains("\"kind\":\"rekey_epoch\""),
        "the shamir run re-keyed"
    );
    let rounds = text
        .lines()
        .filter(|l| l.contains("\"kind\":\"secagg_round\""))
        .count();
    assert_eq!(rounds, 8, "expected a secagg_round record per round");
    assert!(
        text.lines()
            .filter(|l| l.contains("\"kind\":\"secagg_round\""))
            .all(|l| l.contains("\"backend\":\"shamir\"")),
        "a round was not labelled shamir"
    );

    cleanup(&dir);
}
