//! CLI-contract regression tests for the `hisq` binary, run against
//! the real executable (`CARGO_BIN_EXE_hisq`): unknown flags and flag
//! conflicts must exit 2 with a usage message — never run a sweep with
//! a silently ignored option — `--quick` must execute the reduced
//! grid successfully, and grids past the expansion limit must fail
//! fast with a message instead of hanging or panicking.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Workspace-root path of a committed golden-corpus scenario file.
const SCENARIO: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/scenarios/bisp_vs_lockstep.json"
);

fn hisq(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hisq"))
        .args(args)
        .output()
        .expect("hisq binary runs")
}

#[test]
fn unknown_run_flag_exits_2_with_usage() {
    let out = hisq(&["run", SCENARIO, "--turbo"]);
    assert_eq!(out.status.code(), Some(2), "unknown flags are an error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--turbo`"), "{stderr}");
    assert!(stderr.contains("usage: hisq"), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "a rejected invocation must not produce a report"
    );
}

#[test]
fn quick_conflicts_with_repetitions() {
    let out = hisq(&["run", SCENARIO, "--quick", "--repetitions", "2"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--quick conflicts with --repetitions"),
        "{stderr}"
    );
}

#[test]
fn quick_run_executes_the_reduced_grid() {
    let out = hisq(&["run", SCENARIO, "--quick", "--json"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The quick pass of the 2×2 corpus grid is the grid itself (it is
    // already single-shot, single-repetition).
    assert!(stdout.starts_with("{\"scenarios\":4,"), "{stdout}");
}

/// Runs `hisq` and fails the test if it has not exited within 10 s
/// (the hostile inputs below used to run until killed).
fn hisq_bounded(args: &[&str]) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hisq"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("hisq binary runs");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("hisq status").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("hisq {args:?} still running after 10 s");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("hisq output")
}

fn assert_rejected_over_limit(out: &std::process::Output, code: i32) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{stderr}");
    assert!(stderr.contains("over the limit of 100000"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing runs");
}

#[test]
fn oversized_grid_file_fails_fast() {
    // 64 two-value seed axes: 2^64 grid points in a 2.4 KB file.
    let axes = vec![r#"{"axis": "seed", "values": [1, 2]}"#; 64].join(", ");
    let text = format!(
        r#"{{"schema_version": 1, "name": "bomb",
            "base": {{"workload": {{"suite": "w_state_n12"}}, "scheme": "bisp"}},
            "axes": [{axes}]}}"#
    );
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("hisq_cli_bomb.json");
    std::fs::write(&path, text).expect("temp file writes");
    let path = path.to_str().expect("UTF-8 temp path");
    for command in ["validate", "run"] {
        let out = hisq_bounded(&[command, path]);
        assert_rejected_over_limit(&out, 1);
    }
}

#[test]
fn repetitions_past_the_limit_exit_2() {
    for repetitions in ["4611686018427387904", "18446744073709551615"] {
        let out = hisq_bounded(&["run", SCENARIO, "--repetitions", repetitions]);
        assert_rejected_over_limit(&out, 2);
    }
}
