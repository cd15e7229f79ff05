//! CLI-contract regression tests for the `hisq` binary, run against
//! the real executable (`CARGO_BIN_EXE_hisq`): unknown flags must exit
//! 2 with a usage message — never run a sweep with a silently ignored
//! option — grids past the expansion limit, time-valued parameters
//! past one `waiti`, workloads past the node-address space and thread
//! counts past `MAX_THREADS` must fail fast with a message instead of
//! hanging, aborting or panicking, a reader closing stdout early ends
//! the output quietly, and a closed stderr keeps the exit code.

use std::io::{BufRead, BufReader};
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
    // `--quick` is not a `hisq run` flag: the `figure` binary's flag of
    // that name selects a sweep figure's golden-corpus grid, which a
    // scenario file already is.
    for flag in ["--turbo", "--quick"] {
        let out = hisq(&["run", SCENARIO, flag]);
        assert_eq!(out.status.code(), Some(2), "unknown flags are an error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{stderr}"
        );
        assert!(stderr.contains("usage: hisq"), "{stderr}");
        assert!(
            out.stdout.is_empty(),
            "a rejected invocation must not produce a report"
        );
    }
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

fn assert_rejected(out: &std::process::Output, code: i32, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{stderr}");
    assert!(stderr.contains(message), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing runs");
}

fn assert_rejected_over_limit(out: &std::process::Output, code: i32) {
    assert_rejected(out, code, "over the limit of 100000");
}

/// Writes `text` to a scenario file in the test's temp directory.
fn temp_scenario(name: &str, text: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("temp file writes");
    path.to_str().expect("UTF-8 temp path").to_owned()
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
    let path = temp_scenario("hisq_cli_bomb.json", &text);
    for command in ["validate", "run"] {
        let out = hisq_bounded(&[command, &path]);
        assert_rejected_over_limit(&out, 1);
    }
}

#[test]
fn huge_time_valued_params_fail_fast() {
    // Unbounded, the first would emit ~4.4e12 `waiti`s and abort
    // allocating them; the others overflow the engine's cycle sums.
    let max = u64::MAX;
    let over = |field: &str, noun: &str, unit: &str, limit: u64| {
        format!(
            "scenario.base.params.{field}: {noun} {max} {unit} is over the limit of {limit} {unit}"
        )
    };
    let cycles = |field: &str| over(field, "latency", "cycles", 4_194_303);
    for (scheme, params, message) in [
        (
            "bisp",
            format!(r#"{{"neighbor_latency": {max}}}"#),
            cycles("neighbor_latency"),
        ),
        (
            "bisp",
            format!(r#"{{"router_latency": {max}}}"#),
            cycles("router_latency"),
        ),
        (
            "lockstep",
            format!(r#"{{"star_up_latency": {max}}}"#),
            cycles("star_up_latency"),
        ),
        (
            "lockstep",
            format!(r#"{{"star_down_latency": {max}}}"#),
            cycles("star_down_latency"),
        ),
        (
            "bisp",
            format!(r#"{{"link_model": {{"serialization_ns": {max}, "capacity": 1}}}}"#),
            over(
                "link_model.serialization_ns",
                "serialization time",
                "ns",
                16_777_212,
            ),
        ),
    ] {
        let text = format!(
            r#"{{"schema_version": 1, "name": "huge",
                "base": {{"workload": {{"suite": "w_state_n12"}}, "scheme": "{scheme}",
                          "shots": 3, "params": {params}}}}}"#
        );
        let path = temp_scenario("hisq_cli_huge_param.json", &text);
        for command in ["validate", "run"] {
            assert_rejected(&hisq_bounded(&[command, &path]), 1, &message);
        }
    }
}

#[test]
fn repetitions_past_the_limit_exit_2() {
    for repetitions in ["4611686018427387904", "18446744073709551615"] {
        let out = hisq_bounded(&["run", SCENARIO, "--repetitions", repetitions]);
        assert_rejected_over_limit(&out, 2);
    }
}

#[test]
fn threads_past_the_limit_exit_2() {
    // The file does not exist, so an accepted thread count stops at
    // loading it (exit 1) and no invocation here reaches a sweep.
    let missing = concat!(env!("CARGO_TARGET_TMPDIR"), "/hisq_cli_no_such_file.json");
    let out = hisq_bounded(&["run", missing, "--threads", "257"]);
    assert_rejected(&out, 2, "--threads 257 is over MAX_THREADS (256)");
    assert_rejected(
        &hisq_bounded(&["run", missing, "--threads", "256"]),
        1,
        missing,
    );
}

#[test]
fn closed_stdout_ends_output_quietly() {
    // 5,000 ids (about 150 KB) overflow a 64 KiB pipe buffer, so hisq
    // is still printing when the reader goes away, as under `| head -1`.
    let seeds: Vec<String> = (0..5000).map(|seed| seed.to_string()).collect();
    let text = format!(
        r#"{{"schema_version": 1, "name": "many",
            "base": {{"workload": {{"suite": "w_state_n12"}}, "scheme": "bisp"}},
            "axes": [{{"axis": "seed", "values": [{}]}}]}}"#,
        seeds.join(", ")
    );
    let path = temp_scenario("hisq_cli_many_seeds.json", &text);
    let mut child = Command::new(env!("CARGO_BIN_EXE_hisq"))
        .args(["validate", &path])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("hisq binary runs");
    let mut first = String::new();
    // The reader is dropped at the end of this statement, closing the
    // pipe's read end after the first line.
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first line reads");
    assert!(first.starts_with("many: ok"), "{first}");
    let out = child.wait_with_output().expect("hisq exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stderr.is_empty(), "{stderr}");
}

#[test]
fn long_range_cnots_past_the_address_space_fail_validation() {
    // Run, the first two would panic in the circuit and topology
    // builders and the third would try to allocate 2.4 GB.
    for (params, message) in [
        (
            r#"{"parallel": 0, "span": 7}"#,
            "scenario.base.workload.long_range_cnots.parallel: parallel must be at least 1",
        ),
        (
            r#"{"parallel": 1, "span": 0}"#,
            "scenario.base.workload.long_range_cnots.span: span must be at least 1",
        ),
        (
            r#"{"parallel": 100000000, "span": 7}"#,
            "scenario.base.workload.long_range_cnots: 1599999999 controllers are over \
             the limit of 4095",
        ),
    ] {
        let text = format!(
            r#"{{"schema_version": 1, "name": "wide",
                "base": {{"workload": {{"long_range_cnots": {params}}}, "scheme": "bisp"}}}}"#
        );
        let path = temp_scenario("hisq_cli_wide.json", &text);
        assert_rejected(&hisq_bounded(&["validate", &path]), 1, message);
    }
}

/// The write end of a pipe whose reader has already exited, so every
/// write to it fails with `BrokenPipe`, as under `2>&1 | head -c 0`.
/// The reader is `hisq --help`, which never reads its stdin.
fn closed_pipe() -> Stdio {
    let mut reader = Command::new(env!("CARGO_BIN_EXE_hisq"))
        .arg("--help")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("hisq binary runs");
    let writer = reader.stdin.take().expect("piped stdin");
    reader.wait().expect("reader exits");
    Stdio::from(writer)
}

#[test]
fn closed_stderr_keeps_the_exit_code() {
    for (args, code) in [
        (&["run", SCENARIO, "--turbo"][..], 2),
        (&["validate", "/nonexistent.json"][..], 1),
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_hisq"))
            .args(args)
            .stdout(Stdio::null())
            .stderr(closed_pipe())
            .status()
            .expect("hisq binary runs");
        assert_eq!(status.code(), Some(code), "hisq {args:?}");
    }
}
