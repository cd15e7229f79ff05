//! The `figure` binary end to end: the experiment figures outside the
//! golden corpus print pinned JSON bytes, output stops quietly when the
//! reader closes stdout, usage errors exit 2, and every figure it
//! dispatches is documented.

use std::process::{Command, Output, Stdio};

use distributed_hisq::testing::assert_pinned;
use hisq_bench::render::FIGURES;

fn figure(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figure"))
        .args(args)
        .output()
        .expect("figure binary runs")
}

/// Asserts `figure <args>` exits 0 and prints exactly the pinned
/// `(length, FNV-1a 64)` bytes, trailing newline included. `fig11` and
/// `fig13` are the figures whose JSON no corpus report holds; their
/// pins were recorded from the per-figure binaries that `figure`
/// replaced.
fn assert_figure_pinned(args: &[&str], len: usize, fnv: u64) {
    let out = figure(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "figure {args:?}: {stderr}");
    let json = String::from_utf8(out.stdout).expect("JSON is UTF-8");
    assert_pinned(&format!("figure {}", args.join(" ")), &json, len, fnv);
}

#[test]
fn fig11_quick_json_is_pinned() {
    assert_figure_pinned(&["fig11", "--quick", "--json"], 1934, 0xf80e_9020_ffac_ab53);
}

#[test]
fn fig11_json_is_pinned() {
    assert_figure_pinned(&["fig11", "--json"], 1921, 0xdc62_2664_876a_1b56);
}

#[test]
fn fig13_quick_json_is_pinned() {
    assert_figure_pinned(&["fig13", "--quick", "--json"], 836, 0x23d2_197e_ed71_6842);
}

#[test]
fn fig13_json_is_pinned() {
    assert_figure_pinned(&["fig13", "--json"], 1058, 0x77d4_642a_afa2_5d6b);
}

/// The write end of a pipe whose reader has already exited, so every
/// write to it fails with `BrokenPipe`, as under `figure fig05 | head
/// -c 0`. The reader is `figure` without a name, which exits on the
/// usage error without reading its stdin.
fn closed_pipe() -> Stdio {
    let mut reader = Command::new(env!("CARGO_BIN_EXE_figure"))
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("figure binary runs");
    let writer = reader.stdin.take().expect("piped stdin");
    reader.wait().expect("reader exits");
    Stdio::from(writer)
}

#[test]
fn closed_stdout_ends_output_quietly() {
    for args in [
        &["fig05"][..],
        &["fig13", "--quick"][..],
        &["table1", "--json"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_figure"))
            .args(args)
            .stdout(closed_pipe())
            .stderr(Stdio::piped())
            .output()
            .expect("figure binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "figure {args:?}: {stderr}");
        assert!(out.stderr.is_empty(), "figure {args:?}: {stderr}");
    }
    // A sweep figure's only stderr line is its progress report.
    let out = Command::new(env!("CARGO_BIN_EXE_figure"))
        .args(["fig_noise", "--quick"])
        .stdout(closed_pipe())
        .stderr(Stdio::piped())
        .output()
        .expect("figure binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("[fig_noise] running"), "{stderr}");
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        &[][..],
        &["fig99"][..],
        &["fig05", "--quick"][..],
        &["fig15", "--json"][..],
        &["fig11", "all"][..],
        &["table1", "--threads", "2"][..],
    ] {
        let out = figure(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "figure {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "figure {args:?}");
        assert!(
            stderr.contains("usage: figure"),
            "figure {args:?}: {stderr}"
        );
    }
}

#[test]
fn figures_doc_names_every_dispatched_figure() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/FIGURES.md");
    let doc = std::fs::read_to_string(path).expect("docs/FIGURES.md");
    for figure in FIGURES {
        assert!(
            doc.contains(&format!("`{}`", figure.name)),
            "docs/FIGURES.md does not mention figure `{}`",
            figure.name
        );
    }
}
