//! The contention extension figure (beyond the paper's evaluation):
//! end-to-end runtime of Distributed-HISQ (BISP) vs the lock-step hub
//! baseline as classical links become contended — a (controller count ×
//! scheme × link serialization) sweep over the simultaneous long-range
//! CNOT workload.
//!
//! The paper's §6.4.3 baseline assumes the hub broadcasts at a constant
//! latency independent of system size; once links serialize, every
//! measurement broadcast queues behind the previous one on each hub
//! downlink, so the hub's effective latency grows with both the
//! serialization time and the number of simultaneous feedback gadgets.
//! BISP's point-to-point corrections never share a link across gadgets,
//! so its slowdown stays flat — the distance-vs-saturation contrast the
//! contention model exists to expose.
//!
//! Honors the shared CLI contract: `--quick` trims both sweep axes,
//! `--threads N` parallelizes, `--json` emits the raw sweep report
//! (byte-identical across thread counts). The grids are
//! `scenarios/fig_contention.json` (`--quick`, a golden-corpus entry
//! whose report is pinned) and `scenarios/full/fig_contention.json`.

use hisq_bench::cli::FigArgs;
use hisq_bench::figures::fig_contention_rows;
use hisq_bench::grids::FIG_CONTENTION;

fn main() {
    let args = FigArgs::parse();
    let (scenarios, report) = FIG_CONTENTION.run(&args);
    if args.json {
        println!("{}", report.to_json());
        return;
    }

    let rows = fig_contention_rows(&scenarios, &report);
    println!("Contention sweep: runtime under per-link serialization (slowdown vs ser = 0)");
    println!("{:-<78}", "");
    println!(
        "{:>11} {:>8} {:>10} {:>14} {:>10} {:>14}",
        "controllers", "ser(ns)", "scheme", "makespan(ns)", "slowdown", "link msgs"
    );
    println!("{:-<78}", "");
    for row in &rows {
        println!(
            "{:>11} {:>8} {:>10} {:>14} {:>9.3}x {:>14}",
            row.controllers,
            row.serialization_ns,
            row.scheme,
            row.makespan_ns,
            row.slowdown,
            row.link_messages
        );
    }
    println!("{:-<78}", "");

    // The headline contrast: at the largest size and serialization, the
    // hub must have degraded more than BISP.
    let max_n = rows.iter().map(|r| r.controllers).max().unwrap_or(0);
    let max_ser = rows.iter().map(|r| r.serialization_ns).max().unwrap_or(0);
    let slowdown = |scheme: &str| {
        rows.iter()
            .find(|r| r.controllers == max_n && r.serialization_ns == max_ser && r.scheme == scheme)
            .map(|r| r.slowdown)
            .unwrap_or(1.0)
    };
    println!(
        "at {} controllers, ser {} ns: hub slowdown {:.3}x vs BISP {:.3}x",
        max_n,
        max_ser,
        slowdown("lockstep"),
        slowdown("bisp")
    );
}
