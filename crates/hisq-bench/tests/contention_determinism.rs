//! The contention sweep's headline claim (`fig_contention`), on the
//! committed quick grid: as links serialize, the hub baseline's
//! runtime degrades strictly faster than BISP's at every system size.
//! The grid's bytes are pinned by the golden-corpus report check.

use distributed_hisq::runner::run_sweep;
use hisq_bench::figures::fig_contention_rows;
use hisq_bench::grids::FIG_CONTENTION;

#[test]
fn hub_degrades_faster_than_bisp_at_every_size() {
    let scenarios = FIG_CONTENTION.scenarios(true);
    let report = run_sweep(&scenarios, 2).expect("grid runs");
    let rows = fig_contention_rows(&scenarios, &report);
    let max_ser = rows.iter().map(|r| r.serialization_ns).max().unwrap();
    let sizes: std::collections::BTreeSet<usize> = rows.iter().map(|r| r.controllers).collect();
    for n in sizes {
        let slowdown = |scheme: &str| {
            rows.iter()
                .find(|r| r.controllers == n && r.serialization_ns == max_ser && r.scheme == scheme)
                .expect("grid covers every (size, scheme, ser) point")
                .slowdown
        };
        let (hub, bisp) = (slowdown("lockstep"), slowdown("bisp"));
        assert!(
            hub > bisp,
            "at {n} controllers, ser {max_ser} ns: hub slowdown {hub:.3}x \
             must exceed BISP {bisp:.3}x"
        );
    }
}
