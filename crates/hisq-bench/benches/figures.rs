//! Criterion benches regenerating the paper's figures at quick scale —
//! one bench group per evaluation artifact, so `cargo bench` re-derives
//! every result end to end.

use criterion::{criterion_group, criterion_main, Criterion};

use distributed_hisq::runner::run_sweep;
use hisq_bench::figures::{
    fig05_nearby, fig05_remote, fig07_overhead, fig13_waveforms, fig15_rows, fig16_points,
};
use hisq_bench::grids::{FIG15, FIG16};
use hisq_bench::resources::{board_resources, CONTROL_BOARD_CHANNELS, READOUT_BOARD_CHANNELS};

fn bench_table1(c: &mut Criterion) {
    c.bench_function("table1/resource_model", |b| {
        b.iter(|| {
            let control = board_resources(std::hint::black_box(CONTROL_BOARD_CHANNELS));
            let readout = board_resources(std::hint::black_box(READOUT_BOARD_CHANNELS));
            assert_eq!(control.luts, 4155);
            assert_eq!(readout.luts, 2435);
            (control, readout)
        })
    });
}

fn bench_fig05_07(c: &mut Criterion) {
    c.bench_function("fig05/nearby_sync", |b| {
        b.iter(|| {
            let r = fig05_nearby();
            assert_eq!(r.overhead, 0);
            r
        })
    });
    c.bench_function("fig05/remote_sync", |b| {
        b.iter(|| {
            let r = fig05_remote();
            assert!(r.aligned);
            r
        })
    });
    c.bench_function("fig07/overhead", |b| {
        b.iter(|| {
            let r = fig07_overhead();
            assert_eq!(r.overhead, r.l2 - r.d2);
            r
        })
    });
}

fn bench_fig13(c: &mut Criterion) {
    c.bench_function("fig13/electronics_sync", |b| {
        b.iter(|| {
            let r = fig13_waveforms();
            assert!(r.alignment.windows(2).all(|w| w[0] == w[1]));
            r.control_pulses
        })
    });
}

fn bench_fig15(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig15");
    group.sample_size(10);
    // The quick grid pairs each benchmark's bisp/lockstep twins.
    for pair in FIG15.scenarios(true).chunks(2) {
        let name = pair[0].workload.label();
        group.bench_function(&name, |b| {
            b.iter(|| fig15_rows(&run_sweep(pair, 1).expect("suite scenarios run")))
        });
    }
    group.finish();
}

fn bench_fig16(c: &mut Criterion) {
    let scenarios = FIG16.scenarios(true);
    let mut group = c.benchmark_group("fig16");
    group.sample_size(10);
    group.bench_function("infidelity_sweep", |b| {
        b.iter(|| {
            let report = run_sweep(&scenarios, 1).expect("figure scenarios run");
            let points = fig16_points(&scenarios, &report);
            assert!(points[0].reduction_ratio > 1.0);
            points
        })
    });
    group.finish();
}

criterion_group!(
    figures,
    bench_table1,
    bench_fig05_07,
    bench_fig13,
    bench_fig15,
    bench_fig16
);
criterion_main!(figures);
