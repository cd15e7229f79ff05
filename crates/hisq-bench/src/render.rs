//! The `figure` binary's dispatch table, [`FIGURES`], and one renderer
//! per figure. A renderer prints its figure's data (from
//! [`crate::figures`], [`crate::load`] or [`crate::resources`]) as a
//! table or, for an experiment figure under `--json`, as its report.

use std::io::{self, Write};

use distributed_hisq::runner::Scenario;
use distributed_hisq::workloads::{long_range_controllers, WorkloadSpec};
use hisq_isa::CYCLE_NS;
use hisq_sim::{Metric, SweepRecord, SweepReport};

use crate::cli::{FigArgs, Figure, Flag};
use crate::figures::{
    fig05_report, fig06_report, fig07_report, fig11_calibrations, fig13_waveforms, fig15_rows,
    fig16_points, fig_contention_rows, fig_hetero_points, fig_noise_points, Calibration,
    FIG11_EXPERIMENTS,
};
use crate::grids;
use crate::load::fig_load_points;
use crate::resources::{
    table1_report, BASE_CORE, CONTROL_BOARD_CHANNELS, EVENT_QUEUE, READOUT_BOARD_CHANNELS,
    SYNC_UNIT,
};

const JSON: &[Flag] = &[Flag::Json];
const QUICK_JSON: &[Flag] = &[Flag::Quick, Flag::Json];

/// Every figure the `figure` binary prints, by name.
pub const FIGURES: &[Figure] = &[
    Figure::experiment("fig05", JSON, &[], fig05),
    Figure::experiment("fig06", JSON, &[], fig06),
    Figure::experiment("fig07", JSON, &[], fig07),
    Figure::experiment("fig11", QUICK_JSON, &FIG11_EXPERIMENTS, fig11),
    Figure::experiment("fig13", QUICK_JSON, &[], fig13),
    Figure::sweep(grids::FIG15, fig15),
    Figure::sweep(grids::FIG16, fig16),
    Figure::sweep(grids::FIG_CONTENTION, fig_contention),
    Figure::sweep(grids::FIG_HETERO, fig_hetero),
    Figure::sweep(grids::FIG_LOAD, fig_load),
    Figure::sweep(grids::FIG_NOISE, fig_noise),
    Figure::sweep(grids::FIG_SCALE, fig_scale),
    Figure::experiment("table1", JSON, &[], table1),
];

/// Figure 5: BISP timing for nearby (a) and remote (b)
/// synchronization.
fn fig05(args: &FigArgs, out: &mut dyn Write) -> io::Result<()> {
    let report = fig05_report();
    if args.json {
        return writeln!(out, "{report}");
    }
    let a = report.record("nearby").expect("nearby point ran");
    let [b0, b1, latency, c0, c1, overhead] = [
        "booking0",
        "booking1",
        "link_latency",
        "commit0",
        "commit1",
        "overhead",
    ]
    .map(|key| a.counter(key).expect("nearby metrics"));
    let aligned = a.value("aligned") == Some(1.0);
    writeln!(
        out,
        "Figure 5(a): nearby synchronization\n  \
         booking B0 = {b0} cycles, B1 = {b1} cycles, link N = L = {latency}\n  \
         commits: C0 @ {c0}  C1 @ {c1}\n  \
         aligned: {aligned}   overhead: {overhead} cycles (paper: zero-cycle)\n\n\
         Figure 5(b): remote (region) synchronization via router"
    )?;
    let b = report.record("remote").expect("remote point ran");
    for i in 0.. {
        let (Some(booking), Some(horizon)) = (
            b.counter(&format!("booking_c{i}")),
            b.counter(&format!("horizon_c{i}")),
        ) else {
            break;
        };
        writeln!(
            out,
            "  C{i}: booking @ ~{booking} cycles, horizon {horizon} -> T{i}"
        )?;
    }
    let commit = b.counter("commit").expect("remote metrics");
    let aligned = b.value("aligned") == Some(1.0);
    writeln!(out, "  common commit @ {commit} cycles, aligned: {aligned}")
}

/// Figure 6: generated instructions for nearby synchronization, with
/// the booking-advance `sync` placement.
fn fig06(args: &FigArgs, out: &mut dyn Write) -> io::Result<()> {
    let report = fig06_report();
    if args.json {
        return writeln!(out, "{report}");
    }
    let record = report.record("nearby_cz").expect("listing generated");
    let [c0, c1] = ["controller_0", "controller_1"].map(|key| match record.metric(key) {
        Some(Metric::Str(s)) => s.as_str(),
        _ => unreachable!("listings are string metrics"),
    });
    writeln!(
        out,
        "Figure 6: compiled nearby-synchronization listings\n\n\
         # Controller 0 (two H gates, then the synchronized CZ):\n{c0}\n\
         # Controller 1 (the partner half):\n{c1}\n\
         # Note the `sync` hoisted ahead of the synchronization point,\n\
         # overlapping the deterministic work with the countdown."
    )
}

/// Figure 7: remote synchronization with non-zero overhead when
/// deterministic work cannot cover the booking latency.
fn fig07(args: &FigArgs, out: &mut dyn Write) -> io::Result<()> {
    let report = fig07_report();
    if args.json {
        return writeln!(out, "{report}");
    }
    let n = |id: &str, key: &str| {
        report
            .record(id)
            .and_then(|r| r.counter(key))
            .expect("both points ran")
    };
    let (real, ideal) = (n("real", "commit_c2"), n("ideal", "commit_c2"));
    let (d2, l2) = (n("real", "d2"), n("real", "l2"));
    writeln!(
        out,
        "Figure 7: non-zero synchronization overhead\n  \
         C2 deterministic horizon D2 = {d2} cycles\n  \
         booking uplink latency  L2 = {l2} cycles\n  \
         commit with real links:   {real} cycles\n  \
         commit with ideal links:  {ideal} cycles\n  \
         measured overhead = {} cycles (expected L2 - D2 = {})",
        real - ideal,
        l2 - d2
    )
}

/// The largest excitation probability of a sweep.
fn peak(p_excited: &[f64]) -> f64 {
    p_excited.iter().cloned().fold(0.0f64, f64::max)
}

/// Figure 11: the qubit calibration experiments. `--json` prints one
/// record of fit parameters per experiment.
fn fig11(args: &FigArgs, out: &mut dyn Write) -> io::Result<()> {
    let only = args.positional.first().map(String::as_str);
    let calibrations = fig11_calibrations(args.quick, only);
    if args.json {
        let records = calibrations.iter().map(calibration_record).collect();
        return writeln!(out, "{}", SweepReport::from_records(records));
    }
    for calibration in &calibrations {
        match calibration {
            Calibration::Circle(r) => {
                let first: Vec<(f64, f64)> = (r.iq.iter().take(4))
                    .map(|&(i, q)| (i.round(), q.round()))
                    .collect();
                writeln!(
                    out,
                    "Figure 11(a): draw circle (phase sweep)\n  \
                     fitted circle: center = ({:.1}, {:.1}), radius = {:.1}\n  \
                     radial deviation {:.1}% (adjacent-qubit interference)\n  \
                     first points (I, Q): {first:?}\n",
                    r.fit.cx,
                    r.fit.cy,
                    r.fit.radius,
                    r.relative_deviation * 100.0
                )?;
            }
            Calibration::Freq(r) => writeln!(
                out,
                "Figure 11(b): qubit spectroscopy (frequency sweep)\n  \
                 fitted qubit frequency: {:.4} GHz (paper: 4.62 GHz; ref stack: 4.64 GHz)\n  \
                 peak P(1) = {:.2}\n",
                r.fitted_frequency_ghz,
                peak(&r.p_excited)
            )?,
            Calibration::Rabi(r) => writeln!(
                out,
                "Figure 11(c): Rabi oscillation (amplitude sweep)\n  \
                 fitted pi-pulse amplitude: {:.3} (model optimum: 0.500)\n  \
                 oscillation amplitude: {:.2}, offset {:.2}\n",
                r.pi_amplitude, r.fit.amplitude, r.fit.offset
            )?,
            Calibration::T1(r) => {
                writeln!(
                    out,
                    "Figure 11(d): relaxation time (delay sweep)\n  \
                     fitted T1 = {:.1} us (paper: 9.9 us; reference stack: {} us)",
                    r.fitted_t1_us, r.reference_t1_us
                )?;
                for (d, p) in r.delay_us.iter().zip(&r.p_excited).step_by(6) {
                    writeln!(out, "    delay {d:5.1} us -> P(1) = {p:.3}")?;
                }
            }
        }
    }
    Ok(())
}

/// One Figure 11 experiment's fit parameters as a record named after
/// the experiment.
fn calibration_record(calibration: &Calibration) -> SweepRecord {
    match calibration {
        Calibration::Circle(r) => SweepRecord::new("circle")
            .with("fit_center_x", r.fit.cx)
            .with("fit_center_y", r.fit.cy)
            .with("fit_radius", r.fit.radius)
            .with("relative_deviation", r.relative_deviation)
            .with("points", r.iq.len() as u64),
        Calibration::Freq(r) => SweepRecord::new("freq")
            .with("fitted_frequency_ghz", r.fitted_frequency_ghz)
            .with("peak_p_excited", peak(&r.p_excited))
            .with("points", r.frequency_ghz.len() as u64),
        Calibration::Rabi(r) => SweepRecord::new("rabi")
            .with("pi_amplitude", r.pi_amplitude)
            .with("fit_amplitude", r.fit.amplitude)
            .with("fit_offset", r.fit.offset),
        Calibration::T1(r) => SweepRecord::new("t1")
            .with("fitted_t1_us", r.fitted_t1_us)
            .with("reference_t1_us", r.reference_t1_us)
            .with("points", r.delay_us.len() as u64),
    }
}

/// Figures 12/13: the electronics-level synchronization experiment on
/// the paper's control/readout board programs, three inner-loop
/// iterations (two under `--quick`). `--json` prints one record of
/// pulse timestamps and their offset per iteration.
fn fig13(args: &FigArgs, out: &mut dyn Write) -> io::Result<()> {
    let r = fig13_waveforms(if args.quick { 2 } else { 3 });
    if args.json {
        let readout_pulses = r.telf.channel(1, 5);
        let first_offset = r.alignment.first().copied().unwrap_or(0);
        let records = (r
            .control_pulses
            .iter()
            .zip(&readout_pulses)
            .zip(&r.alignment))
        .enumerate()
        .map(|(i, ((&control, readout), &offset))| {
            SweepRecord::new(format!("iteration_{i}"))
                .with("control_port7_cycle", control)
                .with("control_port7_ns", control * CYCLE_NS)
                .with("readout_port5_cycle", readout.cycle)
                .with("readout_port5_ns", readout.cycle * CYCLE_NS)
                .with("offset_cycles", offset as f64)
                .with("aligned", offset == first_offset)
        })
        .collect();
        return writeln!(out, "{}", SweepReport::from_records(records));
    }
    let waveform = (r.telf).render_waveform(&[(0, 21), (0, 20), (0, 7), (1, 5)], 16);
    write!(
        out,
        "Figure 13: two-board synchronization under waitr drift\n\n\
         Waveforms (one column per 16 cycles, '|' = committed pulse):\n{waveform}\n\
         Control-board synchronized pulses (port 7) per iteration:\n"
    )?;
    for (i, cycle) in r.control_pulses.iter().enumerate() {
        writeln!(
            out,
            "  iteration {i}: cycle {cycle} ({} ns)",
            cycle * CYCLE_NS
        )?;
    }
    writeln!(
        out,
        "\nCycle offset (readout port 5 - control port 7) per iteration: {:?}\n\
         Constant offset = cycle-level synchronization regardless of $1.",
        r.alignment
    )
}

/// Figure 15: normalized end-to-end runtime of Distributed-HISQ vs the
/// lock-step baseline across the benchmark suite.
fn fig15(_: &[Scenario], report: &SweepReport, out: &mut dyn Write) -> io::Result<()> {
    let rule = "-".repeat(86);
    writeln!(
        out,
        "Figure 15: normalized runtime (Distributed-HISQ / lock-step baseline)\n{rule}\n\
         {:<16} {:>14} {:>14} {:>10}   {:>12} {:>12}\n{rule}",
        "benchmark", "bisp (ns)", "baseline (ns)", "normalized", "bisp insts", "base insts"
    )?;
    let rows = fig15_rows(report);
    for row in &rows {
        writeln!(
            out,
            "{:<16} {:>14} {:>14} {:>10.3}   {:>12} {:>12}",
            row.name,
            row.bisp_ns,
            row.lockstep_ns,
            row.normalized,
            row.bisp_instructions,
            row.lockstep_instructions
        )?;
    }
    let avg = rows.iter().map(|r| r.normalized).sum::<f64>() / rows.len() as f64;
    let average = "average";
    writeln!(
        out,
        "{rule}\n{average:<16} {avg:>40.3}   (paper average: 0.772)"
    )
}

/// Figure 16: circuit infidelity vs qubit relaxation time for the
/// simultaneous long-range CNOT circuit, under both schemes.
fn fig16(scenarios: &[Scenario], report: &SweepReport, out: &mut dyn Write) -> io::Result<()> {
    let rule = "-".repeat(64);
    writeln!(
        out,
        "Figure 16: infidelity vs relaxation time (T1 = T2)\n{rule}\n\
         {:>8} {:>16} {:>16} {:>12}\n{rule}",
        "T1 (us)", "Distributed-HISQ", "baseline", "reduction"
    )?;
    let points = fig16_points(scenarios, report);
    for p in &points {
        writeln!(
            out,
            "{:>8.0} {:>16.5} {:>16.5} {:>11.2}x",
            p.t_us, p.infidelity_bisp, p.infidelity_lockstep, p.reduction_ratio
        )?;
    }
    let avg: f64 = points.iter().map(|p| p.reduction_ratio).sum::<f64>() / points.len() as f64;
    writeln!(out, "{rule}\naverage reduction: {avg:.2}x (paper: ~5x)")
}

/// Link contention (beyond the paper): runtime of BISP vs the
/// lock-step hub as classical links serialize. The hub's broadcasts
/// queue on its downlinks, so its slowdown grows with serialization
/// time and with the number of simultaneous feedback gadgets; BISP's
/// point-to-point corrections never share a link.
fn fig_contention(
    scenarios: &[Scenario],
    report: &SweepReport,
    out: &mut dyn Write,
) -> io::Result<()> {
    let rule = "-".repeat(78);
    writeln!(
        out,
        "Contention sweep: runtime under per-link serialization (slowdown vs ser = 0)\n{rule}\n\
         {:>11} {:>8} {:>10} {:>14} {:>10} {:>14}\n{rule}",
        "controllers", "ser(ns)", "scheme", "makespan(ns)", "slowdown", "link msgs"
    )?;
    let rows = fig_contention_rows(scenarios, report);
    for row in &rows {
        writeln!(
            out,
            "{:>11} {:>8} {:>10} {:>14} {:>9.3}x {:>14}",
            row.controllers,
            row.serialization_ns,
            row.scheme,
            row.makespan_ns,
            row.slowdown,
            row.link_messages
        )?;
    }
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
    writeln!(
        out,
        "{rule}\nat {max_n} controllers, ser {max_ser} ns: hub slowdown {:.3}x vs BISP {:.3}x",
        slowdown("lockstep"),
        slowdown("bisp")
    )
}

/// Heterogeneous fabric (beyond the paper): fabric-aware vs oblivious
/// BISP compilation on grids with one heated element. Hot-edge grids
/// are scored on makespan, hot-qubit grids on expected circuit
/// infidelity.
fn fig_hetero(scenarios: &[Scenario], report: &SweepReport, out: &mut dyn Write) -> io::Result<()> {
    let rule = "-".repeat(78);
    writeln!(
        out,
        "Heterogeneous fabric: fabric-aware vs oblivious compilation\n\
         (one heated element per grid; improvement = oblivious / aware)\n{rule}\n\
         {:<34} {:>16} {:>12} {:>12} {:>10}\n{rule}",
        "grid", "metric", "oblivious", "aware", "gain"
    )?;
    let points = fig_hetero_points(scenarios, report);
    for p in &points {
        writeln!(
            out,
            "{:<34} {:>16} {:>12.5} {:>12.5} {:>9.3}x",
            p.name, p.metric, p.oblivious, p.aware, p.improvement
        )?;
    }
    let best = |kind: &str| {
        (points.iter().filter(|p| p.kind == kind))
            .map(|p| p.improvement)
            .fold(f64::NAN, f64::max)
    };
    writeln!(
        out,
        "{rule}\nbest hot-edge gain {:.3}x (makespan), best hot-qubit gain {:.3}x \
         (infidelity) — awareness only ever re-labels the mesh, so every gain is free",
        best("edge"),
        best("qubit")
    )
}

/// Multi-tenant saturation (beyond the paper): the job engine serving
/// Poisson traffic of compiled jobs over offered load × partition
/// count. p99 latency diverges as ρ approaches 1 while throughput
/// plateaus at the partition capacity.
fn fig_load(scenarios: &[Scenario], report: &SweepReport, out: &mut dyn Write) -> io::Result<()> {
    let rule = "-".repeat(78);
    writeln!(
        out,
        "Multi-tenant job engine: offered load vs latency and throughput\n\
         (rho = offered load / partition capacity; latency in microseconds)\n{rule}\n\
         {:>10} {:>6} {:>14} {:>8} {:>12} {:>12} {:>8}\n{rule}",
        "partitions", "rho", "jobs/s", "util", "p50 (us)", "p99 (us)", "rejects"
    )?;
    let points = fig_load_points(scenarios, report);
    for p in &points {
        writeln!(
            out,
            "{:>10} {:>6.2} {:>14.0} {:>8.3} {:>12.1} {:>12.1} {:>8}",
            p.partitions,
            p.rho,
            p.throughput_jobs_per_s,
            p.utilization,
            p.latency_p50_ns as f64 / 1000.0,
            p.latency_p99_ns as f64 / 1000.0,
            p.rejected
        )?;
    }
    let knee = (points.iter().filter(|p| p.rho > 1.0))
        .map(|p| p.latency_p99_ns as f64 / 1000.0)
        .fold(f64::NAN, f64::max);
    writeln!(
        out,
        "{rule}\nsaturation knee: past rho = 1 the queue pins p99 near {knee:.0} us while \
         throughput plateaus at partition capacity"
    )
}

/// Gate noise (beyond the paper): expected circuit infidelity of both
/// schemes across a per-gate error-rate axis at Figure 16's workload.
/// Gate error, which no scheduling avoids, swamps the scheme-dependent
/// idle term as it grows, so the ratio compresses toward 1.
fn fig_noise(scenarios: &[Scenario], report: &SweepReport, out: &mut dyn Write) -> io::Result<()> {
    let rule = "-".repeat(66);
    writeln!(
        out,
        "Noise sweep: expected infidelity vs per-gate error rate\n\
         (p2q = pmeas = 10 x p1q, pleak = p1q, fixed idle error; fig16 workload)\n{rule}\n\
         {:>10} {:>16} {:>16} {:>12} {:>8}\n{rule}",
        "p1q", "Distributed-HISQ", "baseline", "reduction", "2q gates"
    )?;
    let points = fig_noise_points(scenarios, report);
    for p in &points {
        writeln!(
            out,
            "{:>10.0e} {:>16.5} {:>16.5} {:>11.2}x {:>8}",
            p.p_gate_1q, p.infidelity_bisp, p.infidelity_lockstep, p.reduction_ratio, p.gates_2q
        )?;
    }
    let first = points.first().expect("at least one error-rate point");
    let last = points.last().expect("at least one error-rate point");
    writeln!(
        out,
        "{rule}\nscheduling advantage: {:.2}x at p1q = {:.0e}, {:.2}x at p1q = {:.0e} \
         (gate error erodes what scheduling buys)",
        first.reduction_ratio, first.p_gate_1q, last.reduction_ratio, last.p_gate_1q
    )
}

/// Scaling (beyond the paper): fig15-style normalized runtime on
/// simultaneous span-7 long-range CNOTs, up to the largest BISP system
/// whose routers all fit the ISA's 12-bit node field.
fn fig_scale(scenarios: &[Scenario], report: &SweepReport, out: &mut dyn Write) -> io::Result<()> {
    let rule = "-".repeat(78);
    writeln!(
        out,
        "Scaling sweep: normalized runtime (Distributed-HISQ / lock-step hub)\n{rule}\n\
         {:>11} {:>14} {:>14} {:>10}   {:>11} {:>11}\n{rule}",
        "controllers", "bisp (ns)", "baseline (ns)", "normalized", "bisp insts", "base insts"
    )?;
    let rows = fig15_rows(report);
    let sizes: Vec<usize> = scenarios
        .chunks(2)
        .map(|twins| {
            let WorkloadSpec::LongRangeCnots { parallel, span } = twins[0].workload else {
                panic!("fig_scale runs the long-range CNOT workload");
            };
            long_range_controllers(parallel, span).expect("a parsed shape fits")
        })
        .collect();
    for (row, controllers) in rows.iter().zip(&sizes) {
        writeln!(
            out,
            "{:>11} {:>14} {:>14} {:>10.4}   {:>11} {:>11}",
            controllers,
            row.bisp_ns,
            row.lockstep_ns,
            row.normalized,
            row.bisp_instructions,
            row.lockstep_instructions
        )?;
    }
    // The headline: every lock-step feedback operation is a global
    // window of the shared program flow, so the gadgets' corrections
    // serialize, while BISP's point-to-point corrections overlap.
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    writeln!(
        out,
        "{rule}\nnormalized runtime {:.4}x at {} controllers -> {:.4}x at {}",
        first.normalized,
        sizes[0],
        last.normalized,
        sizes[sizes.len() - 1]
    )
}

/// Table 1: FPGA resource consumption of HISQ on the control and
/// readout boards, from the additive resource model, with its
/// extrapolation over channel counts.
fn table1(args: &FigArgs, out: &mut dyn Write) -> io::Result<()> {
    let report = table1_report();
    if args.json {
        return writeln!(out, "{report}");
    }
    let rule = "-".repeat(66);
    writeln!(
        out,
        "Table 1: FPGA resource consumption of HISQ\n{rule}\n\
         {:<28} {:>8} {:>12} {:>8}\n{rule}",
        "Type", "#LUTs", "#BlockRAM", "#FF"
    )?;
    for (board, channels, paper) in [
        (
            "Control Board (28 ch)",
            CONTROL_BOARD_CHANNELS,
            "4155 / 75 / 6392",
        ),
        (
            "Readout Board (8 ch)",
            READOUT_BOARD_CHANNELS,
            "2435 / 45 / 3192",
        ),
    ] {
        let r = (report.record(&format!("channels_{channels}"))).expect("channel point ran");
        let n = |key| r.counter(key).expect("resource metrics");
        let bram = r.value("bram_blocks").expect("resource metrics");
        let (luts, ffs) = (n("luts"), n("ffs"));
        writeln!(
            out,
            "{board:<28} {luts:>8} {bram:>12.1} {ffs:>8}   (paper: {paper})"
        )?;
    }
    let (queue, core) = (EVENT_QUEUE, BASE_CORE);
    writeln!(
        out,
        "{:<28} {:>8} {:>12.1} {:>8}   (paper: 86 / 1.5 / 160)\n{rule}\n\
         Model decomposition: base core {} / {} / {} + SyncU {} LUTs + N x queue\n\n\
         Extrapolation (multi-core configurations of Section 7.1):",
        "Event Queue (38b x 1024)",
        queue.luts,
        queue.bram_blocks,
        queue.ffs,
        core.luts,
        core.bram_blocks,
        core.ffs,
        SYNC_UNIT.luts
    )?;
    for r in report.records() {
        let n = |key| r.counter(key).expect("resource metrics");
        let v = |key| r.value(key).expect("resource metrics");
        writeln!(
            out,
            "  {:>4} channels: {:>6} LUTs {:>7.1} BRAM {:>7} FFs  ({:.2} Mb)",
            n("channels"),
            n("luts"),
            v("bram_blocks"),
            n("ffs"),
            v("bram_mb")
        )?;
    }
    Ok(())
}
