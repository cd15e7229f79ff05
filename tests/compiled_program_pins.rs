//! Pins the compiler's output byte for byte, and checks the production
//! assembler against every compiled shape.
//!
//! Each case compiles one workload under one scheme and shot count with
//! `compile_bisp` (on `TopologyBuilder::grid(w, h)` defaults) or
//! `compile_lockstep` (on `LockstepOptions` defaults), then asserts:
//!
//! - the machine-code [`CompiledSystem::fingerprint`];
//! - the total instruction count;
//! - the FNV-1a 64 digest of every controller's listing, concatenated
//!   in address order.
//!
//! The round-trip test assembles each controller's listing with
//! [`Assembler`] and requires the compiler's own `Program` back:
//! identical instructions and an identical symbol table.
//!
//! On drift the pin test prints the whole replacement table, so an
//! intentional re-pin is a copy-paste.

use std::sync::OnceLock;

use distributed_hisq::compiler::{
    compile_bisp, compile_lockstep, BispOptions, CompiledSystem, LockstepOptions, Scheme,
};
use distributed_hisq::isa::Assembler;
use distributed_hisq::net::TopologyBuilder;
use distributed_hisq::testing::fnv1a64;
use distributed_hisq::workloads::{WorkloadSpec, QUICK_SUITE};

/// One pinned compile: workload label, scheme, shots, machine-code
/// fingerprint, total instructions, listing digest.
type Pin = (&'static str, Scheme, u32, u64, u64, u64);

const B: Scheme = Scheme::Bisp;
const L: Scheme = Scheme::Lockstep;

#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("adder_n13", B, 1, 0xec0dece72d2ac5bb, 4873, 0x25321eeaa2aa9fb6),
    ("adder_n13", B, 3, 0xad4810d6e4a7b5ba, 14644, 0xce7ef159ea4708e4),
    ("adder_n13", L, 1, 0x387d566c329dbb87, 5949, 0xc0cc7290eac50942),
    ("adder_n13", L, 3, 0x8bc2eb4c9f90b934, 15743, 0xd74e00c50ba02800),
    ("bv_n16", B, 1, 0xe070d07802902444, 1403, 0x249f008e92755f94),
    ("bv_n16", B, 3, 0x2c779338cef80ddd, 4240, 0xf50675a5a489c8a4),
    ("bv_n16", L, 1, 0x2e1b23dc4e9a197f, 1883, 0x8bf8040d7ced0616),
    ("bv_n16", L, 3, 0x78824acd08f35987, 4829, 0x15bf7a7c30ee60f6),
    ("logical_t_d3", B, 1, 0xc531850cbe399a72, 2559, 0x03f3501c861f76cc),
    ("logical_t_d3", B, 3, 0x52707b82a2b72779, 7732, 0xf1a2a38cd454d15b),
    ("logical_t_d3", L, 1, 0x0ce39cc9e0aae176, 2103, 0x6a5aab741e9eb7d5),
    ("logical_t_d3", L, 3, 0x556a4475e3919703, 5797, 0x976933d96a8431ea),
    ("logical_t_d3x2", B, 1, 0x3400a6a5e3ef70c4, 5123, 0x2a6fdc0e8ec80052),
    ("logical_t_d3x2", B, 3, 0x3175e18060524620, 15484, 0xd8ddef832f9ef5df),
    ("logical_t_d3x2", L, 1, 0xfb50b54dd7c190af, 4244, 0x25b2a5f659938e99),
    ("logical_t_d3x2", L, 3, 0xc937632b26b7e5e4, 11632, 0xf2573b76f14cfdd0),
    ("qft_n10", B, 1, 0xc24d8f916c052d8e, 4375, 0xe835c4fd1e87a60a),
    ("qft_n10", B, 3, 0x9276dcfee60b8ade, 13144, 0xbd2e0fe9f7730cc5),
    ("qft_n10", L, 1, 0xe1cfbc008fca02c9, 5509, 0x4042bbf0f349b69e),
    ("qft_n10", L, 3, 0x8effae76e2a3c4e9, 14379, 0x1570b2611a9d3e95),
    ("w_state_n12", B, 1, 0xbb40102274d377c9, 1039, 0xd7d64363c0af1fdb),
    ("w_state_n12", B, 3, 0x3af8e9ce77e9ee4d, 3140, 0x7fe075059e47cfa0),
    ("w_state_n12", L, 1, 0xb2f11c416db10d7c, 1273, 0x0786b3e3a01b332a),
    ("w_state_n12", L, 3, 0x97950a8085b43074, 3381, 0x5a8b82444394785b),
    ("qft_n30", B, 1, 0xdb8c1d6d05501d49, 45339, 0xcc0b5d62853291f7),
    ("qft_n30", B, 3, 0xefc7e718b835ff72, 136076, 0x96e72da1fa713343),
    ("qft_n30", L, 1, 0xb12a2f8a9dc9061b, 61671, 0xabe59d80721e54c2),
    ("qft_n30", L, 3, 0xc6558142899fc3a7, 161387, 0x79f3ae07aa3f4ceb),
    ("logical_t_n432", B, 1, 0x54fd51e429821581, 28464, 0x46f19132d5d605e5),
    ("logical_t_n432", B, 3, 0xf953207d1c22383c, 85857, 0x6c042f62421e629a),
    ("logical_t_n432", L, 1, 0xfa0e2d4d3a784e3a, 24943, 0xb889dc631337a9bd),
    ("logical_t_n432", L, 3, 0xf09460307e3107e6, 66353, 0x29ae5a854fb2b698),
    ("lr_cnot_p2_s3", B, 1, 0x02e0176aa6ad7b2b, 215, 0x5c70bb4937ab0132),
    ("lr_cnot_p2_s3", B, 3, 0x0a5cb3bc627eacbb, 660, 0x45b120760c78ecb5),
    ("lr_cnot_p2_s3", L, 1, 0xdbd393a140c50dfe, 275, 0x96116c99e69250e1),
    ("lr_cnot_p2_s3", L, 3, 0x44cef4a0498be71e, 707, 0x590e678b95a8ac7b),
];

/// The pinned workloads: the quick suite, two paper-scale instances,
/// and the Figure 16 long-range CNOT circuit.
fn workloads() -> Vec<WorkloadSpec> {
    let mut specs: Vec<WorkloadSpec> = QUICK_SUITE
        .iter()
        .map(|name| WorkloadSpec::suite(*name))
        .collect();
    specs.push(WorkloadSpec::suite("qft_n30"));
    specs.push(WorkloadSpec::suite("logical_t_n432"));
    specs.push(WorkloadSpec::LongRangeCnots {
        parallel: 2,
        span: 3,
    });
    specs
}

fn compile(spec: &WorkloadSpec, scheme: Scheme, shots: u32) -> CompiledSystem {
    let built = spec.build().expect("pinned workloads are known");
    let compiled = match scheme {
        Scheme::Bisp => {
            let topology = TopologyBuilder::grid(built.grid.0, built.grid.1).build();
            let options = BispOptions {
                shots,
                ..BispOptions::default()
            };
            compile_bisp(&built.circuit, &topology, &options)
        }
        Scheme::Lockstep => {
            let options = LockstepOptions {
                shots,
                ..LockstepOptions::default()
            };
            compile_lockstep(&built.circuit, &options)
        }
    };
    compiled.unwrap_or_else(|e| panic!("{} {scheme:?} x{shots}: {e}", spec.label()))
}

/// One compiled case: workload label, scheme, shots, compiled system.
type Case = (String, Scheme, u32, CompiledSystem);

/// Every workload × {BISP, lock-step} × shots {1, 3}, compiled once and
/// shared by both tests.
fn cases() -> &'static [Case] {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    CASES.get_or_init(|| {
        let mut cases = Vec::new();
        for spec in workloads() {
            for scheme in [B, L] {
                for shots in [1, 3] {
                    cases.push((spec.label(), scheme, shots, compile(&spec, scheme, shots)));
                }
            }
        }
        cases
    })
}

/// Every controller's listing, concatenated in address order.
fn full_listing(compiled: &CompiledSystem) -> String {
    compiled
        .programs
        .keys()
        .map(|&addr| {
            compiled
                .listing(addr)
                .expect("every controller has a listing")
        })
        .collect()
}

#[test]
fn compiled_programs_match_their_pins() {
    let actual: Vec<(&str, Scheme, u32, u64, u64, u64)> = cases()
        .iter()
        .map(|(label, scheme, shots, compiled)| {
            (
                label.as_str(),
                *scheme,
                *shots,
                compiled.fingerprint(),
                compiled.total_instructions(),
                fnv1a64(full_listing(compiled).as_bytes()),
            )
        })
        .collect();
    if actual != PINS {
        let mut table = String::new();
        for (label, scheme, shots, fingerprint, instructions, listing) in &actual {
            let scheme = if *scheme == B { "B" } else { "L" };
            table.push_str(&format!(
                "    (\"{label}\", {scheme}, {shots}, 0x{fingerprint:016x}, {instructions}, 0x{listing:016x}),\n"
            ));
        }
        panic!("compiled output drifted from its pins; if intentional, re-pin with:\n{table}");
    }
}

#[test]
fn listings_reassemble_to_the_emitted_programs() {
    for (label, scheme, shots, compiled) in cases() {
        for (&addr, program) in &compiled.programs {
            let listing = compiled.listing(addr).expect("listing exists");
            let assembled = Assembler::new()
                .assemble(&listing)
                .unwrap_or_else(|e| panic!("{label} {scheme:?} x{shots} @{addr}: {e}"));
            assert_eq!(
                assembled.insts(),
                program.insts(),
                "{label} {scheme:?} x{shots} @{addr}: instructions differ"
            );
            assert!(
                assembled.symbols().eq(program.symbols()),
                "{label} {scheme:?} x{shots} @{addr}: symbol tables differ"
            );
        }
    }
}
