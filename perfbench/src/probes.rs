//! Per-phase probes of the traced run: the Born and energy phases executed
//! step by step through the layers' public calls, outside any runner.

use crate::trace::Tracer;
use gb_core::bins::ChargeBins;
use gb_core::fastmath::ExactMath;
use gb_core::gbmath::{finalize_energy, R6};
use gb_core::integrals::{push_integrals_to_atoms, IntegralAcc};
use gb_core::{BornLists, EnergyExecScratch, EnergyLists, GbSystem, MathKind, RadiiKind};
use std::hint::black_box;

/// Runs Born execution, push, bins and energy execution over `born` and
/// `energy` as probe spans, records the phase counters, and returns the
/// serial energy (kcal/mol).
pub fn phases(tr: &mut Tracer, sys: &GbSystem, born: &BornLists, energy: &EnergyLists) -> f64 {
    assert!(
        matches!(sys.params.math, MathKind::Exact)
            && matches!(sys.params.radii_kind, RadiiKind::R6),
        "the probes are instantiated for the default exact-math R6 kernels"
    );
    let n = sys.num_atoms();
    let mut acc = IntegralAcc::zeros(sys);
    let born_exec = tr.time_probe("born.exec", || {
        born.execute_range::<ExactMath, R6>(sys, 0..born.num_qleaves(), &mut acc)
    });
    let mut radii = vec![0.0; n];
    let push = tr.time_probe("born.push", || {
        push_integrals_to_atoms::<R6>(sys, &acc, 0..n, &mut radii)
    });
    let bins = tr.time_probe("bins.compute", || ChargeBins::compute(sys, &radii));
    let mut scratch = EnergyExecScratch::new();
    let (raw, energy_exec) = tr.time_probe("energy.exec", || {
        energy.execute_leaves::<ExactMath>(
            sys,
            &bins,
            &radii,
            0..energy.num_vleaves(),
            &mut scratch,
        )
    });
    let (_, born_far) = born.far_csr();
    let (_, born_near) = born.near_csr();
    tr.count(
        "born.list_entries",
        (born_far.len() + born_near.len()) as f64,
    );
    tr.count("born.work_units", born.build_work + born_exec + push);
    tr.count("energy.far_pairs", energy.far_csr().1.len() as f64);
    tr.count("energy.work_units", energy.build_work + energy_exec);
    black_box(finalize_energy(raw, sys.params.tau()))
}

/// Sum of the serial phase medians (ms) the probes and list builds
/// recorded — the serial work a parallel runner divides.
pub fn serial_phase_ms(tr: &Tracer) -> f64 {
    [
        "born.list_build",
        "born.exec",
        "born.push",
        "bins.compute",
        "energy.list_build",
        "energy.exec",
    ]
    .iter()
    .map(|n| tr.self_ms(n))
    .sum()
}
