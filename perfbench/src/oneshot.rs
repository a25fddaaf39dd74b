//! `oneshot`: cold evaluations of distinct proteins through `prepare` and
//! the distributed runner (the paper's headline OCT_MPI path).

use crate::stats::{median, tail, tail_json, Report};
use crate::{
    median_setup, mix, ms_since, probes, rel_diff, Ctx, NAIVE_REL_TOL, RUNNER_REL_TOL, SETUP_REPS,
};
use gb_cluster::{RunReport, SimCluster};
use gb_core::naive::par_naive_full;
use gb_core::runners::{run_serial, try_run_distributed_mode, try_run_distributed_ws_mode};
use gb_core::{BornLists, CommMode, EnergyLists, GbParams, GbSystem, WorkDivision, Workspace};
use gb_molecule::{synthesize_protein, Molecule, SyntheticParams};
use gb_octree::Octree;
use gb_surface::sample_surface;
use parking_lot::Mutex;
use std::hint::black_box;
use std::time::Instant;

/// Atoms per protein.
const ATOMS: usize = 4_500;
/// Ranks of the simulated cluster.
const RANKS: usize = 2;
/// Molecules generated per second of measurement (more than the pipeline
/// can evaluate on any plausible host).
const INPUTS_PER_SECOND: f64 = 16.0;
/// Molecules whose live evaluation is audited for `mem_mb`.
const MEM_SAMPLES: usize = 9;

fn protein(seed: u64, i: u64) -> Molecule {
    synthesize_protein(&SyntheticParams::with_atoms(ATOMS, mix(seed, i)))
}

fn eval(sys: &GbSystem, cluster: &SimCluster) -> Result<(f64, RunReport), String> {
    try_run_distributed_mode(
        sys,
        cluster,
        RANKS,
        WorkDivision::NodeNode,
        CommMode::Sparse,
    )
    .map(|(r, rep)| (r.energy_kcal, rep))
    .map_err(|e| e.to_string())
}

/// Runs cold evaluations over `inputs[*next..]` until `seconds` pass and
/// returns their latencies (ms); inputs are cloned outside the timing.
fn eval_loop(
    inputs: &[Molecule],
    next: &mut usize,
    seconds: f64,
    params: GbParams,
    cluster: &SimCluster,
    report: &mut Report,
    first_energy: &mut Option<f64>,
) -> Vec<f64> {
    let mut lat = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds && *next < inputs.len() {
        let mol = inputs[*next].clone();
        let t = Instant::now();
        let sys = GbSystem::prepare(mol, params);
        let out = eval(&sys, cluster);
        lat.push(ms_since(t));
        drop(sys);
        report.attempted += 1;
        match out {
            Ok((e, _)) if e.is_finite() => {
                first_energy.get_or_insert(e);
            }
            _ => report.failed += 1,
        }
        *next += 1;
    }
    lat
}

pub fn run(ctx: &mut Ctx) -> Report {
    let mut report = Report::default();
    let params = GbParams::default();
    let n_inputs = (ctx.seconds * INPUTS_PER_SECOND).ceil() as u64 + 1;
    let warmup = protein(ctx.seed, u64::MAX);
    let inputs: Vec<Molecule> = (0..n_inputs).map(|i| protein(ctx.seed, i)).collect();
    let cluster = SimCluster::single_node();

    // Set-up: the first cold evaluation in the process.
    let (setup_s, _) = median_setup(SETUP_REPS, || {
        let sys = GbSystem::prepare(warmup.clone(), params);
        eval(&sys, &cluster).map(|(e, _)| black_box(e))
    });
    report.set("setup_s", setup_s);

    let mut next = 0usize;
    let mut first_energy = None;
    let traced_seconds = if ctx.tracer.is_some() {
        ctx.seconds / 2.0
    } else {
        0.0
    };
    let t_run = Instant::now();
    let lat = eval_loop(
        &inputs,
        &mut next,
        ctx.seconds - traced_seconds,
        params,
        &cluster,
        &mut report,
        &mut first_energy,
    );
    let wall = t_run.elapsed().as_secs_f64();
    if next >= inputs.len() {
        report.check(
            "inputs_sufficient",
            false,
            format!("all {} inputs used", inputs.len()),
        );
    }
    let t = tail(&lat);
    report.set("evals_per_s", lat.len() as f64 / wall);
    report.set("eval_p50_ms", median(&lat));
    report.set("eval_tail_ms", t.value);
    report.detail("eval_tail", tail_json(&t));
    report.detail("atoms", ATOMS.to_string());
    report.detail("ranks", RANKS.to_string());

    if let Some(tr) = ctx.tracer.as_mut() {
        traced(
            tr,
            &inputs,
            &mut next,
            traced_seconds,
            params,
            &cluster,
            &mut report,
            median(&lat),
        );
    }

    checks(&inputs, params, &cluster, first_energy, &mut report);
    report
}

/// Answer checks on the run's first molecule, plus the audited memory of a
/// live evaluation (median over the first [`MEM_SAMPLES`] molecules).
fn checks(
    inputs: &[Molecule],
    params: GbParams,
    cluster: &SimCluster,
    first_energy: Option<f64>,
    report: &mut Report,
) {
    let (mut mem, mut ws_mem) = (Vec::new(), Vec::new());
    let mut repeat = None;
    for mol in inputs.iter().take(MEM_SAMPLES) {
        let sys = GbSystem::prepare(mol.clone(), params);
        let pool: Vec<Mutex<Workspace>> =
            (0..RANKS).map(|_| Mutex::new(Workspace::new())).collect();
        let out = try_run_distributed_ws_mode(
            &sys,
            cluster,
            RANKS,
            WorkDivision::NodeNode,
            CommMode::Sparse,
            &pool,
        );
        repeat.get_or_insert(out.map(|(r, _)| r.energy_kcal));
        let ws_bytes: usize = pool.iter().map(|w| w.lock().memory_bytes()).sum();
        ws_mem.push(ws_bytes as f64);
        mem.push((sys.memory_bytes() + ws_bytes) as f64);
    }
    report.set("mem_mb", median(&mem) / 1e6);
    report.set("ws.memory_mb", median(&ws_mem) / 1e6);

    let Some(e) = first_energy else {
        report.check("first_energy", false, "no evaluation succeeded");
        return;
    };
    let ws_ok = repeat.is_some_and(|r| r.is_ok_and(|r| r.to_bits() == e.to_bits()));
    report.check(
        "distributed_repeat_bits",
        ws_ok,
        "fresh caller-owned workspaces, same P and mode",
    );

    let sys = GbSystem::prepare(inputs[0].clone(), params);
    let dense = try_run_distributed_mode(
        &sys,
        cluster,
        RANKS,
        WorkDivision::NodeNode,
        CommMode::Dense,
    );
    let dense_ok = dense
        .as_ref()
        .is_ok_and(|(r, _)| r.energy_kcal.to_bits() == e.to_bits());
    report.check(
        "distributed_dense_vs_sparse_bits",
        dense_ok,
        format!("sparse {e:e}"),
    );

    let serial = run_serial(&sys).result.energy_kcal;
    let d = rel_diff(e, serial);
    report.check(
        "serial_roundoff",
        d <= RUNNER_REL_TOL,
        format!("rel diff {d:e} vs run_serial"),
    );

    let naive = par_naive_full(&sys).energy_kcal;
    let err = rel_diff(e, naive);
    report.check(
        "naive_rel_err",
        err.is_finite() && err <= NAIVE_REL_TOL,
        format!("|E-E_naive|/|E_naive| = {err:e}, tolerance {NAIVE_REL_TOL}"),
    );
    report.set("answer.energy_rel_err", err);
}

/// The traced half of the run: untraced evaluations first (the reference
/// per-operation time), then the same pipeline layer by layer.
#[allow(clippy::too_many_arguments)]
fn traced(
    tr: &mut crate::trace::Tracer,
    inputs: &[Molecule],
    next: &mut usize,
    seconds: f64,
    params: GbParams,
    cluster: &SimCluster,
    report: &mut Report,
    untraced_ms: f64,
) {
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds && *next < inputs.len() {
        let mol = inputs[*next].clone();
        *next += 1;
        report.attempted += 1;
        let op = tr.begin_op("oneshot.eval");
        let surface = tr.time("surface.sample", || sample_surface(&mol, &params.surface));
        tr.count("surface.qpoints", surface.len() as f64);
        let sys = tr.time("system.prepare", || {
            GbSystem::prepare_with_surface(mol, surface, params)
        });
        tr.time_probe("octree.build", || {
            black_box(Octree::build(sys.molecule.positions(), params.leaf_cap));
            black_box(Octree::build(sys.surface.positions(), params.leaf_cap));
        });
        let born = tr.time_probe("born.list_build", || BornLists::build_tasks(&sys, 1));
        let energy = tr.time_probe("energy.list_build", || EnergyLists::build_tasks(&sys, 1));
        let serial = probes::phases(tr, &sys, &born, &energy);
        let out = tr.time("cluster.run", || eval(&sys, cluster));
        tr.exit(op);
        match out {
            Ok((e, rep)) if e.is_finite() && rel_diff(e, serial) <= RUNNER_REL_TOL => {
                let ledgers = &rep.ledgers;
                tr.count(
                    "cluster.bytes_moved",
                    ledgers.iter().map(|l| l.bytes_moved as f64).sum(),
                );
                tr.count(
                    "cluster.comm_ops",
                    ledgers.iter().map(|l| l.comm_ops as f64).sum(),
                );
                tr.count("cluster.imbalance", rep.imbalance());
                tr.count("cluster.recoveries", f64::from(rep.recoveries));
            }
            _ => report.failed += 1,
        }
    }

    for (metric, span) in [
        ("surface.sample_ms", "surface.sample"),
        ("system.prepare_ms", "system.prepare"),
        ("octree.build_ms", "octree.build"),
        ("born.list_build_ms", "born.list_build"),
        ("born.exec_ms", "born.exec"),
        ("born.push_ms", "born.push"),
        ("bins.compute_ms", "bins.compute"),
        ("energy.list_build_ms", "energy.list_build"),
        ("energy.exec_ms", "energy.exec"),
        ("cluster.run_ms", "cluster.run"),
    ] {
        report.set(metric, tr.self_ms(span));
    }
    for name in [
        "surface.qpoints",
        "born.list_entries",
        "born.work_units",
        "energy.far_pairs",
        "energy.work_units",
        "cluster.bytes_moved",
        "cluster.comm_ops",
        "cluster.imbalance",
        "cluster.recoveries",
    ] {
        report.set(name, tr.counter(name));
    }
    report.set(
        "runner.parallel_efficiency",
        probes::serial_phase_ms(tr) / (RANKS as f64 * tr.self_ms("cluster.run")),
    );
    let (overhead, residual) = tr.shares(untraced_ms);
    report.set("trace.overhead_share", overhead);
    report.set("trace.residual_share", residual);
}
