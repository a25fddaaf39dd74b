//! `md_local`: one protein stepped through exact-mode `run_frame_shared`
//! frames over a warm workspace, each frame moving only the atoms near one
//! surface atom.

use crate::host::CoreRotation;
use crate::stats::{median, tail, tail_json, Report};
use crate::trace::Tracer;
use crate::{
    median_setup, mix, ms_since, probes, rel_diff, Ctx, NAIVE_REL_TOL, RUNNER_REL_TOL, SETUP_REPS,
};
use gb_core::arena::ListPath;
use gb_core::naive::par_naive_full;
use gb_core::runners::run_frame_shared;
use gb_core::runners::shared::run_shared_ws;
use gb_core::{FrameUpdate, GbParams, GbSystem, Workspace};
use gb_geom::{DetRng, Vec3};
use gb_molecule::{synthesize_protein, SyntheticParams};
use std::time::Instant;

/// Atoms of the protein.
const ATOMS: usize = 4_000;
/// Structure seed of the protein. The protein and the moving region are
/// the same for every workload seed, as a benchmark on one real structure
/// would be; the workload seed drives the displacements. (Synthetic
/// proteins of equal size, and surface regions of one protein, differ in
/// frame cost by more than a regression bound.)
const STRUCTURE_SEED: u64 = 0x6D64;
/// Per-axis RMS displacement of the moving atoms (Å).
const LOCAL_RMS: f64 = 0.1;
/// Radius of the moving sphere around the anchor atom (Å).
const LOCAL_RADIUS: f64 = 8.0;
/// Frames run per block. Equal to the dense-streak probe period of the
/// frame workspace (`DENSE_PROBE_PERIOD` in `gb_core::arena`), so every
/// run mixes probe and untracked frames in the same proportion. Each block
/// runs on the next CPU of a [`CoreRotation`].
const BLOCK: usize = 8;
/// Distinct pre-generated frames, cycled through.
const FRAME_POOL: usize = 8 * BLOCK;
/// Exact mode: repaired lists must be byte-identical to a rebuild.
const DRIFT_TOL: f64 = 0.0;

/// The generated trajectory: reference positions plus a pool of frames,
/// each an independent displacement of the reference (a stationary
/// process, so no run drifts into tree rebuilds).
struct Trajectory {
    mol: gb_molecule::Molecule,
    frames: Vec<Vec<Vec3>>,
    moving: usize,
}

fn trajectory(seed: u64) -> Trajectory {
    let mol = synthesize_protein(&SyntheticParams::with_atoms(ATOMS, STRUCTURE_SEED));
    let reference = mol.positions().to_vec();
    let mut rng = DetRng::new(mix(seed, 1));
    // The anchor is the atom farthest along +x: a fixed atom on the
    // protein's surface, so every seed moves the same region.
    let anchor = reference
        .iter()
        .copied()
        .max_by(|a, b| a.x.total_cmp(&b.x))
        .expect("protein has atoms");
    let moving: Vec<usize> = (0..reference.len())
        .filter(|&i| reference[i].dist(anchor) <= LOCAL_RADIUS)
        .collect();
    let frames = (0..FRAME_POOL)
        .map(|_| {
            let mut p = reference.clone();
            for &i in &moving {
                p[i] += Vec3::new(rng.normal(), rng.normal(), rng.normal()) * LOCAL_RMS;
            }
            p
        })
        .collect();
    Trajectory {
        mol,
        frames,
        moving: moving.len(),
    }
}

/// Per-run counts of how the frames' lists were made current.
#[derive(Default)]
struct PathCounts {
    frames: u64,
    /// Frames whose resident lists carried certs, so a repair was tried.
    attempts: [u64; 2],
    repaired: [u64; 2],
    rebuilt: [u64; 2],
    /// Rebuilds that recorded certs (the dense streak's probes).
    probes: [u64; 2],
    rewalk_sum: [f64; 2],
    tree_rebuilds: u64,
}

impl PathCounts {
    /// Which phases will try a repair on the next frame.
    fn armed(ws: &Workspace) -> [bool; 2] {
        [
            ws.born.tracks_certs() && ws.born.has_certs(),
            ws.energy.tracks_certs() && ws.energy.has_certs(),
        ]
    }

    fn record(&mut self, armed: [bool; 2], update: FrameUpdate, ws: &Workspace) {
        self.frames += 1;
        if matches!(update, FrameUpdate::Rebuilt) {
            self.tree_rebuilds += 1;
        }
        let phases = [
            (
                ws.last_born_path,
                ws.born.tracks_certs(),
                ws.last_born_repair.rewalk_fraction(),
            ),
            (
                ws.last_energy_path,
                ws.energy.tracks_certs(),
                ws.last_energy_repair.rewalk_fraction(),
            ),
        ];
        for (k, (path, tracked, rewalk)) in phases.into_iter().enumerate() {
            let attempted = armed[k] && matches!(update, FrameUpdate::Refit(_));
            self.attempts[k] += u64::from(attempted);
            match path {
                ListPath::Repaired => {
                    self.repaired[k] += 1;
                    self.rewalk_sum[k] += rewalk;
                }
                ListPath::Rebuilt => {
                    self.rebuilt[k] += 1;
                    self.probes[k] += u64::from(tracked);
                }
                ListPath::Skipped | ListPath::Injected => {}
            }
        }
    }

    fn mean_rewalk(&self, k: usize) -> f64 {
        if self.repaired[k] == 0 {
            0.0
        } else {
            self.rewalk_sum[k] / self.repaired[k] as f64
        }
    }

    fn repaired_share(&self) -> f64 {
        let attempts = self.attempts[0] + self.attempts[1];
        if attempts == 0 {
            0.0
        } else {
            (self.repaired[0] + self.repaired[1]) as f64 / attempts as f64
        }
    }

    fn json(&self) -> String {
        let phase = |k: usize| {
            format!(
                "{{\"attempts\": {}, \"repaired\": {}, \"rebuilt\": {}, \"probes\": {}, \"mean_rewalk_fraction\": {}}}",
                self.attempts[k], self.repaired[k], self.rebuilt[k], self.probes[k], self.mean_rewalk(k)
            )
        };
        format!(
            "{{\"frames\": {}, \"tree_rebuilds\": {}, \"born\": {}, \"energy\": {}}}",
            self.frames,
            self.tree_rebuilds,
            phase(0),
            phase(1)
        )
    }
}

/// State carried through the frames.
struct Runner {
    sys: GbSystem,
    ws: Workspace,
    next: usize,
    last_energy: Option<f64>,
}

pub fn run(ctx: &mut Ctx) -> Report {
    let mut report = Report::default();
    let params = GbParams::default();
    let traj = trajectory(ctx.seed);

    // Set-up: prepare plus the first (cold, cert-recording) frame.
    let (setup_s, (sys, ws)) = median_setup(SETUP_REPS, || {
        let mut sys = GbSystem::prepare(traj.mol.clone(), params);
        let mut ws = Workspace::new();
        run_frame_shared(&mut sys, &traj.frames[0], DRIFT_TOL, &mut ws);
        (sys, ws)
    });
    report.set("setup_s", setup_s);
    let mut r = Runner {
        sys,
        ws,
        next: 1,
        last_energy: None,
    };

    let traced_seconds = if ctx.tracer.is_some() {
        ctx.seconds / 2.0
    } else {
        0.0
    };
    let mut counts = PathCounts::default();
    let mut lat = Vec::new();
    let mut rotation = CoreRotation::new();
    let t_run = Instant::now();
    while t_run.elapsed().as_secs_f64() < ctx.seconds - traced_seconds {
        rotation.step();
        for _ in 0..BLOCK {
            let pos = &traj.frames[r.next % FRAME_POOL];
            r.next += 1;
            let armed = PathCounts::armed(&r.ws);
            let t = Instant::now();
            let out = run_frame_shared(&mut r.sys, pos, DRIFT_TOL, &mut r.ws);
            lat.push(ms_since(t));
            counts.record(armed, out.update, &r.ws);
            report.attempted += 1;
            if out.output.energy_kcal.is_finite() {
                r.last_energy = Some(out.output.energy_kcal);
            } else {
                report.failed += 1;
            }
        }
    }
    let wall = t_run.elapsed().as_secs_f64();
    let t = tail(&lat);
    report.set("evals_per_s", lat.len() as f64 / wall);
    report.set("eval_p50_ms", median(&lat));
    report.set("eval_tail_ms", t.value);
    report.detail("eval_tail", tail_json(&t));
    report.detail("atoms", ATOMS.to_string());
    report.detail("moving_atoms", traj.moving.to_string());
    report.detail("frame_paths", counts.json());

    if let Some(tr) = ctx.tracer.as_mut() {
        traced(
            tr,
            &traj,
            &mut r,
            &mut rotation,
            traced_seconds,
            &mut report,
            median(&lat),
        );
    }

    checks(&r, &mut report);
    report
}

/// Exact-mode contract on the last frame, accuracy against naive, and the
/// audited memory of the live system and workspace.
fn checks(r: &Runner, report: &mut Report) {
    report.set(
        "mem_mb",
        (r.sys.memory_bytes() + r.ws.memory_bytes()) as f64 / 1e6,
    );
    let Some(e) = r.last_energy else {
        report.check("last_energy", false, "no frame produced a finite energy");
        return;
    };
    let fresh = run_shared_ws(&r.sys, &mut Workspace::new()).energy_kcal;
    report.check(
        "last_frame_vs_fresh_workspace_bits",
        fresh.to_bits() == e.to_bits(),
        format!("frame {e:e} vs fresh workspace {fresh:e}"),
    );
    let naive = par_naive_full(&r.sys).energy_kcal;
    let err = rel_diff(e, naive);
    report.check(
        "naive_rel_err",
        err.is_finite() && err <= NAIVE_REL_TOL,
        format!("|E-E_naive|/|E_naive| = {err:e}, tolerance {NAIVE_REL_TOL}"),
    );
    report.set("answer.energy_rel_err", err);
}

/// The traced half of the run: each frame's refit, list readiness and
/// execution as separate spans (execution runs with both lists already
/// current), then the per-phase probes on the frame's lists.
fn traced(
    tr: &mut Tracer,
    traj: &Trajectory,
    r: &mut Runner,
    rotation: &mut CoreRotation,
    seconds: f64,
    report: &mut Report,
    untraced_ms: f64,
) {
    let mut counts = PathCounts::default();
    let mut exec_paths_skipped = true;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        rotation.step();
        for _ in 0..BLOCK {
            let pos = &traj.frames[r.next % FRAME_POOL];
            r.next += 1;
            report.attempted += 1;
            let armed = PathCounts::armed(&r.ws);
            let op = tr.begin_op("md.frame");
            let update = tr.time("octree.refit", || r.sys.refit_frame(pos));
            r.ws.enable_frame_tracking(DRIFT_TOL);
            let s = tr.enter("born.lists");
            r.ws.ready_born_lists(&r.sys);
            tr.exit_as(
                s,
                list_span(r.ws.last_born_path, "born.list_build", "born.repair"),
            );
            let s = tr.enter("energy.lists");
            r.ws.ready_energy_lists(&r.sys);
            tr.exit_as(
                s,
                list_span(r.ws.last_energy_path, "energy.list_build", "energy.repair"),
            );
            counts.record(armed, update, &r.ws);
            let out = tr.time("frame.exec", || run_shared_ws(&r.sys, &mut r.ws));
            exec_paths_skipped &= r.ws.last_born_path == ListPath::Skipped
                && r.ws.last_energy_path == ListPath::Skipped;
            let serial = probes::phases(tr, &r.sys, &r.ws.born, &r.ws.energy);
            tr.exit(op);
            let e = out.energy_kcal;
            if e.is_finite() && rel_diff(e, serial) <= RUNNER_REL_TOL {
                r.last_energy = Some(e);
            } else {
                report.failed += 1;
            }
        }
    }
    report.check(
        "traced_exec_skips_list_builds",
        exec_paths_skipped,
        "run_shared_ws after ready_*_lists must find both lists current",
    );
    for (metric, span) in [
        ("octree.refit_ms", "octree.refit"),
        ("born.list_build_ms", "born.list_build"),
        ("born.repair_ms", "born.repair"),
        ("energy.list_build_ms", "energy.list_build"),
        ("energy.repair_ms", "energy.repair"),
        ("frame.exec_ms", "frame.exec"),
        ("born.exec_ms", "born.exec"),
        ("born.push_ms", "born.push"),
        ("bins.compute_ms", "bins.compute"),
        ("energy.exec_ms", "energy.exec"),
    ] {
        report.set(metric, tr.self_ms(span));
    }
    for name in [
        "born.list_entries",
        "born.work_units",
        "energy.far_pairs",
        "energy.work_units",
    ] {
        report.set(name, tr.counter(name));
    }
    report.set("born.rewalk_fraction", counts.mean_rewalk(0));
    report.set("energy.rewalk_fraction", counts.mean_rewalk(1));
    report.set("frame.repaired_share", counts.repaired_share());
    report.set("frame.rebuilt", counts.rebuilt[0] as f64);
    report.set("frame.probes", counts.probes[0] as f64);
    report.set("ws.memory_mb", r.ws.memory_bytes() as f64 / 1e6);
    report.detail("traced_frame_paths", counts.json());
    let (overhead, residual) = tr.shares(untraced_ms);
    report.set("trace.overhead_share", overhead);
    report.set("trace.residual_share", residual);
}

fn list_span(path: ListPath, rebuilt: &'static str, repaired: &'static str) -> &'static str {
    if path == ListPath::Repaired {
        repaired
    } else {
        rebuilt
    }
}
