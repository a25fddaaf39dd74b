//! Frame-over-frame recompute, end to end: after a
//! [`GbSystem::refit_frame`] step, warm workspaces rebuild their
//! interaction lists, and every runner, comm mode and rank count must
//! produce the same `to_bits()` energy and radii as a cold scratch run
//! over the very same refitted system. Also covered: mid-frame rank kills
//! healing onto the frame's lists (not the previous frame's), and CommPlan
//! reuse across identity frames.

use gb_cluster::{FaultPlan, SimCluster};
use gb_core::arena::{ListPath, Workspace};
use gb_core::commplan::CommMode;
use gb_core::params::GbParams;
use gb_core::runners::serial::run_serial_ws;
use gb_core::runners::shared::run_shared_ws;
use gb_core::runners::{try_run_distributed_ws_mode, try_run_hybrid_ws_mode};
use gb_core::system::{FrameUpdate, GbSystem};
use gb_core::workdiv::WorkDivision;
use gb_geom::{DetRng, Vec3};
use gb_molecule::{synthesize_protein, SyntheticParams};
use parking_lot::Mutex;

fn prepare(n: usize, seed: u64) -> GbSystem {
    let mol = synthesize_protein(&SyntheticParams::with_atoms(n, seed));
    GbSystem::prepare(mol, GbParams::default())
}

fn jitter(positions: &[Vec3], rng: &mut DetRng, amp: f64) -> Vec<Vec3> {
    positions
        .iter()
        .map(|&p| p + Vec3::new(rng.normal(), rng.normal(), rng.normal()) * amp)
        .collect()
}

fn frame_pool(ranks: usize) -> Vec<Mutex<Workspace>> {
    (0..ranks)
        .map(|_| {
            let mut ws = Workspace::new();
            ws.enable_frame_tracking(0.0);
            Mutex::new(ws)
        })
        .collect()
}

/// Warm frames: serial, shared, and distributed (Dense/Sparse ×
/// P ∈ {2, 4, 8}) all agree bit for bit with a cold scratch run over the
/// same refitted system, frame after frame.
#[test]
fn warm_frames_bitwise_across_runners_comm_modes_and_ranks() {
    let mut sys = prepare(500, 91);
    let cluster = SimCluster::single_node();
    let mut serial_ws = Workspace::new();
    serial_ws.enable_frame_tracking(0.0);
    let mut shared_ws = Workspace::new();
    shared_ws.enable_frame_tracking(0.0);
    let pools: Vec<(usize, Vec<Mutex<Workspace>>)> =
        [2usize, 4, 8].iter().map(|&p| (p, frame_pool(p))).collect();
    let hybrid_pool = frame_pool(2);

    // Frame 0: cold builds everywhere.
    run_serial_ws(&sys, &mut serial_ws);
    run_shared_ws(&sys, &mut shared_ws);
    for (p, pool) in &pools {
        try_run_distributed_ws_mode(
            &sys, &cluster, *p, WorkDivision::NodeNode, CommMode::Sparse, pool,
        )
        .expect("frame 0");
    }
    try_run_hybrid_ws_mode(
        &sys, &cluster, 2, 1, WorkDivision::NodeNode, CommMode::Sparse, &hybrid_pool,
    )
    .expect("frame 0 hybrid");

    let mut rng = DetRng::new(17);
    for frame in 1..=2 {
        let moved = jitter(sys.molecule.positions(), &mut rng, 0.02);
        match sys.refit_frame(&moved) {
            FrameUpdate::Refit(_) => {}
            FrameUpdate::Rebuilt => panic!("frame {frame}: small jitter must refit"),
        }

        let reference = run_serial_ws(&sys, &mut serial_ws);
        assert_eq!(serial_ws.last_born_path, ListPath::Rebuilt, "frame {frame}");
        assert_eq!(serial_ws.last_energy_path, ListPath::Rebuilt, "frame {frame}");

        // Cold scratch rebuild over the *same* refitted system is the
        // ground truth the warm pipeline must reproduce exactly.
        let cold = run_serial_ws(&sys, &mut Workspace::new());
        assert_eq!(
            reference.energy_kcal.to_bits(),
            cold.energy_kcal.to_bits(),
            "frame {frame}: warm serial vs scratch"
        );

        // Shared merges chunk partials, so it matches serial to roundoff
        // (its standing contract), and must itself rebuild for the frame.
        let shared = run_shared_ws(&sys, &mut shared_ws);
        assert_eq!(shared_ws.last_born_path, ListPath::Rebuilt, "frame {frame}");
        assert!(
            (reference.energy_kcal - shared.energy_kcal).abs()
                < 1e-12 * reference.energy_kcal.abs(),
            "frame {frame}: shared {} vs serial {}",
            shared.energy_kcal,
            reference.energy_kcal
        );

        for (p, pool) in &pools {
            // Dense and sparse over the frame's lists must stay mutually
            // bitwise (the standing comm-mode guarantee)…
            let (dense, _) = try_run_distributed_ws_mode(
                &sys, &cluster, *p, WorkDivision::NodeNode, CommMode::Dense, pool,
            )
            .unwrap_or_else(|e| panic!("frame {frame} P={p} Dense: {e}"));
            assert_eq!(pool[0].lock().last_born_path, ListPath::Rebuilt, "P={p}");
            let (sparse, _) = try_run_distributed_ws_mode(
                &sys, &cluster, *p, WorkDivision::NodeNode, CommMode::Sparse, pool,
            )
            .unwrap_or_else(|e| panic!("frame {frame} P={p} Sparse: {e}"));
            // …and the second run of the same frame skips the list work.
            assert_eq!(
                pool[0].lock().last_born_path,
                ListPath::Skipped,
                "frame {frame} P={p}: second run of the frame must skip"
            );
            assert_eq!(
                dense.energy_kcal.to_bits(),
                sparse.energy_kcal.to_bits(),
                "frame {frame} P={p}: dense vs sparse"
            );

            // Warm frame == cold scratch workspaces at the SAME (P, mode),
            // bit for bit — warm buffers are invisible to the pipeline.
            let cold_pool: Vec<Mutex<Workspace>> =
                (0..*p).map(|_| Mutex::new(Workspace::new())).collect();
            let (scratch, _) = try_run_distributed_ws_mode(
                &sys, &cluster, *p, WorkDivision::NodeNode, CommMode::Sparse, &cold_pool,
            )
            .unwrap_or_else(|e| panic!("frame {frame} P={p} scratch: {e}"));
            assert_eq!(
                sparse.energy_kcal.to_bits(),
                scratch.energy_kcal.to_bits(),
                "frame {frame} P={p}: warm vs scratch"
            );
            for (i, (a, b)) in sparse.born_radii.iter().zip(&scratch.born_radii).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "frame {frame} P={p}: warm vs scratch radius {i}"
                );
            }

            // Across runners the combine order differs, so serial agrees
            // to roundoff (the standing cross-runner contract).
            assert!(
                (reference.energy_kcal - sparse.energy_kcal).abs()
                    < 1e-12 * reference.energy_kcal.abs(),
                "frame {frame} P={p}: serial {} vs distributed {}",
                reference.energy_kcal,
                sparse.energy_kcal
            );
        }

        // Hybrid rebuilds too; cross-runner agreement is to roundoff.
        let (hyb, _) = try_run_hybrid_ws_mode(
            &sys, &cluster, 2, 1, WorkDivision::NodeNode, CommMode::Sparse, &hybrid_pool,
        )
        .unwrap_or_else(|e| panic!("frame {frame} hybrid: {e}"));
        assert_eq!(hybrid_pool[0].lock().last_born_path, ListPath::Rebuilt);
        assert!(
            (reference.energy_kcal - hyb.energy_kcal).abs()
                < 1e-12 * reference.energy_kcal.abs(),
            "frame {frame}: hybrid {} vs serial {}",
            hyb.energy_kcal,
            reference.energy_kcal
        );
    }
}

/// A rank killed mid-frame must heal onto the frame's own lists — the
/// superstep checkpoints and the replay must reproduce the fault-free
/// frame bit for bit (never resurrect the previous frame's state).
#[test]
fn mid_frame_rank_kill_heals_onto_the_frames_lists() {
    let p = 4;
    let victim = 1;
    // Two identical warm pools: one plays the clean frame, the other the
    // faulted one, so both enter the frame with the same state.
    let clean_pool = frame_pool(p);
    let faulty_pool = frame_pool(p);
    let clean_cluster = SimCluster::single_node();

    let mut sys = prepare(450, 92);
    for pool in [&clean_pool, &faulty_pool] {
        try_run_distributed_ws_mode(
            &sys, &clean_cluster, p, WorkDivision::NodeNode, CommMode::Sparse, pool,
        )
        .expect("frame 0");
    }

    let mut rng = DetRng::new(23);
    let moved = jitter(sys.molecule.positions(), &mut rng, 0.02);
    match sys.refit_frame(&moved) {
        FrameUpdate::Refit(_) => {}
        FrameUpdate::Rebuilt => panic!("jitter must refit"),
    }

    let (clean, clean_report) = try_run_distributed_ws_mode(
        &sys, &clean_cluster, p, WorkDivision::NodeNode, CommMode::Sparse, &clean_pool,
    )
    .expect("clean frame 1");
    assert_eq!(clean_pool[0].lock().last_born_path, ListPath::Rebuilt);

    // Early, mid and late kill sites in the victim's op stream: replays
    // exercise full recompute and both checkpoint restore paths, all on a
    // workspace whose lists were rebuilt at attempt 0 of this same frame.
    let ops = clean_report.ledgers[victim].ops_started;
    let mut healed_once = false;
    for at_op in [0, ops / 2, ops.saturating_sub(1)] {
        let cluster = SimCluster::single_node()
            .with_recovery(2)
            .with_fault_plan(FaultPlan::new().kill_rank(victim, at_op));
        let (healed, report) = try_run_distributed_ws_mode(
            &sys, &cluster, p, WorkDivision::NodeNode, CommMode::Sparse, &faulty_pool,
        )
        .unwrap_or_else(|e| panic!("kill at op {at_op}: must complete: {e}"));
        assert!(report.recoveries >= 1, "kill at op {at_op}: no heal");
        healed_once = true;
        assert_eq!(
            clean.energy_kcal.to_bits(),
            healed.energy_kcal.to_bits(),
            "kill at op {at_op}"
        );
        for (i, (a, b)) in clean.born_radii.iter().zip(&healed.born_radii).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "kill at op {at_op}: radius {i}");
        }
    }
    assert!(healed_once);
}

/// A frame whose rebuilt lists come out unchanged (identity refit) must
/// reuse the cached CommPlan outright — provable via the plan's rebuild
/// counter.
#[test]
fn commplan_survives_identity_frames() {
    let p = 3;
    let pool = frame_pool(p);
    let cluster = SimCluster::single_node();
    let mut sys = prepare(400, 93);

    let (first, _) = try_run_distributed_ws_mode(
        &sys, &cluster, p, WorkDivision::NodeNode, CommMode::Sparse, &pool,
    )
    .expect("frame 0");
    let rebuilds_after_cold: Vec<u64> =
        pool.iter().map(|ws| ws.lock().plan.rebuilds()).collect();
    assert!(rebuilds_after_cold.iter().all(|&r| r >= 1));
    let key = pool[0].lock().born.content_key();

    // Identity frame: same positions, new nonce — lists rebuild to an
    // unchanged structure, so the plan's content key still matches.
    let same = sys.molecule.positions().to_vec();
    match sys.refit_frame(&same) {
        FrameUpdate::Refit(_) => {}
        FrameUpdate::Rebuilt => panic!("identity refit must not rebuild"),
    }
    let (second, _) = try_run_distributed_ws_mode(
        &sys, &cluster, p, WorkDivision::NodeNode, CommMode::Sparse, &pool,
    )
    .expect("identity frame");
    for (r, ws) in rebuilds_after_cold.iter().zip(&pool) {
        let ws = ws.lock();
        assert_eq!(ws.last_born_path, ListPath::Rebuilt);
        assert_eq!(ws.born.content_key(), key, "identity frame changed the lists");
        assert_eq!(
            ws.plan.rebuilds(),
            *r,
            "identity frame must not rebuild the CommPlan"
        );
    }
    assert_eq!(first.energy_kcal.to_bits(), second.energy_kcal.to_bits());
}
