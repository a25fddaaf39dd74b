//! Frame-stepped runner entry points — the trajectory fast path.
//!
//! A frame step is: [`GbSystem::refit_frame`] once (in-place tree refit,
//! surface riding rigidly on its owning atoms), then the regular workspace
//! pipeline, whose `ready_*_lists` calls rebuild the interaction lists
//! over the warm workspace buffers. The frame skips `prepare` and every
//! cold allocation, and its energy is `to_bits()`-equal to a cold
//! workspace run over the same refitted system. A second run of the same
//! frame finds its lists current by frame nonce and skips the list builds.
//!
//! When the accumulated drift forces a tree rebuild, the step degrades
//! gracefully: [`FrameUpdate::Rebuilt`] re-prepares the system, and the
//! lists are rebuilt as on any other frame. Callers never branch on it for
//! correctness — only telemetry.

use crate::arena::Workspace;
use crate::arena::WsOutput;
use crate::commplan::CommMode;
use crate::error::GbError;
use crate::runners::serial::run_serial_ws;
use crate::runners::shared::run_shared_ws;
use crate::runners::{try_run_distributed_ws_mode, try_run_hybrid_ws_mode};
use crate::system::{FrameUpdate, GbResult, GbSystem};
use crate::workdiv::WorkDivision;
use gb_cluster::{RunReport, SimCluster};
use gb_geom::Vec3;
use parking_lot::Mutex;

/// One frame step's result: what the geometry update did plus the
/// pipeline output.
#[derive(Clone, Copy, Debug)]
pub struct FrameOutcome {
    /// Refit vs. forced rebuild (telemetry — results are valid either way).
    pub update: FrameUpdate,
    /// Pipeline output of the frame (energy + work units).
    pub output: WsOutput,
}

/// One distributed/hybrid frame step's result.
#[derive(Clone, Debug)]
pub struct ClusterFrameOutcome {
    /// Refit vs. forced rebuild.
    pub update: FrameUpdate,
    /// The master rank's result.
    pub result: GbResult,
    /// Cluster accounting report of the frame's superstep.
    pub report: RunReport,
}

/// Advances `sys` to `new_positions` and runs the serial pipeline over the
/// warm `ws` (see the module docs).
pub fn run_frame_serial(
    sys: &mut GbSystem,
    new_positions: &[Vec3],
    ws: &mut Workspace,
) -> FrameOutcome {
    let update = sys.refit_frame(new_positions);
    ws.enable_frame_tracking(0.0);
    let output = run_serial_ws(sys, ws);
    FrameOutcome { update, output }
}

/// [`run_frame_serial`] on the shared-memory (rayon) pipeline.
///
/// The `f64` argument is ignored — every frame is exact. It stays because
/// the `perfbench` crate still passes it.
pub fn run_frame_shared(
    sys: &mut GbSystem,
    new_positions: &[Vec3],
    _drift_tol: f64,
    ws: &mut Workspace,
) -> FrameOutcome {
    let update = sys.refit_frame(new_positions);
    ws.enable_frame_tracking(0.0);
    let output = run_shared_ws(sys, ws);
    FrameOutcome { update, output }
}

/// [`run_frame_serial`] on the distributed 7-step pipeline: every rank's
/// workspace rebuilds its replicated lists locally (the build is
/// deterministic, so rank segments agree without communication). The
/// cached [`CommPlan`] revalidates by list content key, so a frame whose
/// rebuilt lists come out unchanged reuses the plan outright.
///
/// [`CommPlan`]: crate::commplan::CommPlan
pub fn try_run_frame_distributed(
    sys: &mut GbSystem,
    new_positions: &[Vec3],
    cluster: &SimCluster,
    ranks: usize,
    division: WorkDivision,
    mode: CommMode,
    workspaces: &[Mutex<Workspace>],
) -> Result<ClusterFrameOutcome, GbError> {
    let update = sys.refit_frame(new_positions);
    for ws in workspaces.iter().take(ranks) {
        ws.lock().enable_frame_tracking(0.0);
    }
    let (result, report) =
        try_run_distributed_ws_mode(sys, cluster, ranks, division, mode, workspaces)?;
    Ok(ClusterFrameOutcome { update, result, report })
}

/// [`try_run_frame_distributed`] on the hybrid (ranks × stealing threads)
/// pipeline.
#[allow(clippy::too_many_arguments)]
pub fn try_run_frame_hybrid(
    sys: &mut GbSystem,
    new_positions: &[Vec3],
    cluster: &SimCluster,
    ranks: usize,
    threads_per_rank: usize,
    division: WorkDivision,
    mode: CommMode,
    workspaces: &[Mutex<Workspace>],
) -> Result<ClusterFrameOutcome, GbError> {
    let update = sys.refit_frame(new_positions);
    for ws in workspaces.iter().take(ranks) {
        ws.lock().enable_frame_tracking(0.0);
    }
    let (result, report) = try_run_hybrid_ws_mode(
        sys,
        cluster,
        ranks,
        threads_per_rank,
        division,
        mode,
        workspaces,
    )?;
    Ok(ClusterFrameOutcome { update, result, report })
}
