//! Pair-decomposed GB evaluation — the docking fast path.
//!
//! A docking scan evaluates one *receptor* against thousands of rigid
//! *ligand* poses. Rebuilding the merged complex from scratch per pose
//! throws away everything that does not depend on the pose: the receptor's
//! octrees, surface and interaction lists are pose-invariant outright, and
//! the ligand's are pose-invariant *in its own canonical frame* (a rigid
//! transform changes coordinates, not topology). This module keeps the two
//! monomers separate and decomposes the complex evaluation into
//!
//! * **own-surface integrals** — each monomer's surface integrated against
//!   its own atoms, computed once per monomer in its canonical frame and
//!   cached as a flat accumulator image ([`Monomer::self_flat`]);
//! * **cross integrals** — receptor atoms against the *posed* ligand
//!   surface and vice versa, built per pose by
//!   [`BornLists::rebuild_cross`] / executed by
//!   [`BornLists::execute_cross`];
//! * **energy** — each monomer's internal terms through its cached energy
//!   lists (with the complex's Born radii), plus the exact cross
//!   atom–atom double sum (`× 2` for both orderings of the raw
//!   all-ordered-pairs sum).
//!
//! The decomposition is a *definition* of the pair pipeline, not an
//! approximation layered on the merged-complex pipeline: monomer-internal
//! terms are evaluated in each monomer's canonical frame (the
//! deterministic choice that makes them cacheable — a rigid rotation
//! preserves all pairwise distances, so the canonical-frame value is the
//! physically identical term), and pose-dependent terms are evaluated in
//! the receptor frame. Every step is deterministic, so the same
//! `(receptor, ligand, pose)` always produces bit-identical energies —
//! whether the monomer artifacts came from a cache or were rebuilt — which
//! is the serve layer's warm-vs-cold `to_bits()` contract.

use crate::arena::CachedLists;
use crate::bins::ChargeBins;
use crate::contenthash::{params_key, system_key};
use crate::fastmath::{ApproxMath, ExactMath};
use crate::gbmath::{finalize_energy, inv_f_gb, R4, R6};
use crate::integrals::{push_integrals_scratch, IntegralAcc};
use crate::interaction::{BornLists, EnergyExecScratch, ListScratch};
use crate::params::{GbParams, MathKind, RadiiKind};
use crate::runners::with_kernels;
use crate::system::GbSystem;
use gb_geom::{RigidTransform, Vec3};
use gb_molecule::Molecule;
use gb_octree::NodeId;
use std::sync::Arc;

/// A prepared monomer with every pose-invariant artifact: the system, both
/// interaction lists, the own-surface integral image and the solo (gas- to
/// solvent-phase) energy. This is what the serve cache stores for docking
/// traffic — built once per content key, shared across every pose.
#[derive(Debug)]
pub struct Monomer {
    /// Content key of `(molecule, params)` ([`system_key`]).
    pub key: u64,
    /// Content key of the parameters alone — pair evaluation requires both
    /// monomers to share it.
    pub params_key: u64,
    /// The prepared system in its canonical frame.
    pub sys: Arc<GbSystem>,
    /// Own-surface interaction lists (Born + energy).
    pub lists: Arc<CachedLists>,
    /// Flat accumulator image (`node_s ++ atom_s`) of the own-surface Born
    /// integrals — the starting point of every per-pose accumulation.
    pub self_flat: Vec<f64>,
    /// Billed work of the own-surface phase (list build + integral
    /// execution + push), re-billed per pose so cached and cold paths
    /// account identically.
    pub self_work: f64,
    /// Solo polarization energy of the isolated monomer in kcal/mol.
    pub solo_energy_kcal: f64,
}

impl Monomer {
    /// Prepares a monomer from scratch: system, lists, own-surface
    /// integrals, solo energy.
    pub fn build(molecule: Molecule, params: GbParams) -> Monomer {
        let key = system_key(&molecule, &params);
        let sys = Arc::new(GbSystem::prepare(molecule, params));
        let lists = Arc::new(CachedLists::build(&sys, key));
        Monomer::from_parts(key, sys, lists)
    }

    /// Assembles a monomer from already-cached tiers (tier-1 system and/or
    /// tier-2 lists hits), computing only the own-surface integrals and
    /// solo energy. All paths are deterministic, so the result is
    /// bit-identical to [`Monomer::build`] on the same content.
    pub fn from_parts(key: u64, sys: Arc<GbSystem>, lists: Arc<CachedLists>) -> Monomer {
        assert_eq!(lists.key, key, "lists were built for a different content key");
        let s: &GbSystem = &sys;
        let n = s.num_atoms();
        with_kernels!(s.params, M, K => {
            let mut acc = IntegralAcc::zeros(s);
            let mut work = lists.born.build_work;
            work += lists.born.execute_range::<M, K>(s, 0..lists.born.num_qleaves(), &mut acc);
            let self_flat = acc.to_flat();
            let mut radii_tree = vec![0.0; n];
            let mut stack = Vec::new();
            work += push_integrals_scratch::<M, K>(s, &acc, 0..n, &mut radii_tree, &mut stack);
            let mut bins = ChargeBins::empty();
            bins.recompute(s, &radii_tree);
            let mut exec = EnergyExecScratch::new();
            let (raw, _) = lists.energy.execute_leaves::<M>(
                s, &bins, &radii_tree, 0..lists.energy.num_vleaves(), &mut exec);
            let solo_energy_kcal = finalize_energy(raw, s.params.tau());
            let pk = params_key(&s.params);
            Monomer {
                key,
                params_key: pk,
                sys,
                lists,
                self_flat,
                self_work: work,
                solo_energy_kcal,
            }
        })
    }

    /// Heap footprint in bytes of the artifacts this monomer owns
    /// exclusively, plus its shares of the `Arc`'d system and lists (billed
    /// here so a cache holding only the `Monomer` still accounts the full
    /// working set).
    pub fn memory_bytes(&self) -> usize {
        self.sys.memory_bytes()
            + self.lists.memory_bytes()
            + self.self_flat.capacity() * std::mem::size_of::<f64>()
    }
}

/// Result of one pair evaluation.
#[derive(Clone, Copy, Debug)]
pub struct PairOutcome {
    /// Polarization energy of the posed complex in kcal/mol.
    pub energy_kcal: f64,
    /// Interaction energy: complex minus both solo energies.
    pub delta_kcal: f64,
    /// Billed work units (own-surface re-bill + cross build/exec + energy).
    pub work: f64,
}

/// Reusable buffers of the per-pose evaluation — one per serve worker, so
/// steady-state poses allocate only the posed octree copies.
#[derive(Debug)]
pub struct PairScratch {
    cross_ab: BornLists,
    cross_ba: BornLists,
    ls: ListScratch,
    acc_a: IntegralAcc,
    acc_b: IntegralAcc,
    radii_a: Vec<f64>,
    radii_b: Vec<f64>,
    push_stack: Vec<(NodeId, f64)>,
    bins_a: ChargeBins,
    bins_b: ChargeBins,
    exec: EnergyExecScratch,
    rot_q_normals: Vec<Vec3>,
    rot_q_normal_tree: Vec<Vec3>,
}

impl PairScratch {
    /// Fresh scratch with no warmed buffers.
    pub fn new() -> PairScratch {
        PairScratch {
            cross_ab: BornLists::empty(),
            cross_ba: BornLists::empty(),
            ls: ListScratch::new(),
            acc_a: IntegralAcc::empty(),
            acc_b: IntegralAcc::empty(),
            radii_a: Vec::new(),
            radii_b: Vec::new(),
            push_stack: Vec::new(),
            bins_a: ChargeBins::empty(),
            bins_b: ChargeBins::empty(),
            exec: EnergyExecScratch::new(),
            rot_q_normals: Vec::new(),
            rot_q_normal_tree: Vec::new(),
        }
    }
}

impl Default for PairScratch {
    fn default() -> PairScratch {
        PairScratch::new()
    }
}

/// Evaluates the complex `a + pose(b)` through the pair decomposition.
/// Allocating convenience over [`evaluate_pair_ws`].
pub fn evaluate_pair(a: &Monomer, b: &Monomer, pose: &RigidTransform) -> PairOutcome {
    evaluate_pair_ws(a, b, pose, &mut PairScratch::new())
}

/// [`evaluate_pair`] with caller-owned scratch. `a` is the frame anchor
/// (the receptor); `pose` maps `b`'s canonical frame into `a`'s.
pub fn evaluate_pair_ws(
    a: &Monomer,
    b: &Monomer,
    pose: &RigidTransform,
    scratch: &mut PairScratch,
) -> PairOutcome {
    assert_eq!(a.params_key, b.params_key, "pair evaluation requires shared GB parameters");
    let sa: &GbSystem = &a.sys;
    let sb: &GbSystem = &b.sys;
    let threshold = sa.params.radii_mac_threshold();
    let (na, nb) = (sa.num_atoms(), sb.num_atoms());

    // Posed ligand geometry: topology-preserving transformed octrees plus
    // rotated surface normals (per-node aggregates and per-point).
    let tb_a = sb.ta.transformed(pose);
    let tb_q = sb.tq.transformed(pose);
    scratch.rot_q_normals.clear();
    scratch.rot_q_normals.extend(sb.q_normals.iter().map(|&v| pose.apply_vector(v)));
    scratch.rot_q_normal_tree.clear();
    scratch
        .rot_q_normal_tree
        .extend(sb.q_normal_tree.iter().map(|&v| pose.apply_vector(v)));

    with_kernels!(sa.params, M, K => {
        // Born integrals: start each monomer from its cached own-surface
        // image, add the posed cross terms.
        scratch.acc_a.reset_for(sa);
        scratch.acc_a.copy_from_flat(&a.self_flat);
        scratch.cross_ab.rebuild_cross(&sa.ta, &tb_q, threshold, &mut scratch.ls);
        let mut work = a.self_work + b.self_work + scratch.cross_ab.build_work;
        work += scratch.cross_ab.execute_cross::<M, K>(
            &sa.ta, &tb_q, &scratch.rot_q_normals, &scratch.rot_q_normal_tree,
            &sb.q_weight_tree, 0..scratch.cross_ab.num_qleaves(), &mut scratch.acc_a);

        scratch.acc_b.reset_for(sb);
        scratch.acc_b.copy_from_flat(&b.self_flat);
        scratch.cross_ba.rebuild_cross(&tb_a, &sa.tq, threshold, &mut scratch.ls);
        work += scratch.cross_ba.build_work;
        work += scratch.cross_ba.execute_cross::<M, K>(
            &tb_a, &sa.tq, &sa.q_normals, &sa.q_normal_tree,
            &sa.q_weight_tree, 0..scratch.cross_ba.num_qleaves(), &mut scratch.acc_b);

        // Push to atoms: topology-only, so each monomer pushes in its
        // canonical tree (the posed copy shares it).
        scratch.radii_a.clear();
        scratch.radii_a.resize(na, 0.0);
        work += push_integrals_scratch::<M, K>(
            sa, &scratch.acc_a, 0..na, &mut scratch.radii_a, &mut scratch.push_stack);
        scratch.radii_b.clear();
        scratch.radii_b.resize(nb, 0.0);
        work += push_integrals_scratch::<M, K>(
            sb, &scratch.acc_b, 0..nb, &mut scratch.radii_b, &mut scratch.push_stack);

        // Energy: monomer-internal terms through the cached lists (complex
        // radii), cross terms as the exact ordered-pair double sum.
        scratch.bins_a.recompute(sa, &scratch.radii_a);
        let (raw_aa, ew_a) = a.lists.energy.execute_leaves::<M>(
            sa, &scratch.bins_a, &scratch.radii_a,
            0..a.lists.energy.num_vleaves(), &mut scratch.exec);
        scratch.bins_b.recompute(sb, &scratch.radii_b);
        let (raw_bb, ew_b) = b.lists.energy.execute_leaves::<M>(
            sb, &scratch.bins_b, &scratch.radii_b,
            0..b.lists.energy.num_vleaves(), &mut scratch.exec);

        let pa = sa.ta.points();
        let pb = tb_a.points();
        let mut raw_cross = 0.0;
        let rows = pa.iter().zip(&sa.charge_tree).zip(&scratch.radii_a).take(na);
        for ((&xi, &qi), &ri) in rows {
            let mut row = 0.0;
            let cols = pb.iter().zip(&sb.charge_tree).zip(&scratch.radii_b).take(nb);
            for ((&xj, &qj), &rj) in cols {
                let d2 = (xi - xj).norm_sq();
                row += qj * inv_f_gb::<M>(d2, ri * rj);
            }
            raw_cross += qi * row;
        }
        work += ew_a + ew_b + (na * nb) as f64;

        // raw sums count ordered pairs, so the A×B block appears twice
        let raw = raw_aa + raw_bb + 2.0 * raw_cross;
        let energy_kcal = finalize_energy(raw, sa.params.tau());
        PairOutcome {
            energy_kcal,
            delta_kcal: energy_kcal - a.solo_energy_kcal - b.solo_energy_kcal,
            work,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_geom::Vec3;
    use gb_molecule::{synthesize_protein, SyntheticParams};

    fn monomer(n: usize, seed: u64) -> Monomer {
        Monomer::build(
            synthesize_protein(&SyntheticParams::with_atoms(n, seed)),
            GbParams::default(),
        )
    }

    #[test]
    fn pair_evaluation_is_deterministic_and_scratch_independent() {
        let a = monomer(220, 11);
        let b = monomer(60, 12);
        let pose = RigidTransform::rotation_about(
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(0.3, 0.9, 0.1),
            0.7,
        );
        let fresh = evaluate_pair(&a, &b, &pose);
        let mut scratch = PairScratch::new();
        // warm the scratch on a different pose, then re-evaluate
        let other = RigidTransform::translation(Vec3::new(40.0, 0.0, 0.0));
        let _ = evaluate_pair_ws(&a, &b, &other, &mut scratch);
        let warm = evaluate_pair_ws(&a, &b, &pose, &mut scratch);
        assert_eq!(fresh.energy_kcal.to_bits(), warm.energy_kcal.to_bits());
        assert_eq!(fresh.work.to_bits(), warm.work.to_bits());
    }

    #[test]
    fn cached_monomer_matches_cold_rebuild_bitwise() {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(150, 5));
        let p = GbParams::default();
        let cold = Monomer::build(mol.clone(), p);
        let warm = Monomer::from_parts(
            cold.key,
            Arc::clone(&cold.sys),
            Arc::clone(&cold.lists),
        );
        assert_eq!(
            cold.solo_energy_kcal.to_bits(),
            warm.solo_energy_kcal.to_bits()
        );
        let lig = monomer(40, 6);
        let pose = RigidTransform::translation(Vec3::new(25.0, 3.0, -2.0));
        let e_cold = evaluate_pair(&cold, &lig, &pose);
        let e_warm = evaluate_pair(&warm, &lig, &pose);
        assert_eq!(e_cold.energy_kcal.to_bits(), e_warm.energy_kcal.to_bits());
    }

    #[test]
    fn distant_ligand_interaction_energy_is_small() {
        // a ligand far outside the receptor's reach perturbs the complex
        // energy only weakly — sanity that the decomposition wires the
        // cross terms with the right sign and scale
        let a = monomer(200, 21);
        let b = monomer(50, 22);
        let near = evaluate_pair(&a, &b, &RigidTransform::translation(Vec3::new(20.0, 0.0, 0.0)));
        let far =
            evaluate_pair(&a, &b, &RigidTransform::translation(Vec3::new(4000.0, 0.0, 0.0)));
        assert!(far.delta_kcal.abs() < near.delta_kcal.abs() + 1e-6,
            "far {} vs near {}", far.delta_kcal, near.delta_kcal);
        assert!(far.delta_kcal.abs() < 1e-2, "far delta {}", far.delta_kcal);
    }
}
