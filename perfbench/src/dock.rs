//! `dock_serve`: an open loop of docking poses and single-molecule bursts
//! against one `GbService`.

use crate::stats::{json_num, median, tail, tail_json, Report};
use crate::trace::Tracer;
use crate::{median_setup, mix, ms, ms_since, Ctx, SETUP_REPS};
use gb_core::arena::CachedLists;
use gb_core::{evaluate_pair_ws, system_key, GbParams, GbSystem, Monomer, PairScratch};
use gb_geom::{RigidTransform, Vec3};
use gb_molecule::docking::PoseScan;
use gb_molecule::{synthesize_protein, Molecule, SyntheticParams};
use gb_serve::{EvalOutcome, EvalRequest, GbService, ServeConfig, ServeError, ServeStats};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const RECEPTOR_ATOMS: usize = 3_000;
const LIGAND_ATOMS: usize = 80;
/// Structure seeds of the receptor and ligand: the same pair for every
/// workload seed, which drives the poses and the single-job traffic.
/// (Synthetic receptors of equal size differ in pose cost by more than a
/// regression bound.)
const RECEPTOR_SEED: u64 = 0x7265;
const LIGAND_SEED: u64 = 0x6C69;
/// Offered docking rate (poses/s): about half of what the service sustains
/// for this receptor (≈20 poses/s on a 2-core AVX-512 host), so the queue
/// stays bounded.
const POSE_RATE: f64 = 10.0;
/// Period of the single-job bursts (s).
const BURST_PERIOD: f64 = 1.0;
/// Tenants of a burst, one single job each.
const TENANTS: usize = 8;
/// Tenants `0..REUSE_TENANTS` draw from the shared molecule pool (cache
/// hits); the rest send fresh molecules (misses, inserts, evictions).
const REUSE_TENANTS: usize = TENANTS / 2;
/// Distinct molecules of the shared pool.
const REUSE_POOL: usize = 4;
/// Atom counts of the single jobs' molecules.
const SINGLE_ATOMS: [usize; 4] = [60, 70, 80, 90];
/// Single-job artifact sets (system, lists, workspace pool) the cache has
/// room for beyond the docking monomers: more than one burst, so the
/// shared pool stays resident, while fresh molecules evict older ones.
const SINGLE_SETS_RESIDENT: usize = 10;
/// Docking poses re-evaluated on a cache-less service for the bitwise check.
const BITWISE_POSES: usize = 4;

#[derive(Clone)]
enum Kind {
    Dock(usize),
    Single { tenant: usize, mol: Arc<Molecule> },
}

#[derive(Clone)]
struct Event {
    due_s: f64,
    kind: Kind,
}

/// Every generated input of the workload.
struct Inputs {
    receptor: Arc<Molecule>,
    ligand: Arc<Molecule>,
    poses: Vec<RigidTransform>,
    pool: Vec<Arc<Molecule>>,
    schedule: Vec<Event>,
    tenants: Vec<String>,
}

fn centroid(mol: &Molecule) -> Vec3 {
    let mut c = Vec3::ZERO;
    for &p in mol.positions() {
        c += p;
    }
    c / mol.len() as f64
}

fn inputs(seed: u64, seconds: f64) -> Inputs {
    let receptor = Arc::new(synthesize_protein(&SyntheticParams::with_atoms(
        RECEPTOR_ATOMS,
        RECEPTOR_SEED,
    )));
    let ligand = Arc::new(synthesize_protein(&SyntheticParams::with_atoms(
        LIGAND_ATOMS,
        LIGAND_SEED,
    )));
    let n_poses = (seconds * POSE_RATE).floor() as usize + 1;
    let scan = PoseScan {
        center: receptor.bounding_box().center(),
        standoff: receptor.bounding_box().circumradius() + 8.0,
        n_poses,
        seed: mix(seed, 2),
    };
    let poses = scan.poses(centroid(&ligand));
    let single = |i: u64, atoms: usize| {
        Arc::new(synthesize_protein(&SyntheticParams::with_atoms(
            atoms,
            mix(seed, i),
        )))
    };
    let pool: Vec<Arc<Molecule>> = (0..REUSE_POOL)
        .map(|i| single(100 + i as u64, SINGLE_ATOMS[i % SINGLE_ATOMS.len()]))
        .collect();

    let mut schedule: Vec<Event> = (0..n_poses)
        .map(|i| Event {
            due_s: i as f64 / POSE_RATE,
            kind: Kind::Dock(i),
        })
        .collect();
    let mut burst = 0usize;
    // Bursts sit between pose slots, half a period in.
    while (burst as f64 + 0.5) * BURST_PERIOD < seconds {
        for tenant in 0..TENANTS {
            let mol = if tenant < REUSE_TENANTS {
                Arc::clone(&pool[(burst + tenant) % REUSE_POOL])
            } else {
                let i = (burst * TENANTS + tenant) as u64;
                single(
                    1_000 + i,
                    SINGLE_ATOMS[(burst + tenant) % SINGLE_ATOMS.len()],
                )
            };
            schedule.push(Event {
                due_s: (burst as f64 + 0.5) * BURST_PERIOD,
                kind: Kind::Single { tenant, mol },
            });
        }
        burst += 1;
    }
    schedule.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    let tenants = (0..TENANTS).map(|t| format!("tenant-{t}")).collect();
    Inputs {
        receptor,
        ligand,
        poses,
        pool,
        schedule,
        tenants,
    }
}

fn request<'a>(inp: &'a Inputs, kind: &Kind, params: GbParams) -> (&'a str, EvalRequest) {
    match kind {
        Kind::Dock(p) => (
            "dock",
            EvalRequest::Docking {
                receptor: Arc::clone(&inp.receptor),
                ligand: Arc::clone(&inp.ligand),
                pose: inp.poses[*p],
                params,
            },
        ),
        Kind::Single { tenant, mol } => (
            inp.tenants[*tenant].as_str(),
            EvalRequest::Single {
                molecule: Arc::clone(mol),
                params,
            },
        ),
    }
}

/// What happened to one scheduled request.
struct Served {
    /// Latency from the due time (ms); infinite when the request failed.
    latency_ms: f64,
    result: Result<EvalOutcome, ServeError>,
}

struct LoopResult {
    served: Vec<Served>,
    /// Max lateness of the generator against the schedule (ms).
    late_ms: f64,
    /// From the first due time to the last reply (s).
    wall_s: f64,
    stats: ServeStats,
}

/// Sends `schedule` on time from this thread (the only client thread) and
/// collects every reply once the schedule is done. Each request is timed
/// from when it was due.
fn open_loop(
    service: &GbService,
    inp: &Inputs,
    schedule: &[Event],
    params: GbParams,
) -> LoopResult {
    let start = Instant::now() + Duration::from_millis(5);
    let mut sent = Vec::with_capacity(schedule.len());
    let mut late_max = 0.0f64;
    for ev in schedule {
        let due = start + Duration::from_secs_f64(ev.due_s);
        let wait = due.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        let late = ms(Instant::now().saturating_duration_since(due));
        late_max = late_max.max(late);
        let (tenant, req) = request(inp, &ev.kind, params);
        sent.push((late, service.submit(tenant, req)));
    }
    let served = sent
        .into_iter()
        .map(|(late, ticket)| {
            let result = ticket.and_then(|t| t.wait());
            let latency_ms = match &result {
                Ok(o) if o.energy_kcal.is_finite() => {
                    late + o.report.queue_wait_ms + o.report.service_ms
                }
                _ => f64::INFINITY,
            };
            Served { latency_ms, result }
        })
        .collect();
    LoopResult {
        served,
        late_ms: late_max,
        wall_s: start.elapsed().as_secs_f64(),
        stats: service.stats(),
    }
}

fn config(budget: usize, caching: bool) -> ServeConfig {
    ServeConfig {
        cache_budget_bytes: budget,
        caching,
        ..ServeConfig::default()
    }
}

fn bytes_of_single(mol: &Molecule, params: GbParams) -> usize {
    let sys = GbSystem::prepare(mol.clone(), params);
    let lists = CachedLists::build(&sys, system_key(mol, &params));
    sys.memory_bytes() + lists.memory_bytes()
}

pub fn run(ctx: &mut Ctx) -> Report {
    let mut report = Report::default();
    let params = GbParams::default();
    let inp = inputs(ctx.seed, ctx.seconds);

    // The docking monomers the cache keeps warm, built once outside the
    // service for the memory audit, the cache budget and the pair probes.
    let t = Instant::now();
    let rm = Monomer::build(Molecule::clone(&inp.receptor), params);
    let monomer_build_ms = ms_since(t);
    let lm = Monomer::build(Molecule::clone(&inp.ligand), params);
    let dock_bytes = rm.memory_bytes() + lm.memory_bytes();
    let pool_bytes: usize = inp.pool.iter().map(|m| bytes_of_single(m, params)).sum();
    report.set("mem_mb", (dock_bytes + pool_bytes) as f64 / 1e6);
    // The cache bills each monomer plus its separately cached system; a
    // single's set is billed at twice its system and lists (the warm
    // workspace pool roughly doubles it).
    let budget = dock_bytes
        + rm.sys.memory_bytes()
        + lm.sys.memory_bytes()
        + SINGLE_SETS_RESIDENT * 2 * pool_bytes / REUSE_POOL;

    // Set-up: service start plus the first receptor pose (both monomers
    // built inside the service).
    let (setup_s, service) = median_setup(SETUP_REPS, || {
        let service = GbService::start(config(budget, true));
        let (tenant, req) = request(&inp, &Kind::Dock(0), params);
        black_box(service.eval(tenant, req).map(|o| o.energy_kcal).ok());
        service
    });
    report.set("setup_s", setup_s);

    let traced = ctx.tracer.is_some();
    let loop_seconds = if traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let schedule: Vec<Event> = inp
        .schedule
        .iter()
        .filter(|e| e.due_s < loop_seconds)
        .cloned()
        .collect();
    let res = open_loop(&service, &inp, &schedule, params);
    service.shutdown();

    let mut dock_lat = Vec::new();
    let mut single_lat = Vec::new();
    let (mut queue, mut service_ms, mut batch) = (Vec::new(), Vec::new(), Vec::new());
    for (ev, s) in schedule.iter().zip(&res.served) {
        report.attempted += 1;
        if s.latency_ms.is_infinite() {
            report.failed += 1;
        }
        match ev.kind {
            Kind::Dock(_) => dock_lat.push(s.latency_ms),
            Kind::Single { .. } => single_lat.push(s.latency_ms),
        }
        if let Ok(o) = &s.result {
            batch.push(o.report.batch_size as f64);
            if matches!(ev.kind, Kind::Dock(_)) {
                queue.push(o.report.queue_wait_ms);
                service_ms.push(o.report.service_ms);
            }
        }
    }
    let completed = dock_lat.iter().filter(|l| l.is_finite()).count();
    let dt = tail(&dock_lat);
    let st = tail(&single_lat);
    report.set("evals_per_s", completed as f64 / res.wall_s);
    report.set("eval_p50_ms", median(&dock_lat));
    report.set("eval_tail_ms", dt.value);
    report.detail("eval_tail", tail_json(&dt));
    report.detail("single_tail", tail_json(&st));
    report.detail("single_p50_ms", json_num(median(&single_lat)));
    report.detail(
        "offered",
        format!(
            "{{\"pose_rate_per_s\": {POSE_RATE}, \"burst_period_s\": {BURST_PERIOD}, \"burst_tenants\": {TENANTS}, \"burst_reuse_tenants\": {REUSE_TENANTS}, \"reuse_pool\": {REUSE_POOL}, \"receptor_atoms\": {RECEPTOR_ATOMS}, \"ligand_atoms\": {LIGAND_ATOMS}, \"cache_budget_bytes\": {budget}, \"loop\": \"open, one generator thread\"}}"
        ),
    );
    let cs = res.stats.cache;
    report.detail(
        "serve_stats",
        format!(
            "{{\"submitted\": {}, \"completed\": {}, \"rejected\": {}, \"failed\": {}, \"supersteps\": {}, \"evictions\": {}, \"late_ms\": {}}}",
            res.stats.submitted, res.stats.completed, res.stats.rejected, res.stats.failed,
            res.stats.supersteps, cs.evictions, json_num(res.late_ms)
        ),
    );

    if let Some(tr) = ctx.tracer.as_mut() {
        report.set("serve.queue_wait_ms", median(&queue));
        report.set("serve.service_ms", median(&service_ms));
        report.set("serve.batch_size", median(&batch));
        report.set("serve.single_p50_ms", median(&single_lat));
        report.set("serve.single_tail_ms", st.value);
        report.set(
            "cache.tier1_hit_rate",
            ServeStats::hit_rate(cs.tier1_hits, cs.tier1_misses),
        );
        report.set(
            "cache.tier2_hit_rate",
            ServeStats::hit_rate(cs.tier2_hits, cs.tier2_misses),
        );
        report.set(
            "cache.tier3_hit_rate",
            ServeStats::hit_rate(cs.tier3_hits, cs.tier3_misses),
        );
        report.set("cache.evictions", cs.evictions as f64);
        report.set("serve.rejected", res.stats.rejected as f64);
        report.set("serve.failed", res.stats.failed as f64);
        report.set("loadgen.late_ms", res.late_ms);
        report.set("pair.monomer_build_ms", monomer_build_ms);
        pair_probes(
            tr,
            &inp,
            &rm,
            &lm,
            ctx.seconds - loop_seconds,
            &mut report,
            median(&service_ms),
        );
    }

    checks(&inp, &schedule, &res, params, &mut report);
    report
}

/// The pair layer on warm monomers: untraced evaluations for half of
/// `seconds`, traced ones for the other half.
fn pair_probes(
    tr: &mut Tracer,
    inp: &Inputs,
    rm: &Monomer,
    lm: &Monomer,
    seconds: f64,
    report: &mut Report,
    service_ms: f64,
) {
    let mut scratch = PairScratch::new();
    let mut untraced = Vec::new();
    let t0 = Instant::now();
    let mut i = 0usize;
    while t0.elapsed().as_secs_f64() < seconds / 2.0 {
        let t = Instant::now();
        black_box(evaluate_pair_ws(
            rm,
            lm,
            &inp.poses[i % inp.poses.len()],
            &mut scratch,
        ));
        untraced.push(ms_since(t));
        i += 1;
    }
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds / 2.0 {
        let pose = &inp.poses[i % inp.poses.len()];
        let op = tr.begin_op("dock.pose");
        let out = tr.time("pair.eval", || evaluate_pair_ws(rm, lm, pose, &mut scratch));
        tr.exit(op);
        report.attempted += 1;
        if !out.energy_kcal.is_finite() {
            report.failed += 1;
        }
        i += 1;
    }
    let pair_ms = tr.self_ms("pair.eval");
    report.set("pair.eval_ms", pair_ms);
    report.set("serve.overhead_ms", service_ms - pair_ms);
    let (overhead, _) = tr.shares(median(&untraced));
    report.set("trace.overhead_share", overhead);
    // The serving path's reconciliation: docking service time not spent in
    // the pair layer (scheduling, cache lookups, co-batched singles).
    report.set("trace.residual_share", (service_ms - pair_ms) / service_ms);
}

/// Bitwise checks of sampled answers against a cache-less service.
fn checks(
    inp: &Inputs,
    schedule: &[Event],
    res: &LoopResult,
    params: GbParams,
    report: &mut Report,
) {
    let docks: Vec<usize> = (0..schedule.len())
        .filter(|&i| matches!(schedule[i].kind, Kind::Dock(_)))
        .collect();
    let mut sample: Vec<usize> = (0..BITWISE_POSES.min(docks.len()))
        .map(|k| docks[k * docks.len() / BITWISE_POSES.min(docks.len())])
        .collect();
    let first_single = |reuse: bool| {
        (0..schedule.len()).find(|&i| {
            matches!(&schedule[i].kind, Kind::Single { tenant, .. } if (*tenant < REUSE_TENANTS) == reuse)
        })
    };
    sample.extend(first_single(true));
    sample.extend(first_single(false));

    let cold = GbService::start(config(0, false));
    for i in sample {
        let (tenant, req) = request(inp, &schedule[i].kind, params);
        let reference = cold.eval(tenant, req);
        let (ok, detail) = match (&res.served[i].result, &reference) {
            (Ok(w), Ok(c)) => (
                w.energy_kcal.to_bits() == c.energy_kcal.to_bits(),
                format!(
                    "served {:e} vs cache-less {:e}",
                    w.energy_kcal, c.energy_kcal
                ),
            ),
            (w, c) => (
                false,
                format!(
                    "served {:?} / cache-less {:?}",
                    w.as_ref().err(),
                    c.as_ref().err()
                ),
            ),
        };
        let name = match schedule[i].kind {
            Kind::Dock(_) => "dock_vs_cacheless_bits",
            Kind::Single { .. } => "single_vs_cacheless_bits",
        };
        report.check(name, ok, detail);
    }
    cold.shutdown();
}
