//! End-to-end and per-layer benchmark of the GB polarization pipelines.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (inputs are generated from `--seed` before timing starts):
//!
//! * `oneshot` — each operation is a distinct synthetic protein, run cold
//!   through `GbSystem::prepare` plus `try_run_distributed_mode` (P=2,
//!   `NodeNode`, sparse comm). This is the paper's headline path: surface
//!   sampling, octree build, full list build, execution and cluster comm
//!   all do real work, and no cache or frame machinery runs.
//! * `md_local` — one protein stepped through exact-mode
//!   (`drift_tol = 0`) `run_frame_shared` frames, each moving only the
//!   atoms within 8 Å of one fixed surface atom, at 0.1 Å RMS. Here refit
//!   and repair should win; this is the regime that any decision on
//!   certificate repair must be judged on. Single-threaded frames are
//!   stepped round the allowed CPUs every 8 frames, so a run does not
//!   measure one CPU's slow or fast spell on a shared host. (Frames that
//!   jitter every atom, where repair bails, are not a workload: they run the
//!   same frame machinery, and `oneshot` already bypasses repair.)
//! * `dock_serve` — an open loop against one `GbService`: docking poses
//!   (3,000-atom receptor, 80-atom ligand, receptor cache hits) on a fixed
//!   schedule, plus periodic bursts of small `Single` jobs from 8 tenants,
//!   half reusing a small molecule pool (cache hits) and half fresh
//!   (misses, inserts, evictions). It is the only workload for `gb-serve`
//!   and `gb_core::pair`.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics
//! (an *evaluation* is one E_pol answer: a cold evaluation, an MD frame, or
//! a docking pose). With `--trace 1` the run records spans around the
//! public calls of each layer and the last line carries the per-layer
//! metrics; the spans are written to
//! `$CARGO_TARGET_DIR/perfbench-trace/<workload>-seed<n>.jsonl`
//! (`CARGO_TARGET_DIR` defaults to `.bench_build`). The line before the
//! result holds the host/provenance block, the answer checks and the
//! workload's own detail (schedule, frame paths, tail percentiles).
//!
//! Every answer check runs outside the timed region; a failed check or a
//! failed operation marks the run `"correct": false`.

mod dock;
mod host;
mod md;
mod oneshot;
mod probes;
mod stats;
mod trace;

use stats::{END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// What one invocation runs.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Span recorder of the traced run (`None` with `--trace 0`).
    pub tracer: Option<Tracer>,
}

const WORKLOADS: [&str; 3] = ["oneshot", "md_local", "dock_serve"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(1..=120).contains(&seconds) {
        return Err("--seconds must be 1..=120".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        tracer: args.trace.then(Tracer::new),
    };
    let mut report = match args.workload.as_str() {
        "oneshot" => oneshot::run(&mut ctx),
        "md_local" => md::run(&mut ctx),
        "dock_serve" => dock::run(&mut ctx),
        _ => unreachable!("validated in parse_args"),
    };
    if let Some(tr) = &ctx.tracer {
        report.detail("trace_spans", tr.num_spans().to_string());
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
        let path = dir
            .join("perfbench-trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match tr.write(&path) {
            Ok(()) => report.detail("trace_file", stats::json_str(&path.display().to_string())),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    report.detail(
        "host",
        host::block(&args.workload, args.seed, args.seconds, args.trace),
    );
    println!("{}", report.detail_line());
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", report.result_line(catalogue));
    ExitCode::SUCCESS
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    ms(t.elapsed())
}

/// Mixes a workload seed with an input index into an independent seed.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Relative difference `|a - b| / |b|`.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs()
}

/// Bound on |E_octree − E_naive| / |E_naive| at the default ε = 0.9. Over
/// 240 synthetic 4,000-atom proteins the error ranged from 0.1 % to 9.0 %
/// (the synthetic charge model cancels more than real proteins; see
/// EXPERIMENTS.md), so this bound catches a broken answer, not
/// approximation noise.
pub const NAIVE_REL_TOL: f64 = 0.15;

/// Agreement of octree energies across runners, whose combine orders differ.
pub const RUNNER_REL_TOL: f64 = 1e-12;

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Median of `reps` timings (seconds) of `f`, returning the last result.
pub fn median_setup<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let r = f();
        times.push(t.elapsed().as_secs_f64());
        last = Some(r);
    }
    (stats::median(&times), last.expect("reps >= 1"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload md_local --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("md_local", 7, 10, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload oneshot --seed 7 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload oneshot --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload oneshot --seed")).is_err());
    }

    #[test]
    fn mixed_seeds_differ() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(5, 3), mix(5, 3));
    }
}
