//! Summary statistics, the metric catalogue and the result line.

use std::fmt::Write as _;

/// Percentiles a tail may be reported at, highest first. The rungs are
/// far apart (a rung needs 10 samples beyond it: 20, 40, 200, 1000 and
/// 10000 samples), so host-speed swings in how many samples a timed run
/// collects do not flip the reported percentile between runs.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it may be reported as
/// the tail.
const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples (the tolerance
/// keeps products like 0.999 × 10000 from rounding up a rank).
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 50.0)
}

/// A latency tail: the highest ladder percentile with at least
/// [`TAIL_MIN_BEYOND`] samples strictly above its rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The chosen percentile (0 when there are too few samples for any).
    pub percentile: f64,
    /// Value at that percentile (the maximum when no percentile qualifies).
    pub value: f64,
    /// Number of samples the tail was taken over.
    pub samples: usize,
}

/// Picks the tail of `samples` (see [`Tail`]).
pub fn tail(samples: &[f64]) -> Tail {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    for p in TAIL_LADDER {
        let r = rank(p, n);
        if r >= 1 && n - r >= TAIL_MIN_BEYOND {
            return Tail {
                percentile: p,
                value: s[r - 1],
                samples: n,
            };
        }
    }
    Tail {
        percentile: 0.0,
        value: s.last().copied().unwrap_or(f64::NAN),
        samples: n,
    }
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

/// Whether `unit` is a valid unit: 1 to 16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("evals_per_s", "1/s"),
    ("eval_p50_ms", "ms"),
    ("eval_tail_ms", "ms"),
    ("mem_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("surface.sample_ms", "ms"),
    ("surface.qpoints", "count"),
    ("octree.build_ms", "ms"),
    ("octree.refit_ms", "ms"),
    ("system.prepare_ms", "ms"),
    ("born.list_build_ms", "ms"),
    ("born.list_entries", "count"),
    ("born.exec_ms", "ms"),
    ("born.work_units", "count"),
    ("born.repair_ms", "ms"),
    ("born.rewalk_fraction", "ratio"),
    ("born.push_ms", "ms"),
    ("bins.compute_ms", "ms"),
    ("energy.list_build_ms", "ms"),
    ("energy.exec_ms", "ms"),
    ("energy.far_pairs", "count"),
    ("energy.work_units", "count"),
    ("energy.repair_ms", "ms"),
    ("energy.rewalk_fraction", "ratio"),
    ("ws.memory_mb", "MB"),
    ("frame.repaired_share", "ratio"),
    ("frame.rebuilt", "count"),
    ("frame.probes", "count"),
    ("frame.exec_ms", "ms"),
    ("cluster.run_ms", "ms"),
    ("cluster.bytes_moved", "bytes"),
    ("cluster.comm_ops", "count"),
    ("cluster.imbalance", "ratio"),
    ("cluster.recoveries", "count"),
    ("runner.parallel_efficiency", "ratio"),
    ("pair.eval_ms", "ms"),
    ("pair.monomer_build_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.service_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.batch_size", "count"),
    ("serve.single_p50_ms", "ms"),
    ("serve.single_tail_ms", "ms"),
    ("cache.tier1_hit_rate", "ratio"),
    ("cache.tier2_hit_rate", "ratio"),
    ("cache.tier3_hit_rate", "ratio"),
    ("cache.evictions", "count"),
    ("serve.rejected", "count"),
    ("serve.failed", "count"),
    ("loadgen.late_ms", "ms"),
    ("answer.energy_rel_err", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.residual_share", "ratio"),
];

/// One answer check, run outside the timed region.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

/// Everything a workload run produced.
#[derive(Default)]
pub struct Report {
    /// Timed operations attempted.
    pub attempted: u64,
    /// Operations that errored, returned a non-finite energy, or failed an
    /// answer check.
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Measured metrics by name; the catalogue decides which are printed.
    pub values: Vec<(&'static str, f64)>,
    /// Extra detail fields as `(key, raw JSON value)`.
    pub detail: Vec<(String, String)>,
}

impl Report {
    /// Records a measured metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "{name} is not in the metric catalogue"
        );
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// Records an answer check; a failed check also counts one failed
    /// operation.
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        if !passed {
            self.failed += 1;
        }
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail: detail.into(),
        });
    }

    /// Adds a detail field holding raw JSON.
    pub fn detail(&mut self, key: &str, raw_json: impl Into<String>) {
        self.detail.push((key.to_string(), raw_json.into()));
    }

    /// Whether the run's answers are correct: every check passed and no
    /// operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.passed)
    }

    fn value(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics of
    /// `catalogue`, each with its unit.
    pub fn result_line(&self, catalogue: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            debug_assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(self.value(name))
            );
        }
        out.push_str("}}");
        out
    }

    /// The detail line: checks plus every detail field.
    pub fn detail_line(&self) -> String {
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\": {}, \"passed\": {}, \"detail\": {}}}",
                    json_str(&c.name),
                    c.passed,
                    json_str(&c.detail)
                )
            })
            .collect();
        let mut out = format!("{{\"checks\": [{}]", checks.join(", "));
        for (k, v) in &self.detail {
            let _ = write!(out, ", {}: {}", json_str(k), v);
        }
        out.push('}');
        out
    }
}

/// A finite number as JSON (non-finite values print as `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A string as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A latency tail as a JSON object.
pub fn tail_json(t: &Tail) -> String {
    format!(
        "{{\"percentile\": {}, \"value_ms\": {}, \"samples\": {}}}",
        t.percentile,
        json_num(t.value),
        t.samples
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=19).map(f64::from).collect();
        // 19 samples: p50 is rank 10 with 9 beyond, so nothing qualifies.
        let t = tail(&s);
        assert_eq!(t.percentile, 0.0);
        assert_eq!(t.value, 19.0);
        assert_eq!(t.samples, 19);

        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(
            tail(&s),
            Tail {
                percentile: 50.0,
                value: 10.0,
                samples: 20
            }
        );

        let s: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(
            tail(&s),
            Tail {
                percentile: 75.0,
                value: 30.0,
                samples: 40
            }
        );

        let s: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(
            tail(&s),
            Tail {
                percentile: 75.0,
                value: 150.0,
                samples: 199
            }
        );

        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(
            tail(&s),
            Tail {
                percentile: 95.0,
                value: 190.0,
                samples: 200
            }
        );

        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            tail(&s),
            Tail {
                percentile: 99.0,
                value: 990.0,
                samples: 1000
            }
        );

        let s: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(
            tail(&s),
            Tail {
                percentile: 99.9,
                value: 9990.0,
                samples: 10_000
            }
        );
    }

    #[test]
    fn failed_request_lands_in_the_tail() {
        // 30 failures in 100 requests reach past p75.
        let mut s: Vec<f64> = (1..=70).map(f64::from).collect();
        s.extend([f64::INFINITY; 30]);
        let t = tail(&s);
        assert_eq!(t.percentile, 75.0);
        assert!(t.value.is_infinite());
        let mut s: Vec<f64> = (1..=80).map(f64::from).collect();
        s.extend([f64::INFINITY; 20]);
        assert_eq!(tail(&s).value, 75.0);
    }

    #[test]
    fn percentile_and_median() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 100.0), 4.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.0), 1.0);
    }

    #[test]
    fn metric_names_and_units_follow_the_grammar() {
        let all: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
        }
        let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names must be unique");
        assert!(END_TO_END.contains(&("setup_s", "s")));

        assert!(!valid_name(""));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(!valid_unit(""));
        assert!(!valid_unit("kcal mol"));
        assert!(!valid_unit(&"s".repeat(17)));
        assert!(valid_unit("1/s") && valid_unit("%"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = manifest.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists extra metrics"
        );
    }

    #[test]
    fn any_failed_check_marks_the_run_failed() {
        let mut r = Report {
            attempted: 5,
            ..Report::default()
        };
        r.check("ok", true, "");
        assert!(r.correct());
        r.check("bits", false, "mismatch");
        assert!(!r.correct());
        assert_eq!(r.failed, 1);
        let line = r.result_line(&END_TO_END);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 5, \"failed\": 1,"));

        let mut r = Report {
            attempted: 5,
            failed: 1,
            ..Report::default()
        };
        r.check("ok", true, "");
        assert!(
            !r.correct(),
            "a failed operation fails the run even if checks pass"
        );
    }

    #[test]
    fn result_line_prints_every_catalogue_metric() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("setup_s", 0.5);
        let line = r.result_line(&END_TO_END);
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{line}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{line}");
        }
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.ends_with("}}"));
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
