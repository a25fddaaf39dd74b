//! In-memory span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into each
//! layer: name, start, end, parent span and operation id. They are kept in
//! memory and written out as JSON lines when the run ends. A *probe* span
//! re-runs a layer standalone to expose work that the operation's real path
//! does inside a coarser call (the per-phase steps inside a runner); probes
//! are excluded when the operation's traced time is reconciled with its
//! untraced time.

use crate::stats::median;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub probe: bool,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span.
#[must_use]
pub struct Open(usize);

/// The span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    /// Per-operation counters: `(name, op, value)`.
    counters: Vec<(&'static str, u64, f64)>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            counters: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of a new operation.
    pub fn begin_op(&mut self, name: &'static str) -> Open {
        assert!(self.stack.is_empty(), "operation spans do not nest");
        self.op += 1;
        self.open(name, false)
    }

    /// Opens a span on the operation's path, child of the innermost open
    /// span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        self.open(name, false)
    }

    fn open(&mut self, name: &'static str, probe: bool) -> Open {
        let parent = self.stack.last().copied();
        let probe = probe || parent.is_some_and(|p| self.spans[p].probe);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start_ns,
            end_ns: start_ns,
            probe,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        Open(id)
    }

    /// Closes the innermost span, which must be `span`.
    pub fn exit(&mut self, span: Open) {
        let top = self.stack.pop().expect("exit without an open span");
        assert_eq!(top, span.0, "spans must close innermost first");
        self.spans[top].end_ns = self.now_ns();
    }

    /// Closes the innermost span under a name known only once it ran.
    pub fn exit_as(&mut self, span: Open, name: &'static str) {
        let id = span.0;
        self.exit(span);
        self.spans[id].name = name;
    }

    /// Runs `f` inside a span named `name` on the operation's path.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.enter(name);
        let r = f();
        self.exit(s);
        r
    }

    /// Runs `f` inside a probe span.
    pub fn time_probe<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.open(name, true);
        let r = f();
        self.exit(s);
        r
    }

    /// Records a counter for the current operation.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counters.push((name, self.op, value));
    }

    pub fn num_spans(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: its duration minus the part covered by its
    /// children.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Median over operations of the summed self time (ms) of spans named
    /// `name`; 0 when no such span was recorded.
    pub fn self_ms(&self, name: &str) -> f64 {
        let own = self.self_ns();
        let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(&own) {
            if s.name == name {
                *per_op.entry(s.op).or_default() += *ns as f64 / 1e6;
            }
        }
        median_or_zero(&per_op.into_values().collect::<Vec<_>>())
    }

    /// Median over operations of the counter `name`; 0 when never recorded.
    pub fn counter(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .counters
            .iter()
            .filter(|(n, _, _)| *n == name)
            .map(|(_, _, v)| *v)
            .collect();
        median_or_zero(&v)
    }

    /// Per-operation `(traced path ms, summed layer self ms)`: the root
    /// span's duration minus its probe time, and the self times of the
    /// non-probe spans below the root.
    fn op_paths(&self) -> Vec<(f64, f64)> {
        let own = self.self_ns();
        let mut out: BTreeMap<u64, (f64, f64, f64)> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(&own) {
            let e = out.entry(s.op).or_default();
            let ms = *ns as f64 / 1e6;
            match (s.parent, s.probe) {
                (None, _) => e.0 += s.dur_ns() as f64 / 1e6,
                (Some(p), true) if self.spans[p].parent.is_none() => e.1 += s.dur_ns() as f64 / 1e6,
                (Some(_), false) => e.2 += ms,
                _ => {}
            }
        }
        out.into_values()
            .map(|(root, probes, layers)| (root - probes, layers))
            .collect()
    }

    /// `(overhead, residual)` shares of an untraced per-operation time:
    /// traced path time minus `untraced_ms`, and `untraced_ms` minus the
    /// summed layer self times, both over `untraced_ms` (medians over
    /// operations).
    pub fn shares(&self, untraced_ms: f64) -> (f64, f64) {
        let (path, layers): (Vec<f64>, Vec<f64>) = self.op_paths().into_iter().unzip();
        let (path, layers) = (median_or_zero(&path), median_or_zero(&layers));
        (
            (path - untraced_ms) / untraced_ms,
            (untraced_ms - layers) / untraced_ms,
        )
    }

    /// Writes every span and counter as JSON lines to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"probe\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns, s.probe
            );
        }
        for (name, op, v) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"counter\": \"{name}\", \"op\": {op}, \"value\": {v}}}"
            );
        }
        std::fs::write(path, out)
    }
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_probes_leave_the_path() {
        let mut t = Tracer::new();
        let op = t.begin_op("op");
        let outer = t.enter("outer");
        t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(4))
        });
        t.exit(outer);
        t.time_probe("probe", || {
            std::thread::sleep(std::time::Duration::from_millis(4))
        });
        t.count("n", 7.0);
        t.exit(op);

        assert!(t.self_ms("inner") >= 4.0);
        assert!(t.self_ms("outer") < t.self_ms("inner"));
        assert_eq!(t.self_ms("missing"), 0.0);
        assert_eq!(t.counter("n"), 7.0);
        let paths = t.op_paths();
        assert_eq!(paths.len(), 1);
        let (path, layers) = paths[0];
        // the probe is off the path; the layers cover nearly all of it
        assert!(path >= layers && path < layers + 1.0, "{path} vs {layers}");
        assert!(t.spans.iter().any(|s| s.name == "probe" && s.probe));
    }
}
