//! Host and provenance block printed with every result.

use crate::stats::json_str;

/// Logical CPUs the process may run on, as `nproc` reports them: the
/// affinity mask from `/proc/self/status`, else `available_parallelism`.
fn nproc() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(|list| {
            list.trim()
                .split(',')
                .filter_map(|part| match part.split_once('-') {
                    Some((a, b)) => {
                        let (a, b) = (
                            a.trim().parse::<usize>().ok()?,
                            b.trim().parse::<usize>().ok()?,
                        );
                        b.checked_sub(a).map(|d| d + 1)
                    }
                    None => part.trim().parse::<usize>().ok().map(|_| 1),
                })
                .sum()
        })
        .filter(|&n: &usize| n > 0)
        .unwrap_or_else(available_parallelism)
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Revision of the checkout: read from `.git` when the working directory is
/// a git checkout, else `unknown`.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host/provenance block as a JSON object.
pub fn block(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    format!(
        "{{\"available_parallelism\": {}, \"nproc\": {}, \"simd\": {}, \"git_rev\": {}, \"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}}}",
        available_parallelism(),
        nproc(),
        json_str(gb_core::simd::SimdLevel::active().name()),
        json_str(&git_revision()),
        json_str(workload),
    )
}

/// Moves the calling thread round the CPUs the process may run on, one
/// CPU per [`CoreRotation::step`].
///
/// On a shared host each logical CPU has slow and fast spells of its own,
/// lasting seconds to minutes (a pinned arithmetic loop runs up to 2x
/// slower on one CPU while the other is fast). A single-threaded loop that
/// the scheduler leaves on one CPU measures that CPU's spell; stepping
/// round every allowed CPU spreads each run over all of them.
///
/// A step pins the thread to the next CPU, which migrates it there, and
/// then restores the original mask at once: between steps the program sees
/// its usual affinity (the runners size their task split from it), and an
/// otherwise idle scheduler leaves the busy thread where it was put.
pub struct CoreRotation {
    original: Option<affinity::CpuSet>,
    cpus: Vec<usize>,
    next: usize,
}

impl CoreRotation {
    /// A rotation over the CPUs of the calling thread's affinity mask
    /// (inert when that mask cannot be read or holds one CPU).
    pub fn new() -> CoreRotation {
        let original = affinity::get();
        let cpus = original.map_or_else(Vec::new, |set| affinity::cpus(&set));
        CoreRotation {
            original,
            cpus,
            next: 0,
        }
    }

    /// Moves the thread to the next CPU of the rotation.
    pub fn step(&mut self) {
        if self.cpus.len() < 2 {
            return;
        }
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        if let Some(original) = &self.original {
            affinity::set(&affinity::single(cpu));
            affinity::set(original);
        }
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    /// glibc's `cpu_set_t`: a 1024-bit mask.
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    pub fn get() -> Option<CpuSet> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable mask of exactly the size passed; pid 0
        // is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    /// Best effort: a refused move leaves the thread where it is.
    pub fn set(set: &CpuSet) {
        // SAFETY: `set` is a valid mask of exactly the size passed; pid 0 is
        // the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) };
    }

    pub fn cpus(set: &CpuSet) -> Vec<usize> {
        (0..1024)
            .filter(|&c| (set[c / 64] >> (c % 64)) & 1 == 1)
            .collect()
    }

    pub fn single(cpu: usize) -> CpuSet {
        let mut set: CpuSet = [0; 16];
        set[cpu / 64] |= 1 << (cpu % 64);
        set
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub type CpuSet = ();

    pub fn get() -> Option<CpuSet> {
        None
    }

    pub fn set(_: &CpuSet) {}

    pub fn cpus(_: &CpuSet) -> Vec<usize> {
        Vec::new()
    }

    pub fn single(_: usize) -> CpuSet {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_keeps_the_affinity_mask() {
        let before = affinity::get();
        let mut rot = CoreRotation::new();
        for _ in 0..3 {
            rot.step();
            assert_eq!(affinity::get(), before);
        }
    }
}
