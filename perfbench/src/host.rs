//! Facts about the process and the machine that every result names, and
//! the environment check that keeps the library's process-wide overrides
//! out of a run. Nothing here reads files outside the checkout: the cache
//! size comes from CPUID and peak memory from `getrusage`.

/// Names of the set `MSPCG_*` environment variables. The library reads
/// them process-wide to rewrite the PCG variant, the preconditioner, the
/// storage format, the parallel thresholds and the thread budget, so a run
/// with any of them set would not measure the configuration it names.
pub fn mspcg_overrides() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.to_str().map(str::to_string))
        .filter(|k| k.starts_with("MSPCG_"))
        .collect();
    names.sort();
    names
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Last-level data or unified cache as `(level, bytes)`, from the CPUID
/// deterministic cache parameters (leaf 4 on Intel, 0x8000_001D on AMD).
/// Under a hypervisor this is the cache the host model reports, which the
/// guest may share with other guests.
#[cfg(target_arch = "x86_64")]
pub fn llc() -> Option<(u32, u64)> {
    use std::arch::x86_64::{__cpuid_count, CpuidResult};
    #[allow(unused_unsafe)]
    // SAFETY: CPUID is available on every x86_64 processor; the leaves
    // queried are bounded by the maximum leaves CPUID itself reports.
    let cpuid = |leaf: u32, sub: u32| -> CpuidResult { unsafe { __cpuid_count(leaf, sub) } };
    let leaf = if cpuid(0, 0).eax >= 4 && cpuid(4, 0).eax & 0x1f != 0 {
        4
    } else if cpuid(0x8000_0000, 0).eax >= 0x8000_001D {
        0x8000_001D
    } else {
        return None;
    };
    let mut best: Option<(u32, u64)> = None;
    for sub in 0..16 {
        let r = cpuid(leaf, sub);
        let kind = r.eax & 0x1f;
        if kind == 0 {
            break;
        }
        if kind == 2 {
            continue; // instruction cache
        }
        let level = (r.eax >> 5) & 0x7;
        let ways = u64::from((r.ebx >> 22) & 0x3ff) + 1;
        let partitions = u64::from((r.ebx >> 12) & 0x3ff) + 1;
        let line = u64::from(r.ebx & 0xfff) + 1;
        let sets = u64::from(r.ecx) + 1;
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, ways * partitions * line * sets));
        }
    }
    best
}

/// Last-level cache is unknown off x86_64.
#[cfg(not(target_arch = "x86_64"))]
pub fn llc() -> Option<(u32, u64)> {
    None
}

/// Peak resident set size of this process in bytes.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn peak_rss_bytes() -> u64 {
    use std::ffi::{c_int, c_long};
    extern "C" {
        fn getrusage(who: c_int, usage: *mut c_long) -> c_int;
    }
    // Linux `struct rusage` on 64-bit targets: two `struct timeval` (two
    // longs each) and fourteen longs; `ru_maxrss`, in KiB, is long 4.
    let mut usage: [c_long; 18] = [0; 18];
    // SAFETY: `usage` is exactly `sizeof(struct rusage)` bytes and
    // writable; `who = 0` is RUSAGE_SELF.
    let rc = unsafe { getrusage(0, usage.as_mut_ptr()) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    u64::try_from(usage[4]).expect("negative ru_maxrss") * 1024
}

/// The commit the checkout was made from, read from `.git` when the
/// checkout has one.
pub fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unavailable (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(std::path::Path::new(".git").join(name)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, r) = line.split_once(' ')?;
                (r == name).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| format!("unresolved {name}"))
}

/// The compiler that built this binary.
pub fn rustc() -> &'static str {
    env!("PERFBENCH_RUSTC")
}
