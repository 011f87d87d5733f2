//! Best-effort CPU affinity for bench drivers.
//!
//! The bench rig pins each serving thread to one core so the
//! threads×cores sweeps measure core scaling rather than scheduler
//! migration noise. Pinning is always best-effort: on non-Linux targets,
//! or when the syscall is refused (containers with a restricted cpuset),
//! [`pin_to_core`] returns `false` and the thread runs unpinned — never
//! an error.
//!
//! The call goes straight to glibc's `sched_setaffinity` symbol (already
//! linked by `std`), so no external crate is needed.

/// Number of usable cores, as reported by the standard library (1 when
/// unknown).
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Pin the *calling* thread to `core` (modulo the kernel cpuset width).
/// Returns `true` when the affinity call succeeded.
#[cfg(target_os = "linux")]
pub fn pin_to_core(core: usize) -> bool {
    // A glibc cpu_set_t is 1024 bits; pid 0 targets the calling thread.
    unsafe extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let bit = core % (mask.len() * 64);
    mask[bit / 64] |= 1u64 << (bit % 64);
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Non-Linux fallback: affinity is not available, report `false`.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_core(_core: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn available_cores_is_positive() {
        assert!(available_cores() >= 1);
    }

    #[test]
    fn pinning_is_best_effort_and_never_panics() {
        // Core 0 always exists; out-of-range cores wrap into the mask
        // width instead of producing an empty (invalid) mask.
        let _ = pin_to_core(0);
        let _ = pin_to_core(usize::MAX);
    }
}
