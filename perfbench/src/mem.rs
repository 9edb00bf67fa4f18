//! Peak resident memory per op, from procfs: writing `5` to
//! `/proc/self/clear_refs` resets the high-water mark `VmHWM` to the
//! current resident size.

use std::fs;

pub fn reset_peak() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` in MiB, or `None` where procfs is missing.
pub fn peak_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Returns free heap pages to the OS, so that the next high-water mark
/// covers live data only. glibc keeps most freed memory mapped, so
/// without this an op's peak would include what set-up or an earlier,
/// larger op left behind.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim takes no pointers; it only hands free
        // pages of the allocator's own heaps back to the kernel.
        unsafe {
            malloc_trim(0);
        }
    }
}
