//! Machine-speed calibration.
//!
//! On a shared machine the speed available to one process drifts by up
//! to 2x over tens of seconds (other tenants contend for caches and
//! memory bandwidth), and CPU time drifts with it. The benchmark
//! therefore times a fixed kernel of its own right before and right
//! after every timed op and reports each op's time scaled to a machine
//! on which the kernel takes `REFERENCE_MS`. The kernel copies short
//! strings out of a byte buffer into a growing vector, the same mix of
//! byte scanning, small allocations and pointer-heavy writes the XML
//! layers do, so it slows down when they do. It calls no code of the
//! program, so a change to the program cannot move it.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time (ms) of the reference machine the reported times are
/// scaled to: the median kernel time on a quiet 2-core x86-64 VM.
pub const REFERENCE_MS: f64 = 3.5;

/// Kernel runs per sample; a sample is their median.
const RUNS: usize = 7;

pub struct Calibrator {
    text: Vec<u8>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        // 1 MiB of printable bytes from a fixed LCG: the same on every run.
        let mut s: u64 = 0x2545_f491_4f6c_dd1d;
        let text = (0..1 << 20)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                b' ' + ((s >> 33) % 95) as u8
            })
            .collect();
        Calibrator { text }
    }

    #[inline(never)]
    fn kernel(&self) -> usize {
        let mut nodes: Vec<(u32, String)> = Vec::new();
        for (i, chunk) in self.text.chunks(24).enumerate() {
            nodes.push((i as u32, String::from_utf8_lossy(chunk).into_owned()));
        }
        nodes.iter().map(|n| n.1.len() + n.0 as usize).sum()
    }

    /// Median kernel time (ms) of `RUNS` runs on this thread.
    fn sample_ms(&self) -> f64 {
        let mut times = [0.0f64; RUNS];
        for t in &mut times {
            let start = Instant::now();
            black_box(self.kernel());
            *t = start.elapsed().as_secs_f64() * 1e3;
        }
        times.sort_by(f64::total_cmp);
        times[RUNS / 2]
    }

    /// The current machine's kernel time over `REFERENCE_MS`, with the
    /// kernel running on `threads` threads at once (as many as the op
    /// uses): 2.0 means the machine currently runs at half the
    /// reference speed.
    pub fn slowdown(&self, threads: usize) -> f64 {
        let ms: f64 = if threads <= 1 {
            self.sample_ms()
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads).map(|_| s.spawn(|| self.sample_ms())).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("calibration thread"))
                    .sum::<f64>()
                    / threads as f64
            })
        };
        ms / REFERENCE_MS
    }
}
