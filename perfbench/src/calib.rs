//! Host-speed calibration.
//!
//! On a shared host the same build can run 30% faster or slower from one
//! minute to the next. To keep that out of the end-to-end metrics, the
//! workloads run a fixed kernel next to each measured interval (before
//! and after it) and scale the interval's time by the kernel's slowness.
//! Only the benchmark's own code and `std` run in the kernel, so a change
//! to the repository's crates cannot move it.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hash::DefaultHasher;
use std::time::Instant;

/// The kernel's typical wall time on the host the benchmark was written on
/// (`Intel(R) Xeon(R) Processor`, 2 vCPUs). It only sets the scale of the
/// calibrated figures and must stay fixed, so that they stay comparable.
const NOMINAL_S: f64 = 0.0074;

/// Map operations per kernel call.
const OPS: u64 = 300_000;
/// Entries before the map is cleared: about 100 KB, small enough not to
/// move `peak_rss_mb`.
const ENTRIES: usize = 4096;

/// The fixed kernel: counting upserts of pseudo-random keys into a map
/// that is cleared whenever it grows past [`ENTRIES`].
fn kernel() -> u64 {
    let mut m: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(ENTRIES + 1, Default::default());
    let mut x = 0u64;
    let mut sum = 0u64;
    for _ in 0..OPS {
        // splitmix64
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        *m.entry((z ^ (z >> 31)) & 0xFF_FFFF).or_insert(0) += 1;
        sum += m.len() as u64;
        if m.len() > ENTRIES {
            m.clear();
        }
    }
    sum
}

/// Tracks the host's slowness relative to the nominal host (2.0 = half
/// speed) across a run.
#[derive(Default)]
pub struct Calibrator {
    last: f64,
    /// Wall seconds spent in the kernel, to be kept out of measured walls.
    pub spent_s: f64,
    /// Every slowness measured.
    pub samples: Vec<f64>,
}

impl Calibrator {
    /// Measures the slowness now: the start of a measured interval.
    pub fn mark(&mut self) {
        let t = Instant::now();
        std::hint::black_box(kernel());
        let s = t.elapsed().as_secs_f64();
        self.spent_s += s;
        self.last = s / NOMINAL_S;
        self.samples.push(self.last);
    }

    /// Measures the slowness again, at the end of an interval that began
    /// at the previous measurement, and returns the mean of the two.
    pub fn interval(&mut self) -> f64 {
        let before = self.last;
        self.mark();
        (before + self.last) / 2.0
    }
}
