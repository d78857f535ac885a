//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts by a quarter or
//! more over tens of seconds, as other tenants' load comes and goes; a
//! run that happens to fall in a slow stretch reads slow on every timing.
//! To take that out, each run also times a fixed kernel of the
//! benchmark's own — sorting, maps and strings, no code of the program —
//! between the program's operations, and every end-to-end timing is
//! scaled by the kernel's speed around it: to the time it would take on a
//! host where the kernel takes [`NOMINAL_MS`]. A change to the program
//! moves its timings and not the kernel's, so it shows in full.
//!
//! The kernel's median time on the host (`calib.kernel_ms`) is reported
//! with the per-layer metrics, so adjusted figures can be read back as
//! this host's wall time.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use crate::stats::Samples;

/// The kernel time the adjusted timings are scaled to.
pub const NOMINAL_MS: f64 = 1.0;

/// Kernel times over which the local speed is taken: the latest few, so
/// the adjustment follows the host's speed as it changes.
const WINDOW: usize = 8;

/// Kernel times of one run.
#[derive(Default)]
pub struct Calibration {
    ms: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Calibration {
        Calibration::default()
    }

    /// Times the kernel `n` times.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let start = Instant::now();
            std::hint::black_box(kernel());
            self.ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }

    /// `ms` measured on this host just before the latest kernel samples,
    /// scaled to the nominal kernel speed by the median of the last
    /// [`WINDOW`] kernel times.
    pub fn adjust(&self, ms: f64) -> f64 {
        let recent = &self.ms[self.ms.len().saturating_sub(WINDOW)..];
        let mut s = Samples::default();
        s.extend(recent.iter().copied());
        if s.len() == 0 {
            return ms;
        }
        ms * NOMINAL_MS / s.median()
    }

    /// The median kernel time of the run.
    pub fn kernel_ms(&self) -> f64 {
        let mut s = Samples::default();
        s.extend(self.ms.iter().copied());
        s.median()
    }
}

/// The fixed kernel: sort 20k pseudo-random words, index every fourth in
/// a B-tree map, and render 2k short names into a hash map. About a
/// millisecond on a quiet host; small allocations, hashing, branches and
/// cache misses, like the program's own work.
fn kernel() -> usize {
    let mut words: Vec<u64> =
        (0..20_000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i >> 3)).collect();
    words.sort_unstable();
    let mut tree = BTreeMap::new();
    for (i, w) in words.iter().enumerate().step_by(4) {
        tree.insert(*w, i);
    }
    let mut names = HashMap::new();
    for (i, w) in words.iter().enumerate().step_by(10) {
        names.insert(format!("n{}_{}", w % 977, i), vec![i; 4]);
    }
    tree.len() + names.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjusting_scales_by_the_recent_kernel_median() {
        let mut c = Calibration::new();
        assert_eq!(c.adjust(5.0), 5.0);
        c.ms = vec![100.0; 40];
        c.ms.extend([2.0; WINDOW]);
        assert_eq!(c.adjust(5.0), 5.0 * NOMINAL_MS / 2.0);
        c.sample(1);
        assert!(c.kernel_ms() > 0.0);
    }
}
