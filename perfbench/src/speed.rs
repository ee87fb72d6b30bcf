//! The host's speed, probed between measured slices.
//!
//! On a shared VM the host's speed drifts by up to 1.5-1.8x over seconds to
//! minutes. The drift is not the clock: a register-only integer loop keeps
//! its speed (its per-window medians spread 0.04) while a 640-transaction
//! inference batch spreads 0.2. It is the core's caches and memory path,
//! shared with other tenants. A fixed probe kernel in the benchmark's own
//! code that gathers rows from an L2-resident table and pushes them through
//! a small dense layer (the shape of the detector's forward) drifts with
//! the inference batch: their ratio spreads 0.04-0.08 where the batch alone
//! spreads 0.08-0.2 (100 s runs, 3.5 s windows). So the probe, timed right
//! before and right after a measured slice, reads the host's speed during
//! that slice, and every end-to-end time is reported at the probe's nominal
//! speed: `time × NOMINAL / probe`. The probe never calls the program, so a
//! change to the program cannot move it, and it runs while the system under
//! test is idle between slices.

use std::hint::black_box;
use std::time::Instant;

/// Probe time (seconds, median of [`PROBE_REPS`]) that counts as speed 1:
/// about the median reading on a 2.1 GHz Xeon vCPU.
pub const NOMINAL_S: f64 = 1.2e-3;
const PROBE_REPS: usize = 3;
/// The probe's working set: 1 MiB of `f32`, within the per-core L2 (a
/// table past L2, or a register-only loop, tracked the inference batch
/// less well).
const TABLE_LEN: usize = 1 << 18;
const GATHERS: usize = 1 << 14;
const DIM: usize = 48;

pub struct Speed {
    table: Vec<f32>,
    weights: Vec<f32>,
    /// Every probe reading, seconds.
    readings: Vec<f64>,
}

impl Speed {
    pub fn new() -> Self {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 40) as f32 / (1u64 << 24) as f32
        };
        let table = (0..TABLE_LEN).map(|_| next()).collect();
        let weights = (0..DIM * DIM).map(|_| next() - 0.5).collect();
        let s = Speed {
            table,
            weights,
            readings: Vec::new(),
        };
        // Fault the table in before the first reading.
        black_box(s.kernel());
        s
    }

    /// One pass of fixed work: random row gathers from the table, each
    /// pushed through a small dense layer.
    fn kernel(&self) -> f32 {
        let mut idx = 0x9e37_79b9u32;
        let mut acc = [0f32; DIM];
        let mut row = [0f32; DIM];
        for _ in 0..GATHERS / DIM {
            for r in row.iter_mut() {
                idx ^= idx << 13;
                idx ^= idx >> 17;
                idx ^= idx << 5;
                *r = self.table[idx as usize % TABLE_LEN];
            }
            for (o, w) in acc.iter_mut().zip(self.weights.chunks_exact(DIM)) {
                *o = (*o * 0.5 + w.iter().zip(&row).map(|(a, b)| a * b).sum::<f32>()).tanh();
            }
        }
        acc.iter().sum()
    }

    /// Times the kernel [`PROBE_REPS`] times; returns and records the median.
    pub fn probe(&mut self) -> f64 {
        let mut t: Vec<f64> = (0..PROBE_REPS)
            .map(|_| {
                let started = Instant::now();
                black_box(self.kernel());
                started.elapsed().as_secs_f64()
            })
            .collect();
        t.sort_by(f64::total_cmp);
        let median = t[PROBE_REPS / 2];
        self.readings.push(median);
        median
    }

    /// Runs `f` between two probes; returns its result and the host's speed
    /// factor over it (1 = nominal, 2 = everything took twice as long).
    pub fn slice<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.probe();
        let out = f();
        let after = self.probe();
        (out, (before + after) / 2.0 / NOMINAL_S)
    }

    pub fn readings(&self) -> &[f64] {
        &self.readings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_slice_factor_is_positive() {
        let mut s = Speed::new();
        assert_eq!(s.kernel().to_bits(), s.kernel().to_bits());
        let (v, f) = s.slice(|| 7);
        assert_eq!(v, 7);
        assert!(f > 0.0 && f.is_finite());
        assert_eq!(s.readings().len(), 2);
    }
}
