//! The yardstick: a fixed piece of CPU work timed throughout a run, by
//! which the run's times are brought to one reference speed.
//!
//! The sandbox is a few cores of a shared host. Beyond the bursts the
//! quiet-quarter estimators (`stats::quiet_low`) shed, its neighbours
//! move the speed of the CPU itself — shared cache, memory bandwidth,
//! clock — by a fifth and more for minutes on end, with no steal time to
//! show for it; every run inside such a spell is slow from end to end,
//! and no estimator over the run's own slices can tell. The same spell
//! slows this kernel by the same share (over five minutes of
//! `replay_wide`, 15-second quiet quarters of the two correlated at
//! 0.94), so a run reports each time as `measured × NOMINAL_MS /
//! yardstick`: what it would have measured on a host that runs the
//! kernel in exactly `NOMINAL_MS`. A change to the program moves the
//! measurement and not the yardstick, which is compiled from this file
//! alone.

use crate::stats;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the sandbox the benchmark was written on, in a
/// quiet spell. Only fixes the unit: halving it would halve every
/// reported time on both sides of any comparison.
pub const NOMINAL_MS: f64 = 15.0;

/// Sort 400,000 pseudo-random words (3 MiB: in and out of the cache the
/// neighbours share), then build an ordered map of 100,000 of them
/// (allocation, pointer chasing, branches) — the kinds of work the
/// workloads themselves do.
fn kernel() {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut words: Vec<u64> = (0..400_000)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x >> 11
        })
        .collect();
    words.sort_unstable();
    let map: BTreeMap<u64, usize> = words
        .iter()
        .take(100_000)
        .enumerate()
        .map(|(i, w)| (w ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15), i))
        .collect();
    black_box((&words, &map));
}

/// The kernel's times over one run.
#[derive(Debug, Default)]
pub struct Yardstick {
    ms: Vec<f64>,
}

impl Yardstick {
    /// Times the kernel once. Workloads call this between their slices.
    pub fn tick(&mut self) {
        let t = Instant::now();
        kernel();
        self.ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    /// The run's yardstick: the quiet quarter of the kernel's times.
    pub fn ms(&self) -> f64 {
        stats::quiet_low(&self.ms)
    }

    pub fn ticks(&self) -> usize {
        self.ms.len()
    }

    /// What a measured time is multiplied by (a rate divided by) to be
    /// reported at the reference speed; 1 if the kernel was never timed.
    pub fn to_reference(&self) -> f64 {
        match self.ms() {
            ms if ms > 0.0 => NOMINAL_MS / ms,
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_host_is_scaled_back_to_the_reference() {
        let mut yard = Yardstick::default();
        assert_eq!(yard.to_reference(), 1.0);
        // A host running the kernel a quarter slower, with two bursts.
        let slow = NOMINAL_MS * 1.25;
        yard.ms = vec![slow, slow, 60.0, slow, slow, 41.0, slow, slow];
        assert_eq!(yard.ms(), slow);
        assert_eq!(yard.to_reference(), 0.8);
        // 125 µs measured there is 100 µs at the reference speed.
        assert!((125.0 * yard.to_reference() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn the_kernel_takes_measurable_time() {
        let mut yard = Yardstick::default();
        yard.tick();
        assert_eq!(yard.ticks(), 1);
        assert!(yard.ms() > 0.1);
    }
}
