//! Host-speed reference for the timing metrics.
//!
//! The benchmark's host is a shared VM whose speed swings by up to 2x
//! over seconds to minutes as other tenants load the machine (see
//! "Noise" in `README.md`). A fixed kernel that is independent of the
//! program — generating and sorting 20 000 pseudo-random floats — is
//! timed between ops, at most every [`INTERVAL_MS`], and around every
//! set-up. Each timed quantity is multiplied by `NOMINAL_MS / k`, where
//! `k` is the median of the kernel times measured next to it: the result
//! is the time the work would take on a host where the kernel takes
//! [`NOMINAL_MS`]. The raw wall-clock figures are printed beside the
//! normalized ones.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time the normalized figures are expressed at.
pub const NOMINAL_MS: f64 = 1.0;
/// Least time between two kernel samples taken between ops.
pub const INTERVAL_MS: f64 = 50.0;
/// Kernel samples the factor of an op is the median of.
const WINDOW: usize = 5;
/// Kernel samples taken right before and right after a set-up.
const AROUND_SETUP: usize = 3;
/// Floats the kernel generates and sorts.
const KERNEL_LEN: usize = 20_000;

/// One run of the reference kernel in `buf`, in milliseconds. The
/// buffer is allocated once per run: a fresh allocation of its size may
/// come from new pages or from the heap, depending on what the program
/// allocated before, and on a 2-vCPU firecracker VM the first-touch page
/// faults moved the kernel time by up to 17% between seeds of one
/// workload.
fn kernel_ms(buf: &mut Vec<f64>) -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
    buf.clear();
    buf.extend((0..KERNEL_LEN).map(|_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % 100_000) as f64
    }));
    buf.sort_by(f64::total_cmp);
    black_box(&buf);
    t0.elapsed().as_secs_f64() * 1e3
}

/// The kernel samples of one run.
#[derive(Debug)]
pub struct HostClock {
    buf: Vec<f64>,
    last: Option<Instant>,
    recent: Vec<f64>,
    all: Vec<f64>,
}

impl HostClock {
    /// A clock with no samples yet.
    pub fn new() -> Self {
        HostClock {
            buf: Vec::with_capacity(KERNEL_LEN),
            last: None,
            recent: Vec::with_capacity(WINDOW),
            all: Vec::new(),
        }
    }

    fn sample(&mut self) -> f64 {
        let ms = kernel_ms(&mut self.buf);
        if self.recent.len() == WINDOW {
            self.recent.remove(0);
        }
        self.recent.push(ms);
        self.all.push(ms);
        self.last = Some(Instant::now());
        ms
    }

    /// The factor for the op about to run: samples the kernel first when
    /// [`INTERVAL_MS`] has passed since the last sample.
    pub fn op_factor(&mut self) -> f64 {
        let due = self.last.is_none_or(|t| t.elapsed().as_secs_f64() * 1e3 >= INTERVAL_MS);
        if due {
            self.sample();
        }
        NOMINAL_MS / median(&self.recent)
    }

    /// Runs `setup` and returns its result with its raw and normalized
    /// seconds, the factor taken from samples right before and after it.
    pub fn time_setup<R>(&mut self, setup: impl FnOnce() -> R) -> (R, f64, f64) {
        let mut around: Vec<f64> = (0..AROUND_SETUP).map(|_| self.sample()).collect();
        let t0 = Instant::now();
        let out = setup();
        let raw_s = t0.elapsed().as_secs_f64();
        around.extend((0..AROUND_SETUP).map(|_| self.sample()));
        (out, raw_s, raw_s * NOMINAL_MS / median(&around))
    }

    /// Median of every kernel sample of the run, in milliseconds.
    pub fn median_ms(&self) -> f64 {
        median(&self.all)
    }
}
