//! `setup_s`: the workload's set-up, timed [`SETUP_REPS`] times per
//! run.
//!
//! The first repetition is the live set-up the timed loop runs on. The
//! others are throwaway set-ups spread evenly through the loop (one is
//! due every `seconds / SETUP_REPS`), so that a slow stretch of the
//! machine hits set-up as it hits every other metric. A throwaway
//! set-up's heap is left out of `peak_heap_mb` and its time out of the
//! loop time behind `ops_per_s`.

use std::time::Instant;

use rnn_heatmap::core::clock;

use crate::alloc;
use crate::stats::{ms_since, Series};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 21;

/// The set-up repetitions of one run and the clock of its timed loop.
pub struct Setups<F> {
    make: F,
    reps: usize,
    times: Series,
    seconds: f64,
    t0: Instant,
    paused_ms: f64,
}

impl<T, F: FnMut() -> T> Setups<F> {
    /// Runs and times the live set-up `make` (peak-heap tracking
    /// restarts just before it) for a loop of `seconds` that will hold
    /// `reps` set-ups in all; returns the live set-up's result.
    pub fn new(seconds: f64, reps: usize, mut make: F) -> (Setups<F>, T) {
        alloc::reset_peak();
        let t = clock::now();
        let live = make();
        let mut times = Series::default();
        times.push(ms_since(t) / 1e3);
        (Setups { make, reps, times, seconds, t0: clock::now(), paused_ms: 0.0 }, live)
    }

    /// Starts the loop clock.
    pub fn start(&mut self) {
        self.t0 = clock::now();
        self.paused_ms = 0.0;
    }

    /// Whether the loop's `seconds` have not run out yet.
    pub fn running(&self) -> bool {
        ms_since(self.t0) < self.seconds * 1e3
    }

    /// Runs a throwaway set-up if the next one is due; true if it ran.
    pub fn repeat_if_due(&mut self) -> bool {
        let due_ms = self.times.len() as f64 * self.seconds * 1e3 / self.reps as f64;
        if self.times.len() >= self.reps || ms_since(self.t0) < due_ms {
            return false;
        }
        self.repeat();
        true
    }

    fn repeat(&mut self) {
        let paused = clock::now();
        let peak = alloc::peak_bytes();
        let t = clock::now();
        let made = (self.make)();
        self.times.push(ms_since(t) / 1e3);
        drop(made);
        alloc::restore_peak(peak);
        self.paused_ms += ms_since(paused);
    }

    /// Ends the loop: runs the set-ups not yet due (only a very short
    /// loop leaves any) and returns the loop's seconds without the
    /// throwaway set-ups.
    pub fn finish(&mut self) -> f64 {
        let loop_s = (ms_since(self.t0) - self.paused_ms) / 1e3;
        while self.times.len() < self.reps {
            self.repeat();
        }
        loop_s
    }

    /// Set-up times in seconds, the live one first.
    pub fn times(&self) -> &Series {
        &self.times
    }
}
