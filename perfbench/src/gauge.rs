//! The host speed gauge.
//!
//! The benchmark runs on a few virtual cores of a shared host.  Their speed
//! changes by up to half as other tenants load the physical cores, and a
//! slow stretch can last a whole run, so two runs of the same code can
//! differ by more than any regression worth catching.  The gauge times a
//! fixed kernel (building, sorting and grouping rows of integer and
//! string fields, the kind of work the engine does, written with `std`
//! only) every [`EVERY`] between requests, and a measured time is scaled by
//! [`REFERENCE_US`] over the kernel's current time: the scaled times are
//! those of a host on which the kernel takes [`REFERENCE_US`].  A change
//! to the engine leaves the kernel as it is, so it moves the scaled times
//! in full.  `stats::Timings` says which metrics use scaled times.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::{timed, Samples};

/// The kernel's time on the reference host, in microseconds: about its
/// time on an undisturbed vCPU of the 2-vCPU KVM guest (Intel Xeon) the
/// bounds in `BENCHMARK.json` were set on, where it takes 60–70 µs when
/// the host is quiet and 100–130 µs when it is busy.
pub(crate) const REFERENCE_US: f64 = 70.0;
/// Least time between two calibrations.
const EVERY: Duration = Duration::from_millis(10);
/// Kernel runs per calibration; the calibration is their median.
const RUNS: usize = 3;
/// Calibrations the current speed is the median of.
const WINDOW: usize = 3;

/// Rows the kernel builds, sorts and groups.
const ROWS: u64 = 160;

/// A field of a kernel row.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Field {
    Int(i64),
    Str(String),
}

/// The fixed unit of work: build rows of integer and string fields, sort
/// them and count them by a two-field key.
fn kernel() -> usize {
    let mut rows: Vec<Vec<Field>> = (0..ROWS)
        .map(|i| {
            let z = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            vec![
                Field::Int((z >> 40) as i64 % 97),
                Field::Str(format!("t{}", z >> 50)),
                Field::Int(i as i64),
            ]
        })
        .collect();
    rows.sort();
    let mut groups: HashMap<(Field, Field), usize> = HashMap::new();
    for row in &rows {
        *groups.entry((row[0].clone(), row[1].clone())).or_default() += 1;
    }
    groups.len()
}

/// Calibrations so far and the current speed.
#[derive(Debug, Default)]
pub(crate) struct Gauge {
    last: Option<Instant>,
    window: VecDeque<f64>,
    /// Every calibration, in microseconds, for the run record.
    pub(crate) calibrations: Samples,
}

impl Gauge {
    fn calibrate(&mut self) {
        let mut runs = Samples::default();
        for _ in 0..RUNS {
            runs.push(timed(|| black_box(kernel())).1);
        }
        let us = runs.median();
        self.calibrations.push_value(us);
        if self.window.len() == WINDOW {
            self.window.pop_front();
        }
        self.window.push_back(us);
        self.last = Some(Instant::now());
    }

    /// The factor that scales a time measured just now to the reference
    /// host; calibrates first when a calibration is due.
    pub(crate) fn factor(&mut self) -> f64 {
        match self.last {
            None => (0..WINDOW).for_each(|_| self.calibrate()),
            Some(t) if t.elapsed() >= EVERY => self.calibrate(),
            Some(_) => {}
        }
        let mut window: Vec<f64> = self.window.iter().copied().collect();
        window.sort_by(f64::total_cmp);
        REFERENCE_US / window[window.len() / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_positive_and_finite() {
        let mut gauge = Gauge::default();
        let f = gauge.factor();
        assert!(f.is_finite() && f > 0.0, "{f}");
        assert_eq!(gauge.calibrations.len(), WINDOW);
    }
}
