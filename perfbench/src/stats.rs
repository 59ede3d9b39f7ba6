//! Sample summaries.

use std::collections::BTreeMap;
use std::time::Duration;

/// Samples; durations are kept in microseconds.
#[derive(Debug, Default, Clone)]
pub(crate) struct Samples(Vec<f64>);

impl Samples {
    pub(crate) fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e6);
    }

    /// Records a sample that is not a duration (a ratio, a count).
    pub(crate) fn push_value(&mut self, v: f64) {
        self.0.push(v);
    }

    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile, `q` in `0..=1`; 0 for no samples.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    pub(crate) fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub(crate) fn max(&self) -> f64 {
        self.0.iter().copied().fold(0.0, f64::max)
    }
}

/// Durations tagged by request class.  A class is a set of requests that
/// do the same work: one prepared query, one template, one block of insert
/// positions.
///
/// The metrics are taken over times scaled to the reference host (see
/// `gauge`), and over each class's median rather than over single
/// samples.  A single sample carries the host's noise and the gauge's
/// error, and both reach far into the tail: in trials of five to ten runs,
/// the 99th percentile of single samples spread up to 0.26 of its median,
/// raw or scaled.  A class median is steady, so a percentile over requests
/// ranked by their class's median is steady too.  It tells which kinds of request
/// are slow, and by how much; it leaves out how one request of a kind
/// varies, which on a shared host is mostly the host.
#[derive(Debug, Default, Clone)]
pub(crate) struct Timings {
    raw: Samples,
    scaled: BTreeMap<u32, Samples>,
}

impl Timings {
    /// Records `d`, which `factor` scales to the reference host.
    pub(crate) fn push(&mut self, class: u32, d: Duration, factor: f64) {
        self.raw.push(d);
        self.scaled
            .entry(class)
            .or_default()
            .push(d.mul_f64(factor));
    }

    pub(crate) fn len(&self) -> usize {
        self.raw.len()
    }

    /// Median of all samples as measured, in microseconds.
    pub(crate) fn raw_median(&self) -> f64 {
        self.raw.median()
    }

    /// Percentile, `q` in `0..=1`, over requests ranked by their class's
    /// scaled median, in microseconds; 0 for no samples.  Each class's
    /// median stands at the middle of the class's share of the ranked
    /// requests, and a percentile between two such points is interpolated
    /// linearly, so that it moves smoothly when a class's share does.
    /// Where the requests of a mix fall into clusters (the queries of
    /// `olap_mix`), the median of all samples sits between two clusters
    /// and swings with the noise in their tails; this percentile does not.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        let mut medians: Vec<(f64, usize)> = self
            .scaled
            .values()
            .map(|s| (s.median(), s.len()))
            .collect();
        medians.sort_by(|a, b| a.0.total_cmp(&b.0));
        let target = q * self.len() as f64;
        let mut seen = 0.0;
        let mut below: Option<(f64, f64)> = None;
        for (median, n) in medians {
            let at = seen + n as f64 / 2.0;
            seen += n as f64;
            if at >= target {
                return match below {
                    Some((at0, median0)) => {
                        median0 + (median - median0) * (target - at0) / (at - at0)
                    }
                    None => median,
                };
            }
            below = Some((at, median));
        }
        below.map_or(0.0, |(_, median)| median)
    }

    pub(crate) fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub(crate) fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Requests per second of one client whose every request takes its
    /// class's scaled median time; 0 for no samples.
    pub(crate) fn rate(&self) -> f64 {
        let busy_us: f64 = self
            .scaled
            .values()
            .map(|s| s.median() * s.len() as f64)
            .sum();
        if busy_us > 0.0 {
            self.len() as f64 * 1e6 / busy_us
        } else {
            0.0
        }
    }
}

/// A running total of durations, for mean per-request layer times.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Total {
    pub(crate) sum: Duration,
    pub(crate) n: u64,
}

impl Total {
    pub(crate) fn add(&mut self, d: Duration) {
        self.sum += d;
        self.n += 1;
    }

    /// Mean in microseconds over `n` events (0 when there were none).
    pub(crate) fn mean_us(&self) -> f64 {
        per(self.sum.as_secs_f64() * 1e6, self.n)
    }
}

/// `x / n`, or 0 when `n` is 0.
pub(crate) fn per(x: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        x / n as f64
    }
}

/// Times one call.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for us in 1..=1000u64 {
            s.push(Duration::from_micros(us));
        }
        assert_eq!(s.median(), 500.0);
        assert_eq!(s.quantile(0.99), 990.0);
        assert_eq!(s.max(), 1000.0);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn class_quantiles() {
        let mut t = Timings::default();
        // Class 0: 10 samples 1..=10 us, median 5, midpoint at rank 5;
        // class 1: 30 samples 100..=129 us scaled by 2, median 228,
        // midpoint at rank 25.
        for us in 1..=10 {
            t.push(0, Duration::from_micros(us), 1.0);
        }
        for us in 100..130 {
            t.push(1, Duration::from_micros(us), 2.0);
        }
        assert_eq!(t.len(), 40);
        assert_eq!(t.quantile(0.1), 5.0);
        // Rank 20 is three quarters of the way from rank 5 to rank 25.
        assert_eq!(t.median(), 5.0 + (228.0 - 5.0) * 0.75);
        assert_eq!(t.p99(), 228.0);
        assert_eq!(t.raw_median(), 109.0);
        let busy_us = 10.0 * 5.0 + 30.0 * 228.0;
        assert!((t.rate() - 40.0e6 / busy_us).abs() < 1e-6);
        assert_eq!(Timings::default().median(), 0.0);
        assert_eq!(Timings::default().rate(), 0.0);
    }
}
