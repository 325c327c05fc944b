//! Online statistics used by the metrics layer.
//!
//! * [`Welford`] — numerically stable streaming mean/variance.
//! * [`TimeWeighted`] — time-weighted average of a piecewise-constant
//!   signal (queue lengths, utilization).

use crate::time::SimTime;

/// Streaming mean and variance (Welford's algorithm).
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample standard deviation (Bessel-corrected; 0 if n < 2).
    pub fn sample_std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Smallest observation (`NaN` if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (`NaN` if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Half-width of an approximate 95% confidence interval for the
    /// mean (normal approximation; 0 if n < 2).
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * self.sample_std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let d = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += d * n2 / n;
        self.m2 += other.m2 + d * d * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exponentially weighted moving average with first-observation
/// initialization (the estimator §7's bid learning builds on).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Ewma {
    alpha: f64,
    value: f64,
    n: u64,
}

impl Ewma {
    /// `alpha` is the weight of each new observation, clamped to
    /// `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        Ewma {
            alpha: alpha.clamp(1e-9, 1.0),
            value: 0.0,
            n: 0,
        }
    }

    /// Fold in one observation. The first observation initializes the
    /// average directly (no bias toward zero).
    pub fn push(&mut self, x: f64) {
        if self.n == 0 {
            self.value = x;
        } else {
            self.value = (1.0 - self.alpha) * self.value + self.alpha * x;
        }
        self.n += 1;
    }

    /// Current average, or `default` before any observation.
    pub fn value_or(&self, default: f64) -> f64 {
        if self.n == 0 {
            default
        } else {
            self.value
        }
    }

    /// Observations folded in.
    pub fn count(&self) -> u64 {
        self.n
    }
}

/// Time-weighted average of a piecewise-constant signal, e.g. a queue
/// length sampled at change points.
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    weighted_sum: f64,
    start: SimTime,
    started: bool,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeighted {
    /// New accumulator; the signal is undefined until the first
    /// [`set`](Self::set).
    pub fn new() -> Self {
        TimeWeighted {
            last_time: SimTime::ZERO,
            last_value: 0.0,
            weighted_sum: 0.0,
            start: SimTime::ZERO,
            started: false,
        }
    }

    /// Record that the signal takes value `value` from time `now` on.
    pub fn set(&mut self, now: SimTime, value: f64) {
        if self.started {
            debug_assert!(now >= self.last_time);
            let dt = now.saturating_since(self.last_time).as_secs_f64();
            self.weighted_sum += self.last_value * dt;
        } else {
            self.start = now;
            self.started = true;
        }
        self.last_time = now;
        self.last_value = value;
    }

    /// Add `delta` to the current value at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = if self.started { self.last_value } else { 0.0 };
        self.set(now, v + delta);
    }

    /// The time-weighted mean over `[start, now]`.
    pub fn average(&self, now: SimTime) -> f64 {
        if !self.started {
            return 0.0;
        }
        let total = now.saturating_since(self.start).as_secs_f64();
        if total <= 0.0 {
            return self.last_value;
        }
        let tail = now.saturating_since(self.last_time).as_secs_f64();
        (self.weighted_sum + self.last_value * tail) / total
    }

    /// Current value of the signal.
    pub fn current(&self) -> f64 {
        self.last_value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn welford_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
        assert_eq!(w.count(), 8);
    }

    #[test]
    fn welford_empty_is_safe() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert!(w.min().is_nan());
        assert_eq!(w.ci95_half_width(), 0.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn ewma_initializes_then_smooths() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value_or(9.0), 9.0);
        e.push(4.0);
        assert_eq!(e.value_or(9.0), 4.0);
        e.push(8.0);
        assert_eq!(e.value_or(9.0), 6.0);
        assert_eq!(e.count(), 2);
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = Ewma::new(0.3);
        for _ in 0..200 {
            e.push(7.0);
        }
        assert!((e.value_or(0.0) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn ewma_alpha_is_clamped() {
        let mut e = Ewma::new(5.0); // clamped to 1.0: last value wins
        e.push(1.0);
        e.push(2.0);
        assert_eq!(e.value_or(0.0), 2.0);
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new();
        tw.set(SimTime::ZERO, 0.0);
        tw.set(SimTime::from_secs(10), 2.0); // 0 for 10s
        tw.set(SimTime::from_secs(20), 4.0); // 2 for 10s
                                             // then 4 for 10s
        let avg = tw.average(SimTime::from_secs(30));
        assert!((avg - 2.0).abs() < 1e-12, "avg {avg}");
        assert_eq!(tw.current(), 4.0);
    }

    #[test]
    fn time_weighted_add() {
        let mut tw = TimeWeighted::new();
        tw.add(SimTime::ZERO, 1.0);
        tw.add(SimTime::from_secs(5), 1.0);
        tw.add(SimTime::from_secs(10), -2.0);
        let avg = tw.average(SimTime::from_secs(10));
        assert!((avg - 1.5).abs() < 1e-12, "avg {avg}");
    }

    #[test]
    fn time_weighted_before_start() {
        let tw = TimeWeighted::new();
        assert_eq!(tw.average(SimTime::from_secs(100)), 0.0);
    }

    #[test]
    fn time_weighted_zero_span() {
        let mut tw = TimeWeighted::new();
        let t = SimTime::from_secs(3);
        tw.set(t, 7.0);
        assert_eq!(tw.average(t), 7.0);
        assert_eq!(tw.average(t + SimDuration::from_secs(1)), 7.0);
    }
}
