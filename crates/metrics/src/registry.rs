//! A typed metrics registry: counters, gauges and log-linear-bucket
//! histograms with near-zero hot-path cost.
//!
//! Every instrument is a cheap handle around an [`Arc`] of atomics, so
//! the same instrument can be recorded from the simulation engine's
//! single thread or from a dozen real worker threads without locks on
//! the hot path.  The registry itself is only locked on instrument
//! *creation* (get-or-create by name) and on [`Registry::snapshot`].
//!
//! Where one owner records an instrument many times per published
//! value, [`LocalCounter`] and [`LocalHistogram`] keep the tally in
//! plain cells — no locked instruction per event — and publish it into
//! the atomic instrument they are bound to on `flush`.  Each owner
//! flushes its own tally, so several threads' tallies of one instrument
//! sum exactly.
//!
//! Naming convention: lowercase path segments joined by `/`, e.g.
//! `contests/opened`, `job/queue_wait_secs`, `worker/3/busy_frac`.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonically increasing event count.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// Single-owner tally of a [`Counter`]: counts in a plain cell and
/// publishes them into the counter on [`flush`](Self::flush).
pub struct LocalCounter {
    tally: Cell<u64>,
    sink: Counter,
}

impl LocalCounter {
    /// A zero tally bound to `sink`.
    pub fn new(sink: Counter) -> Self {
        LocalCounter {
            tally: Cell::new(0),
            sink,
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.tally.set(self.tally.get() + n);
    }

    /// The count since the last flush.
    #[inline]
    pub fn get(&self) -> u64 {
        self.tally.get()
    }

    /// A zero tally bound to the same counter.
    pub fn fork(&self) -> Self {
        LocalCounter::new(self.sink.clone())
    }

    /// Add the tally to the counter and reset it to zero.
    pub fn flush(&self) {
        let n = self.tally.take();
        if n > 0 {
            self.sink.add(n);
        }
    }
}

impl fmt::Debug for LocalCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LocalCounter({})", self.get())
    }
}

/// Last-write-wins floating point value (stored as `f64` bits).
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

impl fmt::Debug for Gauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

/// Sub-buckets per power-of-two octave.  4 keeps the relative
/// quantile error under ~12% with 121 buckets across 30 octaves.
const SUBS_PER_OCTAVE: usize = 4;
/// Octaves covered above `min`; values beyond land in the overflow
/// bucket.  30 octaves above 1 ms reach ~1.07e6 s.
const OCTAVES: usize = 30;
/// `1 (underflow) + OCTAVES * SUBS_PER_OCTAVE + 1 (overflow)`.
const BUCKETS: usize = 2 + OCTAVES * SUBS_PER_OCTAVE;

/// The bucket `v` lands in, in a histogram whose first real bucket
/// starts at `min`: the one layout of [`Histogram`] and
/// [`LocalHistogram`]. NaN, −∞, negative and sub-minimum samples land
/// in the underflow bucket (index 0); +∞ and samples past the top
/// octave in the overflow bucket.
#[inline]
fn bucket_index(min: f64, v: f64) -> usize {
    if v.is_nan() || v < min {
        return 0;
    }
    let ratio = v / min;
    let octave = ratio.log2().floor();
    if octave >= OCTAVES as f64 {
        return BUCKETS - 1;
    }
    let octave_usize = octave as usize;
    let base = min * (2f64).powi(octave as i32);
    // Position within the octave in [0, 1); linear sub-bucket.
    let frac = (v - base) / base;
    let sub = ((frac * SUBS_PER_OCTAVE as f64) as usize).min(SUBS_PER_OCTAVE - 1);
    1 + octave_usize * SUBS_PER_OCTAVE + sub
}

struct HistInner {
    /// Lower bound of the first real bucket; values below it land in
    /// the underflow bucket (index 0).
    min: f64,
    /// `BUCKETS` counts.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Exact sum of recorded values, as `f64` bits updated by CAS.
    sum_bits: AtomicU64,
}

/// Log-linear-bucket histogram of non-negative `f64` samples
/// (typically seconds).
///
/// Buckets are spaced exponentially by octave (powers of two above a
/// configurable minimum), each octave split into four linear
/// sub-buckets — the classic HDR layout.
/// Recording is two relaxed atomic adds plus one CAS loop for the
/// exact sum; no allocation, no lock.
#[derive(Clone)]
pub struct Histogram(Arc<HistInner>);

impl Histogram {
    /// Histogram with the default range: 1 ms to ~1.07e6 s.
    pub fn new() -> Self {
        Self::with_min(1e-3)
    }

    /// Histogram whose first real bucket starts at `min` (> 0).
    pub fn with_min(min: f64) -> Self {
        assert!(min > 0.0 && min.is_finite(), "histogram min must be > 0");
        let buckets = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Self(Arc::new(HistInner {
            min,
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }))
    }

    /// Lower bound of bucket `i` (0 for the underflow bucket).
    fn bucket_lower_bound(&self, i: usize) -> f64 {
        if i == 0 {
            return 0.0;
        }
        let min = self.0.min;
        let last = self.0.buckets.len() - 1;
        if i >= last {
            return min * (2f64).powi(OCTAVES as i32);
        }
        let octave = (i - 1) / SUBS_PER_OCTAVE;
        let sub = (i - 1) % SUBS_PER_OCTAVE;
        let base = min * (2f64).powi(octave as i32);
        base * (1.0 + sub as f64 / SUBS_PER_OCTAVE as f64)
    }

    /// Upper bound of bucket `i` (= lower bound of bucket `i + 1`).
    fn bucket_upper_bound(&self, i: usize) -> f64 {
        if i + 1 >= self.0.buckets.len() {
            f64::INFINITY
        } else {
            self.bucket_lower_bound(i + 1)
        }
    }

    /// Record one sample.  NaN and −∞ are counted in the underflow
    /// bucket, +∞ in the overflow bucket; non-finite samples
    /// contribute nothing to the sum.
    #[inline]
    pub fn record(&self, v: f64) {
        self.0.buckets[bucket_index(self.0.min, v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        if v.is_finite() {
            self.add_sum(v);
        }
    }

    /// Add `v` to the exact sum.
    fn add_sum(&self, v: f64) {
        let mut cur = self.0.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.0.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Exact sum of all finite samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Exact mean of all finite samples (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`): the upper bound of the
    /// bucket containing the `q`-th sample.  Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                let hi = self.bucket_upper_bound(i);
                return if hi.is_finite() {
                    hi
                } else {
                    self.bucket_lower_bound(i)
                };
            }
        }
        self.bucket_lower_bound(self.0.buckets.len() - 1)
    }

    /// Point-in-time copy, keeping only non-empty buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (self.bucket_lower_bound(i), n))
            })
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Histogram(count={}, mean={:.4})",
            self.count(),
            self.mean()
        )
    }
}

/// Single-owner tally of a [`Histogram`]: the same buckets, count and
/// exact sum in plain cells, published into the histogram on
/// [`flush`](Self::flush).
///
/// The tally's sum starts at 0.0 and adds the finite samples in the
/// order they are recorded, exactly as the histogram's own sum does,
/// so publishing a tally into a fresh histogram gives the sum the
/// histogram would have had from the same samples, bit for bit.
pub struct LocalHistogram {
    min: f64,
    buckets: [Cell<u64>; BUCKETS],
    count: Cell<u64>,
    sum: Cell<f64>,
    sink: Histogram,
}

impl LocalHistogram {
    /// An empty tally bound to `sink`, in its bucket layout.
    pub fn new(sink: Histogram) -> Self {
        LocalHistogram {
            min: sink.0.min,
            buckets: std::array::from_fn(|_| Cell::new(0)),
            count: Cell::new(0),
            sum: Cell::new(0.0),
            sink,
        }
    }

    /// Record one sample, as [`Histogram::record`] does.
    #[inline]
    pub fn record(&self, v: f64) {
        let bucket = &self.buckets[bucket_index(self.min, v)];
        bucket.set(bucket.get() + 1);
        self.count.set(self.count.get() + 1);
        if v.is_finite() {
            self.sum.set(self.sum.get() + v);
        }
    }

    /// Samples recorded since the last flush.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// An empty tally bound to the same histogram.
    pub fn fork(&self) -> Self {
        LocalHistogram::new(self.sink.clone())
    }

    /// Add the tally to the histogram and reset it to empty.
    pub fn flush(&self) {
        let count = self.count.take();
        if count == 0 {
            return;
        }
        let sink = &self.sink.0;
        for (tally, bucket) in self.buckets.iter().zip(&sink.buckets) {
            let n = tally.take();
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
        sink.count.fetch_add(count, Ordering::Relaxed);
        self.sink.add_sum(self.sum.take());
    }
}

impl fmt::Debug for LocalHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LocalHistogram(count={})", self.count())
    }
}

/// Frozen copy of one histogram: `(bucket lower bound, count)` pairs
/// for the non-empty buckets, plus exact count and sum.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: f64,
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`): the lower bound of the
    /// bucket where the cumulative count crosses the `q`-th sample.
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(lo, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return lo;
            }
        }
        self.buckets.last().map_or(0.0, |&(lo, _)| lo)
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// Named collection of instruments, shareable across threads.
///
/// Cloning a `Registry` clones the handle, not the data: all clones
/// feed the same instruments.  Instruments are created on first use
/// and live for the life of the registry.
#[derive(Clone, Default)]
pub struct Registry(Arc<RegistryInner>);

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.0.counters.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.0.gauges.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the histogram named `name` (default 1 ms min).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.0.histograms.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// Point-in-time copy of every instrument, sorted by name.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let counters = self
            .0
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .0
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .0
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        RegistrySnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Registry")
            .field("counters", &snap.counters.len())
            .field("gauges", &snap.gauges.len())
            .field("histograms", &snap.histograms.len())
            .finish()
    }
}

/// Frozen copy of a [`Registry`], ordered by instrument name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl RegistrySnapshot {
    /// Value of the named counter, or 0 when absent (a counter that
    /// never fired is indistinguishable from one never created).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("a/b");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("a/b").get(), 5);
        let g = reg.gauge("util");
        g.set(0.75);
        assert_eq!(reg.gauge("util").get(), 0.75);
    }

    #[test]
    fn histogram_buckets_monotone() {
        let h = Histogram::new();
        for v in [0.0005, 0.002, 0.5, 1.0, 1.4, 100.0, 1e9] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        // Exact sum survives bucketing.
        let want: f64 = 0.0005 + 0.002 + 0.5 + 1.0 + 1.4 + 100.0 + 1e9;
        assert!((h.sum() - want).abs() < 1e-6 * want);
        let snap = h.snapshot();
        assert_eq!(snap.count, 7);
        // Buckets come out in ascending order of lower bound.
        for w in snap.buckets.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn histogram_quantile_brackets_sample() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(0.050);
        }
        let p50 = h.quantile(0.5);
        // Upper bucket bound within one sub-bucket (25%) of the value.
        assert!((0.050..=0.050 * 1.3).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn infinity_overflows_while_nan_and_negative_infinity_underflow() {
        let reg = Registry::new();
        let h = reg.histogram("h");
        let local = LocalHistogram::new(reg.histogram("l"));
        for v in [0.5, f64::INFINITY, f64::NAN, f64::NEG_INFINITY] {
            h.record(v);
            local.record(v);
        }
        local.flush();
        let top = 1e-3 * 2f64.powi(OCTAVES as i32);
        for name in ["h", "l"] {
            let snap = reg.snapshot();
            let snap = snap.histogram(name).unwrap();
            assert_eq!((snap.count, snap.sum), (4, 0.5), "{name}");
            assert_eq!(
                snap.buckets.first(),
                Some(&(0.0, 2)),
                "{name}: NaN and -inf"
            );
            assert_eq!(snap.buckets.last(), Some(&(top, 1)), "{name}: +inf");
            assert_eq!(snap.quantile(1.0), top, "{name}");
            assert_eq!(reg.histogram(name).quantile(1.0), top, "{name}");
        }
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let reg = Registry::new();
        reg.counter("z").inc();
        reg.counter("a").add(2);
        reg.histogram("h").record(1.0);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters
                .iter()
                .map(|(k, _)| k.as_str())
                .collect::<Vec<_>>(),
            vec!["a", "z"]
        );
        assert_eq!(snap.counter("a"), 2);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.histogram("h").unwrap().count, 1);
    }

    #[test]
    fn shared_across_threads() {
        let reg = Registry::new();
        let c = reg.counter("n");
        let h = reg.histogram("t");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                let h = h.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                        h.record(0.01);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
        assert!((h.sum() - 40.0).abs() < 1e-9);
    }

    /// One sample of every kind a histogram must place: NaN, ±∞,
    /// negative (and -0.0), below `min`, over the top octave, large
    /// enough to overflow the sum, and — most often — in range.
    fn sample((kind, u): (u8, f64)) -> f64 {
        match kind {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -1e3 * u,
            4 => 1e-3 * u,
            5 => 2e6 * (1.0 + 1e3 * u),
            6 => f64::MAX * u,
            _ => 1e-3 * 2f64.powf(30.0 * u),
        }
    }

    fn samples() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec((0u8..12, 0.0f64..1.0).prop_map(sample), 0..200)
    }

    /// Bucket counts, count and sum bits of a histogram.
    fn tallies(h: &Histogram) -> (Vec<u64>, u64, u64) {
        let buckets = h.0.buckets.iter().map(|b| b.load(Ordering::Relaxed));
        (buckets.collect(), h.count(), h.sum().to_bits())
    }

    use proptest::prelude::*;

    proptest! {
        /// A local tally flushed into a fresh registry holds exactly
        /// what recording the same sequence into the atomic instruments
        /// holds, sum bits included, and a second flush adds nothing.
        /// What is recorded after a flush publishes only itself, its
        /// sum added to the published one.
        #[test]
        fn local_tallies_publish_what_atomic_recording_holds(
            values in samples(),
            increments in proptest::collection::vec(0u64..1_000_000_000_000, 0..50),
        ) {
            let (published, atomic) = (Registry::new(), Registry::new());
            let (hist, count) = (published.histogram("h"), published.counter("c"));
            let local_hist = LocalHistogram::new(hist.clone());
            let local_count = LocalCounter::new(count.clone());
            let (values_cut, increments_cut) = (values.len() / 2, increments.len() / 2);
            let halves = [
                (&values[..values_cut], &increments[..increments_cut]),
                (&values[values_cut..], &increments[increments_cut..]),
            ];
            for (values, increments) in halves {
                let half = Histogram::new();
                for &v in values {
                    local_hist.record(v);
                    atomic.histogram("h").record(v);
                    half.record(v);
                }
                for &n in increments {
                    local_count.add(n);
                    atomic.counter("c").add(n);
                }
                prop_assert_eq!(local_hist.count(), values.len() as u64);
                let sum = (hist.sum() + half.sum()).to_bits();
                for _ in 0..2 {
                    local_hist.flush();
                    local_count.flush();
                    let (buckets, n, _) = tallies(&atomic.histogram("h"));
                    prop_assert_eq!(tallies(&hist), (buckets, n, sum));
                    prop_assert_eq!(count.get(), atomic.counter("c").get());
                    prop_assert_eq!((local_hist.count(), local_count.get()), (0, 0));
                }
            }
            let fresh = Registry::new();
            let once = LocalHistogram::new(fresh.histogram("h"));
            values.iter().for_each(|&v| once.record(v));
            once.flush();
            prop_assert_eq!(tallies(&fresh.histogram("h")), tallies(&atomic.histogram("h")));
        }

        /// Forks recorded and flushed on several threads sum their
        /// counts exactly.
        #[test]
        fn forks_flushed_from_threads_sum_exactly(
            values in samples(),
            increments in proptest::collection::vec(0u64..1_000_000_000_000, 0..50),
            lanes in 1usize..5,
        ) {
            let (published, atomic) = (Registry::new(), Registry::new());
            let hist = LocalHistogram::new(published.histogram("h"));
            let count = LocalCounter::new(published.counter("c"));
            std::thread::scope(|scope| {
                for lane in 0..lanes {
                    let (hist, count) = (hist.fork(), count.fork());
                    let (values, increments) = (&values, &increments);
                    scope.spawn(move || {
                        values.iter().skip(lane).step_by(lanes).for_each(|&v| hist.record(v));
                        increments.iter().skip(lane).step_by(lanes).for_each(|&n| count.add(n));
                        hist.flush();
                        count.flush();
                    });
                }
            });
            for &v in &values {
                atomic.histogram("h").record(v);
            }
            for &n in &increments {
                atomic.counter("c").add(n);
            }
            let (buckets, n, _) = tallies(&published.histogram("h"));
            let (want_buckets, want_n, _) = tallies(&atomic.histogram("h"));
            prop_assert_eq!((buckets, n), (want_buckets, want_n));
            prop_assert_eq!(published.counter("c").get(), atomic.counter("c").get());
        }
    }
}
