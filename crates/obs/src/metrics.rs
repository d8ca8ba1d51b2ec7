//! The metrics half: lock-free recording handles and the registry that
//! names them.
//!
//! Handles are `Arc`-of-atomics: cloning one is a refcount bump, and
//! recording touches no lock — a [`Counter`] increment is one relaxed
//! `fetch_add`, an [`AtomicHistogram`] observation is two. The
//! [`MetricsRegistry`] holds one entry per series; its lock is taken
//! only at registration and at collection/render time, never on the
//! serving path.
//!
//! Series names follow Prometheus conventions
//! (`bst_<layer>_<noun>_<unit>[_total]`); [`MetricsRegistry`]
//! sanitises names at registration (invalid characters become `_`) so
//! a typo can never produce an unscrapable page.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// A monotonically increasing counter (resettable only explicitly, for
/// cache-clear style lifecycle events).
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh zeroed counter, not yet attached to any registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Resets to zero — for owners whose semantics include wholesale
    /// invalidation (e.g. the weight cache's `clear`).
    pub fn reset(&self) {
        self.cell.store(0, Ordering::Relaxed);
    }
}

/// An instantaneous signed value (live connections, cached handles).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// A fresh zeroed gauge, not yet attached to any registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (which may be negative).
    pub fn add(&self, n: i64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Linear sub-buckets per power of two. Above the unit-width range a
/// bucket is at most `1/SUB` as wide as the values it holds, so its
/// midpoint is within `1/(2·SUB)` (0.8%) of each of them.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Observations are bucketed in whole microseconds below `2^TOP_BITS` µs
/// (about 71.6 minutes); anything larger clamps into the top bucket.
const TOP_BITS: u32 = 32;
const TOP_US: u64 = 1 << TOP_BITS;
/// `SUB` unit-width buckets for `[0, SUB)` µs, then `SUB` per octave
/// from `2^SUB_BITS` up to `2^TOP_BITS` µs: 1728 buckets.
const BUCKETS: usize = ((TOP_BITS - SUB_BITS + 1) as u64 * SUB) as usize;

/// The bucket holding `us` microseconds. NaN and negative values land
/// in bucket 0 (the float-to-int cast maps them to 0) and values past
/// the top clamp into the last bucket, so every observation counts.
fn bucket_of(us: f64) -> usize {
    let u = (us as u64).min(TOP_US - 1);
    if u < SUB {
        return u as usize;
    }
    let shift = (63 - u.leading_zeros()) - SUB_BITS;
    ((shift as u64 + 1) * SUB + (u >> shift) - SUB) as usize
}

/// The value reported for bucket `i`: the midpoint of the microsecond
/// interval it covers.
fn bucket_mid(i: usize) -> f64 {
    let i = i as u64;
    if i < SUB {
        return i as f64 + 0.5;
    }
    let shift = i / SUB - 1;
    let lo = (SUB + i % SUB) << shift;
    lo as f64 + (1u64 << shift) as f64 / 2.0
}

#[derive(Debug)]
struct HistCore {
    buckets: Vec<AtomicU64>,
    /// Sum of all observations, each clamped into `[0, 2^TOP_BITS]` µs,
    /// in fixed-point milli-units so it fits a `u64` atomic.
    sum_milli: AtomicU64,
}

/// A thread-safe microsecond latency histogram with HDR-style
/// log-linear buckets: unit-width below 64 µs, then 64 buckets per
/// power of two up to 2^32 µs (over an hour). Recording is two relaxed
/// atomic adds. A reported quantile is within 1 µs or 1% (relative) of
/// the exact sample quantile, whichever is larger.
#[derive(Clone, Debug)]
pub struct AtomicHistogram {
    core: Arc<HistCore>,
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(BUCKETS);
        buckets.resize_with(BUCKETS, AtomicU64::default);
        AtomicHistogram {
            core: Arc::new(HistCore {
                buckets,
                sum_milli: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation in microseconds.
    pub fn record(&self, us: f64) {
        let core = &*self.core;
        core.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        if us > 0.0 {
            let clamped = us.min(TOP_US as f64);
            core.sum_milli
                .fetch_add((clamped * 1000.0).round() as u64, Ordering::Relaxed);
        }
    }

    /// Reads the current counts into a queryable snapshot (`O(buckets)`).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: counts.iter().sum(),
            counts,
            sum: self.core.sum_milli.load(Ordering::Relaxed) as f64 / 1000.0,
        }
    }
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time copy of an [`AtomicHistogram`].
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl HistogramSnapshot {
    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations, each clamped into the bucketed range
    /// (negative and NaN observations contribute zero).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The `q`-quantile: the midpoint of the bucket holding the
    /// `⌈q·n⌉`-th smallest observation. `None` when nothing was recorded.
    ///
    /// # Panics
    /// Panics unless `0 ≤ q ≤ 1`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        let i = self.counts.iter().position(|&c| {
            cum += c;
            cum >= rank
        })?;
        Some(bucket_mid(i))
    }

    /// The median ([`Self::quantile`] at 0.5).
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The 95th percentile.
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// The 99th percentile.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}

/// What one series reports at collection time.
#[derive(Clone, Debug)]
pub enum Observation {
    /// A monotone count.
    Counter(u64),
    /// An instantaneous value.
    Gauge(f64),
    /// A latency/size distribution, pre-digested into summary rows.
    Summary {
        /// `(q, value)` pairs; `NaN` value when nothing was recorded.
        quantiles: Vec<(f64, f64)>,
        /// Sum of all observations.
        sum: f64,
        /// Number of observations.
        count: u64,
    },
}

/// One collected series: family name, help text, label pairs, value.
#[derive(Clone, Debug)]
pub struct Sample {
    /// The metric family name (shared by labeled variants).
    pub family: String,
    /// One-line help text (first registration of the family wins).
    pub help: String,
    /// Label `(key, value)` pairs, possibly empty.
    pub labels: Vec<(String, String)>,
    /// The value read at collection time.
    pub value: Observation,
}

/// Where an entry's value comes from at collection time.
enum Source {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(AtomicHistogram),
    /// Reads a live counter value at scrape time — for series whose
    /// backing object can be replaced wholesale (e.g. engine swap on a
    /// wire `LOAD`): the closure chases the current owner instead of
    /// pinning a dead handle.
    CounterFn(Box<dyn Fn() -> u64 + Send + Sync>),
    /// Gauge analogue of `CounterFn`.
    GaugeFn(Box<dyn Fn() -> f64 + Send + Sync>),
}

struct Entry {
    family: String,
    help: String,
    labels: Vec<(String, String)>,
    source: Source,
}

/// The process-wide name → series table. Registration hands back (or
/// accepts) lock-free recording handles; the internal lock is touched
/// only when registering and when collecting.
#[derive(Default)]
pub struct MetricsRegistry {
    entries: RwLock<Vec<Entry>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MetricsRegistry({} series)", self.entries.read().len())
    }
}

/// Maps a proposed name onto the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): invalid characters become `_`, and an
/// invalid (or missing) first character gets a `_` prefix.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn own_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (sanitize(k), v.to_string()))
        .collect()
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&self, family: &str, help: &str, labels: &[(&str, &str)], source: Source) {
        self.entries.write().push(Entry {
            family: sanitize(family),
            help: help.to_string(),
            labels: own_labels(labels),
            source,
        });
    }

    /// Creates, registers, and returns a fresh counter.
    pub fn counter(&self, family: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let handle = Counter::new();
        self.register_counter(family, help, labels, handle.clone());
        handle
    }

    /// Registers an existing counter handle (one the owning subsystem
    /// already holds, e.g. the weight cache's hit counter).
    pub fn register_counter(
        &self,
        family: &str,
        help: &str,
        labels: &[(&str, &str)],
        handle: Counter,
    ) {
        self.push(family, help, labels, Source::Counter(handle));
    }

    /// Creates, registers, and returns a fresh gauge.
    pub fn gauge(&self, family: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let handle = Gauge::new();
        self.register_gauge(family, help, labels, handle.clone());
        handle
    }

    /// Registers an existing gauge handle.
    pub fn register_gauge(&self, family: &str, help: &str, labels: &[(&str, &str)], handle: Gauge) {
        self.push(family, help, labels, Source::Gauge(handle));
    }

    /// Creates, registers, and returns a fresh microsecond histogram.
    pub fn histogram(&self, family: &str, help: &str, labels: &[(&str, &str)]) -> AtomicHistogram {
        let handle = AtomicHistogram::new();
        self.register_histogram(family, help, labels, handle.clone());
        handle
    }

    /// Registers an existing histogram handle.
    pub fn register_histogram(
        &self,
        family: &str,
        help: &str,
        labels: &[(&str, &str)],
        handle: AtomicHistogram,
    ) {
        self.push(family, help, labels, Source::Histogram(handle));
    }

    /// Registers a counter whose value is read by `f` at scrape time —
    /// the engine-swap-safe registration form.
    pub fn counter_fn(
        &self,
        family: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.push(family, help, labels, Source::CounterFn(Box::new(f)));
    }

    /// Registers a gauge whose value is read by `f` at scrape time.
    pub fn gauge_fn(
        &self,
        family: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        self.push(family, help, labels, Source::GaugeFn(Box::new(f)));
    }

    /// Quantiles every histogram series digests into at collection.
    pub const SUMMARY_QUANTILES: [f64; 3] = [0.5, 0.95, 0.99];

    /// Reads every series once, in registration order.
    pub fn collect(&self) -> Vec<Sample> {
        let entries = self.entries.read();
        entries
            .iter()
            .map(|e| Sample {
                family: e.family.clone(),
                help: e.help.clone(),
                labels: e.labels.clone(),
                value: match &e.source {
                    Source::Counter(c) => Observation::Counter(c.get()),
                    Source::Gauge(g) => Observation::Gauge(g.get() as f64),
                    Source::Histogram(h) => {
                        let snap = h.snapshot();
                        Observation::Summary {
                            quantiles: Self::SUMMARY_QUANTILES
                                .iter()
                                .map(|&q| (q, snap.quantile(q).unwrap_or(f64::NAN)))
                                .collect(),
                            sum: snap.sum(),
                            count: snap.count(),
                        }
                    }
                    Source::CounterFn(f) => Observation::Counter(f()),
                    Source::GaugeFn(f) => Observation::Gauge(f()),
                },
            })
            .collect()
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether no series is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let c2 = c.clone();
        c2.inc();
        assert_eq!(c.get(), 6, "clones share the cell");
        c.reset();
        assert_eq!(c2.get(), 0);

        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
        g.add(2);
        assert_eq!(g.clone().get(), 6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn quantiles_track_exact_sample_quantiles(
            exps in prop::collection::vec(0.0f64..1.0, 1..2_000),
        ) {
            // Log-uniform over 1 µs .. 1 h.
            let values: Vec<f64> = exps.iter().map(|e| (e * 3.6e9f64.ln()).exp()).collect();
            let h = AtomicHistogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            let snap = h.snapshot();
            prop_assert_eq!(snap.count(), values.len() as u64);
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                let exact = sorted[rank - 1];
                let got = snap.quantile(q).expect("non-empty");
                prop_assert!(
                    (got - exact).abs() <= (0.01 * exact).max(1.0),
                    "q={}: histogram {} vs exact {}", q, got, exact
                );
            }
        }
    }

    #[test]
    fn slow_tail_reaches_the_percentiles() {
        let h = AtomicHistogram::new();
        for _ in 0..1_000 {
            h.record(50.0);
        }
        for _ in 0..20 {
            h.record(2_500_000.0);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 1_020);
        assert!((snap.p50().unwrap() - 50.0).abs() <= 1.0);
        assert!(snap.p99().unwrap() >= 2_400_000.0, "p99 {:?}", snap.p99());
    }

    #[test]
    fn nan_negative_and_over_range_values_are_counted() {
        let h = AtomicHistogram::new();
        for v in [
            f64::NAN,
            -5.0,
            f64::NEG_INFINITY,
            1e300,
            f64::INFINITY,
            10.0,
        ] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 6);
        // The three low values sit in the lowest bucket, the two huge
        // ones in the top bucket.
        assert!(snap.quantile(0.5).unwrap() < 1.0);
        assert!(snap.quantile(1.0).unwrap() >= 4.0e9);
        assert!(snap.sum().is_finite());
        assert_eq!(AtomicHistogram::new().snapshot().p50(), None);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn quantile_rejects_bad_q() {
        let h = AtomicHistogram::new();
        h.record(5.0);
        let _ = h.snapshot().quantile(1.5);
    }

    #[test]
    fn atomic_histogram_is_shared_across_clones_and_threads() {
        let h = AtomicHistogram::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..1000 {
                        h.record((i % 100) as f64);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count(), 4000);
        // 4 threads × 10 rounds × (0 + 1 + … + 99)
        assert_eq!(snap.sum(), 198_000.0);
    }

    #[test]
    fn registry_collects_in_registration_order() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("bst_test_ops_total", "ops", &[]);
        let g = reg.gauge("bst_test_live", "live", &[("kind", "a")]);
        let h = reg.histogram("bst_test_lat_us", "latency", &[]);
        c.add(3);
        g.set(-2);
        h.record(50.0);
        h.record(250.0);
        let samples = reg.collect();
        assert_eq!(samples.len(), 3);
        assert!(matches!(samples[0].value, Observation::Counter(3)));
        assert_eq!(samples[1].labels, vec![("kind".into(), "a".into())]);
        assert!(matches!(samples[1].value, Observation::Gauge(v) if v == -2.0));
        match &samples[2].value {
            Observation::Summary {
                quantiles,
                sum,
                count,
            } => {
                assert_eq!(*count, 2);
                assert!((sum - 300.0).abs() < 1e-9);
                assert_eq!(quantiles.len(), 3);
                assert!(quantiles.iter().all(|(_, v)| v.is_finite()));
            }
            other => panic!("expected summary, got {other:?}"),
        }
    }

    #[test]
    fn callback_series_read_live_values() {
        let reg = MetricsRegistry::new();
        let shared = Arc::new(AtomicU64::new(0));
        let reader = Arc::clone(&shared);
        reg.counter_fn("bst_test_cb_total", "cb", &[], move || {
            reader.load(Ordering::Relaxed)
        });
        reg.gauge_fn("bst_test_cb_gauge", "cbg", &[], || 1.5);
        shared.store(42, Ordering::Relaxed);
        let samples = reg.collect();
        assert!(matches!(samples[0].value, Observation::Counter(42)));
        assert!(matches!(samples[1].value, Observation::Gauge(v) if v == 1.5));
    }

    #[test]
    fn names_are_sanitized() {
        assert_eq!(sanitize("bst_ok_total"), "bst_ok_total");
        assert_eq!(sanitize("bad name-1"), "bad_name_1");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize(""), "_");
        let reg = MetricsRegistry::new();
        reg.counter("weird name!", "x", &[("bad key", "kept value")]);
        let s = &reg.collect()[0];
        assert_eq!(s.family, "weird_name_");
        assert_eq!(s.labels[0].0, "bad_key");
        assert_eq!(s.labels[0].1, "kept value");
    }

    #[test]
    fn summary_quantiles_are_nan_when_empty() {
        let reg = MetricsRegistry::new();
        reg.histogram("bst_test_h", "h", &[]);
        match &reg.collect()[0].value {
            Observation::Summary {
                quantiles, count, ..
            } => {
                assert_eq!(*count, 0);
                assert!(quantiles.iter().all(|(_, v)| v.is_nan()));
            }
            other => panic!("expected summary, got {other:?}"),
        }
    }
}
