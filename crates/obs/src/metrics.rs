//! The metrics registry: named atomic counters, gauges, and fixed-bucket
//! log₂ latency histograms with quantile readout and Prometheus-style
//! text rendering.
//!
//! Design constraints, in order:
//!
//! 1. **Recording is lock-free.** Handles are `Arc`s over plain
//!    atomics; the hot path (a counter bump, a histogram sample) is a
//!    handful of `fetch_add`s. The registry's `Mutex` is touched only
//!    at registration and snapshot time.
//! 2. **Snapshots are torn-read-free.** A histogram's observation
//!    count is *derived* from its bucket counts (there is no separate
//!    count cell that could disagree with the buckets), so any
//!    snapshot — even one taken mid-storm — is internally consistent
//!    and monotone with respect to earlier snapshots.
//! 3. **Millisecond reconciliation.** Histogram sums are accumulated
//!    in integer **nanoseconds**, so the sum read back from a
//!    histogram agrees with the per-batch figures it was fed to well
//!    under a millisecond even after millions of samples (no float
//!    accumulation drift).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move both ways (open sessions,
/// busy workers, resident indexes).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Set to an absolute value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`.
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of finite histogram buckets. Bucket `k` (for `k` in
/// `0..FINITE_BUCKETS`) holds samples whose value is ≤ 2^k µs; the
/// final slot ([`OVERFLOW_BUCKET`]) holds everything larger. The span
/// is 1 µs … 2^26 µs ≈ 67 s, wide enough for any batch this stack
/// serves.
pub(crate) const FINITE_BUCKETS: usize = 27;

/// Index of the overflow (`+Inf`) bucket.
pub const OVERFLOW_BUCKET: usize = FINITE_BUCKETS;

/// Total bucket slots (finite + overflow).
pub(crate) const BUCKETS: usize = FINITE_BUCKETS + 1;

/// A fixed-bucket log₂ latency histogram over milliseconds.
///
/// Bucket boundaries are powers of two in **microseconds** (so the
/// resolution is fine where served batches actually land), the sum is
/// kept in integer nanoseconds, and the observation count is the sum
/// of the bucket counts — see the module docs for why.
///
/// **Mid-flight contract.** A sample is two atomic adds — its bucket,
/// then the sum — and a snapshot reads the sum, then the buckets. A
/// snapshot taken while samples land can therefore count an observation
/// whose time the sum does not hold yet (count 1 and sum 0 on the first
/// sample), but the sum never outruns the counts: it is at most the
/// counted observations' bucket bounds added up. Once recording stops,
/// count and sum agree exactly.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
        }
    }
}

/// The finite bucket upper bound, in milliseconds: 2^k µs.
pub(crate) fn bucket_upper_ms(k: usize) -> f64 {
    (1u64 << k.min(FINITE_BUCKETS - 1)) as f64 / 1000.0
}

/// Which bucket a sample of `ms` milliseconds lands in. Non-finite and
/// non-positive samples land in bucket 0.
pub fn bucket_of(ms: f64) -> usize {
    if !ms.is_finite() || ms <= 0.0 {
        return 0;
    }
    let us = ms * 1000.0;
    let mut k = 0usize;
    while k < FINITE_BUCKETS {
        if us <= (1u64 << k) as f64 {
            return k;
        }
        k += 1;
    }
    OVERFLOW_BUCKET
}

impl Histogram {
    /// Record one sample of `ms` milliseconds.
    pub fn record_ms(&self, ms: f64) {
        let ns = if ms.is_finite() && ms > 0.0 {
            (ms * 1e6).round() as u64
        } else {
            0
        };
        // Bucket first, then sum (released): a concurrent snapshot that
        // sees the new sum without the new bucket would report a mean
        // above the true one; this order can only under-report the
        // (monotone) sum, never the count a bucket already shows.
        self.buckets[bucket_of(ms)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Release);
    }

    /// A consistent point-in-time copy of the bucket counts and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        // Sum before buckets (the reverse of the record order), acquired
        // so every bucket add behind the sum read is visible: the
        // snapshot never shows a sum that outruns its counts.
        let sum_ns = self.sum_ns.load(Ordering::Acquire);
        let buckets = std::array::from_fn(|k| self.buckets[k].load(Ordering::Relaxed));
        HistogramSnapshot { buckets, sum_ns }
    }
}

/// A point-in-time copy of a [`Histogram`]: bucket counts plus the
/// nanosecond sum, with quantile readout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_of`]).
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded samples, in nanoseconds.
    pub sum_ns: u64,
}

impl HistogramSnapshot {
    /// Total observations (the sum of the bucket counts).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all recorded samples, in milliseconds.
    pub fn sum_ms(&self) -> f64 {
        self.sum_ns as f64 / 1e6
    }

    /// The quantile readout: the **upper bound** (in ms) of the bucket
    /// containing the `p`-th observation (`p` in `0.0..=1.0`). Returns
    /// 0 for an empty snapshot; samples in the overflow bucket
    /// saturate to twice the last finite bound.
    pub(crate) fn quantile(&self, p: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let rank = ((p.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if k == OVERFLOW_BUCKET {
                    bucket_upper_ms(FINITE_BUCKETS - 1) * 2.0
                } else {
                    bucket_upper_ms(k)
                };
            }
        }
        bucket_upper_ms(FINITE_BUCKETS - 1) * 2.0
    }

    /// Median (see `HistogramSnapshot::quantile`).
    pub fn p50_ms(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90_ms(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99_ms(&self) -> f64 {
        self.quantile(0.99)
    }

    /// The observations recorded since `baseline` (per-bucket
    /// saturating difference) — how benches read one scenario out of a
    /// shared, still-running histogram.
    pub fn since(&self, baseline: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|k| self.buckets[k].saturating_sub(baseline.buckets[k])),
            sum_ns: self.sum_ns.saturating_sub(baseline.sum_ns),
        }
    }
}

enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Handle {
    fn type_name(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: String,
    help: String,
    handle: Handle,
}

/// A registry of named metrics.
///
/// Registration is idempotent by name: asking twice for the same
/// counter returns the same underlying atomic, so independently
/// constructed components (several engines, the scheduler, the server)
/// can share one series without coordinating. Asking for a name that
/// is already registered **as a different type** panics — that is a
/// programming error, not load.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register<T>(
        &self,
        name: &str,
        help: &str,
        wrap: impl Fn(Arc<T>) -> Handle,
        unwrap: impl Fn(&Handle) -> Option<Arc<T>>,
    ) -> Arc<T>
    where
        T: Default,
    {
        let mut entries = self.entries.lock().expect("registry poisoned");
        if let Some(entry) = entries.iter().find(|e| e.name == name) {
            return unwrap(&entry.handle).unwrap_or_else(|| {
                panic!(
                    "metric {name:?} already registered as a {}",
                    entry.handle.type_name()
                )
            });
        }
        let handle = Arc::new(T::default());
        entries.push(Entry {
            name: name.to_owned(),
            help: help.to_owned(),
            handle: wrap(Arc::clone(&handle)),
        });
        handle
    }

    /// Register (or look up) a counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.register(name, help, Handle::Counter, |h| match h {
            Handle::Counter(c) => Some(Arc::clone(c)),
            _ => None,
        })
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.register(name, help, Handle::Gauge, |h| match h {
            Handle::Gauge(g) => Some(Arc::clone(g)),
            _ => None,
        })
    }

    /// Register (or look up) a histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.register(name, help, Handle::Histogram, |h| match h {
            Handle::Histogram(hg) => Some(Arc::clone(hg)),
            _ => None,
        })
    }

    /// A point-in-time snapshot of every registered metric, sorted by
    /// name (the canonical wire/exposition order).
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.lock().expect("registry poisoned");
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for entry in entries.iter() {
            match &entry.handle {
                Handle::Counter(c) => counters.push((entry.name.clone(), c.get())),
                Handle::Gauge(g) => gauges.push((entry.name.clone(), g.get())),
                Handle::Histogram(h) => histograms.push((entry.name.clone(), h.snapshot())),
            }
        }
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Render every metric in the Prometheus text exposition format
    /// (`# HELP` / `# TYPE` headers, cumulative `_bucket{le="…"}`
    /// series plus `_sum`/`_count` for histograms), sorted by name.
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries.lock().expect("registry poisoned");
        let mut sorted: Vec<&Entry> = entries.iter().collect();
        sorted.sort_by(|a, b| a.name.cmp(&b.name));
        let mut out = String::new();
        for entry in sorted {
            let name = &entry.name;
            out.push_str(&format!("# HELP {name} {}\n", entry.help));
            out.push_str(&format!("# TYPE {name} {}\n", entry.handle.type_name()));
            match &entry.handle {
                Handle::Counter(c) => out.push_str(&format!("{name} {}\n", c.get())),
                Handle::Gauge(g) => out.push_str(&format!("{name} {}\n", g.get())),
                Handle::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut cumulative = 0u64;
                    for k in 0..FINITE_BUCKETS {
                        cumulative += snap.buckets[k];
                        out.push_str(&format!(
                            "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                            bucket_upper_ms(k)
                        ));
                    }
                    cumulative += snap.buckets[OVERFLOW_BUCKET];
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
                    out.push_str(&format!("{name}_sum {}\n", snap.sum_ms()));
                    out.push_str(&format!("{name}_count {}\n", snap.count()));
                }
            }
        }
        out
    }
}

/// One declaration per series: a component lists its series **once** —
/// handle field, kind ([`Counter`] | [`Gauge`] | [`Histogram`]), exported
/// name, help text — and from that table come the struct of `Arc`
/// handles, `register` (every series registered against, or looked up
/// in, one [`Registry`]) and `Default` (the same handles in no registry
/// at all: a component records unconditionally and is pointed at a
/// shared registry when someone wants to look). The
/// catalog in `docs/OBSERVABILITY.md` is held to what these tables
/// register by `crates/serve/tests/metrics_storm.rs`.
///
/// ```
/// hdoms_obs::metrics::series! {
///     /// What a cache counts.
///     struct CacheSeries {
///         hits: Counter = "cache_hits_total", "Lookups answered from the cache";
///         bytes: Gauge = "cache_bytes", "Bytes cached right now";
///     }
/// }
/// let registry = hdoms_obs::metrics::Registry::new();
/// let series = CacheSeries::register(&registry);
/// series.hits.inc();
/// series.bytes.set(64);
/// assert!(registry.render_prometheus().contains("cache_hits_total 1"));
/// CacheSeries::default().hits.inc(); // unregistered: recorded, never exported
/// ```
#[macro_export]
macro_rules! series {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $field:ident: $kind:ident = $series:literal, $help:literal; )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Default)]
        $vis struct $name {
            $(
                #[doc = concat!("`", $series, "`: ", $help, ".")]
                $vis $field: ::std::sync::Arc<$crate::metrics::$kind>,
            )+
        }
        impl $name {
            /// Register (or look up, by name) every series of the table
            /// in `registry`.
            $vis fn register(registry: &$crate::metrics::Registry) -> $name {
                $name {
                    $( $field: $crate::series!(@$kind registry, $series, $help), )+
                }
            }
        }
    };
    (@Counter $registry:ident, $series:literal, $help:literal) => { $registry.counter($series, $help) };
    (@Gauge $registry:ident, $series:literal, $help:literal) => { $registry.gauge($series, $help) };
    (@Histogram $registry:ident, $series:literal, $help:literal) => { $registry.histogram($series, $help) };
}
pub use series;

/// A point-in-time copy of a whole [`Registry`], each kind sorted by
/// name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(name, value)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` per histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_in_microseconds() {
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(0.001), 0); // 1 µs is the first bound
        assert_eq!(bucket_of(0.0011), 1);
        assert_eq!(bucket_of(1.0), 10); // 1 ms = 1024 µs ≤ 2^10
        assert_eq!(bucket_of(f64::NAN), 0);
        assert_eq!(bucket_of(1e9), OVERFLOW_BUCKET);
        assert_eq!(bucket_upper_ms(10), 1.024);
    }

    #[test]
    fn histogram_counts_sums_and_quantiles() {
        let h = Histogram::default();
        for ms in [0.5, 0.5, 0.5, 8.0, 64.0] {
            h.record_ms(ms);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 5);
        assert!((snap.sum_ms() - 73.5).abs() < 1e-6, "ns-exact sum");
        // p50 lands in 0.5's bucket (≤ 512 µs), p99 in 64 ms's.
        assert_eq!(snap.p50_ms(), 0.512);
        assert_eq!(snap.p99_ms(), bucket_upper_ms(bucket_of(64.0)));
        assert_eq!(Histogram::default().snapshot().quantile(0.5), 0.0);
    }

    #[test]
    fn since_isolates_a_window() {
        let h = Histogram::default();
        h.record_ms(1.0);
        let base = h.snapshot();
        h.record_ms(4.0);
        h.record_ms(4.0);
        let delta = h.snapshot().since(&base);
        assert_eq!(delta.count(), 2);
        assert!((delta.sum_ms() - 8.0).abs() < 1e-6);
        assert_eq!(delta.p50_ms(), bucket_upper_ms(bucket_of(4.0)));
    }

    #[test]
    fn registration_is_idempotent_and_shared() {
        let registry = Registry::new();
        let a = registry.counter("x_total", "a");
        let b = registry.counter("x_total", "a");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("x", "a");
        registry.gauge("x", "a");
    }

    #[test]
    fn prometheus_rendering_is_sorted_and_cumulative() {
        let registry = Registry::new();
        registry.counter("z_total", "last").inc();
        registry.gauge("a_gauge", "first").set(-2);
        let h = registry.histogram("m_ms", "middle");
        h.record_ms(0.5);
        h.record_ms(2.0);
        let text = registry.render_prometheus();
        let a = text.find("a_gauge").unwrap();
        let m = text.find("m_ms").unwrap();
        let z = text.find("z_total").unwrap();
        assert!(a < m && m < z, "sorted by name");
        assert!(text.contains("# TYPE m_ms histogram"));
        assert!(text.contains("m_ms_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("m_ms_count 2"));
        assert!(text.contains("a_gauge -2"));
        // Cumulative: the 2 ms sample's bucket line includes the 0.5 ms one.
        let le = format!(
            "m_ms_bucket{{le=\"{}\"}} 2",
            bucket_upper_ms(bucket_of(2.0))
        );
        assert!(text.contains(&le), "missing {le:?} in:\n{text}");
    }

    #[test]
    fn concurrent_snapshots_are_monotone_and_untorn() {
        let h = Arc::new(Histogram::default());
        let writer = {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                for i in 0..20_000u32 {
                    h.record_ms(f64::from(i % 17) * 0.25);
                }
            })
        };
        let mut last = Histogram::default().snapshot();
        while h.snapshot().count() < 20_000 {
            let snap = h.snapshot();
            assert!(snap.count() >= last.count(), "count went backwards");
            assert!(snap.sum_ns >= last.sum_ns, "sum went backwards");
            last = snap;
        }
        writer.join().unwrap();
        assert_eq!(h.snapshot().count(), 20_000);
    }
}
