//! Log-bucketed latency histograms and the scoped [`SpanTimer`].
//!
//! The histogram is the registry's latency primitive: values (nanoseconds by
//! convention) land in log-linear buckets — every power-of-two octave is
//! split into [`SUB`] linear sub-buckets — so recording is two shifts and one
//! relaxed atomic add, the memory footprint is fixed (`[u64; BUCKETS]`), and
//! quantile estimates carry a bounded relative error of at most `1/SUB`
//! (12.5 %). Buckets are atomics, so any number of threads record into one
//! histogram concurrently and the counts merge
//! commutatively and associatively — the same property
//! [`Histogram::merge_from`] exposes for explicitly combining per-thread
//! instances.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of linear sub-buckets per power-of-two octave (3 bits).
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave; also the count of exact small-value buckets.
pub const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count: values `0..SUB` get exact buckets, every octave above
/// contributes `SUB` more, up to the full `u64` range.
pub const BUCKETS: usize = (64 - SUB_BITS as usize) * SUB as usize + SUB as usize;

/// Bucket index of a recorded value.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let octave = (msb - SUB_BITS + 1) as usize;
        let sub = ((v >> (msb - SUB_BITS)) - SUB) as usize;
        octave * SUB as usize + sub
    }
}

/// Inclusive upper bound of a bucket (what quantile estimation reports, so
/// estimates never under-state a latency).
fn bucket_upper(index: usize) -> u64 {
    if index < SUB as usize {
        index as u64
    } else {
        let octave = (index / SUB as usize) as u32;
        let sub = (index % SUB as usize) as u64;
        let width = 1u64 << (octave - 1);
        (SUB + sub).saturating_mul(width).saturating_add(width - 1)
    }
}

#[derive(Debug)]
pub(crate) struct HistogramCore {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    pub(crate) fn new() -> HistogramCore {
        // `AtomicU64` is not `Copy`; build the boxed array through a Vec.
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; BUCKETS]> = buckets
            .into_boxed_slice()
            .try_into()
            .expect("bucket count is BUCKETS by construction");
        HistogramCore {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A handle to a registered latency histogram (or a detached no-op).
///
/// Cloning is cheap (an `Arc` bump); clones share the same buckets, which is
/// how per-tenant sessions merge into one distribution without locks. All
/// operations on a detached handle (from
/// [`MetricsRegistry::detached`](crate::MetricsRegistry::detached)) are
/// no-ops that never read the clock.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    pub(crate) core: Option<Arc<HistogramCore>>,
}

impl Histogram {
    /// A free-standing attached histogram (not registered anywhere) — for
    /// local aggregation that is merged into a registered one later.
    #[must_use]
    pub fn standalone() -> Histogram {
        Histogram {
            core: Some(Arc::new(HistogramCore::new())),
        }
    }

    /// A detached no-op handle.
    #[must_use]
    pub fn detached() -> Histogram {
        Histogram { core: None }
    }

    /// Whether this handle records anywhere.
    #[inline]
    pub fn is_attached(&self) -> bool {
        self.core.is_some()
    }

    /// Records one value (nanoseconds by convention).
    #[inline]
    pub fn record(&self, v: u64) {
        let Some(core) = &self.core else { return };
        core.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(v, Ordering::Relaxed);
        core.min.fetch_min(v, Ordering::Relaxed);
        core.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration expressed in (non-negative, finite) seconds, as
    /// nanoseconds.
    #[inline]
    pub fn record_seconds(&self, seconds: f64) {
        if self.core.is_some() && seconds.is_finite() && seconds >= 0.0 {
            self.record((seconds * 1e9) as u64);
        }
    }

    /// Starts a scoped timer that records the elapsed nanoseconds into this
    /// histogram when dropped. A detached histogram yields an inert timer
    /// that never reads the clock.
    #[must_use = "the span records on drop; binding it to `_` drops it immediately"]
    pub fn span(&self) -> SpanTimer<'_> {
        SpanTimer {
            hist: self,
            // The whole point of a span timer; only armed when obs is attached.
            #[allow(clippy::disallowed_methods)]
            start: self.core.as_ref().map(|_| Instant::now()),
        }
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.core
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.core
            .as_ref()
            .map_or(0, |c| c.sum.load(Ordering::Relaxed))
    }

    /// Exact largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.core
            .as_ref()
            .map_or(0, |c| c.max.load(Ordering::Relaxed))
    }

    /// Exact smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        self.core.as_ref().map_or(0, |c| {
            let m = c.min.load(Ordering::Relaxed);
            if m == u64::MAX {
                0
            } else {
                m
            }
        })
    }

    /// Estimates the `p`-quantile (`p` in `[0, 1]`) from the bucket counts.
    ///
    /// The estimate is the upper bound of the bucket holding the rank-`⌈pN⌉`
    /// value, clamped to the exact recorded maximum, so for a true quantile
    /// value `v ≥ SUB` the estimate `e` satisfies `v ≤ e ≤ v + v/SUB`
    /// (values below [`SUB`] are bucketed exactly). Returns 0 for an empty
    /// histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        let Some(core) = &self.core else { return 0 };
        let counts: Vec<u64> = core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(core.max.load(Ordering::Relaxed));
            }
        }
        core.max.load(Ordering::Relaxed)
    }

    /// Adds every count of `other` into this histogram (per-thread
    /// instances merge). Merging is commutative and associative; detached
    /// handles on either side are no-ops.
    pub fn merge_from(&self, other: &Histogram) {
        let (Some(dst), Some(src)) = (&self.core, &other.core) else {
            return;
        };
        if Arc::ptr_eq(dst, src) {
            return; // clones already share buckets
        }
        for (d, s) in dst.buckets.iter().zip(src.buckets.iter()) {
            let v = s.load(Ordering::Relaxed);
            if v > 0 {
                d.fetch_add(v, Ordering::Relaxed);
            }
        }
        dst.count
            .fetch_add(src.count.load(Ordering::Relaxed), Ordering::Relaxed);
        dst.sum
            .fetch_add(src.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        dst.min
            .fetch_min(src.min.load(Ordering::Relaxed), Ordering::Relaxed);
        dst.max
            .fetch_max(src.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// The raw bucket counts (test/diagnostic aid; index order matches the
    /// internal `bucket_index` mapping).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.core.as_ref().map_or_else(Vec::new, |c| {
            c.buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect()
        })
    }

    /// A point-in-time summary (the snapshot form serialized into
    /// `BENCH_*.json`).
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
        }
    }
}

/// Point-in-time percentile summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct HistogramSummary {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Exact minimum (0 when empty).
    pub min: u64,
    /// Exact maximum (0 when empty).
    pub max: u64,
    /// Estimated median (≤ 12.5 % relative error).
    pub p50: u64,
    /// Estimated 95th percentile.
    pub p95: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

impl HistogramSummary {
    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A scoped timer: created by [`Histogram::span`], records the elapsed
/// nanoseconds into the histogram when dropped. When the histogram is
/// detached the timer holds no start instant and dropping it does nothing —
/// the hot path never touches the clock.
#[derive(Debug)]
pub struct SpanTimer<'a> {
    hist: &'a Histogram,
    start: Option<Instant>,
}

impl SpanTimer<'_> {
    /// Stops the timer early and records (equivalent to dropping it).
    pub fn finish(self) {}

    /// Abandons the span without recording anything.
    pub fn cancel(mut self) {
        self.start = None;
    }
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.hist.record(ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        // Every representative boundary maps one past its predecessor.
        let mut last = None;
        for v in 0u64..1024 {
            let i = bucket_index(v);
            if let Some(l) = last {
                assert!(i == l || i == l + 1, "index jumped at {v}");
            }
            assert!(bucket_upper(i) >= v, "upper bound below the value at {v}");
            last = Some(i);
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantile_error_is_bounded() {
        let h = Histogram::standalone();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (p, oracle) in [(0.5, 5_000u64), (0.95, 9_500), (0.99, 9_900)] {
            let est = h.percentile(p);
            assert!(est >= oracle, "p{p}: {est} under-states {oracle}");
            assert!(
                est <= oracle + oracle / SUB,
                "p{p}: {est} over-states {oracle} beyond 1/{SUB}"
            );
        }
        assert_eq!(h.max(), 10_000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn detached_histogram_is_a_no_op_and_span_never_reads_the_clock() {
        let h = Histogram::detached();
        h.record(123);
        h.record_seconds(1.0);
        {
            let span = h.span();
            assert!(span.start.is_none(), "detached span must not read Instant");
        }
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn span_records_on_drop_and_cancel_suppresses() {
        let h = Histogram::standalone();
        {
            let _span = h.span();
        }
        assert_eq!(h.count(), 1);
        h.span().cancel();
        assert_eq!(h.count(), 1, "cancelled span recorded anyway");
        h.span().finish();
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn merge_accumulates_counts_and_extremes() {
        let a = Histogram::standalone();
        let b = Histogram::standalone();
        a.record(10);
        b.record(1_000_000);
        a.merge_from(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
        // Self-merge through a clone is a no-op (shared buckets).
        let c = a.clone();
        a.merge_from(&c);
        assert_eq!(a.count(), 2);
    }
}
