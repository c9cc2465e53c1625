//! The [`MetricsRegistry`]: a named collection of atomic counters, gauges and
//! histograms with a detached (no-op) mode.
//!
//! A registry is either *attached* — it owns a table of metric slots and
//! hands out live handles — or *detached*, in which case every handle it
//! produces is inert: `inc`/`set`/`record` compile down to a branch on a
//! `None` and nothing else, and [`Histogram::span`](crate::Histogram::span)
//! never reads the clock. Instrumented code therefore carries its metric
//! handles unconditionally and stays bitwise-identical in behaviour whether
//! or not anyone is observing (pinned by the workspace obs-equivalence
//! tests).
//!
//! Registration (`counter`/`gauge`/`histogram`) takes a lock and is meant for
//! cold paths — do it once at construction time and keep the handles. The
//! handles themselves are lock-free `Arc`s over atomics; clones of the same
//! name share storage, which is how threads aggregate without
//! coordination.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::{Histogram, HistogramCore, HistogramSummary};

#[derive(Debug, Default)]
struct CounterCore {
    value: AtomicU64,
}

#[derive(Debug, Default)]
struct GaugeCore {
    value: AtomicI64,
    high_water: AtomicI64,
}

#[derive(Debug)]
enum Slot {
    Counter(Arc<CounterCore>),
    Gauge(Arc<GaugeCore>),
    Histogram(Arc<HistogramCore>),
}

#[derive(Debug, Default)]
struct RegistryInner {
    slots: Mutex<BTreeMap<String, Slot>>,
}

/// A monotonically increasing atomic counter handle (no-op when detached).
#[derive(Debug, Clone, Default)]
pub struct Counter {
    core: Option<Arc<CounterCore>>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(core) = &self.core {
            core.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when detached).
    pub fn value(&self) -> u64 {
        self.core
            .as_ref()
            .map_or(0, |c| c.value.load(Ordering::Relaxed))
    }

    /// Whether the handle records anywhere.
    pub fn is_attached(&self) -> bool {
        self.core.is_some()
    }
}

/// A last-value gauge that also tracks its high-water mark (no-op when
/// detached).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    core: Option<Arc<GaugeCore>>,
}

impl Gauge {
    /// Sets the current value and folds it into the high-water mark.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(core) = &self.core {
            core.value.store(v, Ordering::Relaxed);
            core.high_water.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Last value set (0 when detached).
    pub fn value(&self) -> i64 {
        self.core
            .as_ref()
            .map_or(0, |c| c.value.load(Ordering::Relaxed))
    }

    /// Largest value ever set (0 when detached or never set above 0).
    pub fn high_water(&self) -> i64 {
        self.core
            .as_ref()
            .map_or(0, |c| c.high_water.load(Ordering::Relaxed))
    }

    /// Whether the handle records anywhere.
    pub fn is_attached(&self) -> bool {
        self.core.is_some()
    }
}

/// Point-in-time value of one gauge inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct GaugeSnapshot {
    /// Last value set.
    pub value: i64,
    /// Largest value ever set.
    pub high_water: i64,
}

/// A registry of named metrics, or a detached stand-in that makes every
/// handle a no-op. Cloning shares the underlying table.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<RegistryInner>>,
}

impl MetricsRegistry {
    /// A live registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            inner: Some(Arc::new(RegistryInner::default())),
        }
    }

    /// A detached registry: every handle it returns is inert.
    #[must_use]
    pub fn detached() -> MetricsRegistry {
        MetricsRegistry { inner: None }
    }

    /// Whether handles from this registry record anywhere.
    pub fn is_attached(&self) -> bool {
        self.inner.is_some()
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use. Handles for the same name share storage.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter::default();
        };
        let mut slots = inner.slots.lock().expect("metrics registry poisoned");
        let slot = slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Counter(Arc::new(CounterCore::default())));
        match slot {
            Slot::Counter(core) => Counter {
                core: Some(Arc::clone(core)),
            },
            _ => panic!("metric {name:?} already registered as a non-counter"),
        }
    }

    /// Returns the gauge registered under `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let Some(inner) = &self.inner else {
            return Gauge::default();
        };
        let mut slots = inner.slots.lock().expect("metrics registry poisoned");
        let slot = slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Gauge(Arc::new(GaugeCore::default())));
        match slot {
            Slot::Gauge(core) => Gauge {
                core: Some(Arc::clone(core)),
            },
            _ => panic!("metric {name:?} already registered as a non-gauge"),
        }
    }

    /// Returns the histogram registered under `name`, creating it on first
    /// use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let Some(inner) = &self.inner else {
            return Histogram::detached();
        };
        let mut slots = inner.slots.lock().expect("metrics registry poisoned");
        let slot = slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Histogram(Arc::new(HistogramCore::new())));
        match slot {
            Slot::Histogram(core) => Histogram {
                core: Some(Arc::clone(core)),
            },
            _ => panic!("metric {name:?} already registered as a non-histogram"),
        }
    }

    /// A point-in-time copy of every registered metric. Detached registries
    /// snapshot empty.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let Some(inner) = &self.inner else {
            return snap;
        };
        let slots = inner.slots.lock().expect("metrics registry poisoned");
        for (name, slot) in slots.iter() {
            match slot {
                Slot::Counter(core) => {
                    snap.counters
                        .insert(name.clone(), core.value.load(Ordering::Relaxed));
                }
                Slot::Gauge(core) => {
                    snap.gauges.insert(
                        name.clone(),
                        GaugeSnapshot {
                            value: core.value.load(Ordering::Relaxed),
                            high_water: core.high_water.load(Ordering::Relaxed),
                        },
                    );
                }
                Slot::Histogram(core) => {
                    let h = Histogram {
                        core: Some(Arc::clone(core)),
                    };
                    snap.histograms.insert(name.clone(), h.summary());
                }
            }
        }
        snap
    }
}

/// A point-in-time copy of a registry's metrics, keyed by name in ascending
/// order.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_registry_hands_out_inert_handles() {
        let reg = MetricsRegistry::detached();
        assert!(!reg.is_attached());
        let c = reg.counter("x");
        let g = reg.gauge("y");
        let h = reg.histogram("z");
        c.inc();
        g.set(7);
        h.record(9);
        assert!(!c.is_attached());
        assert_eq!(
            (c.value(), g.value(), g.high_water(), h.count()),
            (0, 0, 0, 0)
        );
        assert!(reg.snapshot().counters.is_empty());
    }

    #[test]
    fn same_name_handles_share_storage() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("hits");
        let b = reg.counter("hits");
        a.add(3);
        b.inc();
        assert_eq!(a.value(), 4);
        assert_eq!(reg.snapshot().counters["hits"], 4);
    }

    #[test]
    fn gauge_tracks_high_water_across_sets() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth");
        g.set(10);
        g.set(3);
        assert_eq!(g.value(), 3);
        assert_eq!(g.high_water(), 10);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("dual");
        let _ = reg.gauge("dual");
    }
}
