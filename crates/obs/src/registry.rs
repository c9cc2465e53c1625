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
use crate::json::JsonValue;

/// Name of the environment variable toggling default-registry attachment:
/// `DATAWA_OBS=on|1|true` attaches,
/// `off|0|false` (or unset) detaches.
pub const OBS_ENV: &str = "DATAWA_OBS";

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

    /// Raises the high-water mark without touching the current value.
    #[inline]
    pub fn observe_peak(&self, v: i64) {
        if let Some(core) = &self.core {
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

    /// Attached or detached per the [`OBS_ENV`] (`DATAWA_OBS`) environment
    /// variable: `on`/`1`/`true` (case-insensitive) attach, anything else —
    /// including unset — detaches. Reads the environment on every call (no
    /// caching) so tests can flip the toggle in-process; the read itself
    /// goes through the workspace's single env gateway,
    /// [`datawa_core::env_config`].
    #[must_use]
    pub fn from_env() -> MetricsRegistry {
        if datawa_core::env_config::obs_attached() {
            MetricsRegistry::new()
        } else {
            MetricsRegistry::detached()
        }
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

/// Whether a `DATAWA_OBS` value means "attached" (delegates to the shared
/// toggle grammar in [`datawa_core::env_config`]).
pub fn parse_obs_toggle(value: &str) -> bool {
    datawa_core::env_config::toggle_is_on(value)
}

/// A point-in-time, serializable copy of a registry's metrics. Maps are
/// ordered (`BTreeMap`) so the JSON rendering is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as a JSON object string (deterministic key
    /// order).
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// The snapshot as a [`JsonValue`] tree, for embedding inside a larger
    /// document.
    pub fn to_json_value(&self) -> JsonValue {
        let mut counters = Vec::new();
        for (name, value) in &self.counters {
            counters.push((name.clone(), JsonValue::from_u64(*value)));
        }
        let mut gauges = Vec::new();
        for (name, g) in &self.gauges {
            gauges.push((
                name.clone(),
                JsonValue::object(vec![
                    ("value".to_string(), JsonValue::from_i64(g.value)),
                    ("high_water".to_string(), JsonValue::from_i64(g.high_water)),
                ]),
            ));
        }
        let mut histograms = Vec::new();
        for (name, h) in &self.histograms {
            histograms.push((
                name.clone(),
                JsonValue::object(vec![
                    ("count".to_string(), JsonValue::from_u64(h.count)),
                    ("sum".to_string(), JsonValue::from_u64(h.sum)),
                    ("min".to_string(), JsonValue::from_u64(h.min)),
                    ("max".to_string(), JsonValue::from_u64(h.max)),
                    ("p50".to_string(), JsonValue::from_u64(h.p50)),
                    ("p95".to_string(), JsonValue::from_u64(h.p95)),
                    ("p99".to_string(), JsonValue::from_u64(h.p99)),
                ]),
            ));
        }
        JsonValue::object(vec![
            ("counters".to_string(), JsonValue::object(counters)),
            ("gauges".to_string(), JsonValue::object(gauges)),
            ("histograms".to_string(), JsonValue::object(histograms)),
        ])
    }

    /// Parses a snapshot back from its [`Self::to_json`] rendering.
    ///
    /// # Errors
    /// When the text is not valid JSON or does not have the snapshot shape.
    pub fn from_json(text: &str) -> Result<MetricsSnapshot, String> {
        Self::from_json_value(&JsonValue::parse(text)?)
    }

    /// Rebuilds a snapshot from a parsed [`JsonValue`].
    ///
    /// # Errors
    /// When the value does not have the snapshot shape.
    pub fn from_json_value(value: &JsonValue) -> Result<MetricsSnapshot, String> {
        let mut snap = MetricsSnapshot::default();
        for (name, v) in value.get("counters").map_or(&[][..], JsonValue::entries) {
            snap.counters.insert(
                name.clone(),
                v.as_u64()
                    .ok_or_else(|| format!("counter {name}: not u64"))?,
            );
        }
        for (name, v) in value.get("gauges").map_or(&[][..], JsonValue::entries) {
            let field = |key: &str| {
                v.get(key)
                    .and_then(JsonValue::as_i64)
                    .ok_or_else(|| format!("gauge {name}: missing {key}"))
            };
            snap.gauges.insert(
                name.clone(),
                GaugeSnapshot {
                    value: field("value")?,
                    high_water: field("high_water")?,
                },
            );
        }
        for (name, v) in value.get("histograms").map_or(&[][..], JsonValue::entries) {
            let field = |key: &str| {
                v.get(key)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("histogram {name}: missing {key}"))
            };
            snap.histograms.insert(
                name.clone(),
                HistogramSummary {
                    count: field("count")?,
                    sum: field("sum")?,
                    min: field("min")?,
                    max: field("max")?,
                    p50: field("p50")?,
                    p95: field("p95")?,
                    p99: field("p99")?,
                },
            );
        }
        Ok(snap)
    }
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
        g.observe_peak(25);
        assert_eq!(g.value(), 3);
        assert_eq!(g.high_water(), 25);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("dual");
        let _ = reg.gauge("dual");
    }

    #[test]
    fn obs_toggle_parsing() {
        for v in ["on", "ON", "1", "true", " True "] {
            assert!(parse_obs_toggle(v), "{v:?} should attach");
        }
        for v in ["off", "0", "false", "", "yes", "2"] {
            assert!(!parse_obs_toggle(v), "{v:?} should detach");
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let reg = MetricsRegistry::new();
        reg.counter("a.count").add(42);
        reg.gauge("b.depth").set(-3);
        reg.gauge("b.depth").set(9);
        let h = reg.histogram("c.lat");
        for v in [5u64, 80, 3_000, 1_000_000] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let text = snap.to_json();
        let back = MetricsSnapshot::from_json(&text).expect("round trip parse");
        assert_eq!(back, snap);
    }
}
