//! The metrics registry: named counters, gauges, and histograms, plus
//! the shared tracer. One registry spans a whole engine stack — the
//! durable sharded engine threads a single handle through its shards,
//! WAL store, and database, so one [`Registry::snapshot`] shows a
//! submit's full journey.

use crate::hist::{Histogram, HistogramSnapshot};
use crate::trace::{Tracer, DEFAULT_CAPACITY};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A lock-free monotone counter. Always live — creation is independent
/// of any registry, and registration only makes it visible to
/// snapshots. Clones share the value.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` (relaxed).
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (relaxed).
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A lock-free last-value gauge. Clones share the value.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<AtomicU64>,
}

impl Gauge {
    /// A fresh zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the value (relaxed).
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add one (relaxed) — for up/down gauges like in-flight counts.
    #[inline]
    pub fn incr(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtract one (relaxed). Saturation is the caller's problem: an
    /// unmatched `decr` wraps, exactly like an unmatched lock release.
    #[inline]
    pub fn decr(&self) {
        self.value.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current value (relaxed).
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    tracer: Tracer,
}

/// Handle to one metrics registry. Clones share state; a disabled
/// handle hands out inert histograms/tracers and empty snapshots, so
/// instrumented code runs at near-zero cost without any flag checks of
/// its own (see the crate docs for the full overhead model).
#[derive(Clone)]
pub struct Registry {
    inner: Option<Arc<RegistryInner>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(_) => write!(f, "Registry(enabled)"),
            None => write!(f, "Registry(disabled)"),
        }
    }
}

impl Default for Registry {
    /// Enabled, with the default trace capacity.
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An enabled registry with a [`DEFAULT_CAPACITY`]-event trace ring.
    pub fn new() -> Self {
        Self::with_trace_capacity(DEFAULT_CAPACITY)
    }

    /// An enabled registry with an explicit trace-ring capacity.
    pub fn with_trace_capacity(capacity: usize) -> Self {
        Registry {
            inner: Some(Arc::new(RegistryInner {
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                tracer: Tracer::with_capacity(capacity),
            })),
        }
    }

    /// A disabled registry: histograms and tracer are inert, snapshots
    /// empty. Counters handed out still count (they cost one atomic
    /// either way) but are not retained.
    pub fn disabled() -> Self {
        Registry { inner: None }
    }

    /// Whether this registry retains and exports anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Get or create the counter registered under `name`.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            None => Counter::new(),
            Some(inner) => inner
                .counters
                .lock()
                .unwrap()
                .entry(name.to_string())
                .or_default()
                .clone(),
        }
    }

    /// Register an existing counter under `name` (the pattern the
    /// engine's always-on metrics use: the counter lives in the engine
    /// struct, the registry only exports it). Replaces any previous
    /// registration under the same name. No-op when disabled.
    pub fn register_counter(&self, name: &str, counter: &Counter) {
        if let Some(inner) = &self.inner {
            inner
                .counters
                .lock()
                .unwrap()
                .insert(name.to_string(), counter.clone());
        }
    }

    /// Get or create the gauge registered under `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            None => Gauge::new(),
            Some(inner) => inner
                .gauges
                .lock()
                .unwrap()
                .entry(name.to_string())
                .or_default()
                .clone(),
        }
    }

    /// Get or create the histogram registered under `name`. Disabled
    /// registries hand out inert handles.
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            None => Histogram::disabled(),
            Some(inner) => inner
                .histograms
                .lock()
                .unwrap()
                .entry(name.to_string())
                .or_insert_with(Histogram::enabled)
                .clone(),
        }
    }

    /// The registry's shared tracer (inert when disabled).
    pub fn tracer(&self) -> Tracer {
        match &self.inner {
            None => Tracer::disabled(),
            Some(inner) => inner.tracer.clone(),
        }
    }

    /// Arm the tracer's slow-query flight recorder (see
    /// [`Tracer::set_slow_query_log`]). No-op when disabled.
    pub fn set_slow_query_log(&self, threshold_nanos: u64, capacity: usize) {
        if let Some(inner) = &self.inner {
            inner.tracer.set_slow_query_log(threshold_nanos, capacity);
        }
    }

    /// A point-in-time copy of every registered instrument, sorted by
    /// name. Cold path: locks the registration maps, never a recorder.
    ///
    /// Instruments are read one after another, so a snapshot is
    /// consistent per instrument only — with one cross-instrument
    /// guarantee: histograms are read *before* counters and gauges, and
    /// [`Histogram::record`] publishes its count with release ordering,
    /// so a thread that bumps a counter and *then* records a histogram
    /// (a submit bumps `engine_submits`, then records
    /// `engine_submit_nanos`) is never seen with the histogram ahead:
    /// `histogram.count ≤ counter` in every snapshot.
    pub fn snapshot(&self) -> ObsSnapshot {
        let Some(inner) = &self.inner else {
            return ObsSnapshot::default();
        };
        let histograms = inner
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        ObsSnapshot {
            counters: inner
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms,
        }
    }
}

/// Plain-data copy of a [`Registry`] at one instant (name-sorted).
#[derive(Clone, Debug, Default)]
pub struct ObsSnapshot {
    /// `(name, value)` for every registered counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every registered gauge.
    pub gauges: Vec<(String, u64)>,
    /// `(name, snapshot)` for every registered histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl ObsSnapshot {
    /// The counter registered under `name`, if any.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The gauge registered under `name`, if any.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The histogram registered under `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// `hits / (hits + misses)` over two counters, if both are present
    /// and at least one lookup happened.
    pub fn hit_rate(&self, hits: &str, misses: &str) -> Option<f64> {
        let (h, m) = (self.counter(hits)?, self.counter(misses)?);
        if h + m == 0 {
            None
        } else {
            Some(h as f64 / (h + m) as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_across_clones_and_lookups() {
        let r = Registry::new();
        let a = r.counter("submits");
        let b = r.counter("submits");
        a.add(2);
        b.incr();
        assert_eq!(r.snapshot().counter("submits"), Some(3));
    }

    #[test]
    fn register_counter_exports_an_external_counter() {
        let r = Registry::new();
        let c = Counter::new();
        c.add(5);
        r.register_counter("engine_submits", &c);
        c.add(1);
        assert_eq!(r.snapshot().counter("engine_submits"), Some(6));
    }

    #[test]
    fn disabled_registry_counts_but_exports_nothing() {
        let r = Registry::disabled();
        let c = r.counter("x");
        c.add(9);
        assert_eq!(c.get(), 9);
        let h = r.histogram("lat");
        h.record(5);
        assert!(!h.is_enabled());
        assert!(!r.tracer().is_enabled());
        let snap = r.snapshot();
        assert!(snap.counters.is_empty() && snap.histograms.is_empty());
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let r = Registry::new();
        r.counter("b").incr();
        r.counter("a").incr();
        let names: Vec<_> = r
            .snapshot()
            .counters
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn gauges_and_hit_rate() {
        let r = Registry::new();
        r.gauge("epoch").set(3);
        r.counter("hits").add(3);
        r.counter("misses").add(1);
        let snap = r.snapshot();
        assert_eq!(snap.gauge("epoch"), Some(3));
        assert_eq!(snap.hit_rate("hits", "misses"), Some(0.75));
        assert_eq!(snap.hit_rate("hits", "absent"), None);
    }
}
