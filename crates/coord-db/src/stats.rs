//! Instrumentation: counting database queries and probe work.
//!
//! The paper analyzes its algorithms partly by the *number of conjunctive
//! queries issued to the database* (e.g., the SCC Coordination Algorithm
//! issues at most |Q| queries, one per strongly connected component; the
//! Consistent Coordination Algorithm issues O(n) queries). These counters
//! let the tests and benchmarks check those bounds exactly.
//!
//! Beyond the per-call counters, the evaluator accounts its *work*:
//! candidate rows actually walked ([`QueryStats::rows_scanned`]),
//! ground-atom membership short-circuits
//! ([`QueryStats::ground_probe_count`]), and per-scan index hits/misses.
//! `rows_scanned + ground_probes` ([`QueryStats::probe_work`]) is the
//! wall-clock-free cost metric `reproduce --only storage` gates on
//! (counters, not time, carry the perf claims: they repeat exactly).
//!
//! When a [`crate::Database`] is attached to a `coord-obs` registry
//! ([`crate::Database::attach_obs`]), every counter is mirrored into
//! registry counters (`db_*`) and `find_one`/`find_all` latencies land
//! in a `db_probe_nanos` histogram, so storage cost shows up in the same
//! snapshot as submit latency. Mirrored counters are monotone: they keep
//! growing across [`QueryStats::reset`] (which only zeroes the local
//! counters the tests read).

use coord_obs::{Counter, Histogram, Registry, TraceCtx, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Registry mirrors, installed once by [`QueryStats::attach`].
#[derive(Debug)]
struct ObsMirror {
    find_one: Counter,
    find_all: Counter,
    distinct: Counter,
    membership: Counter,
    rows_scanned: Counter,
    ground_probes: Counter,
    index_hits: Counter,
    index_misses: Counter,
    probe_nanos: Histogram,
    tracer: Tracer,
}

/// Thread-safe counters of query activity against a [`crate::Database`].
///
/// Counters are atomic so the parallel sweep of the Consistent
/// Coordination Algorithm (Section 6.2 "future work") can share one
/// database across worker threads.
#[derive(Debug, Default)]
pub struct QueryStats {
    find_one: AtomicU64,
    find_all: AtomicU64,
    distinct: AtomicU64,
    membership: AtomicU64,
    rows_scanned: AtomicU64,
    ground_probes: AtomicU64,
    index_hits: AtomicU64,
    index_misses: AtomicU64,
    obs: OnceLock<ObsMirror>,
}

impl QueryStats {
    /// New zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mirror all counters into `registry` under `db_*` names and start
    /// recording probe latencies into the `db_probe_nanos` histogram and
    /// as request-attributed `db_probe` trace instants. The first attach
    /// wins; later calls are no-ops.
    pub(crate) fn attach(&self, registry: &Registry) {
        let _ = self.obs.set(ObsMirror {
            find_one: registry.counter("db_find_one"),
            find_all: registry.counter("db_find_all"),
            distinct: registry.counter("db_distinct"),
            membership: registry.counter("db_membership"),
            rows_scanned: registry.counter("db_rows_scanned"),
            ground_probes: registry.counter("db_ground_probes"),
            index_hits: registry.counter("db_index_hits"),
            index_misses: registry.counter("db_index_misses"),
            probe_nanos: registry.histogram("db_probe_nanos"),
            tracer: registry.tracer(),
        });
    }

    /// Start timing one `find_one`/`find_all` probe; `None` when no
    /// enabled histogram is attached (keeps the unattached path free of
    /// clock reads).
    pub(crate) fn probe_timer(&self) -> Option<Instant> {
        match self.obs.get() {
            Some(m) if m.probe_nanos.is_enabled() => Some(Instant::now()),
            _ => None,
        }
    }

    /// Record the elapsed time of a probe started with
    /// [`QueryStats::probe_timer`], both into the `db_probe_nanos`
    /// histogram and as a `db_probe` trace instant stamped with the
    /// submitting request's [`TraceCtx`].
    pub(crate) fn observe_probe(&self, started: Option<Instant>) {
        if let (Some(t), Some(m)) = (started, self.obs.get()) {
            let nanos = t.elapsed().as_nanos() as u64;
            m.probe_nanos.record(nanos);
            m.tracer.instant_in(TraceCtx::current(), "db_probe", nanos);
        }
    }

    pub(crate) fn record_find_one(&self) {
        self.find_one.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.obs.get() {
            m.find_one.incr();
        }
    }

    pub(crate) fn record_find_all(&self) {
        self.find_all.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.obs.get() {
            m.find_all.incr();
        }
    }

    pub(crate) fn record_distinct(&self) {
        self.distinct.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.obs.get() {
            m.distinct.incr();
        }
    }

    pub(crate) fn record_membership(&self) {
        self.membership.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.obs.get() {
            m.membership.incr();
        }
    }

    pub(crate) fn record_rows_scanned(&self, n: u64) {
        self.rows_scanned.fetch_add(n, Ordering::Relaxed);
        if let Some(m) = self.obs.get() {
            m.rows_scanned.add(n);
        }
    }

    pub(crate) fn record_ground_probe(&self) {
        self.ground_probes.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.obs.get() {
            m.ground_probes.incr();
        }
    }

    pub(crate) fn record_index_hit(&self) {
        self.index_hits.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.obs.get() {
            m.index_hits.incr();
        }
    }

    pub(crate) fn record_index_miss(&self) {
        self.index_misses.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.obs.get() {
            m.index_misses.incr();
        }
    }

    /// Number of choose-1 (`find_one`) queries issued.
    pub fn find_one_count(&self) -> u64 {
        self.find_one.load(Ordering::Relaxed)
    }

    /// Number of all-answer enumerations issued.
    pub fn find_all_count(&self) -> u64 {
        self.find_all.load(Ordering::Relaxed)
    }

    /// Number of distinct-projection queries issued.
    pub fn distinct_count(&self) -> u64 {
        self.distinct.load(Ordering::Relaxed)
    }

    /// Number of grounded-tuple membership checks issued.
    pub fn membership_count(&self) -> u64 {
        self.membership.load(Ordering::Relaxed)
    }

    /// Candidate rows walked by the evaluator across all scans.
    pub fn rows_scanned(&self) -> u64 {
        self.rows_scanned.load(Ordering::Relaxed)
    }

    /// Fully ground atoms short-circuited through an O(1) membership
    /// test (no rows walked).
    pub fn ground_probe_count(&self) -> u64 {
        self.ground_probes.load(Ordering::Relaxed)
    }

    /// Evaluator scans served by an index (anything but a full scan).
    pub fn index_hit_count(&self) -> u64 {
        self.index_hits.load(Ordering::Relaxed)
    }

    /// Evaluator scans that fell back to a full scan.
    pub fn index_miss_count(&self) -> u64 {
        self.index_misses.load(Ordering::Relaxed)
    }

    /// Total probe work: rows walked plus ground membership probes —
    /// the store-comparable cost metric `reproduce --only storage`
    /// gates on.
    pub fn probe_work(&self) -> u64 {
        self.rows_scanned() + self.ground_probe_count()
    }

    /// Total queries of all kinds.
    pub fn total(&self) -> u64 {
        self.find_one_count()
            + self.find_all_count()
            + self.distinct_count()
            + self.membership_count()
    }

    /// Reset all local counters to zero. Attached registry mirrors stay
    /// monotone (Prometheus-style counters must never go backwards).
    pub fn reset(&self) {
        self.find_one.store(0, Ordering::Relaxed);
        self.find_all.store(0, Ordering::Relaxed);
        self.distinct.store(0, Ordering::Relaxed);
        self.membership.store(0, Ordering::Relaxed);
        self.rows_scanned.store(0, Ordering::Relaxed);
        self.ground_probes.store(0, Ordering::Relaxed);
        self.index_hits.store(0, Ordering::Relaxed);
        self.index_misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate_and_reset() {
        let s = QueryStats::new();
        s.record_find_one();
        s.record_find_one();
        s.record_distinct();
        s.record_rows_scanned(7);
        s.record_ground_probe();
        assert_eq!(s.find_one_count(), 2);
        assert_eq!(s.distinct_count(), 1);
        assert_eq!(s.total(), 3);
        assert_eq!(s.probe_work(), 8);
        s.reset();
        assert_eq!(s.total(), 0);
        assert_eq!(s.probe_work(), 0);
    }

    #[test]
    fn counters_are_independent() {
        let s = QueryStats::new();
        s.record_find_all();
        s.record_membership();
        assert_eq!(s.find_one_count(), 0);
        assert_eq!(s.find_all_count(), 1);
        assert_eq!(s.membership_count(), 1);
    }

    #[test]
    fn attached_mirrors_stay_monotone_across_reset() {
        let r = Registry::new();
        let s = QueryStats::new();
        s.attach(&r);
        s.record_find_one();
        s.record_rows_scanned(5);
        s.record_index_hit();
        s.record_index_miss();
        s.reset();
        s.record_rows_scanned(2);
        let snap = r.snapshot();
        assert_eq!(snap.counter("db_find_one"), Some(1));
        assert_eq!(snap.counter("db_rows_scanned"), Some(7));
        assert_eq!(snap.hit_rate("db_index_hits", "db_index_misses"), Some(0.5));
        // Local view was reset.
        assert_eq!(s.rows_scanned(), 2);
    }

    #[test]
    fn probe_timer_inert_without_attachment() {
        let s = QueryStats::new();
        assert!(s.probe_timer().is_none());
        s.observe_probe(None);
        let disabled = Registry::disabled();
        s.attach(&disabled);
        assert!(
            s.probe_timer().is_none(),
            "disabled histogram: no clock reads"
        );
    }
}
