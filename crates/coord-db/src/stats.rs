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
//! Every counter is monotone; a caller that wants the work of one step
//! reads it before and after and takes the difference. When a
//! [`crate::Database`] is attached to a `coord-obs` registry
//! ([`crate::Database::attach_obs`]), the same counters are registered
//! there (`db_*`) and `find_one`/`find_all` latencies land in a
//! `db_probe_nanos` histogram, so storage cost shows up in the same
//! snapshot as submit latency.

use coord_obs::{Counter, Histogram, Registry, TraceCtx, Tracer};
use std::sync::OnceLock;
use std::time::Instant;

/// Probe-latency recorders, installed once by [`QueryStats::attach`].
#[derive(Debug)]
struct ProbeObs {
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
    find_one: Counter,
    find_all: Counter,
    distinct: Counter,
    membership: Counter,
    rows_scanned: Counter,
    ground_probes: Counter,
    index_hits: Counter,
    index_misses: Counter,
    obs: OnceLock<ProbeObs>,
}

impl QueryStats {
    /// New zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register every counter in `registry` under `db_*` names and start
    /// recording probe latencies into the `db_probe_nanos` histogram and
    /// as request-attributed `db_probe` trace instants. The first attach
    /// wins; later calls are no-ops.
    pub(crate) fn attach(&self, registry: &Registry) {
        let probe = ProbeObs {
            probe_nanos: registry.histogram("db_probe_nanos"),
            tracer: registry.tracer(),
        };
        if self.obs.set(probe).is_err() {
            return;
        }
        for (name, counter) in [
            ("db_find_one", &self.find_one),
            ("db_find_all", &self.find_all),
            ("db_distinct", &self.distinct),
            ("db_membership", &self.membership),
            ("db_rows_scanned", &self.rows_scanned),
            ("db_ground_probes", &self.ground_probes),
            ("db_index_hits", &self.index_hits),
            ("db_index_misses", &self.index_misses),
        ] {
            registry.register_counter(name, counter);
        }
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
        self.find_one.incr();
    }

    pub(crate) fn record_find_all(&self) {
        self.find_all.incr();
    }

    pub(crate) fn record_distinct(&self) {
        self.distinct.incr();
    }

    pub(crate) fn record_membership(&self) {
        self.membership.incr();
    }

    pub(crate) fn record_rows_scanned(&self, n: u64) {
        self.rows_scanned.add(n);
    }

    pub(crate) fn record_ground_probe(&self) {
        self.ground_probes.incr();
    }

    pub(crate) fn record_index_hit(&self) {
        self.index_hits.incr();
    }

    pub(crate) fn record_index_miss(&self) {
        self.index_misses.incr();
    }

    /// Number of choose-1 (`find_one`) queries issued.
    pub fn find_one_count(&self) -> u64 {
        self.find_one.get()
    }

    /// Number of distinct-projection queries issued.
    pub fn distinct_count(&self) -> u64 {
        self.distinct.get()
    }

    /// Candidate rows walked by the evaluator across all scans.
    pub fn rows_scanned(&self) -> u64 {
        self.rows_scanned.get()
    }

    /// Fully ground atoms short-circuited through an O(1) membership
    /// test (no rows walked).
    pub fn ground_probe_count(&self) -> u64 {
        self.ground_probes.get()
    }

    /// Evaluator scans served by an index (anything but a full scan).
    pub fn index_hit_count(&self) -> u64 {
        self.index_hits.get()
    }

    /// Evaluator scans that fell back to a full scan.
    pub fn index_miss_count(&self) -> u64 {
        self.index_misses.get()
    }

    /// Total probe work: rows walked plus ground membership probes —
    /// the store-comparable cost metric `reproduce --only storage`
    /// gates on.
    pub fn probe_work(&self) -> u64 {
        self.rows_scanned() + self.ground_probe_count()
    }

    /// Total queries of all kinds.
    pub fn total(&self) -> u64 {
        self.find_one.get() + self.find_all.get() + self.distinct.get() + self.membership.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
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
    }

    #[test]
    fn counters_are_independent() {
        let s = QueryStats::new();
        s.record_find_all();
        s.record_membership();
        assert_eq!(s.find_one_count(), 0);
        assert_eq!(s.find_all.get(), 1);
        assert_eq!(s.membership.get(), 1);
        assert_eq!(s.total(), 2);
    }

    #[test]
    fn attached_registry_reads_the_same_counters() {
        let r = Registry::new();
        let s = QueryStats::new();
        s.record_rows_scanned(5);
        s.attach(&r);
        s.record_find_one();
        s.record_index_hit();
        s.record_index_miss();
        s.record_rows_scanned(2);
        let snap = r.snapshot();
        assert_eq!(snap.counter("db_find_one"), Some(1));
        // One counter per fact: work recorded before the attach shows too.
        assert_eq!(snap.counter("db_rows_scanned"), Some(7));
        assert_eq!(s.rows_scanned(), 7);
        assert_eq!(snap.hit_rate("db_index_hits", "db_index_misses"), Some(0.5));
        // A second attach is a no-op: the first registry keeps the counters.
        let other = Registry::new();
        s.attach(&other);
        assert_eq!(other.snapshot().counter("db_find_one"), None);
        s.record_find_one();
        assert_eq!(r.snapshot().counter("db_find_one"), Some(2));
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
