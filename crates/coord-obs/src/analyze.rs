//! Trace analysis: reconstruct per-request span trees from the ring and
//! attribute each trace's wall time to the stack's phases.
//!
//! The ring ([`crate::Tracer`]) stores a flat interleaving of events
//! from every thread. [`TraceAnalyzer`] groups them by `trace_id`,
//! re-nests each trace's begin/end pairs into [`SpanNode`] trees
//! (per-thread stacks — span guards nest strictly on a thread), and
//! computes a [`LatencyBreakdown`] per trace: where the root span's
//! wall time went, split into lock-wait / evaluate / db-probe /
//! wal-append / wal-sync / other. Nested phases are accounted
//! *exclusively* (a storage probe's nanos are subtracted from the
//! enclosing evaluate span; a WAL fsync's from its append), so for a
//! complete trace the six phases sum to exactly the root span's wall
//! nanos — and never more.
//!
//! An `end` event whose `begin` was overwritten by ring overflow is an
//! **orphaned end**: still a real span closure (its `arg` carries the
//! duration), counted explicitly rather than silently skewing the
//! trees.

use crate::trace::{TraceEvent, TracePhase, Tracer};
use std::collections::BTreeMap;

/// One reconstructed span: a begin/end pair with everything that nested
/// inside it on the same thread.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// Span kind (`submit`, `evaluate`, `wal_append`, …).
    pub kind: &'static str,
    /// Dense ordinal of the thread that recorded the span.
    pub thread: u64,
    /// Begin timestamp, nanoseconds since the tracer's epoch.
    pub begin_nanos: u64,
    /// Span duration in nanoseconds (0 when still unclosed).
    pub dur_nanos: u64,
    /// Whether the end event was observed (`false`: in flight, or the
    /// end lies beyond the captured window).
    pub closed: bool,
    /// Spans that began and ended inside this one, oldest first.
    pub children: Vec<SpanNode>,
}

/// Count the `end` events in `events` whose matching `begin` is absent
/// — the ring-overwrite signature surfaced in the dump's meta line.
pub fn orphaned_end_count(events: &[TraceEvent]) -> u64 {
    let mut stacks: BTreeMap<(u64, u64), Vec<&'static str>> = BTreeMap::new();
    let mut orphans = 0u64;
    for e in events {
        let key = (e.trace_id, e.thread);
        match e.phase {
            TracePhase::Begin => stacks.entry(key).or_default().push(e.kind),
            TracePhase::End => {
                let stack = stacks.entry(key).or_default();
                if stack.last() == Some(&e.kind) {
                    stack.pop();
                } else {
                    orphans += 1;
                }
            }
            TracePhase::Instant => {}
        }
    }
    orphans
}

/// Where one trace's wall time went, in nanoseconds. Phases are
/// exclusive (see the module docs); `critical_path_nanos` is the root
/// span's wall time — on a synchronous submit the root span *is* the
/// critical path.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencyBreakdown {
    /// Time blocked on contended shard locks (`lock_wait` instants).
    pub lock_wait: u64,
    /// Closure evaluation, excluding the probe time inside it.
    pub evaluate: u64,
    /// Database `find_one`/`find_all` probe time (`db_probe` instants).
    pub db_probe: u64,
    /// WAL append time, excluding the fsync inside it.
    pub wal_append: u64,
    /// WAL fsync time (`wal_sync` instants).
    pub wal_sync: u64,
    /// Root-span time not claimed by any phase above (routing,
    /// migrations, snapshot rotations, commit bookkeeping).
    pub other: u64,
    /// The root span's wall nanos (0 when the root never completed in
    /// the captured window).
    pub critical_path_nanos: u64,
}

/// The phase names, in [`LatencyBreakdown::phases`] order.
pub const PHASES: [&str; 6] = [
    "lock_wait",
    "evaluate",
    "db_probe",
    "wal_append",
    "wal_sync",
    "other",
];

impl LatencyBreakdown {
    /// `(name, nanos)` for every phase, in [`PHASES`] order.
    pub fn phases(&self) -> [(&'static str, u64); 6] {
        [
            ("lock_wait", self.lock_wait),
            ("evaluate", self.evaluate),
            ("db_probe", self.db_probe),
            ("wal_append", self.wal_append),
            ("wal_sync", self.wal_sync),
            ("other", self.other),
        ]
    }

    /// Sum of all phases — equal to `critical_path_nanos` for a
    /// complete trace, and never more.
    pub fn phase_sum(&self) -> u64 {
        self.phases().iter().map(|(_, v)| v).sum()
    }
}

/// One trace's reconstruction: its span trees and latency breakdown.
#[derive(Clone, Debug)]
pub struct TraceSummary {
    /// The trace's id (always nonzero here; id-0 events are aggregated
    /// separately).
    pub trace_id: u64,
    /// Top-level spans, oldest first (one — the root — for a normal
    /// submit; more if the root's begin was overwritten).
    pub roots: Vec<SpanNode>,
    /// Wall-time attribution for this trace.
    pub breakdown: LatencyBreakdown,
    /// Whether the trace's first event is its root span's begin *and*
    /// that span closed in the window — i.e. the breakdown's
    /// critical path is trustworthy.
    pub complete: bool,
    /// End events of this trace whose begin was overwritten.
    pub orphaned_ends: u64,
    /// Number of this trace's events seen in the window.
    pub events: usize,
}

/// Per-trace open-span bookkeeping during the single reconstruction
/// pass.
#[derive(Default)]
struct TraceBuild {
    roots: Vec<SpanNode>,
    stacks: BTreeMap<u64, Vec<SpanNode>>,
    span_nanos: BTreeMap<&'static str, u64>,
    instant_nanos: BTreeMap<&'static str, u64>,
    first_is_begin: Option<(&'static str, u64)>,
    root_closed_nanos: Option<u64>,
    orphaned_ends: u64,
    events: usize,
}

/// Reconstructs per-trace span trees and latency breakdowns from a
/// tracer's ring (or any event slice). See the module docs.
pub struct TraceAnalyzer {
    traces: Vec<TraceSummary>,
    /// Orphaned ends across *all* events, id-0 included (matches the
    /// dump meta line).
    pub orphaned_ends: u64,
    /// Events the ring overwrote before this analysis.
    pub dropped: u64,
    /// Events carrying trace id 0 (unattributed background work).
    pub unattributed_events: usize,
}

impl TraceAnalyzer {
    /// Analyze a tracer's current ring contents.
    pub fn from_tracer(tracer: &Tracer) -> Self {
        let (events, dropped) = tracer.events();
        Self::from_events(&events, dropped)
    }

    /// Analyze an explicit event window (e.g. a captured
    /// [`crate::SlowTrace`]'s events), `dropped` as reported alongside.
    pub fn from_events(events: &[TraceEvent], dropped: u64) -> Self {
        let mut builds: BTreeMap<u64, TraceBuild> = BTreeMap::new();
        let mut unattributed = 0usize;
        for e in events {
            if e.trace_id == 0 {
                unattributed += 1;
                continue;
            }
            let b = builds.entry(e.trace_id).or_default();
            b.events += 1;
            if b.first_is_begin.is_none() && b.events == 1 && e.phase == TracePhase::Begin {
                b.first_is_begin = Some((e.kind, e.seq));
            }
            match e.phase {
                TracePhase::Begin => b.stacks.entry(e.thread).or_default().push(SpanNode {
                    kind: e.kind,
                    thread: e.thread,
                    begin_nanos: e.at_nanos,
                    dur_nanos: 0,
                    closed: false,
                    children: Vec::new(),
                }),
                TracePhase::End => {
                    *b.span_nanos.entry(e.kind).or_default() += e.arg;
                    let stack = b.stacks.entry(e.thread).or_default();
                    if stack.last().is_some_and(|s| s.kind == e.kind) {
                        let mut span = stack.pop().expect("non-empty stack");
                        span.dur_nanos = e.arg;
                        span.closed = true;
                        let depth0 = stack.is_empty();
                        if depth0 && b.roots.is_empty() && b.first_is_begin.is_some() {
                            b.root_closed_nanos = Some(e.arg);
                        }
                        match stack.last_mut() {
                            Some(parent) => parent.children.push(span),
                            None => b.roots.push(span),
                        }
                    } else {
                        // The begin was overwritten: a real closure with
                        // a known duration but no known nesting.
                        b.orphaned_ends += 1;
                    }
                }
                TracePhase::Instant => {
                    *b.instant_nanos.entry(e.kind).or_default() += e.arg;
                }
            }
        }

        let mut traces = Vec::with_capacity(builds.len());
        let mut orphaned_total = 0u64;
        for (trace_id, mut b) in builds {
            orphaned_total += b.orphaned_ends;
            // Unclosed spans (in flight at snapshot) surface as nodes
            // too, so the tree shows where the trace currently is.
            for stack in std::mem::take(&mut b.stacks).into_values() {
                for span in stack.into_iter().rev() {
                    b.roots.push(span);
                }
            }
            let complete = b.root_closed_nanos.is_some() && b.orphaned_ends == 0;
            let breakdown = Self::breakdown(&b, complete);
            traces.push(TraceSummary {
                trace_id,
                roots: b.roots,
                breakdown,
                complete,
                orphaned_ends: b.orphaned_ends,
                events: b.events,
            });
        }
        // Orphans among id-0 events count in the global total too.
        let id0: Vec<TraceEvent> = events.iter().filter(|e| e.trace_id == 0).copied().collect();
        orphaned_total += orphaned_end_count(&id0);
        TraceAnalyzer {
            traces,
            orphaned_ends: orphaned_total,
            dropped,
            unattributed_events: unattributed,
        }
    }

    fn breakdown(b: &TraceBuild, complete: bool) -> LatencyBreakdown {
        let instant = |kind: &str| b.instant_nanos.get(kind).copied().unwrap_or(0);
        let span = |kind: &str| b.span_nanos.get(kind).copied().unwrap_or(0);
        let lock_wait = instant("lock_wait");
        let db_probe = instant("db_probe");
        let wal_sync = instant("wal_sync");
        let evaluate = span("evaluate").saturating_sub(db_probe);
        let wal_append = span("wal_append").saturating_sub(wal_sync);
        let critical_path_nanos = if complete {
            b.root_closed_nanos.unwrap_or(0)
        } else {
            0
        };
        let accounted = lock_wait + evaluate + db_probe + wal_append + wal_sync;
        let other = critical_path_nanos.saturating_sub(accounted);
        LatencyBreakdown {
            lock_wait,
            evaluate,
            db_probe,
            wal_append,
            wal_sync,
            other,
            critical_path_nanos,
        }
    }

    /// Every reconstructed trace, ascending by id.
    pub fn traces(&self) -> &[TraceSummary] {
        &self.traces
    }

    /// One trace by id.
    pub fn trace(&self, trace_id: u64) -> Option<&TraceSummary> {
        self.traces.iter().find(|t| t.trace_id == trace_id)
    }

    /// The top-`k` slowest *complete* traces, slowest first (ties by
    /// ascending id, so the report is deterministic).
    pub fn slowest(&self, k: usize) -> Vec<&TraceSummary> {
        let mut complete: Vec<&TraceSummary> = self.traces.iter().filter(|t| t.complete).collect();
        complete.sort_by_key(|t| {
            (
                std::cmp::Reverse(t.breakdown.critical_path_nanos),
                t.trace_id,
            )
        });
        complete.truncate(k);
        complete
    }

    /// `(phase, p50, p99)` nanos across all complete traces, in
    /// [`PHASES`] order plus a final `critical_path` row. Empty when no
    /// trace completed.
    pub fn phase_percentiles(&self) -> Vec<(&'static str, u64, u64)> {
        let complete: Vec<&LatencyBreakdown> = self
            .traces
            .iter()
            .filter(|t| t.complete)
            .map(|t| &t.breakdown)
            .collect();
        if complete.is_empty() {
            return Vec::new();
        }
        let mut rows = Vec::with_capacity(PHASES.len() + 1);
        for (i, name) in PHASES.iter().enumerate() {
            let mut vals: Vec<u64> = complete.iter().map(|b| b.phases()[i].1).collect();
            vals.sort_unstable();
            rows.push((*name, percentile(&vals, 50), percentile(&vals, 99)));
        }
        let mut vals: Vec<u64> = complete.iter().map(|b| b.critical_path_nanos).collect();
        vals.sort_unstable();
        rows.push((
            "critical_path",
            percentile(&vals, 50),
            percentile(&vals, 99),
        ));
        rows
    }

    /// The trace report as one JSON object — per-phase p50/p99 across
    /// complete traces plus the top-`top_k` slow-trace breakdowns —
    /// rendered alongside [`crate::ObsSnapshot::to_json`] so one scrape
    /// carries both the aggregates and the attribution.
    pub fn to_json(&self, top_k: usize) -> String {
        let complete = self.traces.iter().filter(|t| t.complete).count();
        let mut out = format!(
            "{{\"type\":\"trace_report\",\"traces\":{},\"complete\":{},\
             \"unattributed_events\":{},\"orphaned_ends\":{},\"dropped\":{},\"phases\":{{",
            self.traces.len(),
            complete,
            self.unattributed_events,
            self.orphaned_ends,
            self.dropped,
        );
        for (i, (name, p50, p99)) in self.phase_percentiles().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{{\"p50\":{p50},\"p99\":{p99}}}"));
        }
        out.push_str("},\"slowest\":[");
        for (i, t) in self.slowest(top_k).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let b = &t.breakdown;
            out.push_str(&format!(
                "{{\"trace_id\":{},\"critical_path_ns\":{}",
                t.trace_id, b.critical_path_nanos
            ));
            for (name, v) in b.phases() {
                out.push_str(&format!(",\"{name}\":{v}"));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

fn percentile(sorted: &[u64], p: u64) -> u64 {
    debug_assert!(!sorted.is_empty());
    // Nearest-rank on the sorted values; p in [0, 100].
    let idx = (p * (sorted.len() as u64 - 1) + 50) / 100;
    sorted[idx as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceCtx;

    /// Synthetic event helper.
    fn ev(seq: u64, kind: &'static str, phase: TracePhase, arg: u64, trace: u64) -> TraceEvent {
        TraceEvent {
            seq,
            at_nanos: seq * 10,
            kind,
            phase,
            arg,
            trace_id: trace,
            thread: 1,
        }
    }

    #[test]
    fn breakdown_attributes_nested_phases_exclusively() {
        // submit[1000] { lock_wait(50) evaluate[400] { db_probe(100) }
        // wal_append[300] { wal_sync(200) } }
        let events = vec![
            ev(0, "submit", TracePhase::Begin, 0, 1),
            ev(1, "lock_wait", TracePhase::Instant, 50, 1),
            ev(2, "evaluate", TracePhase::Begin, 0, 1),
            ev(3, "db_probe", TracePhase::Instant, 100, 1),
            ev(4, "evaluate", TracePhase::End, 400, 1),
            ev(5, "wal_append", TracePhase::Begin, 0, 1),
            ev(6, "wal_sync", TracePhase::Instant, 200, 1),
            ev(7, "wal_append", TracePhase::End, 300, 1),
            ev(8, "submit", TracePhase::End, 1000, 1),
        ];
        let a = TraceAnalyzer::from_events(&events, 0);
        assert_eq!(a.traces().len(), 1);
        let t = a.trace(1).unwrap();
        assert!(t.complete);
        let b = &t.breakdown;
        assert_eq!(b.lock_wait, 50);
        assert_eq!(b.db_probe, 100);
        assert_eq!(b.evaluate, 400 - 100);
        assert_eq!(b.wal_sync, 200);
        assert_eq!(b.wal_append, 300 - 200);
        assert_eq!(b.critical_path_nanos, 1000);
        assert_eq!(b.other, 1000 - 50 - 300 - 100 - 100 - 200);
        assert_eq!(b.phase_sum(), 1000, "phases sum to the root wall time");
        // The span tree nests evaluate and wal_append under submit.
        assert_eq!(t.roots.len(), 1);
        let root = &t.roots[0];
        assert_eq!(root.kind, "submit");
        let child_kinds: Vec<_> = root.children.iter().map(|c| c.kind).collect();
        assert_eq!(child_kinds, vec!["evaluate", "wal_append"]);
    }

    #[test]
    fn interleaved_traces_untangle_by_id() {
        let mut events = vec![
            ev(0, "submit", TracePhase::Begin, 0, 1),
            ev(1, "submit", TracePhase::Begin, 0, 2),
            ev(2, "evaluate", TracePhase::Begin, 0, 2),
            ev(3, "evaluate", TracePhase::End, 70, 2),
            ev(4, "submit", TracePhase::End, 500, 1),
            ev(5, "submit", TracePhase::End, 900, 2),
        ];
        // Different threads so the per-thread stacks don't collide.
        for e in &mut events {
            e.thread = e.trace_id;
        }
        let a = TraceAnalyzer::from_events(&events, 0);
        assert_eq!(a.traces().len(), 2);
        assert_eq!(a.trace(1).unwrap().breakdown.critical_path_nanos, 500);
        assert_eq!(a.trace(2).unwrap().breakdown.critical_path_nanos, 900);
        assert_eq!(a.trace(2).unwrap().breakdown.evaluate, 70);
        let slowest = a.slowest(1);
        assert_eq!(slowest[0].trace_id, 2);
    }

    #[test]
    fn orphaned_ends_are_counted_not_treed() {
        // The begin of trace 1's submit was overwritten; its end
        // survives with a valid duration.
        let events = vec![
            ev(10, "submit", TracePhase::End, 800, 1),
            ev(11, "submit", TracePhase::Begin, 0, 2),
            ev(12, "submit", TracePhase::End, 300, 2),
        ];
        let a = TraceAnalyzer::from_events(&events, 10);
        assert_eq!(a.orphaned_ends, 1);
        assert_eq!(orphaned_end_count(&events), 1);
        let t1 = a.trace(1).unwrap();
        assert!(!t1.complete);
        assert_eq!(t1.orphaned_ends, 1);
        assert_eq!(t1.breakdown.critical_path_nanos, 0, "no trusted root");
        assert!(a.trace(2).unwrap().complete);
        assert_eq!(a.dropped, 10);
    }

    #[test]
    fn live_ticket_roundtrip_through_analyzer() {
        let tracer = Tracer::with_capacity(64);
        for _ in 0..3 {
            let ticket = tracer.ticket("submit");
            let ctx = ticket.ctx();
            tracer.instant_in(ctx, "lock_wait", 5);
            let span = tracer.begin_in(ctx, "evaluate");
            drop(span);
        }
        let a = TraceAnalyzer::from_tracer(&tracer);
        assert_eq!(a.traces().len(), 3);
        for t in a.traces() {
            assert!(t.complete);
            let b = &t.breakdown;
            assert_eq!(b.lock_wait, 5);
            assert!(b.critical_path_nanos > 0);
            assert!(b.phase_sum() <= b.critical_path_nanos.max(b.phase_sum()));
            assert_eq!(b.phase_sum(), b.critical_path_nanos);
        }
        let json = a.to_json(2);
        assert!(json.starts_with("{\"type\":\"trace_report\""));
        assert!(json.contains("\"critical_path\""));
        assert!(json.contains("\"slowest\":[{"));
    }

    #[test]
    fn unclosed_spans_surface_as_open_nodes() {
        let events = vec![
            ev(0, "submit", TracePhase::Begin, 0, 1),
            ev(1, "evaluate", TracePhase::Begin, 0, 1),
        ];
        let a = TraceAnalyzer::from_events(&events, 0);
        let t = a.trace(1).unwrap();
        assert!(!t.complete);
        assert_eq!(t.roots.len(), 2, "both open spans surface");
        assert!(t.roots.iter().all(|r| !r.closed));
    }

    #[test]
    fn current_ctx_does_not_leak_into_analysis() {
        // A stray enter() without a tracer still scopes correctly.
        let scope = TraceCtx(42).enter();
        drop(scope);
        assert_eq!(TraceCtx::current(), TraceCtx::NONE);
    }
}
