//! Structured event tracer: span-style begin/end events into a
//! fixed-capacity ring buffer with sequence-numbered drops, request
//! attribution through per-submit [`TraceCtx`] ids, and a bounded
//! [`SlowTrace`] flight recorder that survives ring overwrite.
//!
//! # Request-scoped tracing
//!
//! Every event carries a `trace_id`. Id `0` means *unattributed* — the
//! plain [`Tracer::instant`] / [`Tracer::begin`] calls keep working and
//! record with id 0. A request path allocates one [`TraceCtx`] per
//! submit (via [`Tracer::ticket`] or [`Tracer::alloc_ctx`]) and either
//! passes it explicitly ([`Tracer::instant_in`], [`Tracer::begin_in`])
//! or installs it as the **thread-local current context**
//! ([`TraceCtx::enter`]) so layers with no parameter to spare — the
//! database's probe accounting, the WAL writer —
//! pick it up through [`TraceCtx::current`]. One synchronous submit
//! runs on one thread, so the thread-local is exactly the causal scope.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default ring capacity when a registry builds its tracer.
pub const DEFAULT_CAPACITY: usize = 8192;

/// Where an event sits in its span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TracePhase {
    /// A span opened.
    Begin,
    /// A span closed; `arg` carries the duration in nanoseconds.
    End,
    /// A point event with no span.
    Instant,
}

impl TracePhase {
    /// The lowercase name used in dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            TracePhase::Begin => "begin",
            TracePhase::End => "end",
            TracePhase::Instant => "instant",
        }
    }
}

/// One request's identity: a nonzero id allocated per submit, or
/// [`TraceCtx::NONE`] (id 0) for unattributed events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceCtx(pub u64);

std::thread_local! {
    static CURRENT_CTX: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

std::thread_local! {
    static THREAD_ORDINAL: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// A small dense per-process thread id (1-based, in first-trace order) —
/// stable for the thread's lifetime, compact enough to store per event.
fn thread_ordinal() -> u64 {
    THREAD_ORDINAL.with(|t| *t)
}

impl TraceCtx {
    /// The unattributed context (id 0).
    pub const NONE: TraceCtx = TraceCtx(0);

    /// Whether this context names a real trace.
    #[inline]
    pub fn is_traced(self) -> bool {
        self.0 != 0
    }

    /// The calling thread's current context ([`TraceCtx::NONE`] outside
    /// any [`TraceCtx::enter`] scope).
    #[inline]
    pub fn current() -> TraceCtx {
        TraceCtx(CURRENT_CTX.with(std::cell::Cell::get))
    }

    /// Install this context as the thread's current one until the
    /// returned guard drops (scopes nest; the previous context is
    /// restored).
    #[inline]
    pub fn enter(self) -> TraceScope {
        TraceScope {
            prev: CURRENT_CTX.with(|c| c.replace(self.0)),
        }
    }
}

/// Guard from [`TraceCtx::enter`]: restores the previously current
/// context when dropped.
pub struct TraceScope {
    prev: u64,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CURRENT_CTX.with(|c| c.set(self.prev));
    }
}

/// One recorded event. Fixed-size: the kind is a `&'static str`, the
/// free `arg` slot carries the span duration on [`TracePhase::End`].
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Monotonic sequence number (gap-free unless events were dropped).
    pub seq: u64,
    /// Nanoseconds since the tracer was created.
    pub at_nanos: u64,
    /// Event kind (`submit`, `evaluate`, `wal_append`, …).
    pub kind: &'static str,
    /// Begin / end / instant.
    pub phase: TracePhase,
    /// Duration in nanoseconds on `end` events; free otherwise.
    pub arg: u64,
    /// The request this event belongs to; 0 = unattributed.
    pub trace_id: u64,
    /// Dense ordinal of the recording thread (see [`TraceCtx`] docs).
    pub thread: u64,
}

/// One slow trace captured by the flight recorder: the root span's
/// identity plus a copy of every event of that trace still in the ring
/// at capture time (the root's end included), immune to later
/// overwrites.
#[derive(Clone, Debug)]
pub struct SlowTrace {
    /// The captured trace's id.
    pub trace_id: u64,
    /// Kind of the root span that tripped the threshold.
    pub root_kind: &'static str,
    /// The root span's wall time in nanoseconds.
    pub root_nanos: u64,
    /// The trace's events, oldest first.
    pub events: Vec<TraceEvent>,
}

struct Ring {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

/// The bounded flight-recorder buffer (see [`Tracer::set_slow_query_log`]).
struct SlowLog {
    buf: VecDeque<SlowTrace>,
    capacity: usize,
    recorded: u64,
    discarded: u64,
}

struct TracerInner {
    ring: Mutex<Ring>,
    epoch: Instant,
    next_trace_id: AtomicU64,
    /// Root-span duration (nanos) above which a trace is copied into
    /// the slow log; 0 = recorder off (the hot-path check is one load).
    slow_threshold: AtomicU64,
    slow: Mutex<SlowLog>,
}

/// Handle to a shared trace ring. Clones share the ring; a disabled
/// handle records nothing (one branch per call, no clock reads).
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(inner) => {
                let ring = inner.ring.lock().unwrap();
                write!(
                    f,
                    "Tracer(events: {}, dropped: {})",
                    ring.buf.len(),
                    ring.dropped
                )
            }
            None => write!(f, "Tracer(disabled)"),
        }
    }
}

impl Tracer {
    /// A live tracer whose ring holds at most `capacity` events; when
    /// full the oldest event is overwritten and counted as dropped.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Tracer {
            inner: Some(Arc::new(TracerInner {
                ring: Mutex::new(Ring {
                    buf: VecDeque::with_capacity(capacity),
                    capacity,
                    next_seq: 0,
                    dropped: 0,
                }),
                epoch: Instant::now(),
                next_trace_id: AtomicU64::new(1),
                slow_threshold: AtomicU64::new(0),
                slow: Mutex::new(SlowLog {
                    buf: VecDeque::new(),
                    capacity: 0,
                    recorded: 0,
                    discarded: 0,
                }),
            })),
        }
    }

    /// A no-op handle.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// Whether this handle records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Allocate a fresh nonzero [`TraceCtx`] (the per-submit request
    /// id). Disabled tracers hand out [`TraceCtx::NONE`] so the whole
    /// attribution path stays inert.
    #[inline]
    pub fn alloc_ctx(&self) -> TraceCtx {
        match &self.inner {
            None => TraceCtx::NONE,
            Some(inner) => TraceCtx(inner.next_trace_id.fetch_add(1, Ordering::Relaxed)),
        }
    }

    /// Arm the slow-query flight recorder: when a **root** span (one
    /// opened by [`Tracer::ticket`]'s allocating path) of a traced
    /// request ends with a duration of at least `threshold_nanos`, the
    /// trace's events are copied from the ring into a side buffer of at
    /// most `capacity` traces (oldest evicted first), so slow traces
    /// survive ring overwrite. `threshold_nanos == 0` disarms.
    pub fn set_slow_query_log(&self, threshold_nanos: u64, capacity: usize) {
        if let Some(inner) = &self.inner {
            let mut slow = inner.slow.lock().unwrap();
            slow.capacity = capacity;
            while slow.buf.len() > capacity {
                slow.buf.pop_front();
                slow.discarded += 1;
            }
            drop(slow);
            let armed = if capacity == 0 { 0 } else { threshold_nanos };
            inner.slow_threshold.store(armed, Ordering::Relaxed);
        }
    }

    /// Copies of the captured slow traces, oldest first.
    pub fn slow_traces(&self) -> Vec<SlowTrace> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.slow.lock().unwrap().buf.iter().cloned().collect(),
        }
    }

    /// `(recorded, evicted)` totals for the slow-query log: how many
    /// traces ever tripped the threshold, and how many of those the
    /// bounded buffer has since discarded.
    pub fn slow_trace_counts(&self) -> (u64, u64) {
        match &self.inner {
            None => (0, 0),
            Some(inner) => {
                let slow = inner.slow.lock().unwrap();
                (slow.recorded, slow.discarded)
            }
        }
    }

    #[inline]
    fn push(&self, ctx: TraceCtx, kind: &'static str, phase: TracePhase, arg: u64) {
        if let Some(inner) = &self.inner {
            let at_nanos = inner.epoch.elapsed().as_nanos() as u64;
            let thread = thread_ordinal();
            let mut ring = inner.ring.lock().unwrap();
            let seq = ring.next_seq;
            ring.next_seq += 1;
            if ring.buf.len() == ring.capacity {
                ring.buf.pop_front();
                ring.dropped += 1;
            }
            ring.buf.push_back(TraceEvent {
                seq,
                at_nanos,
                kind,
                phase,
                arg,
                trace_id: ctx.0,
                thread,
            });
        }
    }

    /// Record an unattributed point event (trace id 0).
    #[inline]
    pub fn instant(&self, kind: &'static str, arg: u64) {
        self.push(TraceCtx::NONE, kind, TracePhase::Instant, arg);
    }

    /// Record a point event attributed to `ctx`.
    #[inline]
    pub fn instant_in(&self, ctx: TraceCtx, kind: &'static str, arg: u64) {
        self.push(ctx, kind, TracePhase::Instant, arg);
    }

    /// Open an unattributed span (trace id 0): records a begin event
    /// now, and an end event (with the duration as `arg`) when the
    /// returned guard drops.
    #[inline]
    pub fn begin(&self, kind: &'static str) -> Span {
        self.begin_span(TraceCtx::NONE, kind, false)
    }

    /// Open a span attributed to `ctx`.
    #[inline]
    pub fn begin_in(&self, ctx: TraceCtx, kind: &'static str) -> Span {
        self.begin_span(ctx, kind, false)
    }

    fn begin_span(&self, ctx: TraceCtx, kind: &'static str, root: bool) -> Span {
        if self.inner.is_none() {
            return Span {
                tracer: Tracer::disabled(),
                kind,
                ctx,
                root: false,
                start: None,
            };
        }
        self.push(ctx, kind, TracePhase::Begin, 0);
        Span {
            tracer: self.clone(),
            kind,
            ctx,
            root,
            start: Some(Instant::now()),
        }
    }

    /// One request-scoped tracing ticket. If the calling thread already
    /// has a current context (an enclosing layer — e.g. the durable
    /// engine — allocated the request's id), the ticket opens a plain
    /// nested span in it. Otherwise it allocates a fresh [`TraceCtx`],
    /// installs it as the thread's current context for the ticket's
    /// lifetime, and opens the trace's **root** span — the one whose
    /// wall time the slow-query flight recorder thresholds against.
    pub fn ticket(&self, kind: &'static str) -> TraceTicket {
        if self.inner.is_none() {
            return TraceTicket {
                _span: None,
                _scope: None,
                ctx: TraceCtx::NONE,
            };
        }
        let current = TraceCtx::current();
        if current.is_traced() {
            TraceTicket {
                _span: Some(self.begin_span(current, kind, false)),
                _scope: None,
                ctx: current,
            }
        } else {
            let ctx = self.alloc_ctx();
            let scope = ctx.enter();
            TraceTicket {
                _span: Some(self.begin_span(ctx, kind, true)),
                _scope: Some(scope),
                ctx,
            }
        }
    }

    /// Copy every ring event belonging to `ctx` into the slow log
    /// (called from a root span's drop once the threshold tripped).
    fn capture_slow(&self, ctx: TraceCtx, root_kind: &'static str, root_nanos: u64) {
        let Some(inner) = &self.inner else { return };
        let events: Vec<TraceEvent> = {
            let ring = inner.ring.lock().unwrap();
            ring.buf
                .iter()
                .filter(|e| e.trace_id == ctx.0)
                .copied()
                .collect()
        };
        let mut slow = inner.slow.lock().unwrap();
        if slow.capacity == 0 {
            return;
        }
        if slow.buf.len() == slow.capacity {
            slow.buf.pop_front();
            slow.discarded += 1;
        }
        slow.recorded += 1;
        slow.buf.push_back(SlowTrace {
            trace_id: ctx.0,
            root_kind,
            root_nanos,
            events,
        });
    }

    /// Copies of the buffered events (oldest first) plus the total
    /// number of events dropped by ring overwrites.
    pub fn events(&self) -> (Vec<TraceEvent>, u64) {
        match &self.inner {
            None => (Vec::new(), 0),
            Some(inner) => {
                let ring = inner.ring.lock().unwrap();
                (ring.buf.iter().copied().collect(), ring.dropped)
            }
        }
    }

    /// Dump the ring as JSON lines: one meta line (`events`, `dropped`,
    /// `orphaned_ends`) then one object per event. Sequence-number gaps
    /// after a nonzero `dropped` show exactly which events were
    /// overwritten; `orphaned_ends` counts the `end` events whose
    /// `begin` was among them (they are real span closures, just with
    /// the opening half overwritten).
    pub fn dump_json_lines(&self) -> String {
        let (events, dropped) = self.events();
        let mut out = format!(
            "{{\"type\":\"meta\",\"events\":{},\"dropped\":{},\"orphaned_ends\":{}}}\n",
            events.len(),
            dropped,
            crate::analyze::orphaned_end_count(&events),
        );
        for e in &events {
            out.push_str(&format!(
                "{{\"seq\":{},\"at_ns\":{},\"kind\":\"{}\",\"phase\":\"{}\",\"arg\":{},\
                 \"trace\":{},\"thread\":{}}}\n",
                e.seq,
                e.at_nanos,
                e.kind,
                e.phase.as_str(),
                e.arg,
                e.trace_id,
                e.thread,
            ));
        }
        out
    }
}

/// Span guard from [`Tracer::begin`] / [`Tracer::begin_in`]: records
/// the end event (duration in `arg`) when dropped or explicitly
/// finished.
pub struct Span {
    tracer: Tracer,
    kind: &'static str,
    ctx: TraceCtx,
    root: bool,
    start: Option<Instant>,
}

impl Span {
    /// Close the span now.
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let nanos = start.elapsed().as_nanos() as u64;
            self.tracer
                .push(self.ctx, self.kind, TracePhase::End, nanos);
            if self.root && self.ctx.is_traced() {
                if let Some(inner) = &self.tracer.inner {
                    let threshold = inner.slow_threshold.load(Ordering::Relaxed);
                    if threshold != 0 && nanos >= threshold {
                        self.tracer.capture_slow(self.ctx, self.kind, nanos);
                    }
                }
            }
        }
    }
}

/// Guard from [`Tracer::ticket`]: the span (root or nested) plus, when
/// this ticket allocated the request id, the thread-local scope that
/// makes [`TraceCtx::current`] return it. Field order matters: the span
/// must record its end while the scope is still installed.
pub struct TraceTicket {
    /// Held for its drop: records the span's end event.
    _span: Option<Span>,
    /// Held for its drop: uninstalls the thread-local context.
    _scope: Option<TraceScope>,
    ctx: TraceCtx,
}

impl TraceTicket {
    /// The request id this ticket's events are attributed to
    /// ([`TraceCtx::NONE`] when the tracer is disabled).
    pub fn ctx(&self) -> TraceCtx {
        self.ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_begin_and_end_pairs() {
        let t = Tracer::with_capacity(16);
        {
            let span = t.begin("submit");
            t.instant("lock_wait", 7);
            span.finish();
        }
        let (events, dropped) = t.events();
        assert_eq!(dropped, 0);
        let kinds: Vec<_> = events.iter().map(|e| (e.kind, e.phase)).collect();
        assert_eq!(
            kinds,
            vec![
                ("submit", TracePhase::Begin),
                ("lock_wait", TracePhase::Instant),
                ("submit", TracePhase::End),
            ]
        );
        assert_eq!(events[1].arg, 7);
        // Unattributed calls carry trace id 0; all on one thread.
        assert!(events.iter().all(|e| e.trace_id == 0));
        assert!(events.iter().all(|e| e.thread == events[0].thread));
        // Sequence numbers are gap-free, timestamps monotone.
        assert!(events.windows(2).all(|w| w[1].seq == w[0].seq + 1));
        assert!(events.windows(2).all(|w| w[1].at_nanos >= w[0].at_nanos));
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let t = Tracer::with_capacity(4);
        for i in 0..10 {
            t.instant("tick", i);
        }
        let (events, dropped) = t.events();
        assert_eq!(events.len(), 4);
        assert_eq!(dropped, 6);
        // The survivors are the newest, with their original seqs.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        t.instant("tick", 1);
        let span = t.begin("submit");
        drop(span);
        let ticket = t.ticket("submit");
        assert_eq!(ticket.ctx(), TraceCtx::NONE);
        drop(ticket);
        assert_eq!(t.alloc_ctx(), TraceCtx::NONE);
        let (events, dropped) = t.events();
        assert!(events.is_empty() && dropped == 0);
        assert_eq!(
            t.dump_json_lines(),
            "{\"type\":\"meta\",\"events\":0,\"dropped\":0,\"orphaned_ends\":0}\n"
        );
        assert!(t.slow_traces().is_empty());
    }

    #[test]
    fn dump_is_one_json_object_per_line() {
        let t = Tracer::with_capacity(8);
        t.instant("tick", 3);
        let dump = t.dump_json_lines();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"dropped\":0"));
        assert!(lines[1].contains("\"kind\":\"tick\""));
        assert!(lines[1].contains("\"phase\":\"instant\""));
        assert!(lines[1].contains("\"trace\":0"));
        assert!(lines[1].contains("\"thread\":"));
    }

    #[test]
    fn ctx_allocation_is_unique_and_nonzero() {
        let t = Tracer::with_capacity(8);
        let a = t.alloc_ctx();
        let b = t.alloc_ctx();
        assert!(a.is_traced() && b.is_traced());
        assert_ne!(a, b);
    }

    #[test]
    fn attributed_calls_stamp_the_trace_id() {
        let t = Tracer::with_capacity(16);
        let ctx = t.alloc_ctx();
        {
            let _span = t.begin_in(ctx, "submit");
            t.instant_in(ctx, "lock_wait", 10);
            t.instant("tick", 0); // unattributed rides along as id 0
        }
        let (events, _) = t.events();
        let ids: Vec<u64> = events.iter().map(|e| e.trace_id).collect();
        assert_eq!(ids, vec![ctx.0, ctx.0, 0, ctx.0]);
    }

    #[test]
    fn current_ctx_scopes_nest_and_restore() {
        assert_eq!(TraceCtx::current(), TraceCtx::NONE);
        let outer = TraceCtx(7);
        let scope = outer.enter();
        assert_eq!(TraceCtx::current(), outer);
        {
            let inner = TraceCtx(9);
            let _inner_scope = inner.enter();
            assert_eq!(TraceCtx::current(), inner);
        }
        assert_eq!(TraceCtx::current(), outer);
        drop(scope);
        assert_eq!(TraceCtx::current(), TraceCtx::NONE);
    }

    #[test]
    fn ticket_allocates_once_and_nested_tickets_reuse_it() {
        let t = Tracer::with_capacity(32);
        {
            let outer = t.ticket("submit");
            assert!(outer.ctx().is_traced());
            assert_eq!(TraceCtx::current(), outer.ctx());
            let inner = t.ticket("submit");
            assert_eq!(inner.ctx(), outer.ctx());
            drop(inner);
            t.instant_in(TraceCtx::current(), "lock_wait", 1);
        }
        assert_eq!(TraceCtx::current(), TraceCtx::NONE);
        let (events, _) = t.events();
        // begin, begin, end, lock_wait, end — all one trace id.
        assert_eq!(events.len(), 5);
        let id = events[0].trace_id;
        assert!(id != 0);
        assert!(events.iter().all(|e| e.trace_id == id));
        // A later ticket gets a fresh id.
        let next = t.ticket("submit");
        assert_ne!(next.ctx().0, id);
    }

    #[test]
    fn slow_query_log_captures_root_spans_over_threshold() {
        let t = Tracer::with_capacity(64);
        t.set_slow_query_log(1, 2); // 1ns threshold: everything is slow
        for i in 0..3u64 {
            let ticket = t.ticket("submit");
            t.instant_in(ticket.ctx(), "lock_wait", i);
            drop(ticket);
        }
        let (recorded, discarded) = t.slow_trace_counts();
        assert_eq!(recorded, 3);
        assert_eq!(discarded, 1, "bounded buffer evicted the oldest");
        let slow = t.slow_traces();
        assert_eq!(slow.len(), 2);
        for s in &slow {
            assert_eq!(s.root_kind, "submit");
            assert!(s.root_nanos >= 1);
            // begin + lock_wait + end, all of one trace.
            assert_eq!(s.events.len(), 3);
            assert!(s.events.iter().all(|e| e.trace_id == s.trace_id));
        }
        // Nested (non-root) spans never trip the recorder on their own.
        let outer = t.ticket("submit");
        let inner = t.ticket("submit");
        drop(inner);
        let before = t.slow_trace_counts().0;
        assert_eq!(before, 3, "nested ticket drop did not capture");
        drop(outer);
        assert_eq!(t.slow_trace_counts().0, 4);
    }

    #[test]
    fn slow_query_log_disarmed_by_zero_threshold() {
        let t = Tracer::with_capacity(16);
        let ticket = t.ticket("submit");
        drop(ticket);
        assert_eq!(t.slow_trace_counts(), (0, 0));
        t.set_slow_query_log(1, 0); // zero capacity also disarms
        let ticket = t.ticket("submit");
        drop(ticket);
        assert_eq!(t.slow_trace_counts(), (0, 0));
    }
}
