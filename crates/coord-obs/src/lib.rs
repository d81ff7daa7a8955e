//! Observability substrate for the coordination stack: a metrics
//! registry (atomic counters, gauges, log-bucketed latency histograms),
//! a span-style event tracer over a fixed-capacity ring buffer, and
//! JSON / Prometheus-text exporters. Pure `std`, no dependencies — the
//! crate sits below every runtime crate in the workspace DAG.
//!
//! # Overhead model
//!
//! Recording must be safe to leave on in production, so every hot-path
//! cost is explicit:
//!
//! * **Counters** ([`Counter`], [`Gauge`]) are always live: one relaxed
//!   `fetch_add` per event, exactly what the engine's pre-registry
//!   ad-hoc atomics cost. Registration only makes them visible to
//!   [`Registry::snapshot`]; an unregistered counter still counts.
//! * **Histograms** ([`Histogram`]) record with a `leading_zeros` plus
//!   four relaxed atomic RMWs (bucket, count, sum, max) — lock-free, no
//!   allocation. A histogram handed out by a *disabled* registry holds
//!   no storage: `record` is a single branch on a `None`, and
//!   [`Histogram::start`] skips the `Instant::now()` clock read
//!   entirely, so instrumented code compiles to near-zero cost.
//! * **The tracer** ([`Tracer`]) pushes fixed-size events (no strings
//!   beyond a `&'static str` kind) into a preallocated ring under a
//!   short mutex critical section — two clock reads and one push per
//!   span. Disabled, every call is a branch on a `None`. When the ring
//!   is full the oldest event is overwritten and counted in `dropped`;
//!   sequence numbers make the gap visible in a dump, never silent.
//! * **Snapshots and exporters** are cold paths: they lock the
//!   registration maps and copy, never blocking a recorder.
//!
//! The benchmark's `obs.overhead_frac` measures the enabled-vs-disabled
//! submit cost.
//!
//! # Reading a trace dump
//!
//! [`Tracer::dump_json_lines`] emits one meta line (`events`, `dropped`,
//! `orphaned_ends`) followed by one JSON object per event: `seq`
//! (gap-free unless events were dropped), `at_ns` (nanoseconds since
//! the tracer was created), `kind` (`submit`, `evaluate`, `migrate`,
//! `rebalance`, `wal_append`, `wal_sync`, `snapshot_rotation`,
//! `lock_wait`, `db_probe`, …), `phase`
//! (`begin` / `end` / `instant`), `arg` (the span duration in
//! nanoseconds on `end` events, a free slot otherwise), `trace` (the
//! request id; 0 = unattributed) and `thread` (a dense per-process
//! thread ordinal). One submit's journey reads as the `begin`/`end`
//! pairs nested between its `submit` span: evaluation, WAL append and
//! sync, with the probe and lock-wait instants in between.
//!
//! # Request-scoped tracing
//!
//! Concurrent submitters interleave in the ring; the `trace` id is what
//! untangles them. Each submit allocates one [`TraceCtx`] (a
//! [`Tracer::ticket`] at the stack's entry point), installs it as the
//! thread-local current context, and every layer below — shard
//! lock-wait, closure evaluation, storage probes, WAL append/sync —
//! stamps its events with it. [`TraceAnalyzer`] rebuilds
//! per-trace span trees from the ring and attributes each root span's
//! wall time into a [`LatencyBreakdown`] (lock-wait / evaluate /
//! db-probe / wal-append / wal-sync / other, summing to exactly
//! the critical-path nanos for a complete trace), with a top-K
//! slow-trace JSON report next to the snapshot exporters. The
//! [`Tracer::set_slow_query_log`] flight recorder copies any trace
//! whose root span exceeds a threshold into a bounded side buffer, so
//! slow traces survive ring overwrite. An `end` event whose `begin`
//! was overwritten is an *orphaned end*, counted in the dump meta line
//! and the analyzer output instead of reading as a silent seq gap.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod export;
pub mod hist;
pub mod registry;
pub mod trace;

pub use analyze::{LatencyBreakdown, SpanNode, TraceAnalyzer, TraceSummary, PHASES};
pub use hist::{HistTimer, Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, ObsSnapshot, Registry};
pub use trace::{
    SlowTrace, Span, TraceCtx, TraceEvent, TracePhase, TraceScope, TraceTicket, Tracer,
};
