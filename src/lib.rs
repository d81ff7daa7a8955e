//! # social-coordination
//!
//! A from-scratch Rust reproduction of *"The Complexity of Social
//! Coordination"* (Mamouras, Oren, Seeman, Kot, Gehrke — PVLDB 5(11),
//! 2012): **entangled queries** for declarative, data-driven coordination,
//! with the paper's two practical algorithms, its hardness reductions, and
//! its full experimental evaluation.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`db`] — in-memory relational database with conjunctive-query
//!   evaluation (the MySQL substitute).
//! * [`graph`] — directed-graph algorithms: Tarjan SCC, condensation,
//!   topological order (the JGraphT substitute).
//! * [`core`] — entangled-query syntax, unification, coordination graphs,
//!   safety/uniqueness, the SCC Coordination Algorithm, the Consistent
//!   Coordination Algorithm, the Gupta et al. baseline, a brute-force exact
//!   solver, and an online coordination engine.
//! * [`engine`] — the sharded, incremental online coordination service
//!   (atom index, union-find components, per-component shards) that
//!   `core::engine` builds on.
//! * [`store`] — durable persistence for the online engine: checksummed
//!   write-ahead log, epoch snapshots, and crash recovery
//!   (`core::persist` exposes the entangled-query wiring).
//! * [`obs`] — zero-dependency observability: a metrics registry with
//!   lock-free counters/gauges/latency histograms, a span-style event
//!   tracer with a fixed-capacity ring, and JSON/Prometheus exporters.
//!   One registry threads through engine, store, and database.
//! * [`sat`] — 3SAT, DPLL, and the paper's hardness reductions.
//! * [`gen`] — social-network and workload generators for the experiments.
//!
//! ## Quickstart
//!
//! ```
//! use social_coordination::db::{Database, Value};
//! use social_coordination::core::{EntangledQuery, QueryBuilder, scc::SccCoordinator};
//!
//! // Gwyneth wants to fly with Chris to Zurich (Section 2.1 of the paper).
//! let mut db = Database::new();
//! db.create_table("Flights", &["flightId", "destination"]).unwrap();
//! db.insert("Flights", vec![Value::int(101), Value::str("Zurich")]).unwrap();
//!
//! // q1 = {R(Chris, x)} R(Gwyneth, x) :- Flights(x, Zurich)
//! let q1 = QueryBuilder::new("q1")
//!     .postcondition("R", |a| a.constant("Chris").var("x"))
//!     .head("R", |a| a.constant("Gwyneth").var("x"))
//!     .body("Flights", |a| a.var("x").constant("Zurich"))
//!     .build()
//!     .unwrap();
//! // q2 = {} R(Chris, y) :- Flights(y, Zurich)
//! let q2 = QueryBuilder::new("q2")
//!     .head("R", |a| a.constant("Chris").var("y"))
//!     .body("Flights", |a| a.var("y").constant("Zurich"))
//!     .build()
//!     .unwrap();
//!
//! let outcome = SccCoordinator::new(&db).run(&[q1, q2]).unwrap();
//! let set = outcome.best().expect("a coordinating set exists");
//! assert_eq!(set.queries.len(), 2); // both fly on flight 101
//! ```

#![forbid(unsafe_code)]

pub use coord_core as core;
pub use coord_db as db;
pub use coord_engine as engine;
pub use coord_gen as gen;
pub use coord_graph as graph;
pub use coord_obs as obs;
pub use coord_sat as sat;
pub use coord_store as store;
