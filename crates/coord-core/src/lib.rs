//! # coord-core — entangled queries and coordination algorithms
//!
//! The primary contribution of *"The Complexity of Social Coordination"*
//! (Mamouras, Oren, Seeman, Kot, Gehrke — PVLDB 5(11), 2012), rebuilt as a
//! Rust library:
//!
//! * [`query`] / [`instance`] — entangled-query syntax `{P} H :- B` and
//!   query sets with a global variable space (Section 2.1),
//! * [`unify`] — Most General Unifiers over atoms (union-find),
//! * [`graphs`] — (extended) coordination graphs, **safety**
//!   (Definition 2), **uniqueness** (Definition 3), and
//!   **single-connectedness** (Definition 6),
//! * [`semantics`] — the coordinating-set definition (Definition 1) as an
//!   executable verifier: the ground truth every algorithm is checked
//!   against,
//! * [`gupta`] — the Gupta et al. baseline for safe+unique sets,
//! * [`scc`] — the **SCC Coordination Algorithm** (Section 4): safe sets
//!   without uniqueness, one DB query per strongly connected component,
//! * [`consistent`] — the **Consistent Coordination Algorithm**
//!   (Section 5): unsafe sets where all users coordinate on the same
//!   attributes,
//! * [`single_connected`] — the tractable fragment of Theorem 3,
//! * [`bruteforce`] — exponential exact search (the NP-hard general
//!   problem, Theorems 1–2), used as ground truth in tests,
//! * [`parse`] — a parser for the paper's textual `{P} H :- B` notation,
//! * [`classify`] — Definitions 7–9 as a recognizer: checks whether a
//!   general entangled query is A-consistent and recovers its structured
//!   form,
//! * [`selector`] — pluggable selection among coordinating sets,
//! * [`differential`] — memoized closure evaluation: per-sweep delta
//!   joins along the condensation (DBSP-style incremental view
//!   maintenance),
//! * [`engine`] — a Youtopia-style online evaluation loop: a thin
//!   adapter wiring the SCC algorithm into the `coord-engine` service
//!   crate's incremental, sharded machinery,
//! * [`persist`] — the durable online engine: the `coord-store`
//!   WAL/snapshot subsystem with an [`EntangledQuery`] codec, so
//!   acknowledged submits survive crashes,
//! * [`testkit`] — oracles for the online engines (the full-rebuild
//!   loop the property suites and benches compare against).
//!
//! ## Quickstart
//!
//! The Section 2.1 flight example — Gwyneth and Chris coordinate on a
//! flight to Zurich:
//!
//! ```
//! use coord_core::scc::SccCoordinator;
//! use coord_core::QueryBuilder;
//! use coord_db::{Database, Value};
//!
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

#![deny(unsafe_code)]

pub mod bruteforce;
pub mod classify;
pub mod combined;
pub mod consistent;
pub mod differential;
pub mod engine;
pub mod error;
pub mod graphs;
pub mod gupta;
pub mod instance;
pub mod outcome;
pub mod parse;
pub mod persist;
pub mod query;
pub mod scc;
pub mod selector;
pub mod semantics;
pub mod single_connected;
pub mod testkit;
pub mod unify;

pub use differential::GroundWork;
pub use error::CoordError;
pub use instance::QuerySet;
pub use outcome::FoundSet;
pub use persist::DurableSharedEngine;
pub use query::{EntangledQuery, QueryBuilder, QueryId};
pub use semantics::{check_coordinating_set, Grounding, Violation};
