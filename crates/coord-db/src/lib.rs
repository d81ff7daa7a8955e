//! # coord-db — in-memory relational database
//!
//! This crate is the storage and query-evaluation substrate for the
//! entangled-query coordination system. The original prototype of
//! *"The Complexity of Social Coordination"* (Mamouras et al., VLDB 2012)
//! used MySQL via JDBC; the coordination algorithms only ever interact with
//! the database through **conjunctive queries** over small schemas, so a
//! compact in-memory engine exercises the identical code path.
//!
//! The engine provides:
//!
//! * a simple value model ([`Value`]: integers and interned strings),
//! * named relations ([`Table`]) over pluggable [`Storage`] backends:
//!   the per-column-hash [`storage::RowStore`] and the
//!   composite-index [`storage::CompositeStore`] — byte-identical
//!   answers, different probe work (see [`storage`]'s determinism
//!   contract),
//! * conjunctive queries ([`ConjunctiveQuery`]) over variables and
//!   constants, evaluated by a backtracking join with greedy atom ordering
//!   ([`eval`]),
//! * *choose-1* semantics (`find_one`) as required by entangled queries, as
//!   well as all-answers enumeration and distinct-value projection (used by
//!   the Consistent Coordination Algorithm to compute option lists `V(q)`),
//! * instrumentation counting the number of issued database queries, so the
//!   paper's "number of DB queries" analyses can be validated exactly.
//!
//! ## Example
//!
//! ```
//! use coord_db::{Database, Value, ConjunctiveQuery, Atom, Term, Var};
//!
//! let mut db = Database::new();
//! db.create_table("Flights", &["flightId", "destination"]).unwrap();
//! db.insert("Flights", vec![Value::int(101), Value::str("Zurich")]).unwrap();
//!
//! // Flights(x, "Zurich")
//! let q = ConjunctiveQuery::new(vec![Atom::new(
//!     "Flights",
//!     vec![Term::Var(Var(0)), Term::constant(Value::str("Zurich"))],
//! )]);
//! let answer = db.find_one(&q).unwrap().expect("a flight exists");
//! assert_eq!(answer.get(Var(0)), Some(&Value::int(101)));
//! ```

#![forbid(unsafe_code)]

pub mod database;
pub mod error;
pub mod eval;
pub mod query;
pub mod schema;
pub mod stats;
pub mod storage;
pub mod symbol;
pub mod table;
pub mod tuple;
pub mod value;

pub use database::Database;
pub use error::DbError;
pub use eval::Assignment;
pub use query::{Atom, ConjunctiveQuery, Term, Var};
pub use schema::RelationSchema;
pub use stats::QueryStats;
pub use storage::{AccessPath, BackendKind, Scan, Storage};
pub use symbol::Symbol;
pub use table::Table;
pub use tuple::Tuple;
pub use value::Value;
