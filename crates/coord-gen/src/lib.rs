//! # coord-gen — network, table, and workload generators
//!
//! Everything the Section 6 experiments need that isn't an algorithm:
//!
//! * [`networks`] — directed social-network topologies: the
//!   Barabási–Albert scale-free model the paper uses for Figures 5–6
//!   (citing the paper's reference \[1\]), plus chains, stars and
//!   complete graphs,
//! * [`social`] — the stand-in for the Slashdot social-network table
//!   (82,168 entries) used by the SCC-algorithm experiments: the real
//!   trace is not redistributable, and the paper uses it only as a pool
//!   of queryable tuples, so a tuple pool of the same size preserves the
//!   measured behaviour; plus the complete friendship table of
//!   Figures 7–8,
//! * [`tables`] — flights/hotels/movies tables for the examples
//!   and the Consistent-algorithm experiments,
//! * [`workloads`] — per-figure instance builders (`fig4_instance`, ...).

#![forbid(unsafe_code)]

pub mod networks;
pub mod social;
pub mod tables;
pub mod workloads;
