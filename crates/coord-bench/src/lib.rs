//! # coord-bench — experiment harness
//!
//! Shared measurement utilities for the `reproduce` binary, which
//! regenerates every figure of the paper's Section 6 evaluation and
//! asserts the counter gates of the online engine, shard rebalancer and
//! storage layer while it prints them.

#![forbid(unsafe_code)]

pub mod harness;

pub use harness::{measure, MeasuredPoint, Series};
