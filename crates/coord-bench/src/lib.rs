//! # coord-bench — experiment harness
//!
//! Shared measurement utilities for the benchmark targets and the
//! `reproduce` binary that regenerates every figure of the paper's
//! Section 6 evaluation.

#![forbid(unsafe_code)]

pub mod harness;
pub mod skew;
pub mod storage;

pub use harness::{measure, series_to_json, MeasuredPoint, Series};
pub use skew::{drive_phase1, SkewRun};
