//! Test fixtures shared by the engine and sharded-engine unit
//! tests: a database-free query type and an evaluator that coordinates
//! a component once every required key is provided inside it.

use crate::engine::{ComponentEvaluator, CoordinationQuery};
use crate::index::KeyPattern;

/// A synthetic query for engine-level tests: coordination structure
/// without any database semantics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct TestQuery {
    pub name: String,
    pub provides: Vec<(&'static str, Option<i64>)>,
    pub requires: Vec<(&'static str, Option<i64>)>,
}

impl TestQuery {
    pub fn new(
        name: impl Into<String>,
        provides: Vec<(&'static str, Option<i64>)>,
        requires: Vec<(&'static str, Option<i64>)>,
    ) -> Self {
        TestQuery {
            name: name.into(),
            provides,
            requires,
        }
    }
}

impl CoordinationQuery for TestQuery {
    type Rel = &'static str;
    type Cst = i64;
    fn provides(&self) -> Vec<KeyPattern<&'static str, i64>> {
        self.provides.clone()
    }
    fn requires(&self) -> Vec<KeyPattern<&'static str, i64>> {
        self.requires.clone()
    }
}

/// Coordinates a component exactly when every required key is matched
/// by some provided key within it (a miniature of the paper's
/// semantics, enough to exercise the engine's bookkeeping).
#[derive(Clone)]
pub(crate) struct SaturationEvaluator;

impl ComponentEvaluator<TestQuery> for SaturationEvaluator {
    type Delivery = Vec<String>;
    type Error = String;
    fn evaluate(&self, queries: &[TestQuery]) -> Result<Option<(Vec<usize>, Vec<String>)>, String> {
        let provided: Vec<_> = queries.iter().flat_map(|q| q.provides.clone()).collect();
        let satisfied = |q: &TestQuery| {
            q.requires
                .iter()
                .all(|r| provided.iter().any(|p| crate::index::keys_related(p, r)))
        };
        if queries.iter().all(satisfied) {
            let names = queries.iter().map(|q| q.name.clone()).collect();
            Ok(Some(((0..queries.len()).collect(), names)))
        } else {
            Ok(None)
        }
    }
}

/// Link `i` of a chain: provides `R(i)`, requires `R(next)`.
pub(crate) fn chain_query(i: i64, next: Option<i64>) -> TestQuery {
    let requires = next.map(|n| ("R", Some(n))).into_iter().collect();
    TestQuery::new(format!("q{i}"), vec![("R", Some(i))], requires)
}
