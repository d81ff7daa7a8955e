//! Database tuples.

use crate::value::Value;
use std::fmt;
use std::ops::Deref;

/// One row of a relation: an ordered sequence of values.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple(Box<[Value]>);

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: impl Into<Vec<Value>>) -> Self {
        Tuple(values.into().into_boxed_slice())
    }

    /// The tuple's values.
    pub fn values(&self) -> &[Value] {
        &self.0
    }
}

impl Deref for Tuple {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        &self.0
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:?}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple::new(iter.into_iter().collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deref_and_index() {
        let t = Tuple::new(vec![Value::int(1), Value::str("a")]);
        assert_eq!(t.len(), 2);
        assert_eq!(t[0], Value::int(1));
        assert_eq!(t[1], Value::str("a"));
    }

    #[test]
    fn equality() {
        let a = Tuple::new(vec![Value::int(1)]);
        let b: Tuple = vec![Value::int(1)].into();
        assert_eq!(a, b);
    }

    #[test]
    fn collects_from_iterator() {
        let t: Tuple = (0..3).map(Value::int).collect();
        assert_eq!(t.values(), &[Value::int(0), Value::int(1), Value::int(2)]);
    }

    #[test]
    fn debug_format() {
        let t = Tuple::new(vec![Value::int(101), Value::str("Zurich")]);
        assert_eq!(format!("{t:?}"), "(101, \"Zurich\")");
    }
}
