//! Synthetic tables standing in for the paper's social data.
//!
//! The paper's SCC-algorithm experiments query "the Slashdot social
//! network data \[with\] 82,168 entries". That trace is a fixed artifact we
//! do not redistribute; the experiments use it purely as a pool of
//! queryable tuples (every query body is simple and guaranteed to match
//! at least one row). A [`tuple_pool`] of [`SLASHDOT_ROWS`] rows — the
//! same size, not a synthetic social network — therefore preserves
//! everything the measurement depends on: row count, per-column index
//! behaviour, and guaranteed body satisfiability. The Figure 7–8
//! friendship graph is complete ([`complete_friendship_table`]).

use coord_db::{Database, DbError, Value};

/// Row count of the paper's Slashdot table.
pub const SLASHDOT_ROWS: usize = 82_168;

/// Create `name(id, tag)` with `rows` tuples. Row `i` is `(i, "t<i>")`,
/// so the constant `tag_for(i)` selects exactly one row — "we make sure
/// that for each body there is at least one tuple satisfying it".
pub fn tuple_pool(db: &mut Database, name: &str, rows: usize) -> Result<(), DbError> {
    db.create_table(name, &["id", "tag"])?;
    for i in 0..rows {
        db.insert(name, vec![Value::int(i as i64), Value::str(tag_for(i))])?;
    }
    Ok(())
}

/// The tag constant selecting row `i` of a [`tuple_pool`] table.
pub fn tag_for(i: usize) -> String {
    format!("t{i}")
}

/// Create a complete friendship table over `n` users (the Figure 7–8
/// setting: "the Friends table encodes a complete friendship graph").
pub fn complete_friendship_table(db: &mut Database, name: &str, n: usize) -> Result<(), DbError> {
    db.create_table(name, &["user", "friend"])?;
    for u in 0..n {
        for v in 0..n {
            if u != v {
                db.insert(
                    name,
                    vec![Value::str(user_name(u)), Value::str(user_name(v))],
                )?;
            }
        }
    }
    Ok(())
}

/// Canonical synthetic user name for index `i`.
pub fn user_name(i: usize) -> String {
    format!("u{i}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_pool_rows_are_selectable() {
        let mut db = Database::new();
        tuple_pool(&mut db, "S", 100).unwrap();
        let t = db.table_named("S").unwrap();
        assert_eq!(t.len(), 100);
        // Each tag selects exactly one row.
        assert_eq!(t.lookup(1, &Value::str(tag_for(42))).len(), 1);
    }

    #[test]
    fn complete_friendships() {
        let mut db = Database::new();
        complete_friendship_table(&mut db, "F", 5).unwrap();
        assert_eq!(db.table_named("F").unwrap().len(), 20);
        let t = db.table_named("F").unwrap();
        let mut f = t.distinct_project(&[1], &[(0, Value::str("u2"))]);
        f.sort();
        let friends = ["u0", "u1", "u3", "u4"].map(|u| vec![Value::str(u)]);
        assert_eq!(f, friends);
    }
}
