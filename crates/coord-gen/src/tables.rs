//! Domain tables for the examples and the Consistent-algorithm
//! experiments: flights, hotels, cinemas.

use coord_db::{Database, DbError, Value};

/// Create `Flights(flightId, destination)` with the given
/// (id, destination) rows — the Section 2 schema.
pub fn flights_simple(db: &mut Database, rows: &[(i64, &str)]) -> Result<(), DbError> {
    db.create_table("Flights", &["flightId", "destination"])?;
    for &(id, dest) in rows {
        db.insert("Flights", vec![Value::int(id), Value::str(dest)])?;
    }
    Ok(())
}

/// Create the Section 6.2 flights table
/// `Flights(flightId, destination, day, source, airline)`.
///
/// * `unique_pairs = true` (Figure 7 setting): every row gets a distinct
///   (destination, day) combination, so the number of coordination
///   options equals the row count.
/// * `unique_pairs = false` (Figure 8 setting): destinations and days
///   cycle over small pools, capping the option count.
pub fn flights_coordination(
    db: &mut Database,
    name: &str,
    rows: usize,
    unique_pairs: bool,
) -> Result<(), DbError> {
    db.create_table(
        name,
        &["flightId", "destination", "day", "source", "airline"],
    )?;
    for i in 0..rows {
        let (dest, day) = if unique_pairs {
            (format!("city{i}"), i as i64)
        } else {
            (format!("city{}", i % 10), (i / 10) as i64)
        };
        db.insert(
            name,
            vec![
                Value::int(i as i64),
                Value::str(dest),
                Value::int(day),
                Value::str(format!("src{}", i % 5)),
                Value::str(format!("air{}", i % 3)),
            ],
        )?;
    }
    Ok(())
}

/// Create a Slashdot-scale activity table `name(id, topic, day)` and
/// return the topic-pool size `k = ⌈√rows⌉`.
///
/// Row `i` is `(i, "g{i % k}", i / k)`: both the topic pool and the day
/// range have ≈√rows values, so any *single-column* equality bucket
/// holds ≈√rows rows while the *(topic, day)* pair pins exactly one row.
/// That makes the table the storage stress case: per-probe work would
/// grow with √N on a single-column walk and stays flat because the
/// row store intersects the (topic, day) posting lists. Topic strings are interned
/// once per pool entry, so a 10⁶-row build clones `Value`s instead of
/// formatting a million strings.
pub fn activity_pool(db: &mut Database, name: &str, rows: usize) -> Result<usize, DbError> {
    db.create_table(name, &["id", "topic", "day"])?;
    let k = activity_topic_count(rows);
    let topics: Vec<Value> = (0..k).map(|t| Value::str(format!("g{t}"))).collect();
    for i in 0..rows {
        db.insert(
            name,
            vec![
                Value::int(i as i64),
                topics[i % k].clone(),
                Value::int((i / k) as i64),
            ],
        )?;
    }
    Ok(k)
}

/// Topic-pool size used by [`activity_pool`]: `⌈√rows⌉` (minimum 1).
pub fn activity_topic_count(rows: usize) -> usize {
    ((rows as f64).sqrt().ceil() as usize).max(1)
}

/// Create `Hotels(hotelId, location)`.
pub fn hotels(db: &mut Database, rows: &[(i64, &str)]) -> Result<(), DbError> {
    db.create_table("Hotels", &["hotelId", "location"])?;
    for &(id, loc) in rows {
        db.insert("Hotels", vec![Value::int(id), Value::str(loc)])?;
    }
    Ok(())
}

/// Create the movies-example cinemas table `M(movie_id, cinema, movie)`
/// (Section 5): Hugo plays at Regal, AMC and Cinemark; Contagion at
/// Regal; Project X at AMC.
pub fn cinemas_example(db: &mut Database) -> Result<(), DbError> {
    db.create_table("M", &["movie_id", "cinema", "movie"])?;
    let rows = [
        (1, "Regal", "Contagion"),
        (2, "Regal", "Hugo"),
        (3, "AMC", "Project X"),
        (4, "AMC", "Hugo"),
        (5, "Cinemark", "Hugo"),
    ];
    for (id, cinema, movie) in rows {
        db.insert(
            "M",
            vec![Value::int(id), Value::str(cinema), Value::str(movie)],
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flights_simple_schema() {
        let mut db = Database::new();
        flights_simple(&mut db, &[(101, "Zurich")]).unwrap();
        let t = db.table_named("Flights").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.schema().attr_index("destination"), Some(1));
    }

    #[test]
    fn coordination_flights_unique_pairs() {
        let mut db = Database::new();
        flights_coordination(&mut db, "Fl", 200, true).unwrap();
        let t = db.table_named("Fl").unwrap();
        assert_eq!(t.len(), 200);
        // Unique (dest, day): projecting both gives 200 distinct values.
        let pairs = t.distinct_project(&[1, 2], &[]);
        assert_eq!(pairs.len(), 200);
    }

    #[test]
    fn coordination_flights_cycled_pairs() {
        let mut db = Database::new();
        flights_coordination(&mut db, "Fl", 100, false).unwrap();
        let t = db.table_named("Fl").unwrap();
        let pairs = t.distinct_project(&[1, 2], &[]);
        // 10 destinations × 10 days = 100 combinations for 100 rows, but
        // each (dest, day) appears exactly once here by construction
        // (i%10, i/10 is a bijection on 0..100).
        assert_eq!(pairs.len(), 100);
        // The destination pool is small, though:
        assert_eq!(t.distinct_count(1), 10);
    }

    #[test]
    fn cinemas_match_the_paper() {
        let mut db = Database::new();
        cinemas_example(&mut db).unwrap();
        let t = db.table_named("M").unwrap();
        assert_eq!(t.len(), 5);
        let hugo_rows = t.distinct_project(&[1], &[(2, Value::str("Hugo"))]);
        assert_eq!(hugo_rows.len(), 3);
    }

    #[test]
    fn activity_pool_buckets_are_square_root_sized() {
        let mut db = Database::new();
        let rows = 400;
        let k = activity_pool(&mut db, "A", rows).unwrap();
        assert_eq!(k, 20);
        let t = db.table_named("A").unwrap();
        assert_eq!(t.len(), rows);
        // √N topics, √N days, and each (topic, day) pair is unique.
        assert_eq!(t.distinct_count(1), k);
        assert_eq!(t.distinct_count(2), rows / k);
        assert_eq!(t.lookup(1, &Value::str("g3")).len(), rows / k);
        assert_eq!(
            t.distinct_project(&[0], &[(1, Value::str("g3")), (2, Value::int(0))])
                .len(),
            1
        );
    }
}
