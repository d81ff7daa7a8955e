//! End-to-end regression tests pinning the paper's worked examples.

use social_coordination::core::consistent::{
    ConsistentConfig, ConsistentCoordinator, ConsistentQuery,
};
use social_coordination::core::engine::CoordinationEngine;
use social_coordination::core::graphs::{is_safe, is_unique};
use social_coordination::core::gupta::gupta_coordinate;
use social_coordination::core::scc::SccCoordinator;
use social_coordination::core::{check_coordinating_set, QueryBuilder, QuerySet};
use social_coordination::db::{Database, Value};
use social_coordination::gen::tables;

/// Section 2.1: Gwyneth & Chris to Zurich.
#[test]
fn gwyneth_and_chris_fly_together() {
    let mut db = Database::new();
    tables::flights_simple(&mut db, &[(101, "Zurich"), (102, "Paris")]).unwrap();

    let q1 = QueryBuilder::new("q1")
        .postcondition("R", |a| a.constant("Chris").var("x"))
        .head("R", |a| a.constant("Gwyneth").var("x"))
        .body("Flights", |a| a.var("x").constant("Zurich"))
        .build()
        .unwrap();
    let q2 = QueryBuilder::new("q2")
        .head("R", |a| a.constant("Chris").var("y"))
        .body("Flights", |a| a.var("y").constant("Zurich"))
        .build()
        .unwrap();

    let out = SccCoordinator::new(&db)
        .run(&[q1.clone(), q2.clone()])
        .unwrap();
    let best = out.best().unwrap();
    assert_eq!(best.queries.len(), 2);
    // Both get flight 101 — the choose-1 semantics picks one flight even
    // if several exist.
    let qs = QuerySet::new(vec![q1, q2]);
    check_coordinating_set(&db, &qs, &best.queries, &best.grounding).unwrap();
    let g0 = out
        .qs
        .global_var(best.queries[0], social_coordination::db::Var(0));
    let g1 = out
        .qs
        .global_var(best.queries[1], social_coordination::db::Var(0));
    assert_eq!(best.grounding.get(g0), best.grounding.get(g1));
}

/// Example 1: the Coldplay band's queries are safe+unique; Gwyneth's
/// arrival preserves safety but destroys uniqueness, moving the instance
/// out of the Gupta et al. fragment — and the SCC algorithm still solves
/// it.
#[test]
fn example_1_gwyneth_breaks_uniqueness_but_scc_copes() {
    let mut db = Database::new();
    tables::flights_simple(&mut db, &[(7, "Zurich")]).unwrap();

    let band: Vec<_> = [("chris", "guy"), ("guy", "chris")]
        .iter()
        .map(|(me, partner)| {
            QueryBuilder::new(*me)
                .postcondition("R", |a| a.constant(*partner).var("x"))
                .head("R", |a| a.constant(*me).var("x"))
                .body("Flights", |a| a.var("x").constant("Zurich"))
                .build()
                .unwrap()
        })
        .collect();

    let qs = QuerySet::new(band.clone());
    assert!(is_safe(&qs) && is_unique(&qs));
    assert!(gupta_coordinate(&db, &band).unwrap().is_some());

    let mut with_gwyneth = band.clone();
    with_gwyneth.push(
        QueryBuilder::new("gwyneth")
            .postcondition("R", |a| a.constant("chris").var("z"))
            .head("R", |a| a.constant("gwyneth").var("z"))
            .body("Flights", |a| a.var("z").constant("Zurich"))
            .build()
            .unwrap(),
    );
    let qs3 = QuerySet::new(with_gwyneth.clone());
    assert!(is_safe(&qs3));
    assert!(!is_unique(&qs3));
    // Baseline refuses; SCC algorithm finds everyone a flight.
    assert!(gupta_coordinate(&db, &with_gwyneth).is_err());
    let out = SccCoordinator::new(&db).run(&with_gwyneth).unwrap();
    assert_eq!(out.best().unwrap().queries.len(), 3);
}

/// Section 2.2/4: the flight-hotel example. The best coordinating set is
/// {qC, qG} (Paris has both flight and hotel; Jonny/Will's demands clash).
#[test]
fn flight_hotel_example_resolves_to_chris_and_guy() {
    let mut db = Database::new();
    db.create_table("F", &["id", "dest"]).unwrap();
    db.create_table("H", &["id", "loc"]).unwrap();
    for (id, d) in [(1, "Paris"), (2, "Athens"), (3, "Madrid")] {
        db.insert("F", vec![Value::int(id), Value::str(d)]).unwrap();
    }
    for (id, l) in [(10, "Paris"), (11, "Athens")] {
        db.insert("H", vec![Value::int(id), Value::str(l)]).unwrap();
    }

    let qc = QueryBuilder::new("qC")
        .postcondition("R", |a| a.constant("G").var("x1"))
        .head("R", |a| a.constant("C").var("x1"))
        .head("Q", |a| a.constant("C").var("x2"))
        .body("F", |a| a.var("x1").var("x"))
        .body("H", |a| a.var("x2").var("x"))
        .build()
        .unwrap();
    let qg = QueryBuilder::new("qG")
        .postcondition("R", |a| a.constant("C").var("y1"))
        .postcondition("Q", |a| a.constant("C").var("y2"))
        .head("R", |a| a.constant("G").var("y1"))
        .head("Q", |a| a.constant("G").var("y2"))
        .body("F", |a| a.var("y1").constant("Paris"))
        .body("H", |a| a.var("y2").constant("Paris"))
        .build()
        .unwrap();
    let qj = QueryBuilder::new("qJ")
        .postcondition("R", |a| a.constant("C").var("z1"))
        .postcondition("R", |a| a.constant("G").var("z1"))
        .head("R", |a| a.constant("J").var("z1"))
        .head("Q", |a| a.constant("J").var("z2"))
        .body("F", |a| a.var("z1").constant("Athens"))
        .body("H", |a| a.var("z2").constant("Athens"))
        .build()
        .unwrap();
    let qw = QueryBuilder::new("qW")
        .postcondition("R", |a| a.constant("C").var("w1"))
        .postcondition("Q", |a| a.constant("J").var("w2"))
        .head("R", |a| a.constant("W").var("w1"))
        .head("Q", |a| a.constant("W").var("w2"))
        .body("F", |a| a.var("w1").constant("Madrid"))
        .body("H", |a| a.var("w2").constant("Madrid"))
        .build()
        .unwrap();

    let queries = vec![qc, qg, qj, qw];
    let out = SccCoordinator::new(&db).run(&queries).unwrap();
    assert_eq!(out.best_names(), vec!["qC", "qG"]);
    // Chris and Guy share flight 1 and hotel 10.
    let best = out.best().unwrap();
    check_coordinating_set(&db, &out.qs, &best.queries, &best.grounding).unwrap();

    // Cross-check against exhaustive search: {qC, qG} is also the true
    // maximum coordinating set of this instance.
    let bf = social_coordination::core::bruteforce::max_coordinating_set(&db, &queries).unwrap();
    assert_eq!(bf.best.unwrap().len(), 2);
}

/// Section 5: the movies example — Cinemark cleans to nothing, Regal and
/// AMC both sustain three members.
#[test]
fn movies_example_cleaning_walkthrough() {
    let mut db = Database::new();
    tables::cinemas_example(&mut db).unwrap();
    db.create_table("C", &["user", "friend"]).unwrap();
    for (u, f) in [
        ("Chris", "Jonny"),
        ("Chris", "Guy"),
        ("Guy", "Chris"),
        ("Guy", "Jonny"),
        ("Jonny", "Chris"),
        ("Jonny", "Will"),
        ("Will", "Chris"),
        ("Will", "Guy"),
    ] {
        db.insert("C", vec![Value::str(u), Value::str(f)]).unwrap();
    }
    let config = ConsistentConfig::new("M", "movie_id", &["cinema"], &["movie"], "C");
    let queries = vec![
        ConsistentQuery::for_user("Chris", 1, 1)
            .with_named_partner("Will")
            .coord_const(0, "Regal")
            .personal_const(0, "Contagion"),
        ConsistentQuery::for_user("Guy", 1, 1)
            .with_any_friend()
            .coord_const(0, "AMC")
            .personal_const(0, "Project X"),
        ConsistentQuery::for_user("Jonny", 1, 1)
            .with_any_friend()
            .personal_const(0, "Hugo"),
        ConsistentQuery::for_user("Will", 1, 1)
            .with_any_friend()
            .personal_const(0, "Hugo"),
    ];
    let coordinator = ConsistentCoordinator::new(&db, config).unwrap();
    let out = coordinator.run(&queries).unwrap();

    let size = |name: &str| {
        out.per_value
            .iter()
            .find(|(v, _)| v[0].as_str() == Some(name))
            .map(|(_, s)| *s)
            .unwrap()
    };
    assert_eq!(size("Cinemark"), 0);
    assert_eq!(size("Regal"), 3);
    assert_eq!(size("AMC"), 3);
    assert_eq!(out.best.unwrap().members.len(), 3);
}

/// The consistent-query entangled encoding round-trips through the
/// general machinery: running brute force on `to_entangled()` versions
/// agrees with the Consistent Coordination Algorithm on existence.
#[test]
fn movies_example_agrees_with_entangled_encoding() {
    let mut db = Database::new();
    tables::cinemas_example(&mut db).unwrap();
    db.create_table("C", &["user", "friend"]).unwrap();
    for (u, f) in [("Jonny", "Will"), ("Will", "Jonny")] {
        db.insert("C", vec![Value::str(u), Value::str(f)]).unwrap();
    }
    let config = ConsistentConfig::new("M", "movie_id", &["cinema"], &["movie"], "C");
    let queries = vec![
        ConsistentQuery::for_user("Jonny", 1, 1)
            .with_any_friend()
            .personal_const(0, "Hugo"),
        ConsistentQuery::for_user("Will", 1, 1)
            .with_any_friend()
            .personal_const(0, "Hugo"),
    ];

    let coordinator = ConsistentCoordinator::new(&db, config.clone()).unwrap();
    let out = coordinator.run(&queries).unwrap();
    assert!(out.best.is_some());

    let entangled: Vec<_> = queries
        .iter()
        .map(|q| q.to_entangled(&config, &db).unwrap())
        .collect();
    let bf = social_coordination::core::bruteforce::any_coordinating_set(&db, &entangled).unwrap();
    assert!(bf.best.is_some());
}

/// The engine replays the Gwyneth/Chris story in arrival order.
#[test]
fn online_engine_coordinates_on_arrival() {
    let mut db = Database::new();
    tables::flights_simple(&mut db, &[(101, "Zurich")]).unwrap();
    let mut engine = CoordinationEngine::new(&db);

    let gwyneth = QueryBuilder::new("gwyneth")
        .postcondition("R", |a| a.constant("Chris").var("x"))
        .head("R", |a| a.constant("Gwyneth").var("x"))
        .body("Flights", |a| a.var("x").constant("Zurich"))
        .build()
        .unwrap();
    let chris = QueryBuilder::new("chris")
        .head("R", |a| a.constant("Chris").var("y"))
        .body("Flights", |a| a.var("y").constant("Zurich"))
        .build()
        .unwrap();

    assert!(!engine.submit(gwyneth).unwrap().coordinated());
    let r = engine.submit(chris).unwrap();
    assert_eq!(r.answers.len(), 2);
    assert!(engine.pending().is_empty());
}

/// Section 4's components-graph example submitted online: q3+q4 → q1+q2
/// ← q5+q6. The engine delivers the selector's best closure `R(q)` — not
/// the union of all six, which the paper's algorithm never checks — and
/// delivers the same set whether or not a stuck stranger shares the
/// component.
#[test]
fn online_answer_does_not_depend_on_component_size() {
    let mut db = Database::new();
    db.create_table("T", &["id"]).unwrap();
    db.insert("T", vec![Value::int(1)]).unwrap();
    let pair = |i: usize, j: usize, dep: Option<usize>| {
        let mut a = QueryBuilder::new(format!("q{i}"))
            .postcondition("R", |x| x.constant(format!("u{j}")).var("v"))
            .head("R", |x| x.constant(format!("u{i}")).var("v"))
            .body("T", |x| x.var("v"));
        if let Some(d) = dep {
            a = a.postcondition("R", |x| x.constant(format!("u{d}")).var("v"));
        }
        let b = QueryBuilder::new(format!("q{j}"))
            .postcondition("R", |x| x.constant(format!("u{i}")).var("w"))
            .head("R", |x| x.constant(format!("u{j}")).var("w"))
            .body("T", |x| x.var("w"))
            .build()
            .unwrap();
        (a.build().unwrap(), b)
    };
    let (q1, q2) = pair(1, 2, None);
    let (q3, q4) = pair(3, 4, Some(1));
    let (q5, q6) = pair(5, 6, Some(1));
    // Waits on u1 like q3 and q5, and on a u99 who never arrives.
    let q7 = QueryBuilder::new("q7")
        .postcondition("R", |x| x.constant("u1").var("s"))
        .postcondition("R", |x| x.constant("u99").var("s"))
        .head("R", |x| x.constant("u7").var("s"))
        .body("T", |x| x.var("s"))
        .build()
        .unwrap();

    let six = [q1, q2, q3, q4, q5, q6];
    let batch = SccCoordinator::new(&db).run(&six).unwrap();
    let mut expected = batch.best_names();
    expected.sort_unstable();
    assert_eq!(expected, vec!["q1", "q2", "q3", "q4"]);

    // q3, q4, q5, q6, q2, q1: nothing can coordinate before q1 arrives.
    let arrivals = [2, 3, 4, 5, 1, 0].map(|i| six[i].clone());
    for stranger in [None, Some(q7)] {
        let mut engine = CoordinationEngine::new(&db);
        let with_stranger = stranger.is_some();
        let mut delivered = Vec::new();
        for q in stranger.into_iter().chain(arrivals.iter().cloned()) {
            let answers = engine.submit(q).unwrap().answers;
            delivered.extend(answers.into_iter().map(|a| a.query));
        }
        delivered.sort_unstable();
        assert_eq!(delivered, expected, "with the stuck q7: {with_stranger}");
    }
}
