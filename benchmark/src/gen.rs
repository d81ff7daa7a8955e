//! Self-contained input generators. Everything a workload feeds the
//! program — query text, table rows, batch instances — is produced here
//! from the `--seed` argument by a splitmix64 stream. Nothing in this
//! file touches the program under test (no `coord-gen`, no `coord_*`
//! import), so a later change to the repo's own generators cannot alter
//! the load this benchmark applies.

use std::fmt::Write as _;

/// splitmix64: the whole benchmark's only source of randomness.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻³² for
    /// every `n` used here).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// An independent stream for a labelled sub-generator, so adding a
    /// draw in one place never shifts the inputs of another.
    pub fn fork(&self, label: u64) -> Rng {
        let mut r = Rng(self.0 ^ label.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One table cell, as plain data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cell<'a> {
    Int(i64),
    Str(&'a str),
}

/// Rows of the paper's tuple-pool table (82 168 rows, the Slashdot
/// table size of Section 6).
pub const POOL_ROWS: usize = 82_168;

/// `S(id, tag)`: row `i` is `(i, "t{i}")`, so a body `S(x, "t{i}")`
/// selects exactly one tuple.
pub fn pool_rows(rows: usize, mut emit: impl FnMut(&[Cell<'_>])) {
    let mut tag = String::new();
    for i in 0..rows {
        tag.clear();
        write!(tag, "t{i}").expect("write to String");
        emit(&[Cell::Int(i as i64), Cell::Str(&tag)]);
    }
}

/// `A(id, topic, day)` with `k = ⌈√rows⌉` topics: row `i` is
/// `(i, "g{i % k}", i / k)`. Every single-column bucket (one topic, or
/// one day) holds ≈ √rows rows, and a `(topic, day)` pair selects one.
pub fn activity_rows(rows: usize, mut emit: impl FnMut(&[Cell<'_>])) {
    let k = activity_topics(rows);
    let topics: Vec<String> = (0..k).map(|t| format!("g{t}")).collect();
    for i in 0..rows {
        emit(&[
            Cell::Int(i as i64),
            Cell::Str(&topics[i % k]),
            Cell::Int((i / k) as i64),
        ]);
    }
}

pub fn activity_topics(rows: usize) -> usize {
    let mut k = (rows as f64).sqrt() as usize;
    while k * k < rows {
        k += 1;
    }
    k.max(1)
}

/// Which table a query body selects from, and the value it must bind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Body {
    /// `S(x, "t{id % rows}")` over [`pool_rows`]; binds `x = id % rows`.
    Pool { rows: usize },
    /// `A(x, "g{t}", last_day)` over [`activity_rows`], `t = id % k`:
    /// the *last* row of topic `t`'s bucket, so a single-column scan of
    /// either bucket walks ≈ √rows rows before it matches.
    Activity { rows: usize },
}

impl Body {
    /// The row id the body's `x` must be bound to for user `id`.
    pub fn expected_x(self, id: u64) -> i64 {
        match self {
            Body::Pool { rows } => (id % rows as u64) as i64,
            Body::Activity { rows } => {
                let k = activity_topics(rows) as u64;
                let last_day = (rows as u64 - 1) / k;
                let t = id % k;
                // Topics past the end of a ragged last day fall back one.
                let day = if last_day * k + t < rows as u64 {
                    last_day
                } else {
                    last_day - 1
                };
                (day * k + t) as i64
            }
        }
    }

    fn write(self, id: u64, out: &mut String) {
        match self {
            Body::Pool { rows } => {
                write!(out, "S(x, \"t{}\")", id % rows as u64).expect("write to String");
            }
            Body::Activity { rows } => {
                let k = activity_topics(rows) as u64;
                let r = self.expected_x(id) as u64;
                write!(out, "A(x, \"g{}\", {})", r % k, r / k).expect("write to String");
            }
        }
    }
}

/// The partner query of user `id` in the paper's syntax:
///
/// ```text
/// q{id}: {R("u{p}", y{p}), …} R("u{id}", x) :- <body>
/// ```
///
/// String constants are quoted: the program's `Display` prints them
/// bare, and a bare lower-case identifier parses back as a variable.
pub fn partner_text(id: u64, partners: &[u64], body: Body) -> String {
    let mut s = String::with_capacity(64 + 24 * partners.len());
    write!(s, "q{id}: {{").expect("write to String");
    for (i, p) in partners.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        write!(s, "R(\"u{p}\", y{p})").expect("write to String");
    }
    write!(s, "}} R(\"u{id}\", x) :- ").expect("write to String");
    body.write(id, &mut s);
    s
}

/// A partner query whose postconditions *contend* on the head variable
/// (`R("u{p}", x)` instead of a fresh `y{p}`): a cycle of these unifies
/// every member's `x`, so its combined body asks for one pool tuple with
/// several distinct tags and can never be grounded.
pub fn contending_text(id: u64, partners: &[u64], body: Body) -> String {
    let mut s = String::with_capacity(96);
    write!(s, "c{id}: {{").expect("write to String");
    for (i, p) in partners.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        write!(s, "R(\"u{p}\", x)").expect("write to String");
    }
    write!(s, "}} R(\"u{id}\", x) :- ").expect("write to String");
    body.write(id, &mut s);
    s
}

/// Successor lists of a Barabási–Albert digraph on `n` nodes with `m`
/// attachments per new node (edges point from the new node to earlier,
/// preferentially chosen ones).
pub fn barabasi_albert(n: usize, m: usize, rng: &mut Rng) -> Vec<Vec<usize>> {
    assert!(m >= 1, "attachment count must be positive");
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    let seed = m.min(n);
    let mut pool: Vec<usize> = (0..seed).collect();
    for (v, out) in succ.iter_mut().enumerate().skip(seed) {
        let mut targets: Vec<usize> = Vec::with_capacity(m);
        while targets.len() < m.min(v) {
            let candidate = pool[rng.below(pool.len())];
            if !targets.contains(&candidate) {
                targets.push(candidate);
            }
        }
        for &t in &targets {
            pool.push(t);
        }
        pool.push(v);
        *out = targets;
    }
    succ
}

/// Queries per group: 15 members plus the keystone.
pub const GROUP: usize = 16;
const MEMBERS: usize = GROUP - 1;

/// Local partner lists of one group. Member `i < 15` requires its
/// BA(15, 2) successors plus the ring edge `i → i+1 mod 15`, so the 15
/// members form one strongly connected component; member 0 also requires
/// the keystone (local index 15), which requires nobody. Every member's
/// closure therefore contains the keystone, nothing can coordinate
/// before it arrives, and the whole group retires when it does.
pub fn group_partners(rng: &mut Rng) -> Vec<Vec<usize>> {
    let mut partners = barabasi_albert(MEMBERS, 2, rng);
    for (i, p) in partners.iter_mut().enumerate() {
        p.push((i + 1) % MEMBERS);
        if i == 0 {
            p.push(MEMBERS);
        }
        p.sort_unstable();
        p.dedup();
    }
    partners.push(Vec::new());
    partners
}

/// What one arrival is, for the oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A group member that must stay pending.
    Member,
    /// The group's keystone: the submit that delivers all 16 answers.
    Keystone,
    /// A member of an unsatisfiable contending cycle (stays pending).
    Cycle,
    /// A query requiring a cycle member (stays pending, never grounds).
    Spoke,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Meta {
    pub kind: Kind,
    /// Group id for members and keystones, cycle id for the rest.
    pub group: u64,
}

/// Arrivals in submit order: `texts[i]` is what the driver parses and
/// submits, `meta[i]` what the oracle expects of it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Arrivals {
    pub texts: Vec<String>,
    pub meta: Vec<Meta>,
}

impl Arrivals {
    pub fn len(&self) -> usize {
        self.texts.len()
    }

    fn push(&mut self, text: String, kind: Kind, group: u64) {
        self.texts.push(text);
        self.meta.push(Meta { kind, group });
    }

    pub fn extend(&mut self, other: Arrivals) {
        self.texts.extend(other.texts);
        self.meta.extend(other.meta);
    }
}

/// First user id of the contending cycles and of the spokes — far above
/// any group id a run can reach, so the three id spaces never collide.
const CYCLE_BASE: u64 = 1 << 40;
const SPOKE_BASE: u64 = 1 << 41;
/// Members per unsatisfiable cycle (above the engine's small-component
/// cutoff of 6, so the SCC path — and its memo — evaluates it).
pub const CYCLE_LEN: u64 = 7;
/// Spokes a cycle may collect: bounds the cycle's component at 15
/// queries, the size of a group.
pub const SPOKES_PER_CYCLE: u64 = 8;

struct OpenGroup {
    id: u64,
    partners: Vec<Vec<usize>>,
    next: usize,
}

/// Traffic description of one closed- or open-loop client.
#[derive(Clone, Copy, Debug)]
pub struct Traffic {
    /// Open groups in this client's rolling window.
    pub window: usize,
    /// This client's index and the number of clients: it owns the groups
    /// with `id % clients == client`, so clients never share a component.
    pub client: u64,
    pub clients: u64,
    /// Unsatisfiable cycles pre-loaded in warm-up; one arrival in 32 is
    /// a spoke onto one of them while any has room. 0 disables spokes.
    pub cycles: u64,
    pub body: Body,
}

/// The rolling window: `window` groups are open at any time; each
/// arrival is the next member of a uniformly chosen open group, and a
/// group that has emitted its keystone is replaced by a fresh one. The
/// pending set therefore stays near 7.5 × window for as long as the
/// stream runs, instead of growing with it.
pub struct Stream {
    traffic: Traffic,
    rng: Rng,
    seed_rng: Rng,
    open: Vec<OpenGroup>,
    next_group: u64,
    spokes_sent: u64,
}

impl Stream {
    pub fn new(seed: u64, traffic: Traffic) -> Self {
        let seed_rng = Rng::new(seed).fork(0x5EED ^ traffic.client);
        Stream {
            traffic,
            rng: seed_rng.fork(1),
            seed_rng,
            open: Vec::new(),
            next_group: traffic.client,
            spokes_sent: 0,
        }
    }

    fn fresh_group(&mut self) -> OpenGroup {
        let id = self.next_group;
        self.next_group += self.traffic.clients;
        // Each group's shape depends on (seed, group id) only.
        let mut rng = self.seed_rng.fork(id.wrapping_add(2));
        OpenGroup {
            id,
            partners: group_partners(&mut rng),
            next: 0,
        }
    }

    fn emit_next(&mut self, slot: usize, out: &mut Arrivals) {
        let g = &mut self.open[slot];
        let base = g.id * GROUP as u64;
        let partners: Vec<u64> = g.partners[g.next]
            .iter()
            .map(|&p| base + p as u64)
            .collect();
        let kind = if g.next == MEMBERS {
            Kind::Keystone
        } else {
            Kind::Member
        };
        out.push(
            partner_text(base + g.next as u64, &partners, self.traffic.body),
            kind,
            g.id,
        );
        g.next += 1;
        if g.next == GROUP {
            self.open[slot] = self.fresh_group();
        }
    }

    /// The untimed warm-up. Opens the window in its steady state — every
    /// open group at a uniformly drawn progress, its members emitted in
    /// a shuffled interleaving — and pre-loads the unsatisfiable cycles.
    /// Nothing in it delivers.
    pub fn warm_up(&mut self) -> Arrivals {
        let mut out = Arrivals::default();
        for c in 0..self.traffic.cycles {
            let base = CYCLE_BASE + c * (CYCLE_LEN + 1);
            for j in 0..CYCLE_LEN {
                let next = base + (j + 1) % CYCLE_LEN;
                out.push(
                    contending_text(base + j, &[next], self.traffic.body),
                    Kind::Cycle,
                    c,
                );
            }
        }
        let mut order: Vec<usize> = Vec::new();
        for slot in 0..self.traffic.window {
            let g = self.fresh_group();
            self.open.push(g);
            // Progress 0..=15: a group that already emitted 15 members
            // waits only for its keystone.
            let progress = self.rng.below(GROUP);
            order.extend(std::iter::repeat_n(slot, progress));
        }
        self.rng.shuffle(&mut order);
        for slot in order {
            self.emit_next(slot, &mut out);
        }
        out
    }

    /// The next `n` timed arrivals.
    pub fn take(&mut self, n: usize) -> Arrivals {
        let mut out = Arrivals::default();
        let spoke_room = self.traffic.cycles * SPOKES_PER_CYCLE;
        for _ in 0..n {
            if self.traffic.cycles > 0 && self.spokes_sent < spoke_room && self.rng.below(32) == 0 {
                let cycle = self.spokes_sent % self.traffic.cycles;
                let target = CYCLE_BASE + cycle * (CYCLE_LEN + 1);
                out.push(
                    partner_text(SPOKE_BASE + self.spokes_sent, &[target], self.traffic.body),
                    Kind::Spoke,
                    cycle,
                );
                self.spokes_sent += 1;
            } else {
                let slot = self.rng.below(self.open.len());
                self.emit_next(slot, &mut out);
            }
        }
        out
    }
}

/// The `batch-scc` instance: a list chain (Figure 4: each query requires
/// the next, the last nobody) and a BA(n, 2) scale-free set (Figure 5),
/// both over the pool table. The seed places the chain's ids (and hence
/// its tags) and draws the scale-free graph.
pub struct SccBatch {
    pub list: Vec<String>,
    pub scale_free: Vec<String>,
}

pub fn scc_batch(seed: u64, list_len: usize, sf_len: usize) -> SccBatch {
    let mut rng = Rng::new(seed).fork(0x5CC);
    let body = Body::Pool { rows: POOL_ROWS };
    let base = rng.below(POOL_ROWS - list_len) as u64;
    let list = (0..list_len as u64)
        .map(|i| {
            let partners: Vec<u64> = if i + 1 < list_len as u64 {
                vec![base + i + 1]
            } else {
                Vec::new()
            };
            partner_text(base + i, &partners, body)
        })
        .collect();
    let sf_base = rng.below(POOL_ROWS - sf_len) as u64;
    let graph = barabasi_albert(sf_len, 2, &mut rng);
    let scale_free = graph
        .iter()
        .enumerate()
        .map(|(i, succ)| {
            let mut partners: Vec<u64> = succ.iter().map(|&p| sf_base + p as u64).collect();
            partners.sort_unstable();
            partner_text(sf_base + i as u64, &partners, body)
        })
        .collect();
    SccBatch { list, scale_free }
}

/// Sources a flight row can leave from (`source = "src{i % 5}"`).
pub const SOURCES: usize = 5;

/// The `batch-consistent` instance (Figure 7's worst case): `users`
/// queries that accept any friend as partner over a complete friendship
/// graph, and `values` flights with pairwise distinct
/// (destination, day). The seed picks which 30 % of the users pin their
/// own flight's source, and to what.
pub struct ConsistentBatch {
    pub users: usize,
    pub values: usize,
    /// `pins[u]` is the source index user `u` insists on, if any.
    pub pins: Vec<Option<usize>>,
}

pub fn consistent_batch(seed: u64, users: usize, values: usize) -> ConsistentBatch {
    let mut rng = Rng::new(seed).fork(0xC0A5);
    let mut who: Vec<usize> = (0..users).collect();
    rng.shuffle(&mut who);
    let mut pins = vec![None; users];
    for &u in &who[..users * 3 / 10] {
        pins[u] = Some(rng.below(SOURCES));
    }
    ConsistentBatch {
        users,
        values,
        pins,
    }
}

impl ConsistentBatch {
    /// `Fl(flightId, destination, day, source, airline)`.
    pub fn flight_rows(&self, mut emit: impl FnMut(&[Cell<'_>])) {
        for i in 0..self.values {
            let dest = format!("city{i}");
            let src = format!("src{}", i % SOURCES);
            let air = format!("air{}", i % 3);
            emit(&[
                Cell::Int(i as i64),
                Cell::Str(&dest),
                Cell::Int(i as i64),
                Cell::Str(&src),
                Cell::Str(&air),
            ]);
        }
    }

    /// `Fr(user, friend)`: everyone is everyone else's friend.
    pub fn friend_rows(&self, mut emit: impl FnMut(&[Cell<'_>])) {
        let names: Vec<String> = (0..self.users).map(user_name).collect();
        for u in 0..self.users {
            for v in 0..self.users {
                if u != v {
                    emit(&[Cell::Str(&names[u]), Cell::Str(&names[v])]);
                }
            }
        }
    }

    /// Size of the largest coordinating set, from the instance alone: at
    /// a flight leaving `src{s}` every unpinned user survives plus those
    /// pinned to `s`.
    pub fn expected_best(&self) -> usize {
        let unpinned = self.pins.iter().filter(|p| p.is_none()).count();
        let most = (0..SOURCES)
            .map(|s| self.pins.iter().filter(|p| **p == Some(s)).count())
            .max()
            .unwrap_or(0);
        unpinned + most
    }
}

pub fn user_name(u: usize) -> String {
    format!("u{u}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traffic() -> Traffic {
        Traffic {
            window: 32,
            client: 0,
            clients: 1,
            cycles: 4,
            body: Body::Pool { rows: POOL_ROWS },
        }
    }

    fn stream_bytes(seed: u64) -> Vec<u8> {
        let mut s = Stream::new(seed, traffic());
        let mut all = s.warm_up();
        all.extend(s.take(2000));
        all.texts.join("\n").into_bytes()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(stream_bytes(7), stream_bytes(7));
        assert_ne!(stream_bytes(7), stream_bytes(8));
        let (a, b, c) = (
            scc_batch(3, 50, 200),
            scc_batch(3, 50, 200),
            scc_batch(4, 50, 200),
        );
        assert_eq!(a.list, b.list);
        assert_eq!(a.scale_free, b.scale_free);
        assert_ne!(a.scale_free, c.scale_free);
        assert_eq!(
            consistent_batch(5, 100, 10).pins,
            consistent_batch(5, 100, 10).pins
        );
        assert_ne!(
            consistent_batch(5, 100, 10).pins,
            consistent_batch(6, 100, 10).pins
        );
    }

    #[test]
    fn tables_are_seed_independent_and_well_shaped() {
        let mut n = 0;
        pool_rows(100, |row| {
            assert_eq!(row[0], Cell::Int(n));
            n += 1;
        });
        assert_eq!(n, 100);
        assert_eq!(activity_topics(1_000_000), 1000);
        assert_eq!(activity_topics(10), 4);
        let mut last = Vec::new();
        activity_rows(10, |row| last = vec![format!("{row:?}")]);
        assert_eq!(last, vec![r#"[Int(9), Str("g1"), Int(2)]"#.to_string()]);
    }

    #[test]
    fn activity_body_names_the_last_row_of_its_topic() {
        let body = Body::Activity { rows: 1_000_000 };
        assert_eq!(body.expected_x(1234), 999_234);
        let text = partner_text(1234, &[], body);
        assert!(text.ends_with(r#"A(x, "g234", 999)"#), "{text}");
        // Ragged last day: 10 rows, 4 topics, rows 8 and 9 are day 2.
        let ragged = Body::Activity { rows: 10 };
        assert_eq!(ragged.expected_x(1), 9);
        assert_eq!(ragged.expected_x(2), 6);
    }

    #[test]
    fn every_group_is_one_component_behind_its_keystone() {
        let mut rng = Rng::new(11);
        for _ in 0..50 {
            let p = group_partners(&mut rng);
            assert_eq!(p.len(), GROUP);
            assert!(p[MEMBERS].is_empty(), "keystone requires nobody");
            assert!(p[0].contains(&MEMBERS), "member 0 requires the keystone");
            for (i, list) in p.iter().enumerate().take(MEMBERS) {
                assert!(list.contains(&((i + 1) % MEMBERS)), "ring edge of {i}");
                assert!(!list.contains(&i), "no self edge");
                assert!(list.len() <= 4);
            }
        }
    }

    #[test]
    fn window_holds_steady_and_groups_arrive_in_order() {
        let mut s = Stream::new(3, traffic());
        let warm = s.warm_up();
        let cycles = warm.meta.iter().filter(|m| m.kind == Kind::Cycle).count();
        assert_eq!(cycles, 4 * CYCLE_LEN as usize);
        assert!(warm.meta.iter().all(|m| m.kind != Kind::Keystone));
        let timed = s.take(5000);
        let mut progress = std::collections::HashMap::new();
        let mut open = 0i64;
        for m in warm.meta.iter().chain(&timed.meta) {
            match m.kind {
                Kind::Member => {
                    let p = progress.entry(m.group).or_insert(0usize);
                    if *p == 0 {
                        open += 1;
                    }
                    *p += 1;
                    assert!(*p <= MEMBERS);
                }
                Kind::Keystone => {
                    // A group drawn at progress 0 and never picked since
                    // cannot emit its keystone; any other must be full.
                    assert_eq!(progress.get(&m.group), Some(&MEMBERS));
                    open -= 1;
                }
                Kind::Cycle | Kind::Spoke => {}
            }
            assert!(open <= 32);
        }
        let spokes = timed.meta.iter().filter(|m| m.kind == Kind::Spoke).count();
        assert!(spokes > 0 && spokes <= 32, "{spokes} spokes");
    }

    #[test]
    fn clients_own_disjoint_groups() {
        let mut groups = [Vec::new(), Vec::new()];
        for client in 0..2u64 {
            let mut s = Stream::new(
                9,
                Traffic {
                    client,
                    clients: 2,
                    cycles: 0,
                    ..traffic()
                },
            );
            let mut all = s.warm_up();
            all.extend(s.take(500));
            groups[client as usize] = all.meta.iter().map(|m| m.group).collect();
        }
        assert!(groups[0].iter().all(|g| g % 2 == 0));
        assert!(groups[1].iter().all(|g| g % 2 == 1));
    }

    #[test]
    fn consistent_best_counts_the_commonest_pin() {
        let b = ConsistentBatch {
            users: 5,
            values: 10,
            pins: vec![None, Some(1), Some(1), Some(2), None],
        };
        assert_eq!(b.expected_best(), 4);
        let g = consistent_batch(1, 100, 1000);
        assert_eq!(g.pins.iter().filter(|p| p.is_some()).count(), 30);
    }
}
