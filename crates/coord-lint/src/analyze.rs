//! The concurrency-invariant analyzer: a brace/scope tracker over the
//! lexed token stream that models guard liveness and enforces the four
//! rules (see the crate docs for the catalog).
//!
//! ## Model
//!
//! The analysis is **intra-procedural** over a linear token walk, with
//! one level of call-graph propagation through `// lint: acquires(…)`
//! annotations. A guard becomes live at its acquisition site and dies
//! at:
//!
//! * the end of the brace scope holding its `let` binding,
//! * the end of the statement, for an expression temporary
//!   (`self.registry.lock().insert(seq, entry)`),
//! * the closing brace of the `match`/`if let` block it heads
//!   (`match x.try_lock() { … }`), or
//! * an explicit `drop(name)`.
//!
//! Liveness is over-approximated (a `match`-header guard is considered
//! live in every arm, statements are walked without control-flow
//! pruning): the tree must be clean under the over-approximation, which
//! is exactly the property that keeps the discipline auditable.
//!
//! `#[cfg(test)]` modules are skipped: tests exercise the **runtime**
//! lock-rank validator instead (the whole suite runs with the
//! thread-local rank stack armed), so the two oracles split the work —
//! static for production paths, dynamic for everything the tests drive.

use crate::lex::{lex, RawAnnotation, Spanned, Tok};
use crate::ranks::{rank_of_alias, rank_of_receiver, LockRank};
use crate::report::{Finding, Rule};
use std::collections::{HashMap, HashSet};

/// Blocking acquisition methods (create a guard, subject to L1).
const BLOCKING_METHODS: &[&str] = &["lock", "read", "write"];
/// Non-blocking acquisition methods (subject to L4, exempt from L1 as
/// acquirers — a failed `try_*` backs off instead of deadlocking).
const TRY_METHODS: &[&str] = &["try_lock", "try_read", "try_write"];
/// Methods that park the calling thread on a *different* object than
/// the guards it holds (subject to L3).
const WAIT_METHODS: &[&str] = &[
    "wait",
    "wait_while",
    "wait_timeout",
    "wait_timeout_while",
    "recv",
    "recv_timeout",
    "recv_deadline",
];
/// Guard-preserving adapters: `x.lock().unwrap()` still yields the
/// guard, so the chain stays a binding candidate through these.
const GUARD_ADAPTERS: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

/// Function-level facts gathered in the first pass over every file.
#[derive(Default)]
pub struct FnFacts {
    /// fn name → ranks it acquires (from `// lint: acquires(…)`).
    pub acquires: HashMap<String, Vec<LockRank>>,
    /// fn names annotated `// lint: acquires(…) returns-guard`: the
    /// call's result *is* the guard of the first listed rank.
    pub returns_guard: HashSet<String>,
    /// fn names annotated `// lint: scans-slabs`.
    pub scans_slabs: HashSet<String>,
}

/// A parsed `// lint:` annotation.
enum Annotation {
    Acquires {
        ranks: Vec<LockRank>,
        returns_guard: bool,
    },
    ScansSlabs,
    Allow {
        rule: Rule,
        justification: String,
    },
    Backoff,
}

/// Per-line suppression / rationale index for one file.
struct LineAnnotations {
    /// line → (rule, justification).
    allows: HashMap<usize, (Rule, String)>,
    /// Lines carrying `// lint: backoff — …`.
    backoffs: HashSet<usize>,
}

/// How many lines above a site an `allow`/`backoff` annotation still
/// applies (the annotation sits on its own line above the statement,
/// which rustfmt may wrap).
const ANNOTATION_REACH: usize = 3;

impl LineAnnotations {
    fn allow_for(&self, rule: Rule, line: usize) -> Option<&str> {
        (line.saturating_sub(ANNOTATION_REACH)..=line)
            .rev()
            .find_map(|l| {
                self.allows
                    .get(&l)
                    .filter(|(r, _)| *r == rule)
                    .map(|(_, j)| j.as_str())
            })
    }

    fn backoff_near(&self, line: usize) -> bool {
        (line.saturating_sub(ANNOTATION_REACH)..=line).any(|l| self.backoffs.contains(&l))
    }
}

/// Parse one raw annotation body; `None` with a finding for malformed
/// ones (annotations are load-bearing, so typos must not silently
/// disable a rule).
fn parse_annotation(
    raw: &RawAnnotation,
    file: &str,
    findings: &mut Vec<Finding>,
) -> Option<Annotation> {
    let body = raw.body.as_str();
    if let Some(rest) = body.strip_prefix("acquires(") {
        let Some(end) = rest.find(')') else {
            bad(findings, file, raw.line, "unclosed acquires(…)");
            return None;
        };
        let mut ranks = Vec::new();
        for name in rest[..end].split(',') {
            let name = name.trim();
            match rank_of_alias(name) {
                Some(r) => ranks.push(r),
                None => {
                    bad(
                        findings,
                        file,
                        raw.line,
                        &format!("acquires names unknown lock `{name}`"),
                    );
                    return None;
                }
            }
        }
        if ranks.is_empty() {
            bad(findings, file, raw.line, "acquires(…) lists no locks");
            return None;
        }
        let returns_guard = rest[end + 1..].trim() == "returns-guard";
        if !returns_guard && !rest[end + 1..].trim().is_empty() {
            bad(findings, file, raw.line, "trailing text after acquires(…)");
            return None;
        }
        return Some(Annotation::Acquires {
            ranks,
            returns_guard,
        });
    }
    if body == "scans-slabs" {
        return Some(Annotation::ScansSlabs);
    }
    if let Some(rest) = body.strip_prefix("allow(") {
        let Some(end) = rest.find(')') else {
            bad(findings, file, raw.line, "unclosed allow(…)");
            return None;
        };
        let Some(rule) = Rule::from_name(rest[..end].trim()) else {
            bad(
                findings,
                file,
                raw.line,
                &format!("allow names unknown rule `{}`", &rest[..end]),
            );
            return None;
        };
        let justification = strip_dash(&rest[end + 1..]);
        if justification.is_empty() {
            bad(
                findings,
                file,
                raw.line,
                "allow(…) requires a non-empty justification after `—`",
            );
            return None;
        }
        return Some(Annotation::Allow {
            rule,
            justification,
        });
    }
    if let Some(rest) = body.strip_prefix("backoff") {
        let rationale = strip_dash(rest);
        if rationale.is_empty() {
            bad(
                findings,
                file,
                raw.line,
                "backoff requires a non-empty rationale after `—`",
            );
            return None;
        }
        return Some(Annotation::Backoff);
    }
    bad(
        findings,
        file,
        raw.line,
        &format!("unrecognized lint annotation `{body}`"),
    );
    None
}

/// Text after a leading `—`/`-`/`:` separator, trimmed.
fn strip_dash(s: &str) -> String {
    s.trim()
        .trim_start_matches(['—', '-', ':'])
        .trim()
        .to_string()
}

fn bad(findings: &mut Vec<Finding>, file: &str, line: usize, msg: &str) {
    findings.push(Finding {
        rule: Rule::BadAnnotation,
        file: file.to_string(),
        line,
        message: msg.to_string(),
        suppressed: None,
    });
}

/// Pass 1: collect fn-level annotations from one file (cross-file
/// facts: an annotation on `IncrementalEngine::related_keys` is
/// consulted at call sites in `sharded.rs`).
pub fn collect_facts(src: &str, file: &str, facts: &mut FnFacts, findings: &mut Vec<Finding>) {
    let lexed = lex(src);
    let mut pending: Vec<Annotation> = Vec::new();
    let mut ann_iter = lexed.annotations.iter().peekable();
    for (i, t) in lexed.tokens.iter().enumerate() {
        // Drain annotations that appear before this token.
        while let Some(a) = ann_iter.peek() {
            if a.line <= t.line {
                if let Some(parsed) = parse_annotation(a, file, findings) {
                    match parsed {
                        Annotation::Acquires { .. } | Annotation::ScansSlabs => {
                            pending.push(parsed);
                        }
                        // Line-scoped annotations are handled in pass 2.
                        Annotation::Allow { .. } | Annotation::Backoff => {}
                    }
                }
                ann_iter.next();
            } else {
                break;
            }
        }
        if let Tok::Ident(kw) = &t.tok {
            if kw == "fn" {
                if let Some(Spanned {
                    tok: Tok::Ident(name),
                    ..
                }) = lexed.tokens.get(i + 1)
                {
                    for a in pending.drain(..) {
                        match a {
                            Annotation::Acquires {
                                ranks,
                                returns_guard,
                            } => {
                                if returns_guard {
                                    facts.returns_guard.insert(name.clone());
                                }
                                // Fn names are not namespaced (documented
                                // limitation): same-named fns UNION their
                                // rank lists, staying conservative.
                                let entry = facts.acquires.entry(name.clone()).or_default();
                                for r in ranks {
                                    if !entry.contains(&r) {
                                        entry.push(r);
                                    }
                                }
                            }
                            Annotation::ScansSlabs => {
                                facts.scans_slabs.insert(name.clone());
                            }
                            _ => unreachable!("only fn-scoped annotations are pended"),
                        }
                    }
                }
            }
        }
    }
    for a in pending {
        if matches!(a, Annotation::Acquires { .. } | Annotation::ScansSlabs) {
            bad(
                findings,
                file,
                0,
                "fn-scoped lint annotation attaches to no fn",
            );
        }
    }
}

/// A live guard in the scope model.
#[derive(Debug)]
struct Guard {
    /// Brace depth the guard lives at; dies when the scope closes.
    depth: usize,
    /// Binding name, for `drop(name)` release. `None` for temporaries.
    binding: Option<String>,
    /// Receiver identifier at the acquisition site.
    lock: String,
    rank: Option<LockRank>,
    /// Acquired via `write()` (rule L2 cares about write guards only).
    is_write: bool,
    /// Dies at the next statement boundary of its depth.
    temp: bool,
    line: usize,
}

/// Pass 2: analyze one file against the workspace-wide facts.
pub fn analyze(src: &str, file: &str, facts: &FnFacts) -> Vec<Finding> {
    let lexed = lex(src);
    let mut findings = Vec::new();
    let mut anns = LineAnnotations {
        allows: HashMap::new(),
        backoffs: HashSet::new(),
    };
    for raw in &lexed.annotations {
        // Malformed annotations were already reported by pass 1; parse
        // quietly here.
        let mut scratch = Vec::new();
        match parse_annotation(raw, file, &mut scratch) {
            Some(Annotation::Allow {
                rule,
                justification,
            }) => {
                anns.allows.insert(raw.line, (rule, justification));
            }
            Some(Annotation::Backoff) => {
                anns.backoffs.insert(raw.line);
            }
            _ => {}
        }
    }

    let toks = &lexed.tokens;
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    // Guards created by a `match x.lock() { … }` header, installed into
    // the scope its `{` opens.
    let mut pending_scope_guards: Vec<Guard> = Vec::new();
    // Current statement's `let` binding, if any.
    let mut stmt_binding: Option<String> = None;
    let mut in_let = false;
    let mut i = 0usize;

    while i < toks.len() {
        let t = &toks[i];
        match &t.tok {
            Tok::OpenBrace => {
                depth += 1;
                for mut g in pending_scope_guards.drain(..) {
                    g.depth = depth;
                    // A match header binds its arm's pattern ident:
                    // `match x.try_lock() { Some(router) => …` — look
                    // ahead so `drop(router)` inside the arm releases
                    // the guard.
                    if g.binding.is_none() {
                        g.binding = arm_binding(toks, i + 1).or_else(|| stmt_binding.clone());
                    }
                    guards.push(g);
                }
                in_let = false;
                stmt_binding = None;
                i += 1;
            }
            Tok::CloseBrace => {
                guards.retain(|g| g.depth < depth);
                depth = depth.saturating_sub(1);
                in_let = false;
                stmt_binding = None;
                i += 1;
            }
            Tok::Punct(';') => {
                guards.retain(|g| !(g.temp && g.depth == depth));
                in_let = false;
                stmt_binding = None;
                i += 1;
            }
            Tok::Ident(id) if id == "let" => {
                in_let = true;
                stmt_binding = let_binding(toks, i + 1);
                i += 1;
            }
            Tok::Ident(id)
                if id == "drop"
                    && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::OpenParen)) =>
            {
                if let Some(Spanned {
                    tok: Tok::Ident(name),
                    ..
                }) = toks.get(i + 2)
                {
                    if matches!(toks.get(i + 3).map(|t| &t.tok), Some(Tok::CloseParen)) {
                        // Release the innermost guard with this binding.
                        if let Some(pos) = guards
                            .iter()
                            .rposition(|g| g.binding.as_deref() == Some(name.as_str()))
                        {
                            guards.remove(pos);
                        }
                    }
                }
                i += 1;
            }
            // Skip `#[cfg(test)] mod … { … }` wholesale.
            Tok::Punct('#') if is_cfg_test(toks, i) => {
                i = skip_cfg_test(toks, i);
            }
            Tok::Ident(name)
                if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::OpenParen))
                    && !matches!(toks.get(i.wrapping_sub(1)).map(|t| &t.tok), Some(Tok::Ident(k)) if k == "fn") =>
            {
                let line = t.line;
                let is_method = matches!(
                    toks.get(i.wrapping_sub(1)).map(|t| &t.tok),
                    Some(Tok::Punct('.'))
                );
                let args_empty = matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::CloseParen));
                let is_blocking_acq =
                    is_method && args_empty && BLOCKING_METHODS.contains(&name.as_str());
                let is_try_acq = is_method && args_empty && TRY_METHODS.contains(&name.as_str());

                if is_blocking_acq || is_try_acq {
                    let receiver = receiver_ident(toks, i - 1);
                    let rank = receiver.as_deref().and_then(rank_of_receiver);
                    // L4: a try_* site must carry its backoff rationale.
                    if is_try_acq && !anns.backoff_near(line) {
                        push(
                            &mut findings,
                            &anns,
                            Rule::TryLockRationale,
                            file,
                            line,
                            format!(
                                "`{}.{}()` fallback path lacks a `// lint: backoff — …` rationale",
                                receiver.as_deref().unwrap_or("?"),
                                name
                            ),
                        );
                    }
                    // L1: blocking acquisition must not out-rank a live
                    // guard. try_* is exempt (a failed probe backs off;
                    // it cannot close a deadlock cycle).
                    if is_try_acq {
                        // exempt
                    } else if let Some(r) = rank {
                        for g in guards.iter().filter(|g| g.rank.is_some_and(|gr| gr < r)) {
                            push(
                                &mut findings,
                                &anns,
                                Rule::LockOrder,
                                file,
                                line,
                                format!(
                                    "acquiring `{}` (rank {}) while `{}` (rank {}, line {}) is held — lock order is {}",
                                    receiver.as_deref().unwrap_or("?"),
                                    r.level(),
                                    g.lock,
                                    g.rank.map_or(0, LockRank::level),
                                    g.line,
                                    order_hint(),
                                ),
                            );
                        }
                    }
                    // Liveness: bind / temp / next-scope per the chain.
                    let (kind, after) = chain_disposition(toks, i + 1);
                    install_guard(
                        &mut guards,
                        &mut pending_scope_guards,
                        kind,
                        Guard {
                            depth,
                            binding: None,
                            lock: receiver.unwrap_or_else(|| "?".into()),
                            rank,
                            is_write: name.contains("write"),
                            temp: false,
                            line,
                        },
                        in_let,
                        stmt_binding.as_deref(),
                    );
                    i = after;
                    continue;
                }

                // L3: waiting on a condvar/channel while holding any
                // guard of a *different* sync object.
                if is_method && WAIT_METHODS.contains(&name.as_str()) {
                    let first_arg = match toks.get(i + 2).map(|t| &t.tok) {
                        Some(Tok::Ident(a)) => Some(a.clone()),
                        _ => None,
                    };
                    for g in &guards {
                        if g.binding.is_some() && g.binding == first_arg {
                            continue; // the condvar consumes this guard
                        }
                        push(
                            &mut findings,
                            &anns,
                            Rule::WaitWithForeignGuard,
                            file,
                            line,
                            format!(
                                "`.{}()` parks this thread while guard `{}` (line {}) is live — a waiter must hold nothing but the condvar's own mutex",
                                name, g.lock, g.line
                            ),
                        );
                    }
                }

                // L2: a slab/engine-state scan under the router write
                // lock stalls every unrelated submitter.
                if facts.scans_slabs.contains(name.as_str()) {
                    for g in guards
                        .iter()
                        .filter(|g| g.rank == Some(LockRank::Router) && g.is_write)
                    {
                        push(
                            &mut findings,
                            &anns,
                            Rule::ScanUnderRouterWrite,
                            file,
                            line,
                            format!(
                                "`{name}(…)` scans shard state while the router write guard (line {}) is live — mark, release, then scan under shard locks only",
                                g.line
                            ),
                        );
                    }
                }

                // L1, one level of call-graph propagation: a call to a
                // fn annotated `// lint: acquires(…)` behaves like the
                // acquisition(s) it performs.
                if let Some(ranks) = facts.acquires.get(name.as_str()) {
                    for &r in ranks {
                        for g in guards.iter().filter(|g| g.rank.is_some_and(|gr| gr < r)) {
                            push(
                                &mut findings,
                                &anns,
                                Rule::LockOrder,
                                file,
                                line,
                                format!(
                                    "`{name}(…)` acquires `{}` (rank {}) while `{}` (rank {}, line {}) is held — lock order is {}",
                                    r.name(),
                                    r.level(),
                                    g.lock,
                                    g.rank.map_or(0, LockRank::level),
                                    g.line,
                                    order_hint(),
                                ),
                            );
                        }
                    }
                    if facts.returns_guard.contains(name.as_str()) {
                        let (kind, after) = chain_disposition(toks, skip_balanced(toks, i + 1));
                        install_guard(
                            &mut guards,
                            &mut pending_scope_guards,
                            kind,
                            Guard {
                                depth,
                                binding: None,
                                lock: ranks[0].name().to_string(),
                                rank: Some(ranks[0]),
                                is_write: false,
                                temp: false,
                                line,
                            },
                            in_let,
                            stmt_binding.as_deref(),
                        );
                        i = after;
                        continue;
                    }
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    findings
}

/// Record a finding, downgrading it to suppressed when a matching
/// `// lint: allow` with justification covers the line.
fn push(
    findings: &mut Vec<Finding>,
    anns: &LineAnnotations,
    rule: Rule,
    file: &str,
    line: usize,
    message: String,
) {
    let suppressed = anns.allow_for(rule, line).map(str::to_string);
    findings.push(Finding {
        rule,
        file: file.to_string(),
        line,
        message,
        suppressed,
    });
}

fn order_hint() -> &'static str {
    "rebalancer > migration_lock > router > shard.engine > snap_lock > store.state > wal_stream > registry"
}

/// What follows an acquisition expression decides the guard's life.
enum ChainKind {
    /// `let g = x.lock();` (or `… else`) — bound in the current scope.
    Bound,
    /// Consumed mid-expression — temporary until the statement ends.
    Temp,
    /// Heads a `match`/`if let` block — live inside the block scope.
    NextScope,
}

/// Classify the guard expression's continuation starting at the token
/// *after* the acquisition's `(`. Returns the disposition and the index
/// to resume the walk at (never skipping past statement structure).
fn chain_disposition(toks: &[Spanned], args_open_minus_one: usize) -> (ChainKind, usize) {
    // `args_open_minus_one` points at the OpenParen's index (we resume
    // scanning right after the call's balanced parens).
    let mut j = skip_balanced(toks, args_open_minus_one);
    // Guard-preserving adapters keep the chain a binding candidate. A
    // bare CloseParen means the acquisition was the last argument of a
    // guard-returning wrapper (`lockrank::ranked(rank, x.lock())`) or a
    // parenthesized expression — pop out and keep classifying.
    loop {
        match (toks.get(j).map(|t| &t.tok), toks.get(j + 1).map(|t| &t.tok)) {
            (Some(Tok::Punct('.')), Some(Tok::Ident(m)))
                if GUARD_ADAPTERS.contains(&m.as_str()) =>
            {
                j = skip_balanced(toks, j + 2);
            }
            (Some(Tok::CloseParen), _) => j += 1,
            _ => break,
        }
    }
    match toks.get(j).map(|t| &t.tok) {
        Some(Tok::Punct(';')) => (ChainKind::Bound, j),
        Some(Tok::Ident(kw)) if kw == "else" => (ChainKind::Bound, j),
        Some(Tok::OpenBrace) => (ChainKind::NextScope, j),
        _ => (ChainKind::Temp, j),
    }
}

/// Skip one balanced `( … )` group starting at index `open` (which must
/// be the OpenParen); returns the index after the matching close. If
/// `open` is not an OpenParen, returns `open` unchanged.
fn skip_balanced(toks: &[Spanned], open: usize) -> usize {
    if !matches!(toks.get(open).map(|t| &t.tok), Some(Tok::OpenParen)) {
        return open;
    }
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        match toks[j].tok {
            Tok::OpenParen => depth += 1,
            Tok::CloseParen => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

fn install_guard(
    guards: &mut Vec<Guard>,
    pending_scope_guards: &mut Vec<Guard>,
    kind: ChainKind,
    mut guard: Guard,
    in_let: bool,
    stmt_binding: Option<&str>,
) {
    match kind {
        ChainKind::Bound => {
            if in_let {
                match stmt_binding {
                    // `let _ = x.lock();` drops the guard immediately.
                    Some("_") => {}
                    b => {
                        guard.binding = b.map(str::to_string);
                        guards.push(guard);
                    }
                }
            } else {
                // Expression statement `x.lock();` — acquire + release.
            }
        }
        ChainKind::Temp => {
            guard.temp = true;
            if in_let {
                guard.binding = stmt_binding.map(str::to_string);
            }
            guards.push(guard);
        }
        ChainKind::NextScope => {
            pending_scope_guards.push(guard);
        }
    }
}

/// The final identifier of the receiver chain ending at `dot` (the `.`
/// before the acquisition method): `self.shards[i].engine.lock()` →
/// `engine`; `state.wals[s % n].lock()` → `wals`.
fn receiver_ident(toks: &[Spanned], dot: usize) -> Option<String> {
    let mut j = dot.checked_sub(1)?;
    loop {
        match &toks[j].tok {
            Tok::Ident(name) => return Some(name.clone()),
            Tok::CloseBracket => {
                let mut depth = 0usize;
                loop {
                    match toks[j].tok {
                        Tok::CloseBracket => depth += 1,
                        Tok::OpenBracket => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j = j.checked_sub(1)?;
                }
                j = j.checked_sub(1)?;
            }
            Tok::CloseParen => {
                let mut depth = 0usize;
                loop {
                    match toks[j].tok {
                        Tok::CloseParen => depth += 1,
                        Tok::OpenParen => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j = j.checked_sub(1)?;
                }
                j = j.checked_sub(1)?;
            }
            _ => return None,
        }
    }
}

/// The pattern binding of a `let`: the last identifier before `=` or
/// `:`, skipping pattern keywords (`let Some(mut g) = …` → `g`).
fn let_binding(toks: &[Spanned], from: usize) -> Option<String> {
    let mut best = None;
    let mut j = from;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Ident(id) if id == "mut" || id == "Some" || id == "Ok" || id == "Err" => {}
            Tok::Ident(id) => best = Some(id.clone()),
            Tok::Punct('=' | ':' | ';') | Tok::OpenBrace => break,
            _ => {}
        }
        j += 1;
    }
    best
}

/// The first arm's pattern binding right after a match's `{`:
/// `Some(router) => …` / `Ok(mut engine) => …`.
fn arm_binding(toks: &[Spanned], after_open: usize) -> Option<String> {
    match (
        toks.get(after_open).map(|t| &t.tok),
        toks.get(after_open + 1).map(|t| &t.tok),
        toks.get(after_open + 2).map(|t| &t.tok),
        toks.get(after_open + 3).map(|t| &t.tok),
    ) {
        (
            Some(Tok::Ident(ctor)),
            Some(Tok::OpenParen),
            Some(Tok::Ident(a)),
            Some(Tok::CloseParen),
        ) if ctor == "Some" || ctor == "Ok" => Some(a.clone()),
        (
            Some(Tok::Ident(ctor)),
            Some(Tok::OpenParen),
            Some(Tok::Ident(m)),
            Some(Tok::Ident(a)),
        ) if (ctor == "Some" || ctor == "Ok") && m == "mut" => Some(a.clone()),
        _ => None,
    }
}

/// Whether token `i` starts `#[cfg(test)]` directly followed by
/// `mod name {`.
fn is_cfg_test(toks: &[Spanned], i: usize) -> bool {
    let pat = [
        Tok::Punct('#'),
        Tok::OpenBracket,
        Tok::Ident("cfg".into()),
        Tok::OpenParen,
        Tok::Ident("test".into()),
        Tok::CloseParen,
        Tok::CloseBracket,
    ];
    for (k, p) in pat.iter().enumerate() {
        if toks.get(i + k).map(|t| &t.tok) != Some(p) {
            return false;
        }
    }
    matches!(toks.get(i + 7).map(|t| &t.tok), Some(Tok::Ident(m)) if m == "mod")
}

/// Skip past the `#[cfg(test)] mod … { … }` block starting at `i`.
fn skip_cfg_test(toks: &[Spanned], i: usize) -> usize {
    let mut j = i + 7;
    // Find the module's opening brace.
    while j < toks.len() && toks[j].tok != Tok::OpenBrace {
        j += 1;
    }
    let mut depth = 0usize;
    while j < toks.len() {
        match toks[j].tok {
            Tok::OpenBrace => depth += 1,
            Tok::CloseBrace => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}
