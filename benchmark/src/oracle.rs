//! Correctness checks, all untimed. The expected outcome of every
//! arrival follows from how `gen.rs` built it — a member waits, a
//! keystone delivers its whole group with every variable bound to the
//! one row its body selects — so the online oracle needs nothing from
//! the program. The traced run adds the program's own sequential engine
//! as a second reference (see `layers.rs`).

use crate::gen::{Body, Kind, Meta, GROUP};
use crate::sut::{Bound, Delivery};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

fn id_of(name: &str) -> Option<u64> {
    name.get(1..)?.parse().ok()
}

/// The name a query text declares (`q17: {…} …` → `q17`).
pub fn name_of(text: &str) -> &str {
    text.split(':').next().unwrap_or(text)
}

/// Does `delivery` match what arrival `meta` must produce?
pub fn check_delivery(meta: Meta, body: Body, delivery: &Delivery) -> Result<(), String> {
    if meta.kind != Kind::Keystone {
        return if delivery.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{:?} of {} delivered {} answers, must stay pending",
                meta.kind,
                meta.group,
                delivery.len()
            ))
        };
    }
    let base = meta.group * GROUP as u64;
    let mut seen = [false; GROUP];
    for (name, bindings) in delivery.answers() {
        let id = id_of(name).ok_or_else(|| format!("unexpected answer name `{name}`"))?;
        if !(base..base + GROUP as u64).contains(&id) || !name.starts_with('q') {
            return Err(format!("`{name}` answered with group {}", meta.group));
        }
        if std::mem::replace(&mut seen[(id - base) as usize], true) {
            return Err(format!("`{name}` answered twice"));
        }
        let mut has_x = false;
        for (var, bound) in bindings {
            let of = if var == "x" {
                has_x = true;
                id
            } else {
                var.strip_prefix('y')
                    .and_then(|p| p.parse().ok())
                    .ok_or_else(|| format!("`{name}` binds unknown variable `{var}`"))?
            };
            let want = Bound::Int(body.expected_x(of));
            if bound != want {
                return Err(format!("`{name}`: {var} = {bound:?}, want {want:?}"));
            }
        }
        if !has_x {
            return Err(format!("`{name}` answered without binding x"));
        }
    }
    match seen.iter().position(|s| !s) {
        None => Ok(()),
        Some(i) => Err(format!(
            "keystone of group {} left member {i} unanswered ({} answers)",
            meta.group,
            delivery.len()
        )),
    }
}

/// Names that differ between two multisets (symmetric difference size).
pub fn multiset_diff<'a>(
    a: impl IntoIterator<Item = &'a str>,
    b: impl IntoIterator<Item = &'a str>,
) -> usize {
    let mut counts: BTreeMap<&str, i64> = BTreeMap::new();
    for n in a {
        *counts.entry(n).or_default() += 1;
    }
    for n in b {
        *counts.entry(n).or_default() -= 1;
    }
    counts.values().map(|c| c.unsigned_abs() as usize).sum()
}

/// The crash the `online-fsync` workload simulates. Dropping the engine
/// leaves the operating system's cache intact, so a plain reopen would
/// also read bytes that were written but never flushed. Under
/// `EveryRecord` the only bytes known to be on stable storage are those
/// up to each stream's length at its last acknowledged submit: truncate
/// every stream of the live epoch to that length, discarding the rest,
/// and recover from what remains. Returns the bytes discarded.
///
/// File naming (`wal-{epoch:020}-{stream:04}.log`, highest epoch live)
/// is the store's documented on-disk layout.
pub fn cut_to_last_ack(dir: &Path, acked_lens: &[u64]) -> std::io::Result<u64> {
    let mut wals: Vec<(u64, usize, std::path::PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(rest) = name
            .strip_prefix("wal-")
            .and_then(|r| r.strip_suffix(".log"))
        else {
            continue;
        };
        if let Some((epoch, stream)) = rest.split_once('-') {
            if let (Ok(e), Ok(s)) = (epoch.parse(), stream.parse()) {
                wals.push((e, s, path));
            }
        }
    }
    let live = wals.iter().map(|w| w.0).max().unwrap_or(0);
    let mut discarded = 0;
    for (epoch, stream, path) in wals {
        if epoch != live {
            continue;
        }
        let Some(&keep) = acked_lens.get(stream) else {
            continue;
        };
        let len = fs::metadata(&path)?.len();
        if len > keep {
            fs::OpenOptions::new()
                .write(true)
                .open(&path)?
                .set_len(keep)?;
            discarded += len - keep;
        }
    }
    Ok(discarded)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_multisets() {
        assert_eq!(
            name_of("q17: {R(\"u1\", y1)} R(\"u17\", x) :- S(x, \"t17\")"),
            "q17"
        );
        assert_eq!(id_of("q17"), Some(17));
        assert_eq!(id_of("c9"), Some(9));
        assert_eq!(multiset_diff(["a", "b", "b"], ["b", "a", "b"]), 0);
        assert_eq!(multiset_diff(["a", "b"], ["b", "c", "c"]), 3);
    }

    #[test]
    fn cut_truncates_only_the_live_epoch_and_only_downwards() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-cut-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let old = dir.join(format!("wal-{:020}-{:04}.log", 3, 0));
        let live0 = dir.join(format!("wal-{:020}-{:04}.log", 4, 0));
        let live1 = dir.join(format!("wal-{:020}-{:04}.log", 4, 1));
        for p in [&old, &live0, &live1] {
            fs::write(p, vec![7u8; 100]).unwrap();
        }
        fs::write(dir.join("snap-00000000000000000004.bin"), b"snap").unwrap();
        let discarded = cut_to_last_ack(&dir, &[60, 500]).unwrap();
        assert_eq!(discarded, 40);
        assert_eq!(
            fs::metadata(&old).unwrap().len(),
            100,
            "old epoch untouched"
        );
        assert_eq!(fs::metadata(&live0).unwrap().len(), 60);
        assert_eq!(fs::metadata(&live1).unwrap().len(), 100, "never extended");
        fs::remove_dir_all(&dir).unwrap();
    }
}
