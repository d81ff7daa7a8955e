//! Self-cleaning temporary directories for tests and examples.
//!
//! The workspace has no `tempfile` dependency (offline container), so
//! the store ships its own minimal equivalent: a uniquely named
//! directory under the system temp dir, removed recursively on drop.
//! Exposed publicly because the top-level crash-recovery suites and the
//! `obs_dump` example need scratch store directories.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A temporary directory deleted (recursively) when dropped.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create a fresh directory whose name starts with `prefix`.
    ///
    /// # Panics
    /// Panics if the directory cannot be created (tests and benches have
    /// no way to proceed without scratch space).
    pub fn new(prefix: &str) -> Self {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("coord-store-{prefix}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_and_cleans_up() {
        let kept;
        {
            let dir = TempDir::new("probe");
            kept = dir.path().to_path_buf();
            assert!(kept.is_dir());
            std::fs::write(kept.join("inner.txt"), b"x").unwrap();
        }
        assert!(!kept.exists());
    }

    #[test]
    fn two_dirs_are_distinct() {
        let a = TempDir::new("dup");
        let b = TempDir::new("dup");
        assert_ne!(a.path(), b.path());
    }
}
