//! Measurement utilities for the `reproduce` binary.

use std::time::{Duration, Instant};

/// One measured point of a figure's series.
#[derive(Clone, Debug)]
pub struct MeasuredPoint {
    /// The x-axis value (number of queries, table size, ...).
    pub x: u64,
    /// The measured value, in the unit its series name states.
    pub y: f64,
    /// Number of runs averaged.
    pub runs: u32,
}

/// A named series of measured points (one figure line).
#[derive(Clone, Debug)]
pub struct Series {
    pub name: String,
    pub points: Vec<MeasuredPoint>,
}

impl Series {
    /// An empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Record a point.
    pub fn push(&mut self, x: u64, y: f64, runs: u32) {
        self.points.push(MeasuredPoint { x, y, runs });
    }

    /// Render the series as an aligned text table (the form the
    /// `reproduce` binary prints).
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "## {}\n{:>10}  {:>12}  {:>6}\n",
            self.name, "x", "y", "runs"
        );
        for p in &self.points {
            out.push_str(&format!("{:>10}  {:>12.3}  {:>6}\n", p.x, p.y, p.runs));
        }
        out
    }

    /// Least-squares slope of `y` against `x` — used to sanity-check
    /// the paper's "grows linearly" claims.
    pub fn slope(&self) -> f64 {
        let n = self.points.len() as f64;
        if n < 2.0 {
            return 0.0;
        }
        let sx: f64 = self.points.iter().map(|p| p.x as f64).sum();
        let sy: f64 = self.points.iter().map(|p| p.y).sum();
        let sxx: f64 = self.points.iter().map(|p| (p.x as f64).powi(2)).sum();
        let sxy: f64 = self.points.iter().map(|p| p.x as f64 * p.y).sum();
        (n * sxy - sx * sy) / (n * sxx - sx * sx)
    }
}

/// Run `f` `runs` times and return the mean wall-clock duration.
pub fn measure<T>(runs: u32, mut f: impl FnMut() -> T) -> Duration {
    assert!(runs > 0);
    let start = Instant::now();
    for _ in 0..runs {
        std::hint::black_box(f());
    }
    start.elapsed() / runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_mean() {
        let d = measure(4, || std::thread::sleep(Duration::from_millis(1)));
        assert!(d >= Duration::from_millis(1));
        assert!(d < Duration::from_millis(50));
    }

    #[test]
    fn series_table_and_slope() {
        let mut s = Series::new("fig");
        s.push(10, 1.0, 3);
        s.push(20, 2.0, 3);
        s.push(30, 3.0, 3);
        let t = s.to_table();
        assert!(t.contains("## fig"));
        assert!((s.slope() - 0.1).abs() < 1e-9);
    }
}
