//! Spans the driver records around the calls it makes into the program:
//! name, start, end, the span that caused it, and the request they all
//! belong to. Kept in memory while the run measures and written to
//! `benchmark/out/trace-<workload>.jsonl` once it has ended. Spans
//! *inside* the program are the program's own business (`coord-obs`).

use crate::json::Json;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Spans {
    enabled: bool,
    clock: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder; when not `enabled`, `begin`/`end` do nothing.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            clock: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(0);
        }
        let now = self.clock.elapsed().as_nanos() as u64;
        self.record(name, parent, request, now, now)
    }

    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id.0].end_ns = self.clock.elapsed().as_nanos() as u64;
        }
    }

    /// Add a span whose times were taken elsewhere (the online clients
    /// keep bare timestamps while they run and turn them into spans
    /// afterwards).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Total nanoseconds of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// A span's self time is its duration minus what its children cover;
    /// coverage is the covered share. Returns the smallest coverage over
    /// all root spans (1.0 when there are none).
    pub fn min_root_coverage(&self) -> f64 {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p.0] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.parent.is_none() && s.end_ns > s.start_ns)
            .map(|(s, &c)| c as f64 / (s.end_ns - s.start_ns) as f64)
            .fold(1.0, f64::min)
    }

    /// One JSON object per line, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            line.clear();
            Json::obj(vec![
                ("id", Json::Num(id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p.0 as f64)),
                ),
                ("request", Json::Num(s.request as f64)),
                ("name", Json::Str(s.name.to_string())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ])
            .write(&mut line);
            line.push('\n');
            file.write_all(line.as_bytes())?;
        }
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_and_coverage() {
        let mut s = Spans::new(true);
        let root = s.record("request", None, 1, 0, 1000);
        s.record("parse", Some(root), 1, 0, 100);
        s.record("submit", Some(root), 1, 100, 960);
        let root2 = s.record("request", None, 2, 1000, 2000);
        s.record("submit", Some(root2), 2, 1000, 2000);
        assert_eq!(s.total_ns("submit"), 1860);
        assert!((s.min_root_coverage() - 0.96).abs() < 1e-9);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut s = Spans::new(false);
        let id = s.begin("batch", None, 0);
        s.end(id);
        assert!(s.all().is_empty());
        assert_eq!(s.min_root_coverage(), 1.0);
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let mut s = Spans::new(true);
        let root = s.begin("batch", None, 7);
        let child = s.begin("sweep", Some(root), 7);
        s.end(child);
        s.end(root);
        let path = crate::out_dir().join(format!("test-spans-{}.jsonl", std::process::id()));
        s.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(lines[1].get("name").and_then(Json::as_str), Some("sweep"));
        assert_eq!(lines[1].get("request").and_then(Json::as_f64), Some(7.0));
    }
}
