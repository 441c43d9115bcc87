//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start and end (ns since the run's epoch), the
//! index of the span that caused it, and the id of the request it
//! belongs to. Spans stay in memory and are written out when the run
//! ends; nothing here runs unless the run is traced.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::quantile;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer. Threads record into their own tracer and
/// the run merges them with [`Tracer::absorb`].
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        let now = self.now_ns();
        self.spans[span].end_ns = now;
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let s = self.begin(name, req, parent);
        let out = f();
        self.end(s);
        out
    }

    /// Moves another thread's spans into this tracer, re-basing their
    /// parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations (ns) of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Durations (ns) of the spans with this name, summed per request.
    pub fn per_request(&self, name: &str) -> Vec<u64> {
        let mut by_req: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_req.entry(s.req).or_default() += s.dur_ns();
        }
        by_req.into_values().collect()
    }

    /// Per span name: count, median duration and median self time
    /// (duration minus the time its child spans cover). Children of
    /// one parent run one after another, so their durations add up.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut groups: BTreeMap<&'static str, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let g = groups.entry(s.name).or_default();
            g.0.push(s.dur_ns());
            g.1.push(s.dur_ns().saturating_sub(child_ns[i]));
        }
        groups
            .into_iter()
            .map(|(name, (mut total, mut own))| {
                let n = total.len();
                (
                    name,
                    (n, quantile(&mut total, 0.5), quantile(&mut own, 0.5)),
                )
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        w.flush()
    }
}
