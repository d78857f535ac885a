//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions: name, design, start, end and parent. They are
//! kept in memory and written out once when the run ends. A layer's self
//! time is its span's duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::stats::Samples;

#[derive(Debug, Clone)]
pub struct Span {
    pub design: usize,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Records spans and exact work counters.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    design: usize,
    /// Work counters, summed per pass; `BTreeMap` keeps the output order
    /// stable.
    counters: BTreeMap<String, u64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            design: 0,
            counters: BTreeMap::new(),
        }
    }

    /// Sets the design index stamped on the spans that follow.
    pub fn design(&mut self, design: usize) {
        self.design = design;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            design: self.design,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Duration of the most recently closed span named `name`, in ms.
    pub fn last_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e6)
    }

    pub fn count(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Takes the counters accumulated since the last call.
    pub fn take_counters(&mut self) -> BTreeMap<String, u64> {
        std::mem::take(&mut self.counters)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span (duration minus the union of its
    /// children, which never overlap because calls are sequential).
    pub fn self_ms(&self) -> BTreeMap<String, Samples> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, Samples> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*child);
            out.entry(s.name.clone()).or_default().push(own as f64 / 1e6);
        }
        out
    }

    /// Writes every span as one JSON line (written once, at the end of
    /// the run).
    pub fn write_jsonl(&self, workload: &str, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"workload\":\"{workload}\",\"design\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.design, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(20)));
        });
        let own = t.self_ms();
        assert!(own["inner"].median() >= 19.0);
        assert!(own["outer"].median() < 10.0, "outer self {}", own["outer"].median());
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}
