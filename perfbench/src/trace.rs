//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The spans live in the benchmark's own files: the program under test is
//! not instrumented here (its PR 10 `obs` spans stay off). Each client
//! thread records into its own [`Tracer`]; they share one clock origin and
//! are concatenated when the run ends.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the run's clock origin.
    pub start: u64,
    pub end: u64,
    /// Index of the causing span in the same tracer, or [`NO_PARENT`].
    pub parent: u32,
    /// Spans of one request share this identifier.
    pub request: u32,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

pub struct Tracer {
    origin: Instant,
    client: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, client: u32, capacity: usize) -> Tracer {
        Tracer {
            origin,
            client,
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; it must be closed with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, request: u32) -> u32 {
        let id = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end = self.now();
    }

    /// Close a span whose name depends on how the call went.
    pub fn close_as(&mut self, id: u32, name: &'static str) {
        self.close(id);
        self.spans[id as usize].name = name;
    }

    /// Record a span around one call into a layer.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append the spans as JSON lines. Parents are written as indices into
    /// this client's own sequence (`client`/`id` identify a span).
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"client\": {}, \"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}}}",
                self.client, s.name, s.start, s.end, s.request
            )?;
        }
        Ok(())
    }
}

/// Write every tracer's spans to `path`, creating its directory.
pub fn write_trace_file(path: &Path, tracers: &[Tracer]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for t in tracers {
        t.write_jsonl(&mut out)?;
    }
    out.flush()
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Overlapping children are counted once and
/// a child is clipped to its parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (start, end) = (s.start.max(p.start), s.end.min(p.end));
            if start < end {
                children[s.parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: u32) -> Span {
        Span {
            name: "t",
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_child_interval() {
        let spans = [
            span(0, 100, NO_PARENT),
            span(10, 30, 0),
            span(50, 70, 0),
            span(55, 60, 2),
        ];
        assert_eq!(vec![60, 20, 15, 5], self_times(&spans));
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Children [10,40) and [30,60) cover [10,60): 50, not 60. A third
        // child nested in the overlap adds nothing.
        let spans = [
            span(0, 120, NO_PARENT),
            span(30, 60, 0),
            span(10, 40, 0),
            span(32, 38, 0),
        ];
        assert_eq!(120 - 50, self_times(&spans)[0]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span(10, 20, NO_PARENT), span(0, 15, 0), span(18, 40, 0)];
        assert_eq!(3, self_times(&spans)[0]);
        // A child wholly outside covers nothing.
        let spans = [span(10, 20, NO_PARENT), span(30, 40, 0)];
        assert_eq!(10, self_times(&spans)[0]);
    }

    #[test]
    fn tracer_nests_and_writes_one_line_per_span() {
        let mut t = Tracer::new(Instant::now(), 1, 4);
        let root = t.open("request", NO_PARENT, 7);
        let x = t.call("sql.parse", root, 7, || 42);
        t.close(root);
        assert_eq!(42, x);
        let spans = t.spans();
        assert_eq!(2, spans.len());
        assert_eq!(root, spans[1].parent);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(2, text.lines().count());
        for line in text.lines() {
            let v = crate::json::Json::parse(line).unwrap();
            assert_eq!(Some(7.0), v.get("request").and_then(|r| r.as_f64()));
        }
    }
}
