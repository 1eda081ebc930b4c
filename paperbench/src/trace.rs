//! Host-time spans recorded around calls into the library's layers.
//!
//! The library crates never read a clock; every span here is opened and
//! closed by the benchmark around a public entry point. Spans stay in
//! memory and are written once, at the end of a run, as Chrome trace-event
//! JSON (viewable in Perfetto or `chrome://tracing`).

use std::path::Path;
use std::time::{Duration, Instant};

use sjc_core::json::Json;

/// The benchmark's one read of the host clock.
pub fn now() -> Instant {
    // sjc-lint: allow(bench-isolation) — this package is the harness that times the library from outside; nothing simulated reads this value
    Instant::now()
}

/// One timed interval: offsets from the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: Duration,
    pub end: Duration,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: now(), spans: Vec::new() }
    }
}

impl Tracer {
    /// Opens a span that stays open until [`Tracer::close`]; returns its id.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let at = self.origin.elapsed();
        self.spans.push(Span { name: name.to_string(), start: at, end: at, parent });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        let at = self.origin.elapsed();
        if let Some(s) = self.spans.get_mut(id) {
            s.end = at;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Records an interval measured elsewhere (e.g. on a worker thread).
    pub fn record(&mut self, name: &str, parent: Option<usize>, start: Instant, end: Instant) {
        let offset = |t: Instant| t.saturating_duration_since(self.origin);
        let span = Span { name: name.to_string(), start: offset(start), end: offset(end), parent };
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus the part of its interval
    /// that its children cover (overlapping children count once).
    pub fn self_time(&self, id: usize) -> Duration {
        let Some(span) = self.spans.get(id) else { return Duration::ZERO };
        let mut kids: Vec<(Duration, Duration)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start.max(span.start), c.end.min(span.end)))
            .filter(|(s, e)| s < e)
            .collect();
        kids.sort();
        let mut covered = Duration::ZERO;
        let mut reach = span.start;
        for (s, e) in kids {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        span.duration().saturating_sub(covered)
    }

    /// Summed self time of every span named `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_time(i).as_secs_f64() * 1e3)
            .sum()
    }

    /// The spans as a Chrome trace-event document. Spans that overlap
    /// without nesting (cells run on several threads) are placed on
    /// separate `tid` lanes so every lane nests properly.
    pub fn to_chrome_json(&self) -> Json {
        let lanes = self.lanes();
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = match s.parent {
                    Some(p) => Json::Int(p as u64),
                    None => Json::Null,
                };
                Json::obj(vec![
                    ("name", Json::Str(s.name.clone())),
                    ("cat", Json::Str("paperbench".to_string())),
                    ("ph", Json::Str("X".to_string())),
                    ("ts", Json::Float(s.start.as_secs_f64() * 1e6)),
                    ("dur", Json::Float(s.duration().as_secs_f64() * 1e6)),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(lanes[i] as u64)),
                    (
                        "args",
                        Json::obj(vec![
                            ("id", Json::Int(i as u64)),
                            ("parent", parent),
                            ("self_us", Json::Float(self.self_time(i).as_secs_f64() * 1e6)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".to_string())),
        ])
    }

    /// Writes the trace to `path`, creating its directory.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_chrome_json().to_string_pretty())
    }

    /// Lane per span, in start order: the first lane where the span nests
    /// inside the innermost open span or starts after every open span has
    /// ended; a new lane when there is none.
    fn lanes(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by_key(|&i| (self.spans[i].start, std::cmp::Reverse(self.spans[i].end)));
        // Per lane, the stack of end times of spans still open.
        let mut stacks: Vec<Vec<Duration>> = Vec::new();
        let mut lane = vec![0; self.spans.len()];
        for i in order {
            let s = &self.spans[i];
            let fits = |stack: &mut Vec<Duration>| {
                while stack.last().is_some_and(|&end| end <= s.start) {
                    stack.pop();
                }
                stack.last().is_none_or(|&end| s.end <= end)
            };
            let chosen = match stacks.iter_mut().position(fits) {
                Some(l) => l,
                None => {
                    stacks.push(Vec::new());
                    stacks.len() - 1
                }
            };
            stacks[chosen].push(s.end);
            lane[i] = chosen;
        }
        lane
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer(spans: &[(&str, u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::default();
        for &(name, start, end, parent) in spans {
            t.spans.push(Span {
                name: name.to_string(),
                start: Duration::from_millis(start),
                end: Duration::from_millis(end),
                parent,
            });
        }
        t
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100 with overlapping children 10..40 and 30..50 (union
        // 40 ms) plus a child sticking out past the parent's end.
        let t = tracer(&[
            ("grid", 0, 100, None),
            ("cell", 10, 40, Some(0)),
            ("cell", 30, 50, Some(0)),
            ("cell", 90, 120, Some(0)),
        ]);
        assert_eq!(t.self_time(0), Duration::from_millis(50));
        assert_eq!(t.self_time(1), Duration::from_millis(30));
        assert_eq!(t.self_ms("cell"), 30.0 + 20.0 + 30.0);
    }

    #[test]
    fn overlapping_siblings_get_separate_lanes() {
        let t = tracer(&[
            ("grid", 0, 100, None),
            ("cell", 10, 40, Some(0)),
            ("cell", 30, 50, Some(0)),
            ("cell", 60, 70, Some(0)),
        ]);
        let lanes = t.lanes();
        assert_eq!(lanes[0], lanes[1], "a child nests in its parent's lane");
        assert_ne!(lanes[1], lanes[2], "overlapping siblings cannot share a lane");
        assert_eq!(lanes[3], lanes[0], "a later sibling reuses the free lane");
    }

    #[test]
    fn chrome_json_names_every_span_with_its_parent() {
        let mut t = Tracer::default();
        let root = t.open("run", None);
        t.span("layer", Some(root), || ());
        t.close(root);
        let doc = t.to_chrome_json();
        let events = doc.get("traceEvents").as_array().expect("event array");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").as_str(), Some("layer"));
        assert_eq!(events[1].get("ph").as_str(), Some("X"));
        assert_eq!(events[1].get("args").get("parent").as_f64(), Some(0.0));
        assert_eq!(events[0].get("args").get("parent"), &Json::Null);
        // The written form parses back with the strict reader.
        let text = doc.to_string_pretty();
        sjc_bench::baseline::parse(&text).expect("valid JSON");
    }
}
