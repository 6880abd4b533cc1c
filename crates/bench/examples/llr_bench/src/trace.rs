//! Spans recorded by the benchmark around each call it makes into a layer.
//! They stay in memory and are written out once, after the run.

use crate::json::{num, obj, string, Json};
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
}

/// Records nested spans when enabled; when disabled it only runs the
/// closures, so untraced repetitions pay nothing for it.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The trace document: every span with its self time.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                obj([
                    ("name", string(s.name.clone())),
                    ("start_ns", num(s.start_ns as f64)),
                    ("end_ns", num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| num(p as f64))),
                    ("self_ns", num(self_ns(&self.spans, i) as f64)),
                ])
            })
            .collect();
        obj([("workload", string(workload)), ("spans", Json::Arr(spans))])
    }
}

/// A span's duration minus the part of its interval that its direct
/// children cover (overlapping children are counted once).
pub fn self_ns(spans: &[Span], idx: usize) -> u64 {
    let me = &spans[idx];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (me.end_ns - me.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)), // overlaps a: 10..60 covered
            span("a.inner", 12, 20, Some(1)),
            span("c", 90, 120, Some(0)), // clipped to 90..100
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 50 - 10);
        assert_eq!(self_ns(&spans, 1), 30 - 8);
        assert_eq!(self_ns(&spans, 3), 8);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| t.span("inner", |_| ()));
        let s = &t.spans;
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |_| 7), 7);
        assert!(off.spans.is_empty());
    }
}
