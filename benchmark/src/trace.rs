//! Spans recorded by the benchmark around its calls into the repo's
//! public functions. They stay in memory and are written out once, when
//! the traced run ends.

use std::fmt::Write as _;
use std::time::Instant;

pub type SpanId = u32;

/// One timed interval: which call, when, caused by which span, and for
/// which request (spans of one request share the number).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<SpanId>,
    pub request: Option<u64>,
}

#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Microseconds since the trace began.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Microseconds since the trace began at `t`.
    pub fn at_us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Records a finished interval.
    pub fn record(
        &mut self,
        name: &'static str,
        start_us: u64,
        end_us: u64,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent,
            request,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Times `f` as a span and returns what it returns. `f` gets the trace
    /// and its own span id, so calls it makes can record child spans.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut Trace, SpanId) -> R,
    ) -> R {
        let start_us = self.now_us();
        let id = self.record(name, start_us, start_us, parent, None);
        let out = f(self, id);
        self.spans[id as usize].end_us = self.now_us();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in milliseconds, of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) as f64 / 1e3)
            .collect()
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its direct children cover (overlapping children count
    /// once; a child reaching outside its parent is clipped).
    pub fn self_times_us(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_us, s.end_us));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_us;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(span.end_us);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (span.end_us - span.start_us) - covered
            })
            .collect()
    }

    /// The spans as one JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let self_us = self.self_times_us();
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"spans\":[");
        for (i, (s, own)) in self.spans.iter().zip(&self_us).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"self_us\":{own},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_us,
                s.end_us,
                json_opt(s.parent.map(u64::from)),
                json_opt(s.request),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

fn json_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_what_children_cover() {
        let mut t = Trace::new();
        let root = t.record("root", 0, 100, None, None);
        let a = t.record("a", 10, 40, Some(root), None);
        t.record("b", 30, 60, Some(root), None); // overlaps a by 10
        t.record("c", 90, 120, Some(root), None); // 20 outside root
        t.record("leaf", 10, 20, Some(a), Some(7));
        let own = t.self_times_us();
        // root: 100 - (a 30 + b's new 20 + c's inner 10) = 40
        assert_eq!(own, vec![40, 20, 30, 30, 10]);
    }

    #[test]
    fn span_nests_and_serialises() {
        let mut t = Trace::new();
        t.span("outer", None, |t, outer| {
            t.span("inner", Some(outer), |_, _| ());
        });
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].start_us <= t.spans()[1].start_us);
        assert!(t.spans()[1].end_us <= t.spans()[0].end_us);
        let json = t.to_json("w");
        assert!(json.starts_with("{\"workload\":\"w\",\"spans\":["));
        assert!(json.contains("\"name\":\"inner\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"request\":null"));
    }
}
