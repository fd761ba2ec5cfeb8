//! Outside-in spans: one per call from the benchmark into a layer's public
//! function. Spans stay in memory during the run and are written out once
//! at exit; nothing here reaches inside the program under test.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. `parent` is the span that caused it (`None` for a
/// pass's root span); spans of one pass share `pass`.
#[derive(Clone, PartialEq, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub pass: u32,
    /// `<layer>.<function>`, e.g. `traces.synth`; `pass` for a root.
    pub name: &'static str,
    /// What the call worked on, e.g. `trace 3 RFV960508`.
    pub detail: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Nanoseconds since `origin`.
fn since(origin: Instant) -> u64 {
    crate::now().duration_since(origin).as_nanos() as u64
}

/// In-memory span recorder; all stamps are relative to `origin`.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: crate::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its id; [`close`](Self::close) ends it.
    pub fn open(
        &mut self,
        pass: u32,
        parent: Option<u32>,
        name: &'static str,
        detail: String,
    ) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = since(self.origin);
        self.spans.push(Span {
            id,
            parent,
            pass,
            name,
            detail,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = since(self.origin);
    }

    /// Times `f` as a child span of `parent`.
    pub fn call<T>(
        &mut self,
        parent: u32,
        name: &'static str,
        detail: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        let pass = self.spans[parent as usize].pass;
        let id = self.open(pass, Some(parent), name, detail.to_string());
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn duration_s(&self, id: u32) -> f64 {
        self.spans[id as usize].duration_ns() as f64 / 1e9
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover (overlapping children are counted once).
pub fn self_ns(spans: &[Span], id: u32) -> u64 {
    let span = &spans[id as usize];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(start, end)| start < end)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (start, end) in children {
        if end > reach {
            covered += end - start.max(reach);
            reach = end;
        }
    }
    span.duration_ns() - covered
}

/// Per pass, the summed duration in seconds of the spans named `name`, in
/// pass order — the sample a layer's time is the median of.
pub fn seconds_per_pass(spans: &[Span], name: &str) -> Vec<f64> {
    let mut by_pass: Vec<(u32, u64)> = Vec::new();
    for s in spans.iter().filter(|s| s.name == name) {
        match by_pass.last_mut() {
            Some((pass, total)) if *pass == s.pass => *total += s.duration_ns(),
            _ => by_pass.push((s.pass, s.duration_ns())),
        }
    }
    by_pass.into_iter().map(|(_, ns)| ns as f64 / 1e9).collect()
}

/// Per pass, the share of the root span's duration that is *not* the
/// root's own self time, i.e. is attributed to a layer call.
pub fn attributed_share_per_pass(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.duration_ns() > 0)
        .map(|root| 1.0 - self_ns(spans, root.id) as f64 / root.duration_ns() as f64)
        .collect()
}

/// The span file: every span with its self time, as one JSON document.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"id\":{},\"parent\":{parent},\"pass\":{},\"name\":\"{}\",\"detail\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id,
            s.pass,
            s.name,
            s.detail,
            s.start_ns,
            s.end_ns,
            self_ns(spans, s.id)
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u32,
        parent: Option<u32>,
        pass: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            id,
            parent,
            pass,
            name,
            detail: String::new(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = vec![
            span(0, None, 0, "pass", 100, 200),
            span(1, Some(0), 0, "a", 110, 130),
            // Overlaps `a` by 10 ns: the union covers [110, 150).
            span(2, Some(0), 0, "b", 120, 150),
            // Sticks out past the parent's end: clipped to [190, 200).
            span(3, Some(0), 0, "c", 190, 260),
            // A grandchild never counts against the root.
            span(4, Some(1), 0, "d", 112, 118),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 40 - 10);
        assert_eq!(self_ns(&spans, 1), 20 - 6);
        assert_eq!(self_ns(&spans, 4), 6);
    }

    #[test]
    fn self_times_of_a_pass_sum_to_its_wall() {
        let spans = vec![
            span(0, None, 0, "pass", 0, 1_000),
            span(1, Some(0), 0, "a", 10, 400),
            span(2, Some(0), 0, "b", 400, 990),
            span(3, Some(2), 0, "c", 500, 600),
        ];
        let total: u64 = (0..4).map(|id| self_ns(&spans, id)).sum();
        assert_eq!(total, 1_000);
        assert_eq!(attributed_share_per_pass(&spans), vec![0.98]);
    }

    #[test]
    fn layer_seconds_are_summed_within_a_pass_and_kept_apart_across_passes() {
        let spans = vec![
            span(0, None, 0, "pass", 0, 10),
            span(1, Some(0), 0, "x", 0, 2_000_000_000),
            span(2, Some(0), 0, "x", 0, 1_000_000_000),
            span(3, None, 1, "pass", 0, 10),
            span(4, Some(3), 1, "x", 0, 500_000_000),
        ];
        assert_eq!(seconds_per_pass(&spans, "x"), vec![3.0, 0.5]);
        assert!(seconds_per_pass(&spans, "y").is_empty());
    }

    #[test]
    fn span_file_round_trips_through_the_json_reader() {
        let spans = vec![
            span(0, None, 0, "pass", 5, 25),
            span(1, Some(0), 0, "a", 10, 20),
        ];
        let doc = obs::JsonValue::parse(&to_json("w", 7, &spans)).unwrap();
        let arr = doc.get("spans").and_then(obs::JsonValue::as_arr).unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("parent"), Some(&obs::JsonValue::Null));
        assert_eq!(
            arr[0].get("self_ns").and_then(obs::JsonValue::as_u64),
            Some(10)
        );
        assert_eq!(
            arr[1].get("parent").and_then(obs::JsonValue::as_u64),
            Some(0)
        );
    }
}
