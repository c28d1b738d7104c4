//! Host-clock spans the benchmark records around its own calls into the
//! program. Spans are kept in memory and written out once, at the end.
//!
//! Timing is always on (the measured calls are timed whether or not a run
//! is traced); tracing only decides whether the span is *kept*. The cost
//! of keeping spans is what `bench.trace_overhead_s` reports.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed host-clock interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Sequential span id, unique within the run.
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// What was called: `workload.generate`, `engine.execute`, ...
    pub name: &'static str,
    /// The join or request the call served (its index in the workload).
    pub key: u64,
    /// Free-form qualifier, e.g. the strategy an `engine.execute` ran.
    pub tag: String,
    /// Seconds since the tracer was created.
    pub start_s: f64,
    /// Seconds since the tracer was created.
    pub end_s: f64,
}

impl Span {
    /// Span length in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// An open span: its id and start instant.
#[derive(Clone, Copy, Debug)]
pub struct Open {
    id: u64,
    at: Instant,
}

impl Open {
    /// The id the span will carry; children name it as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    keep: bool,
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `keep == false` still times every span but keeps none.
    pub fn new(keep: bool) -> Self {
        Tracer { keep, origin: Instant::now(), next_id: 0, spans: Vec::new() }
    }

    /// Switch keeping on or off (the traced run alternates passes).
    pub fn set_keep(&mut self, keep: bool) {
        self.keep = keep;
    }

    /// Start a span now.
    pub fn open(&mut self) -> Open {
        self.next_id += 1;
        Open { id: self.next_id, at: Instant::now() }
    }

    /// Close `open`, keep it when tracing, and return its length in
    /// seconds.
    pub fn close(
        &mut self,
        open: Open,
        name: &'static str,
        parent: Option<u64>,
        key: u64,
        tag: &str,
    ) -> f64 {
        let end = Instant::now();
        let seconds = end.duration_since(open.at).as_secs_f64();
        if self.keep {
            self.spans.push(Span {
                id: open.id,
                parent,
                name,
                key,
                tag: tag.to_string(),
                start_s: open.at.duration_since(self.origin).as_secs_f64(),
                end_s: end.duration_since(self.origin).as_secs_f64(),
            });
        }
        seconds
    }

    /// Every kept span, in closing order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The kept spans as a JSON array, one span per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"key\": {}, \
                 \"tag\": \"{}\", \"start_s\": {:.9}, \"end_s\": {:.9}}}",
                s.id, s.name, s.key, s.tag, s.start_s, s.end_s
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_spans_are_timed_but_not_kept() {
        let mut tr = Tracer::new(false);
        let open = tr.open();
        assert!(tr.close(open, "x", None, 0, "") >= 0.0);
        assert!(tr.spans().is_empty());
        tr.set_keep(true);
        let outer = tr.open();
        let inner = tr.open();
        tr.close(inner, "inner", Some(outer.id()), 7, "gpu-resident");
        tr.close(outer, "outer", None, 0, "");
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert!(spans[1].start_s <= spans[0].start_s && spans[0].end_s <= spans[1].end_s);
        assert!(tr.to_json().contains("\"tag\": \"gpu-resident\""));
    }
}
