//! In-memory spans recorded around calls into the workspace's layers.
//!
//! Spans are kept in memory while the traced run executes and written out
//! once at the end. Each span names the layer (workspace crate) whose
//! public function it wraps, its parent span, and how many calls it
//! covers, so a batch of a million ledger transfers is one span.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A workspace crate, as a unit of attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Bench,
    Chainsim,
    Cryptosim,
    Swapgraph,
    Protocols,
    Modelcheck,
    Marketsim,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Bench,
        Layer::Chainsim,
        Layer::Cryptosim,
        Layer::Swapgraph,
        Layer::Protocols,
        Layer::Modelcheck,
        Layer::Marketsim,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Chainsim => "chainsim",
            Layer::Cryptosim => "cryptosim",
            Layer::Swapgraph => "swapgraph",
            Layer::Protocols => "protocols",
            Layer::Modelcheck => "modelcheck",
            Layer::Marketsim => "marketsim",
        }
    }
}

/// A delay the benchmark adds after every call into one layer, to check
/// that the traced metrics attribute it to that layer alone.
#[derive(Clone, Copy, Debug)]
pub struct Plant {
    pub layer: Layer,
    pub per_call: Duration,
}

/// Busy-waits for the planted delay if it targets `layer`. Sleeping is
/// far too coarse for sub-microsecond delays.
#[inline]
pub fn planted(plant: Option<Plant>, layer: Layer) {
    if let Some(plant) = plant.filter(|p| p.layer == layer) {
        let until = Instant::now() + plant.per_call;
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    }
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub parent: Option<usize>,
    pub layer: Layer,
    pub name: String,
    pub start: Duration,
    pub end: Duration,
    pub calls: u64,
}

/// The span log of one traced run. Span ids are indices into it.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, layer: Layer, name: impl Into<String>) -> usize {
        let start = self.origin.elapsed();
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            layer,
            name: name.into(),
            start,
            end: start,
            calls: 1,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span (which must be `id`) and returns its
    /// duration.
    pub fn close(&mut self, id: usize, calls: u64) -> Duration {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed();
        span.calls = calls;
        span.end - span.start
    }

    /// Runs `f` inside a span of one call.
    pub fn span<T>(&mut self, layer: Layer, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.open(layer, name);
        let out = f(self);
        self.close(id, 1);
        out
    }

    /// Records a span measured elsewhere (on a worker thread) under the
    /// innermost open span.
    pub fn record(&mut self, layer: Layer, name: String, start: Instant, end: Instant, calls: u64) {
        self.spans.push(Span {
            parent: self.open.last().copied(),
            layer,
            name,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            calls,
        });
    }

    /// Time since the log was created.
    pub fn elapsed(&self) -> Duration {
        self.origin.elapsed()
    }

    /// Each layer's self time: its spans' durations minus the time their
    /// direct children cover. Children of one parent never overlap in time
    /// except for per-worker spans recorded from parallel threads, whose
    /// sum can exceed the parent; self time is clamped at zero there.
    pub fn self_times(&self) -> Vec<(Layer, Duration)> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.end - span.start;
            }
        }
        Layer::ALL
            .iter()
            .map(|&layer| {
                let total = self
                    .spans
                    .iter()
                    .zip(&child_time)
                    .filter(|(span, _)| span.layer == layer)
                    .map(|(span, &children)| (span.end - span.start).saturating_sub(children))
                    .sum();
                (layer, total)
            })
            .collect()
    }

    /// Renders the log as JSON: every span, then per-layer self time.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {id}, \"parent\": {parent}, \"layer\": \"{}\", \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"calls\": {}}}{}",
                span.layer.name(),
                span.name.replace('"', "'"),
                span.start.as_nanos(),
                span.end.as_nanos(),
                span.calls,
                if id + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("], \"self_ns\": {");
        for (i, (layer, time)) in self.self_times().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\": {}", layer.name(), time.as_nanos());
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new();
        let outer = log.open(Layer::Marketsim, "outer");
        let inner = log.open(Layer::Chainsim, "inner");
        std::thread::sleep(Duration::from_millis(4));
        let inner_time = log.close(inner, 10);
        std::thread::sleep(Duration::from_millis(2));
        let outer_time = log.close(outer, 1);
        let times = log.self_times();
        let of = |layer| times.iter().find(|(l, _)| *l == layer).unwrap().1;
        assert_eq!(of(Layer::Chainsim), inner_time);
        assert_eq!(of(Layer::Marketsim), outer_time - inner_time);
        assert_eq!(log.spans[inner].parent, Some(outer));
        assert!(log.to_json().contains("\"calls\": 10"));
    }

    #[test]
    fn plants_only_delay_their_layer() {
        let plant = Some(Plant { layer: Layer::Cryptosim, per_call: Duration::from_millis(3) });
        let start = Instant::now();
        planted(plant, Layer::Chainsim);
        assert!(start.elapsed() < Duration::from_millis(3));
        planted(plant, Layer::Cryptosim);
        assert!(start.elapsed() >= Duration::from_millis(3));
    }
}
