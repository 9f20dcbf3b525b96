//! Spans recorded by the harness around its calls into each layer.
//!
//! Nothing inside the program under test is instrumented: a span is the wall
//! time of one public call. Two kinds exist. An *inline* span times a call
//! the op really makes, nested in the span of the call that made it. A
//! *replay* span times the same work invoked one layer further down, on the
//! same input, right after its parent's call returned — the harness asserts
//! the replay's output equals the parent's — so that the parent's self time
//! (its duration minus its children's) is what that layer itself added.

use crate::measure::median;
use lobster_serve::json::{obj, Json};
use std::collections::BTreeMap;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Inline,
    Replay,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: usize,
    pub parent: Option<SpanId>,
    pub kind: Kind,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Keeps every span in memory until the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    op: usize,
    pub spans: Vec<Span>,
}

/// The root span of every traced op: the harness's own wrapper, whose self
/// time belongs to no layer.
pub const ROOT: &str = "op";

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens the root span of op `op`.
    pub fn begin_op(&mut self, op: usize) -> SpanId {
        self.op = op;
        self.begin(ROOT, None, Kind::Inline)
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, kind: Kind) -> SpanId {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            kind,
            start_us,
            end_us: start_us,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: SpanId) {
        self.spans[span].end_us = self.now_us();
    }

    /// Times one call as a span under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        kind: Kind,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let span = self.begin(name, Some(parent), kind);
        let value = f();
        self.end(span);
        (value, span)
    }

    /// Per-layer times over all traced ops.
    pub fn summary(&self) -> Summary {
        let mut children_ms = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children_ms[parent] += span.ms();
            }
        }
        // name -> op -> (total, self) summed over that op's spans of the name.
        let mut per_name: BTreeMap<&'static str, BTreeMap<usize, (f64, f64, usize)>> =
            BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&children_ms) {
            let entry = per_name
                .entry(span.name)
                .or_default()
                .entry(span.op)
                .or_default();
            entry.0 += span.ms();
            // A replay that ran slower than the call it stands for would give
            // its parent a negative share; count that as none.
            entry.1 += (span.ms() - children).max(0.0);
            entry.2 += 1;
        }
        let layers = per_name
            .into_iter()
            .map(|(name, ops)| {
                let column = |pick: fn(&(f64, f64, usize)) -> f64| {
                    median(&ops.values().map(pick).collect::<Vec<f64>>())
                };
                Layer {
                    name,
                    calls_per_op: column(|e| e.2 as f64),
                    total_ms: column(|e| e.0),
                    self_ms: column(|e| e.1),
                }
            })
            .collect();
        Summary { layers }
    }

    pub fn spans_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, span)| {
                    obj([
                        ("id", Json::from(id)),
                        ("name", Json::from(span.name)),
                        ("op", Json::from(span.op)),
                        ("parent", span.parent.map_or(Json::Null, Json::from)),
                        (
                            "kind",
                            Json::from(match span.kind {
                                Kind::Inline => "inline",
                                Kind::Replay => "replay",
                            }),
                        ),
                        ("start_us", Json::Num(span.start_us)),
                        ("end_us", Json::Num(span.end_us)),
                    ])
                })
                .collect(),
        )
    }
}

/// Median-per-op times of one span name.
#[derive(Debug, Clone)]
pub struct Layer {
    pub name: &'static str,
    pub calls_per_op: f64,
    pub total_ms: f64,
    pub self_ms: f64,
}

#[derive(Debug, Clone)]
pub struct Summary {
    pub layers: Vec<Layer>,
}

impl Summary {
    pub fn layer(&self, name: &str) -> Option<&Layer> {
        self.layers.iter().find(|layer| layer.name == name)
    }

    /// Median duration of the root span: the whole op as measured while
    /// traced.
    pub fn root_ms(&self) -> f64 {
        self.layer(ROOT).map_or(0.0, |root| root.total_ms)
    }

    /// Self times of every layer span (the root's is the harness's own).
    pub fn layers_sum_ms(&self) -> f64 {
        self.layers
            .iter()
            .filter(|layer| layer.name != ROOT)
            .map(|layer| layer.self_ms)
            .sum()
    }

    /// The summary as the run prints it.
    pub fn lines(&self) -> Vec<String> {
        let mut lines =
            vec!["span, calls per request, median total ms, median self ms".to_string()];
        lines.extend(self.layers.iter().map(|layer| {
            format!(
                "  {} {} {:.4} {:.4}",
                layer.name, layer.calls_per_op, layer.total_ms, layer.self_ms
            )
        }));
        lines
    }

    pub fn json(&self) -> Json {
        Json::Arr(
            self.layers
                .iter()
                .map(|layer| {
                    obj([
                        ("name", Json::from(layer.name)),
                        ("calls_per_op", Json::Num(layer.calls_per_op)),
                        ("median_total_ms", Json::Num(layer.total_ms)),
                        ("median_self_ms", Json::Num(layer.self_ms)),
                    ])
                })
                .collect(),
        )
    }
}
