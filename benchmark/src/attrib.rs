//! Per-layer attribution of traced ops.
//!
//! Each traced op is one root span recorded by the benchmark around the
//! public calls it makes, plus every span recorded inside it — by the
//! benchmark around calls into a layer, or by the program itself
//! (`frontend.parse`, `relax.sweep`, `sweep.patch`, …). The op's wall
//! time is partitioned by interval containment: every instant goes to the
//! innermost span covering it, so layer self times plus the root's own
//! remainder (`unattributed_ms`) sum to the op's wall time exactly.

use std::collections::{BTreeMap, BTreeSet};

use seqavf_obs::{Collector, SpanEvent};

use crate::report::{Metric, PER_LAYER};
use crate::stats;

/// Spans and the per-layer metric their self time counts toward. The
/// root span's own remainder, and any span not listed, is
/// `unattributed_ms`.
const LAYER_SPANS: &[(&str, &str)] = &[
    ("frontend.parse", "netlist.parse_ms"),
    ("frontend.flatten", "netlist.flatten_ms"),
    ("netlist.scc", "netlist.scc_ms"),
    ("workloads.suite", "workloads.suite_ms"),
    ("perf.ace", "perf.ace_ms"),
    ("ace.suite", "perf.ace_ms"),
    ("ace.workload", "perf.ace_ms"),
    ("sart.prepare", "core.prepare_ms"),
    ("relax.sweep", "core.relax_ms"),
    ("sart.resolve", "core.resolve_ms"),
    ("sweep.compile", "core.compile_ms"),
    ("sweep.patch", "core.patch_ms"),
    ("sweep.eval", "core.eval_ms"),
    ("sweep.eval_batch", "core.eval_ms"),
    ("core.sweep", "core.sweep.unattributed_ms"),
];

fn layer_of(span: &str) -> Option<&'static str> {
    LAYER_SPANS
        .iter()
        .find(|&&(s, _)| s == span)
        .map(|&(_, metric)| metric)
}

/// Self time per layer of the spans inside `root`, in milliseconds; the
/// root's own remainder (and any span no layer claims) is filed under
/// `unattributed_ms`.
pub fn partition(root: &SpanEvent, inner: &[SpanEvent]) -> BTreeMap<&'static str, f64> {
    let (lo, hi) = (root.start_us, root.start_us + root.dur_us);
    let spans: Vec<(u64, u64, u64, &str)> = inner
        .iter()
        .map(|s| {
            let (a, b) = (s.start_us.max(lo), (s.start_us + s.dur_us).min(hi));
            (a, b, s.dur_us, s.name)
        })
        .filter(|(a, b, _, _)| a < b)
        .collect();
    let mut cuts: Vec<u64> = spans.iter().flat_map(|&(a, b, _, _)| [a, b]).collect();
    cuts.extend([lo, hi]);
    cuts.sort_unstable();
    cuts.dedup();
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let innermost = spans
            .iter()
            .filter(|&&(s, e, _, _)| s <= a && b <= e)
            .min_by_key(|&&(_, _, dur, _)| dur)
            .and_then(|&(_, _, _, name)| layer_of(name));
        *out.entry(innermost.unwrap_or("unattributed_ms"))
            .or_default() += (b - a) as f64 / 1e3;
    }
    out
}

/// What one traced op left behind.
#[derive(Debug, Default)]
pub struct Traced {
    /// Self time per layer, ms (see [`partition`]); sums to the op's
    /// wall time.
    pub part: BTreeMap<&'static str, f64>,
    /// How much each counter grew during the op.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Traced {
    /// The op's wall time from its root span, ms.
    pub fn wall_ms(&self) -> f64 {
        self.part.values().sum()
    }

    /// How much counter `name` grew.
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0) as f64
    }
}

/// Runs op number `index` of `workload` inside a root span named `root`
/// and returns its result with what the trace recorded. The collector
/// must be enabled and used by no other thread meanwhile.
pub fn traced<T>(
    obs: &Collector,
    root: &'static str,
    (workload, index): (&str, usize),
    op: impl FnOnce() -> T,
) -> (T, Traced) {
    let before = obs.spans().len();
    let counts_before: BTreeMap<&str, u64> = obs.counters().into_iter().collect();
    let value = {
        let mut span = obs.span(root);
        span.field_str("workload", workload);
        span.field_u64("op", index as u64);
        op()
    };
    let spans = obs.spans();
    let (root_span, inner) = spans[before..]
        .split_last()
        .expect("the root span closes last");
    let counts = obs
        .counters()
        .into_iter()
        .map(|(k, v)| (k, v - counts_before.get(k).copied().unwrap_or(0)))
        .collect();
    let part = partition(root_span, inner);
    (value, Traced { part, counts })
}

/// Per-op layer values, summarized into the [`PER_LAYER`] catalog.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Records one op's value of a metric.
    pub fn add(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "{name} is not a per-layer metric"
        );
        self.values.entry(name).or_default().push(value);
    }

    /// Records a [`partition`]: every layer's self time, 0 for a layer
    /// the op did not enter.
    pub fn add_partition(&mut self, part: &BTreeMap<&'static str, f64>) {
        let names: BTreeSet<&'static str> = LAYER_SPANS
            .iter()
            .map(|&(_, m)| m)
            .chain(["unattributed_ms"])
            .collect();
        for name in names {
            self.add(name, part.get(name).copied().unwrap_or(0.0));
        }
    }

    /// Every [`PER_LAYER`] metric: ratios as means, `serve.refused` as a
    /// total, everything else as the median per op; 0 with no samples.
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = self.values.get(name).map(Vec::as_slice).unwrap_or(&[]);
                let value = if v.is_empty() {
                    0.0
                } else if unit == "ratio" {
                    v.iter().sum::<f64>() / v.len() as f64
                } else if name == "serve.refused" {
                    v.iter().sum()
                } else {
                    stats::median(v).expect("non-empty")
                };
                Metric {
                    name,
                    unit,
                    value,
                    samples: v.len(),
                }
            })
            .collect()
    }
}

/// `(median traced - median untraced) / median untraced`, in percent.
pub fn overhead_pct(traced: &[f64], untraced: &[f64]) -> Option<f64> {
    let (t, u) = (stats::median(traced)?, stats::median(untraced)?);
    Some((t - u) / u * 100.0)
}
