//! Metric catalogs and the report every run prints.
//!
//! The two catalogs below are the benchmark's contract with
//! `BENCHMARK.json`: an untraced run reports every [`END_TO_END`] metric
//! for its workload, a traced run every [`PER_LAYER`] metric (0 where the
//! workload does not exercise the layer).

use serde::{Serialize, Value};

use crate::stats;

/// End-to-end metrics: `(name, unit)`. `setup_s` is the median over
/// set-up repetitions of everything before the first timed op; `p50_ms`
/// the median op latency; `mean_ms` the mean op latency, which on the
/// open loops grows with every request held up behind a stall, however
/// few; `ops_per_s` ops completed per second of the timed phase;
/// `peak_mem_mb` the peak memory of the process doing the work: `VmHWM`
/// of this process for the library workloads, the live-heap peak of the
/// server child for the serve workloads.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("mean_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_mem_mb", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. Times are p50 per
/// op of the layer's self time; ratios are means over ops.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.parse_ms", "ms"),
    ("netlist.flatten_ms", "ms"),
    ("netlist.scc_ms", "ms"),
    ("netlist.nodes", "count"),
    ("workloads.suite_ms", "ms"),
    ("perf.ace_ms", "ms"),
    ("perf.instructions", "count"),
    ("core.prepare_ms", "ms"),
    ("core.relax_ms", "ms"),
    ("core.relax.iterations", "count"),
    ("core.relax.walked_nodes", "count"),
    ("core.resolve_ms", "ms"),
    ("core.compile_ms", "ms"),
    ("core.dag_ops", "count"),
    ("core.patch_ms", "ms"),
    ("core.patch.ops_patched", "count"),
    ("core.patch.hit_ratio", "ratio"),
    ("core.warm.hit_ratio", "ratio"),
    ("core.warm.dirty_fubs", "count"),
    ("core.sweep.unattributed_ms", "ms"),
    ("core.fixpoint.load_ms", "ms"),
    ("core.fixpoint.store_ms", "ms"),
    ("core.fixpoint.bytes", "bytes"),
    ("core.sweep.cache_key_ms", "ms"),
    ("core.sweep.artifact_load_ms", "ms"),
    ("core.sweep.artifact_store_ms", "ms"),
    ("core.sweep.artifact_bytes", "bytes"),
    ("core.eval_ms", "ms"),
    ("core.eval.ns_per_op_table", "ns"),
    ("serve.eval_ms", "ms"),
    ("serve.handle_ms", "ms"),
    ("serve.rtt_ms", "ms"),
    ("serve.query_p90_ms", "ms"),
    ("serve.json_decode_ms", "ms"),
    ("serve.json_encode_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.request_bytes", "bytes"),
    ("serve.response_bytes", "bytes"),
    ("serve.update_ms", "ms"),
    ("serve.update.warm_ratio", "ratio"),
    ("serve.update.patched_ratio", "ratio"),
    ("serve.update.walked_nodes", "count"),
    ("serve.refused", "count"),
    ("gen.late_p99_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("trace_overhead_pct", "%"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalog name.
    pub name: &'static str,
    /// Catalog unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples the value summarizes.
    pub samples: usize,
}

/// What one workload run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed: a non-200 answer, a refusal, or any output
    /// bit differing from the reference.
    pub failed: u64,
    /// Metrics in catalog order.
    pub metrics: Vec<Metric>,
    /// Provenance as `(key, value)` pairs.
    pub provenance: Vec<(String, String)>,
}

/// The raw measurements every workload turns into [`END_TO_END`] metrics.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Wall time of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Latency of each op of the timed phase, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the timed phase, seconds.
    pub wall_s: f64,
    /// Peak memory, MiB.
    pub peak_mem_mb: Option<f64>,
}

impl Measured {
    /// The end-to-end metrics; a metric without enough samples is omitted.
    pub fn metrics(&self) -> Vec<Metric> {
        let n = self.latencies_ms.len();
        let values = [
            stats::median(&self.setup_s).map(|v| (v, self.setup_s.len())),
            stats::median(&self.latencies_ms).map(|v| (v, n)),
            stats::mean(&self.latencies_ms).map(|v| (v, n)),
            (self.wall_s > 0.0 && n > 0).then(|| (n as f64 / self.wall_s, n)),
            self.peak_mem_mb.map(|v| (v, 1)),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .filter_map(|(&(name, unit), v)| {
                v.map(|(value, samples)| Metric {
                    name,
                    unit,
                    value,
                    samples,
                })
            })
            .collect()
    }
}

impl Outcome {
    /// Whether every attempted op was answered correctly.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// `correct`, `attempted`, `failed` and `metrics`; with `samples`,
    /// each metric also carries its sample count.
    fn result(&self, samples: bool) -> Vec<(String, Value)> {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_owned(), m.value.to_value()),
                    ("unit".to_owned(), Value::Str(m.unit.to_owned())),
                ];
                if samples {
                    fields.push(("samples".to_owned(), m.samples.to_value()));
                }
                (m.name.to_owned(), Value::Obj(fields))
            })
            .collect();
        vec![
            ("correct".to_owned(), Value::Bool(self.correct())),
            ("attempted".to_owned(), self.attempted.to_value()),
            ("failed".to_owned(), self.failed.to_value()),
            ("metrics".to_owned(), Value::Obj(metrics)),
        ]
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self) -> String {
        serde_json::to_string(&Value::Obj(self.result(false))).expect("a Value always renders")
    }

    /// The full report: result, sample counts and provenance.
    pub fn to_value(&self) -> Value {
        let provenance = self
            .provenance
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
            .collect();
        let mut report = vec![("workload".to_owned(), Value::Str(self.workload.to_owned()))];
        report.extend(self.result(true));
        report.push(("provenance".to_owned(), Value::Obj(provenance)));
        Value::Obj(report)
    }

    /// Human-readable table: every metric with its unit and sample count.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {}: {} attempted, {} failed ({})\n",
            self.workload,
            self.attempted,
            self.failed,
            if self.correct() {
                "correct"
            } else {
                "INCORRECT"
            }
        );
        for (k, v) in &self.provenance {
            out.push_str(&format!("   {k}: {v}\n"));
        }
        for m in &self.metrics {
            out.push_str(&format!(
                "   {:<30} {:>14.4} {:<6} (n={})\n",
                m.name, m.value, m.unit, m.samples
            ));
        }
        out
    }
}
