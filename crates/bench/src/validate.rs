//! **E17 — validation campaign throughput and sampling efficiency**:
//! trial-indexed fault-injection campaigns vs thread count and vs
//! target-selection strategy.
//!
//! Three questions, one report (`BENCH_8.json`):
//!
//! 1. **Thread scaling.** The campaign splits the trial index space into
//!    contiguous ranges over `std::thread::scope` workers; every draw is
//!    a pure function of `(seed, trial, draw)` (counter-mode RNG), so
//!    tallies must be bit-identical at any thread count. This sweeps
//!    threads ∈ {1, 8, 32}, measures trials/sec with the exact paired
//!    simulation, and *checks* the identity contract with `==` on the
//!    all-integer tallies. Expect near-linear speedup on hosts with free
//!    cores and a flat curve on a single-core host — the report records
//!    `host_parallelism` so flat numbers read as what they are.
//! 2. **Kernel fast path.** One extra point times the
//!    propagation-probability kernel (no trace re-simulation; one
//!    Bernoulli draw against the precomputed masking model per trial) on
//!    the same budget.
//! 3. **Importance sampling.** At equal trial budgets, uniform selection
//!    vs selection weighted by the predicted AVF. Importance sampling
//!    spends trials where the AVF (and thus the soft-error contribution)
//!    is large, so the *AVF-weighted* mean Wilson interval width — the
//!    uncertainty on the bits that matter — should tighten; the
//!    Horvitz–Thompson reweighting keeps the population-mean estimate
//!    unbiased (property-tested in `seqavf-beam`).
//!
//! The analytical prediction used for weighting and correlation is the
//! one `seqavf validate` defaults to: SART under conservative all-1.0
//! inputs, derated by the propagation model (see `DESIGN.md` §13).

use std::time::Instant;

use serde::{Deserialize, Serialize};

use seqavf_beam::validate::{
    importance_weights, run_validate, Sampling, ValidateConfig, ValidationReport,
};
use seqavf_core::engine::{SartConfig, SartEngine};
use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_netlist::graph::NodeId;
use seqavf_netlist::synth::{generate, SynthConfig};
use seqavf_obs::Collector;
use seqavf_sfi::campaign::{run_trials, Kernel, TrialConfig};
use seqavf_sfi::inject::observation_points;
use seqavf_sfi::logic::PropModel;

use crate::common::{Provenance, Scale};

/// One thread-sweep point (exact kernel).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignPoint {
    /// Worker threads used.
    pub threads: usize,
    /// Campaign wall time, seconds.
    pub seconds: f64,
    /// Trials per second.
    pub trials_per_sec: f64,
    /// Speedup over the single-thread point.
    pub speedup: f64,
}

/// One target-selection arm of the equal-budget comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SamplingArm {
    /// `"uniform"` or `"importance"`.
    pub sampling: String,
    /// Pearson correlation of per-FUB injection vs predicted AVF.
    pub pearson: f64,
    /// Unweighted mean per-FUB Wilson interval width.
    pub mean_ci_width: f64,
    /// Mean per-FUB interval width weighted by the predicted AVF — the
    /// uncertainty on the bits that dominate the soft-error rate.
    pub weighted_ci_width: f64,
    /// Horvitz–Thompson population-mean estimate (should agree between
    /// arms: the reweighting is unbiased).
    pub mean_injected_avf: f64,
}

/// The E17 report, emitted as `BENCH_8.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidateBenchReport {
    /// Measurement provenance (design digest, host, thread counts).
    pub provenance: Provenance,
    /// Nodes in the benchmarked design.
    pub nodes: usize,
    /// Sequential bits targeted.
    pub bits: usize,
    /// Trials per thread-sweep point.
    pub trials: usize,
    /// Trials per sampling arm.
    pub arm_trials: usize,
    /// `std::thread::available_parallelism()` of the measuring host; a
    /// flat thread curve on a 1-core host is expected, not a bug.
    pub host_parallelism: usize,
    /// Thread sweep, ascending thread count, exact kernel.
    pub points: Vec<CampaignPoint>,
    /// Trials/sec of the propagation-probability kernel at the largest
    /// thread count, same budget as the sweep points.
    pub propagation_trials_per_sec: f64,
    /// Whether every thread count produced bit-identical tallies.
    pub bit_identical: bool,
    /// Uniform-selection arm.
    pub uniform: SamplingArm,
    /// Importance-selection arm (floor 0.01), equal budget.
    pub importance: SamplingArm,
    /// Whether importance sampling tightened the AVF-weighted interval
    /// width at the equal budget.
    pub importance_tightens: bool,
}

impl ValidateBenchReport {
    /// Renders the report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "validation campaign throughput ({} nodes, {} bits, {} trials/point, host parallelism {})\n\
             {:<8} {:>10} {:>14} {:>9}",
            self.nodes, self.bits, self.trials, self.host_parallelism,
            "threads", "secs", "trials/sec", "speedup"
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:<8} {:>10.3} {:>14.0} {:>8.2}x",
                p.threads, p.seconds, p.trials_per_sec, p.speedup
            );
        }
        let _ = writeln!(
            out,
            "propagation kernel: {:.0} trials/sec\n\
             tallies bit-identical across thread counts: {}\n",
            self.propagation_trials_per_sec,
            if self.bit_identical {
                "yes"
            } else {
                "NO (BUG)"
            }
        );
        let _ = writeln!(
            out,
            "equal-budget sampling arms ({} trials each):\n\
             {:<12} {:>9} {:>14} {:>18} {:>12}",
            self.arm_trials, "sampling", "pearson", "mean ci width", "weighted ci width", "HT mean"
        );
        for arm in [&self.uniform, &self.importance] {
            let _ = writeln!(
                out,
                "{:<12} {:>9.4} {:>14.4} {:>18.4} {:>12.4}",
                arm.sampling,
                arm.pearson,
                arm.mean_ci_width,
                arm.weighted_ci_width,
                arm.mean_injected_avf
            );
        }
        let _ = writeln!(
            out,
            "\nimportance sampling tightens AVF-weighted intervals: {}",
            if self.importance_tightens {
                "yes"
            } else {
                "no"
            }
        );
        out
    }
}

/// Predicted-AVF-weighted mean of the per-FUB Wilson interval widths.
fn weighted_width(report: &ValidationReport) -> f64 {
    let (mut num, mut den) = (0.0, 0.0);
    for row in &report.fubs {
        let w = row.sart_avf.max(0.0);
        num += w * (row.ci.1 - row.ci.0);
        den += w;
    }
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn arm(report: &ValidationReport, name: &str) -> SamplingArm {
    SamplingArm {
        sampling: name.to_owned(),
        pearson: report.pearson,
        mean_ci_width: report.mean_ci_width,
        weighted_ci_width: weighted_width(report),
        mean_injected_avf: report.mean_injected_avf,
    }
}

/// Runs the campaign sweep and the sampling comparison.
pub fn run(scale: Scale, seed: u64, thread_counts: &[usize]) -> ValidateBenchReport {
    let (factor, cores, trials, arm_trials) = match scale {
        Scale::Quick => (0.5, 1, 2_000, 4_000),
        Scale::Full => (2.0, 8, 50_000, 100_000),
    };
    let design = generate(
        &SynthConfig::xeon_like(seed)
            .scaled(factor)
            .with_cores(cores),
    );
    let nl = &design.netlist;
    let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
    let targets: Vec<NodeId> = nl.seq_nodes().collect();

    // The analytical prediction: conservative SART × propagation derating.
    let obs = Collector::disabled();
    let engine = SartEngine::new_traced(nl, &mapping, SartConfig::default(), None, &obs);
    let analytical = engine.run_traced(&PavfInputs::new(), &obs);
    let model = PropModel::build(nl, &observation_points(nl));
    let predicted: Vec<f64> = targets
        .iter()
        .map(|&b| analytical.avf(b).clamp(0.0, 1.0) * model.propagation(b))
        .collect();

    // Thread sweep, exact kernel, bit-identity checked against the first
    // point's tallies.
    let mut points = Vec::new();
    let mut reference = None;
    let mut bit_identical = true;
    let mut base_secs = 0.0;
    for &threads in thread_counts {
        let cfg = TrialConfig {
            trials,
            threads,
            ..TrialConfig::default()
        };
        let start = Instant::now();
        let result = run_trials(nl, &targets, None, &cfg);
        let secs = start.elapsed().as_secs_f64();
        match &reference {
            None => {
                reference = Some(result);
                base_secs = secs;
            }
            Some(first) => {
                if first != &result {
                    bit_identical = false;
                }
            }
        }
        points.push(CampaignPoint {
            threads,
            seconds: secs,
            trials_per_sec: trials as f64 / secs.max(1e-12),
            speedup: base_secs / secs.max(1e-12),
        });
    }

    // Propagation-probability fast path at the widest thread count.
    let prop_cfg = TrialConfig {
        trials,
        threads: thread_counts.last().copied().unwrap_or(1),
        kernel: Kernel::Propagation,
        ..TrialConfig::default()
    };
    let start = Instant::now();
    let _ = run_trials(nl, &targets, None, &prop_cfg);
    let propagation_trials_per_sec = trials as f64 / start.elapsed().as_secs_f64().max(1e-12);

    // Equal-budget sampling arms. Weight sanity: `importance_weights`
    // floors at 0.01 so every bit keeps full support.
    let arm_cfg = |sampling| ValidateConfig {
        trial: TrialConfig {
            trials: arm_trials,
            threads: thread_counts.last().copied().unwrap_or(1),
            ..TrialConfig::default()
        },
        sampling,
    };
    let uniform_report = run_validate(
        nl,
        nl.design_name(),
        &targets,
        &predicted,
        &arm_cfg(Sampling::Uniform),
    );
    let importance_report = run_validate(
        nl,
        nl.design_name(),
        &targets,
        &predicted,
        &arm_cfg(Sampling::Importance { floor: 0.01 }),
    );
    debug_assert_eq!(importance_weights(&predicted, 0.01).len(), predicted.len());

    let uniform = arm(&uniform_report, "uniform");
    let importance = arm(&importance_report, "importance");
    let importance_tightens = importance.weighted_ci_width < uniform.weighted_ci_width;
    ValidateBenchReport {
        provenance: Provenance::capture(nl.content_digest(), thread_counts),
        nodes: nl.node_count(),
        bits: targets.len(),
        trials,
        arm_trials,
        host_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        points,
        propagation_trials_per_sec,
        bit_identical,
        uniform,
        importance,
        importance_tightens,
    }
}
