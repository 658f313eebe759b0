//! **E10 — design-choice ablations** (§4, §5.1): what each ingredient of
//! the methodology buys.
//!
//! - **Backward walks off** (forward only): the paper's key claim is that
//!   using `MIN(forward, backward)` "is the main reason why the node AVF
//!   values do not simply saturate to 100%".
//! - **Bit-field analysis off**: control-structure pAVFs become more
//!   conservative ("the resulting pAVFs can be much less conservative" with
//!   it on).
//! - **HD-1 analysis off**: CAM structures lose their tag-bit refinement.
//! - **Conservative vs precise residency**: the magnitude of the structure
//!   AVF conservatism the sequential flow removes.
//! - **Partitioned vs global analysis** (one partition per FUB against
//!   the whole design as one): identical results, different iteration
//!   counts (validates the FUBIO relaxation).

use serde::{Deserialize, Serialize};

use crate::common::{flow_config, Scale};
use seqavf::flow::{inputs_from_suite, run_flow, run_suite};
use seqavf_core::engine::{SartConfig, SartEngine};
use seqavf_obs::Collector;
use seqavf_perf::pipeline::PerfConfig;

/// The ablation report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationReport {
    /// Baseline mean sequential AVF (all features on).
    pub baseline_seq_avf: f64,
    /// Mean sequential AVF using only the forward walk.
    pub forward_only_seq_avf: f64,
    /// Mean sequential AVF without bit-field analysis.
    pub no_bitfield_seq_avf: f64,
    /// Mean sequential AVF without HD-1 analysis.
    pub no_hd1_seq_avf: f64,
    /// Mean structure AVF, precise residency.
    pub precise_struct_avf: f64,
    /// Mean structure AVF, conservative residency.
    pub conservative_struct_avf: f64,
    /// Iterations used by partitioned relaxation.
    pub partitioned_iterations: usize,
    /// Largest per-node difference between partitioned and global modes.
    pub partition_vs_global_max_diff: f64,
}

impl AblationReport {
    /// Renders the ablation table.
    pub fn render(&self) -> String {
        format!(
            "Design-choice ablations (mean sequential AVF unless noted)\n\
             baseline (all on):          {:.4}\n\
             forward walk only:          {:.4}  (+{:.1}% — MIN(F,B) prevents saturation)\n\
             bit-field analysis off:     {:.4}  (+{:.1}%)\n\
             HD-1 analysis off:          {:.4}  (+{:.1}%)\n\
             structure AVF precise:      {:.4}\n\
             structure AVF conservative: {:.4}  ({:.1}× inflation removed by the flow)\n\
             partitioned iterations:     {}\n\
             partitioned vs global max |Δ|: {:.2e} (same fixpoint)\n",
            self.baseline_seq_avf,
            self.forward_only_seq_avf,
            100.0 * (self.forward_only_seq_avf / self.baseline_seq_avf - 1.0),
            self.no_bitfield_seq_avf,
            100.0 * (self.no_bitfield_seq_avf / self.baseline_seq_avf - 1.0),
            self.no_hd1_seq_avf,
            100.0 * (self.no_hd1_seq_avf / self.baseline_seq_avf - 1.0),
            self.precise_struct_avf,
            self.conservative_struct_avf,
            self.conservative_struct_avf / self.precise_struct_avf.max(1e-12),
            self.partitioned_iterations,
            self.partition_vs_global_max_diff,
        )
    }
}

/// Runs all ablations.
pub fn run(scale: Scale, seed: u64) -> AblationReport {
    let cfg = flow_config(scale, seed);
    let out = run_flow(&cfg);
    let nl = &out.design.netlist;
    let baseline_seq_avf = out.result.mean_seq_avf(nl);

    // Forward-only: evaluate each sequential's forward walk value alone.
    let mut fsum = 0.0;
    let mut fcount = 0usize;
    for id in nl.seq_nodes() {
        fsum += out.result.forward_value(id, &out.inputs);
        fcount += 1;
    }
    let forward_only_seq_avf = fsum / fcount.max(1) as f64;

    // Re-derive inputs with analyses disabled; closed forms are reused.
    let traces = seqavf_workloads::suite::standard_suite(&cfg.suite);
    let mut no_bf_seq_avf = 0.0;
    let mut no_hd1_seq_avf = 0.0;
    for (bitfield, hd1, slot) in [
        (false, true, &mut no_bf_seq_avf),
        (true, false, &mut no_hd1_seq_avf),
    ] {
        let suite = run_suite(
            &traces,
            &PerfConfig {
                bitfield,
                hd1,
                ..cfg.perf
            },
        );
        let inputs = inputs_from_suite(&suite);
        let avfs = out.result.reevaluate(nl, &inputs);
        *slot = nl.seq_nodes().map(|id| avfs[id.index()]).sum::<f64>() / fcount.max(1) as f64;
    }

    // Residency modes.
    let precise = out.suite_report.mean_structure_avfs();
    let precise_struct_avf = precise.values().sum::<f64>() / precise.len().max(1) as f64;
    let cons_suite = run_suite(
        &traces,
        &PerfConfig {
            conservative_residency: true,
            ..cfg.perf
        },
    );
    let cons = cons_suite.mean_structure_avfs();
    let conservative_struct_avf = cons.values().sum::<f64>() / cons.len().max(1) as f64;

    // Partitioned vs global.
    let obs = Collector::disabled();
    let global_engine = SartEngine::new_traced(
        nl,
        &out.mapping,
        SartConfig {
            partitioned: false,
            ..cfg.sart.clone()
        },
        None,
        &obs,
    );
    let global = global_engine.run_traced(&out.inputs, &obs);
    let partition_vs_global_max_diff = nl
        .nodes()
        .map(|id| (out.result.avf(id) - global.avf(id)).abs())
        .fold(0.0, f64::max);

    AblationReport {
        baseline_seq_avf,
        forward_only_seq_avf,
        no_bitfield_seq_avf: no_bf_seq_avf,
        no_hd1_seq_avf,
        precise_struct_avf,
        conservative_struct_avf,
        partitioned_iterations: out.result.iterations(),
        partition_vs_global_max_diff,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_only_saturates_relative_to_min() {
        let r = run(Scale::Quick, 29);
        assert!(
            r.forward_only_seq_avf > r.baseline_seq_avf,
            "forward {} must exceed MIN {} — the backward walk refines",
            r.forward_only_seq_avf,
            r.baseline_seq_avf
        );
    }

    #[test]
    fn refinements_only_lower_avf() {
        let r = run(Scale::Quick, 29);
        assert!(
            r.no_bitfield_seq_avf >= r.baseline_seq_avf - 1e-9,
            "bit-field analysis must not raise AVF"
        );
        assert!(
            r.no_hd1_seq_avf >= r.baseline_seq_avf - 1e-9,
            "HD-1 analysis must not raise AVF"
        );
    }

    #[test]
    fn conservative_residency_inflates_structure_avf() {
        let r = run(Scale::Quick, 29);
        assert!(r.conservative_struct_avf > r.precise_struct_avf);
    }

    #[test]
    fn partitioned_and_global_agree() {
        let r = run(Scale::Quick, 29);
        assert!(r.partition_vs_global_max_diff < 1e-12);
        assert!(r.partitioned_iterations >= 2, "relaxation crosses FUBs");
    }
}
