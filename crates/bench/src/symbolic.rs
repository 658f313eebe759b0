//! **E9 — closed-form re-evaluation** (§5.2): "any subsequent sequential
//! AVF computations on this particular design simply needs to generate new
//! pAVFs from the ACE model then plug those values into the closed form
//! equations … No subsequent sequential AVF computation needs to re-run
//! the SART or relaxation stages."
//!
//! This experiment measures the speedup of the closed-form path over a
//! full SART re-run for a fresh workload, verifies they agree exactly, and
//! reports the symbolic-engine statistics (distinct term sets, set-union
//! dedup factor).

use serde::{Deserialize, Serialize};

use crate::common::{flow_config, Scale};
use seqavf::flow::{inputs_from_report, run_flow};
use seqavf_core::classify::classify;
use seqavf_core::engine::SartEngine;
use seqavf_core::numeric::solve_parallel;
use seqavf_core::walk::{prepare, Propagator};
use seqavf_netlist::scc::find_loops;
use seqavf_obs::Collector;
use seqavf_perf::pipeline::run_ace;
use seqavf_workloads::suite::MixFamily;

/// The symbolic re-evaluation report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SymbolicReport {
    /// Nodes in the design.
    pub nodes: usize,
    /// Distinct pAVF terms (structure ports + injected state).
    pub terms: usize,
    /// Distinct interned term sets across the whole design.
    pub distinct_sets: usize,
    /// Sharing factor: node annotations per distinct set.
    pub sharing_factor: f64,
    /// Full SART re-run wall-clock, seconds.
    pub full_run_seconds: f64,
    /// Closed-form re-evaluation wall-clock, seconds.
    pub reeval_seconds: f64,
    /// Speedup of re-evaluation over the full run.
    pub speedup: f64,
    /// Largest per-node AVF difference between the two paths (must be ~0).
    pub max_difference: f64,
    /// Mean sequential AVF under the naive numeric (capped-sum) union —
    /// the engine one gets *without* the paper's set-theoretic dedup.
    pub numeric_seq_avf: f64,
    /// Mean sequential AVF under the symbolic set-union engine.
    pub symbolic_seq_avf: f64,
    /// Nodes where the numeric value strictly exceeds the symbolic value
    /// (reconvergent fan-in double-counted by the naive union).
    pub dedup_wins: usize,
}

impl SymbolicReport {
    /// Renders the report.
    pub fn render(&self) -> String {
        format!(
            "Symbolic closed-form re-evaluation (§5.2)\n\
             design: {} nodes, {} pAVF terms, {} distinct term sets\n\
             sharing factor: {:.1} annotations per set\n\
             full SART run:  {:.4} s\n\
             re-evaluation:  {:.6} s\n\
             speedup:        {:.0}×\n\
             max per-node difference: {:.2e} (exact reuse)\n\
             set-union dedup: symbolic mean seq AVF {:.4} vs naive numeric {:.4}\n\
             ({} nodes refined by set semantics)\n",
            self.nodes,
            self.terms,
            self.distinct_sets,
            self.sharing_factor,
            self.full_run_seconds,
            self.reeval_seconds,
            self.speedup,
            self.max_difference,
            self.symbolic_seq_avf,
            self.numeric_seq_avf,
            self.dedup_wins,
        )
    }
}

/// Runs the symbolic re-evaluation study.
pub fn run(scale: Scale, seed: u64) -> SymbolicReport {
    let cfg = flow_config(scale, seed);
    let out = run_flow(&cfg);
    let nl = &out.design.netlist;

    // A fresh workload the closed forms have never seen.
    let fresh = MixFamily::builtin()[2].generate(99, cfg.suite.len, seed ^ 0xfeed);
    let rep = run_ace(&fresh, &cfg.perf);
    let new_inputs = inputs_from_report(&rep);

    // Path 1: closed-form re-evaluation.
    let t0 = std::time::Instant::now();
    let cheap = out.result.reevaluate(nl, &new_inputs);
    let reeval_seconds = t0.elapsed().as_secs_f64();

    // Path 2: full SART re-run (prepare + relax + resolve).
    let t1 = std::time::Instant::now();
    let obs = Collector::disabled();
    let engine = SartEngine::new_traced(nl, &out.mapping, cfg.sart.clone(), None, &obs);
    let fresh_result = engine.run_traced(&new_inputs, &obs);
    let full_run_seconds = t1.elapsed().as_secs_f64();

    let max_difference = nl
        .nodes()
        .map(|id| (cheap[id.index()] - fresh_result.avf(id)).abs())
        .fold(0.0, f64::max);

    // Set-union dedup ablation: the naive numeric engine on the suite
    // inputs, compared against the symbolic fixpoint node-by-node.
    let loops = find_loops(nl);
    let roles = classify(nl, &loops, &cfg.sart.ctrl_patterns);
    let mut arena = seqavf_core::arena::UnionArena::new();
    let prep = prepare(nl, roles, &out.mapping, &mut arena);
    let prop = Propagator::new(nl, prep, arena);
    let values = out.result.term_values(&out.inputs);
    let numeric = solve_parallel(&prop, &values, cfg.sart.max_iterations, 4, 1e-12);
    let set_vals = out.result.arena.eval_all(&values);
    let mut numeric_sum = 0.0;
    let mut symbolic_sum = 0.0;
    let mut dedup_wins = 0usize;
    let mut seq_n = 0usize;
    for id in nl.seq_nodes() {
        let i = id.index();
        let sym = set_vals[out.result.fwd[i].index()].min(set_vals[out.result.bwd[i].index()]);
        let num = numeric.avf(id);
        numeric_sum += num;
        symbolic_sum += sym;
        if num > sym + 1e-12 {
            dedup_wins += 1;
        }
        seq_n += 1;
    }
    let seq_n = seq_n.max(1) as f64;

    SymbolicReport {
        nodes: nl.node_count(),
        terms: out.result.terms.len(),
        distinct_sets: out.result.arena.len(),
        sharing_factor: (2 * nl.node_count()) as f64 / out.result.arena.len().max(1) as f64,
        full_run_seconds,
        reeval_seconds,
        speedup: full_run_seconds / reeval_seconds.max(1e-9),
        max_difference,
        numeric_seq_avf: numeric_sum / seq_n,
        symbolic_seq_avf: symbolic_sum / seq_n,
        dedup_wins,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_forms_reproduce_full_run_exactly() {
        let r = run(Scale::Quick, 23);
        assert!(
            r.max_difference < 1e-12,
            "closed-form reuse must be exact, diff {}",
            r.max_difference
        );
    }

    #[test]
    fn reevaluation_is_much_faster() {
        let r = run(Scale::Quick, 23);
        assert!(r.speedup > 5.0, "speedup {} too small", r.speedup);
    }

    #[test]
    fn numeric_union_dominates_symbolic() {
        let r = run(Scale::Quick, 23);
        assert!(
            r.numeric_seq_avf >= r.symbolic_seq_avf - 1e-12,
            "naive sums must be at least as conservative: {} vs {}",
            r.numeric_seq_avf,
            r.symbolic_seq_avf
        );
        assert!(
            r.dedup_wins > 0,
            "reconvergent paths exist, so dedup must refine somewhere"
        );
    }

    #[test]
    fn hash_consing_shares_heavily() {
        let r = run(Scale::Quick, 23);
        assert!(
            r.sharing_factor > 3.0,
            "expected heavy set sharing, factor {}",
            r.sharing_factor
        );
        assert!(r.distinct_sets < 2 * r.nodes);
    }
}
