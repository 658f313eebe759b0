//! The naive *numeric* propagation engine: capped-sum unions over `f64`
//! values instead of symbolic term sets.
//!
//! This engine exists for two reasons:
//!
//! 1. **Ablation** — it is exactly the propagation one gets *without* the
//!    paper's set-theoretic simplification. Where a value reconverges
//!    (Figure 7's G2: `pAVF₁ ∪ (pAVF₁ ∪ pAVF₂)`), the numeric union adds
//!    `pAVF₁` twice; the symbolic engine's set semantics count it once.
//!    Numeric results therefore dominate symbolic results node-by-node,
//!    and the gap measures what the set representation buys.
//! 2. **Parallelism** — per-iteration partition passes are independent
//!    given the FUBIO snapshot (Jacobi relaxation), so they parallelize
//!    trivially with scoped threads. It walks the same per-FUB partitions
//!    as the symbolic engine, which parallelizes the same way over term
//!    bitmasks, interned at the iteration barrier (see [`crate::relax`]).

use seqavf_netlist::graph::{FubId, NodeId};

use crate::walk::Propagator;

/// Result of a numeric relaxation.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericOutcome {
    /// Forward value per node.
    pub fwd: Vec<f64>,
    /// Backward value per node.
    pub bwd: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the values stopped moving before the cap.
    pub converged: bool,
}

impl NumericOutcome {
    /// The resolved numeric AVF of a node: `MIN(forward, backward)`.
    pub fn avf(&self, id: NodeId) -> f64 {
        self.fwd[id.index()].min(self.bwd[id.index()])
    }
}

/// Runs numeric relaxation over the same prepared walk state and
/// partitions the symbolic engine uses. `values` is a term-value vector
/// (from [`crate::engine::SartResult::term_values`] or
/// [`crate::arena::TermTable::values`]).
pub fn solve_parallel(
    prop: &Propagator<'_>,
    values: &[f64],
    max_iterations: usize,
    threads: usize,
    eps: f64,
) -> NumericOutcome {
    let nl = prop.nl;
    let n = nl.node_count();
    // Numeric source values from the prepared source sets.
    let src_val = |s: Option<crate::arena::SetId>| s.map(|s| prop.arena.eval(s, values));
    let fwd_source: Vec<Option<f64>> = prop.prep.fwd_source.iter().map(|&s| src_val(s)).collect();
    let bwd_source: Vec<Option<f64>> = prop.prep.bwd_source.iter().map(|&s| src_val(s)).collect();
    let bwd_contrib: Vec<Option<f64>> = prop.prep.bwd_contrib.iter().map(|&s| src_val(s)).collect();

    // Conservative initial annotation (Equation 7).
    let mut fwd = vec![1.0f64; n];
    let mut bwd = vec![1.0f64; n];
    let threads = threads.max(1);
    let mut iterations = 0;
    let mut converged = false;

    while iterations < max_iterations {
        iterations += 1;
        let snap_f = fwd.clone();
        let snap_b = bwd.clone();
        let parts: Vec<usize> = (0..prop.prep.parts.len()).collect();
        let chunk = parts.len().div_ceil(threads);

        let pass = |parts: &[usize]| -> Vec<(usize, f64, f64)> {
            let mut local_f = snap_f.clone();
            let mut local_b = snap_b.clone();
            let mut out = Vec::new();
            for &part in parts {
                let order = &prop.prep.parts[part];
                let here = FubId::from_index(part);
                for &node in order {
                    let i = node.index();
                    local_f[i] = match fwd_source[i] {
                        Some(v) => v,
                        // Zero-fanin non-source nodes resolve to the
                        // conservative 1.0, matching the symbolic walk's
                        // TOP (see `crate::relax`).
                        None if nl.fanin(node).is_empty() => 1.0,
                        None => {
                            let mut acc = 0.0;
                            for &f in nl.fanin(node) {
                                let v = if nl.fub(f) == here {
                                    local_f[f.index()]
                                } else {
                                    snap_f[f.index()]
                                };
                                acc += v;
                            }
                            acc.min(1.0)
                        }
                    };
                }
                for &node in order.iter().rev() {
                    let i = node.index();
                    local_b[i] = match bwd_source[i] {
                        Some(v) => v,
                        None => {
                            let mut acc = 0.0;
                            for &m in nl.fanout(node) {
                                let v = match bwd_contrib[m.index()] {
                                    Some(c) => c,
                                    None => {
                                        if nl.fub(m) == here {
                                            local_b[m.index()]
                                        } else {
                                            snap_b[m.index()]
                                        }
                                    }
                                };
                                acc += v;
                            }
                            acc.min(1.0)
                        }
                    };
                }
                for &node in order {
                    let i = node.index();
                    out.push((i, local_f[i], local_b[i]));
                }
            }
            out
        };

        let updates: Vec<(usize, f64, f64)> = if threads == 1 || parts.len() == 1 {
            pass(&parts)
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = parts
                    .chunks(chunk)
                    .map(|part| s.spawn(|| pass(part)))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("numeric worker panicked"))
                    .collect()
            })
        };

        let mut max_delta = 0.0f64;
        for (i, f, b) in updates {
            max_delta = max_delta.max((fwd[i] - f).abs()).max((bwd[i] - b).abs());
            fwd[i] = f;
            bwd[i] = b;
        }
        if max_delta <= eps {
            converged = true;
            break;
        }
    }

    NumericOutcome {
        fwd,
        bwd,
        iterations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use crate::engine::{SartConfig, SartEngine};
    use crate::mapping::{PavfInputs, StructureMapping};
    use crate::walk::prepare;
    use seqavf_netlist::flatten::parse_netlist;
    use seqavf_netlist::graph::Netlist;
    use seqavf_netlist::scc::find_loops;
    use seqavf_obs::Collector;

    /// Tree-shaped circuit: no reconvergent fan-in/out, so the numeric and
    /// symbolic engines must agree exactly.
    const TREE: &str = r"
.design t
.fub f
  .struct s1 1
  .struct s2 1
  .struct s3 1
  .flop q1 s1[0]
  .flop q2 s2[0]
  .gate and g q1 q2
  .flop q3 g
  .sw s3[0] q3
.endfub
.end
";

    /// Reconvergent circuit: Figure 7's shape, where set dedup matters.
    const RECONVERGE: &str = r"
.design r
.fub f
  .struct s1 1
  .struct s2 1
  .struct s3 1
  .flop q1a s1[0]
  .flop q1b s2[0]
  .flop q2a q1a
  .gate nor g1 q2a q1b
  .gate nor g2 q2a g1
  .flop q3a g2
  .sw s3[0] q3a
.endfub
.end
";

    fn solve(nl: &Netlist, inputs: &PavfInputs) -> crate::engine::SartResult {
        let obs = Collector::disabled();
        SartEngine::new_traced(
            nl,
            &StructureMapping::new(),
            SartConfig::default(),
            None,
            &obs,
        )
        .run_traced(inputs, &obs)
    }

    fn run_both(
        text: &str,
        inputs: &PavfInputs,
    ) -> (Netlist, crate::engine::SartResult, NumericOutcome) {
        let nl = parse_netlist(text).unwrap();
        let symbolic = solve(&nl, inputs);

        let loops = find_loops(&nl);
        let roles = classify(&nl, &loops, &["creg".to_owned()]);
        let mut arena = crate::arena::UnionArena::new();
        let prep = prepare(&nl, roles, &StructureMapping::new(), &mut arena);
        let prop = Propagator::new(&nl, prep, arena);
        let values = symbolic.term_values(inputs);
        let numeric = solve_parallel(&prop, &values, 20, 2, 1e-12);
        (nl, symbolic, numeric)
    }

    fn inputs() -> PavfInputs {
        let mut p = PavfInputs::new();
        p.set_port("f.s1", 0.10, 0.3);
        p.set_port("f.s2", 0.02, 0.3);
        p.set_port("f.s3", 0.4, 0.25);
        p
    }

    #[test]
    fn tree_circuits_agree_exactly() {
        let (nl, symbolic, numeric) = run_both(TREE, &inputs());
        let i = inputs();
        for id in nl.nodes() {
            let s = symbolic
                .forward_value(id, &i)
                .min(symbolic.backward_value(id, &i));
            assert!(
                (numeric.avf(id) - s).abs() < 1e-12,
                "{}: numeric {} symbolic {}",
                nl.name(id),
                numeric.avf(id),
                s
            );
        }
        assert!(numeric.converged);
    }

    #[test]
    fn numeric_dominates_symbolic_on_reconvergence() {
        let (nl, symbolic, numeric) = run_both(RECONVERGE, &inputs());
        let i = inputs();
        let mut strictly_greater = 0;
        for id in nl.nodes() {
            let sf = symbolic.forward_value(id, &i);
            let nf = numeric.fwd[id.index()];
            assert!(nf + 1e-12 >= sf, "{}", nl.name(id));
            if nf > sf + 1e-12 {
                strictly_greater += 1;
            }
        }
        // G2 double-counts pAVF_1: 0.10 + 0.12 = 0.22 vs the symbolic 0.12.
        let g2 = nl.lookup("f.g2").unwrap();
        assert!((numeric.fwd[g2.index()] - 0.22).abs() < 1e-12);
        assert!((symbolic.forward_value(g2, &i) - 0.12).abs() < 1e-12);
        assert!(strictly_greater > 0, "dedup must matter somewhere");
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let nl = parse_netlist(RECONVERGE).unwrap();
        let symbolic = solve(&nl, &inputs());
        let loops = find_loops(&nl);
        let roles = classify(&nl, &loops, &["creg".to_owned()]);
        let mut arena = crate::arena::UnionArena::new();
        let prep = prepare(&nl, roles, &StructureMapping::new(), &mut arena);
        let prop = Propagator::new(&nl, prep, arena);
        let values = symbolic.term_values(&inputs());
        let one = solve_parallel(&prop, &values, 20, 1, 1e-12);
        let four = solve_parallel(&prop, &values, 20, 4, 1e-12);
        assert_eq!(one.fwd, four.fwd);
        assert_eq!(one.bwd, four.bwd);
    }

    #[test]
    fn iteration_cap_respected() {
        let nl = parse_netlist(RECONVERGE).unwrap();
        let symbolic = solve(&nl, &inputs());
        let loops = find_loops(&nl);
        let roles = classify(&nl, &loops, &["creg".to_owned()]);
        let mut arena = crate::arena::UnionArena::new();
        let prep = prepare(&nl, roles, &StructureMapping::new(), &mut arena);
        let prop = Propagator::new(&nl, prep, arena);
        let values = symbolic.term_values(&inputs());
        let out = solve_parallel(&prop, &values, 1, 1, 0.0);
        assert_eq!(out.iterations, 1);
    }
}
