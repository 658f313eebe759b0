//! The exhaustive-injection oracle: on tiny, fully-enumerable netlists the
//! fault-injection AVF must equal SART's analytical AVF *exactly*.
//!
//! The netlist family is chosen so both engines have the same ground
//! truth: single-fanin trees of flops and buf/not gates rooted at one
//! primary input, with outputs attached to a random subset of nodes. In
//! such a tree a flipped state bit propagates to an output iff an output
//! is reachable in its fanout cone (inverters propagate flips unchanged,
//! and with exactly one fanin per node no reconvergent path can cancel a
//! fault), so every flop's true AVF is exactly 0 or 1 — and SART's
//! min(forward, backward) walk with conservative boundary pAVFs (1.0)
//! resolves to exactly the same bit, as does the propagation-probability
//! fast-path model. Exhaustive injection (every site × every flip cycle)
//! therefore has to agree with both, with `==`, not a tolerance.

use proptest::prelude::*;

use seqavf::core::engine::{SartConfig, SartEngine};
use seqavf::core::mapping::{PavfInputs, StructureMapping};
use seqavf::netlist::flatten::parse_netlist;
use seqavf::netlist::graph::{Netlist, NodeId, NodeKind};
use seqavf::obs::Collector;
use seqavf::sfi::campaign::{run_exhaustive, run_trials, TrialConfig};
use seqavf::sfi::inject::observation_points;
use seqavf::sfi::logic::PropModel;

/// Most state bits a generated tree may hold — small enough that the
/// exhaustive campaign (`bits × cycles` simulations) stays trivial.
const MAX_STATE_BITS: usize = 12;

/// One generated tree node: which element to grow, onto which existing
/// node, and whether to hang a primary output off it.
type Step = (u8, u8, bool);

/// Renders a recipe as EXLIF. Deterministic and valid by construction:
/// every step appends one single-fanin element (flop, buf, or not) whose
/// parent is picked from the already-defined nodes, so the result is
/// always a tree rooted at the primary input.
fn tree_exlif(recipe: &[Step]) -> String {
    let mut text = String::from(".design oracle\n.fub f\n  .input i\n");
    let mut pool: Vec<String> = vec!["i".to_owned()];
    let mut flops = 0usize;
    let mut outputs = 0usize;
    for (j, &(kind, parent, output_here)) in recipe.iter().enumerate() {
        let parent = pool[parent as usize % pool.len()].clone();
        let name = format!("n{j}");
        // Flops are the commonest element but capped at MAX_STATE_BITS;
        // overflow degrades to buffers so the recipe length is free.
        match kind % 4 {
            0 | 1 if flops < MAX_STATE_BITS => {
                text.push_str(&format!("  .flop {name} {parent}\n"));
                flops += 1;
            }
            2 => text.push_str(&format!("  .gate not {name} {parent}\n")),
            _ => text.push_str(&format!("  .gate buf {name} {parent}\n")),
        }
        if output_here {
            text.push_str(&format!("  .output o{outputs} {name}\n"));
            outputs += 1;
        }
        pool.push(name);
    }
    text.push_str(".endfub\n.end\n");
    text
}

/// Ground truth on a tree: a flop's AVF is 1 iff an `Output` node is
/// reachable from it in the fanout graph, else 0.
fn reaches_an_output(nl: &Netlist, from: NodeId) -> bool {
    let mut seen = vec![false; nl.node_count()];
    let mut stack = vec![from];
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut seen[id.index()], true) {
            continue;
        }
        if matches!(nl.kind(id), NodeKind::Output) {
            return true;
        }
        stack.extend(nl.fanout(id));
    }
    false
}

fn recipe_strategy() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On the tree family, exhaustive injection, SART, the propagation
    /// model, and a trial-indexed campaign all compute the identical
    /// {0, 1} AVF for every state bit.
    #[test]
    fn exhaustive_injection_equals_sart_exactly(recipe in recipe_strategy()) {
        let nl = parse_netlist(&tree_exlif(&recipe)).expect("generated EXLIF is valid");
        let targets: Vec<NodeId> = nl.seq_nodes().collect();
        prop_assume!(!targets.is_empty());
        prop_assert!(targets.len() <= MAX_STATE_BITS);

        let obs = Collector::disabled();
        let engine =
            SartEngine::new_traced(&nl, &StructureMapping::new(), SartConfig::default(), None, &obs);
        let analytical = engine.run_traced(&PavfInputs::new(), &obs);
        let model = PropModel::build(&nl, &observation_points(&nl));

        // Exhaustive: every site × every flip cycle. The horizon exceeds
        // any possible tree depth, so no fault is left in flight.
        let exhaustive = run_exhaustive(&nl, &targets, 8, 128, 0x0e5eed);

        for &bit in &targets {
            let truth = if reaches_an_output(&nl, bit) { 1.0 } else { 0.0 };
            let injected = exhaustive.estimate(bit).expect("targeted").avf;
            prop_assert_eq!(
                injected, truth,
                "injection disagrees with reachability at {}", nl.name(bit)
            );
            // == on purpose: SART emits -0.0 for dead bits, and
            // -0.0 == 0.0, so no tolerance is needed or wanted.
            prop_assert_eq!(
                analytical.avf(bit), truth,
                "SART disagrees with injection at {}", nl.name(bit)
            );
            prop_assert_eq!(
                model.propagation(bit), truth,
                "propagation model disagrees at {}", nl.name(bit)
            );
        }

        // The trial-indexed estimator inherits the same exactness: every
        // trial on a live bit errors, every trial on a dead bit masks.
        let cfg = TrialConfig {
            trials: targets.len() * 4,
            threads: 2,
            horizon: 128,
            ..TrialConfig::default()
        };
        let sampled = run_trials(&nl, &targets, None, &cfg);
        for tally in &sampled.tallies {
            if tally.trials > 0 {
                let truth = if reaches_an_output(&nl, tally.node) { 1.0 } else { 0.0 };
                prop_assert_eq!(
                    tally.avf(), truth,
                    "trial campaign disagrees at {}", nl.name(tally.node)
                );
            }
        }
    }
}
