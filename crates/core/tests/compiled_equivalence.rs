//! Property tests pinning the compiled sweep DAG to the interpreter: for
//! random synthetic netlists and random per-workload pAVF tables, the
//! compiled evaluation must be **bit-identical** (`f64::to_bits`) to
//! `SartResult::reevaluate` and to a fresh `engine.run` at every lane
//! width, and must survive the artifact round trip unchanged.

use proptest::prelude::*;

use seqavf_core::compile::{CompiledSweep, SeqStats};
use seqavf_core::engine::{SartConfig, SartEngine};
use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_netlist::graph::{GateOp, Netlist, NetlistBuilder, NodeId, NodeKind, SeqKind};
use seqavf_obs::Collector;

/// Deterministically builds a valid circuit from a byte recipe (the same
/// idiom as the top-level property suite): bytes select operations over a
/// growing signal pool. This variant also plants control registers (the
/// `creg` name pattern) so every compiled slot kind is exercised.
fn build_circuit(recipe: &[(u8, u8, u8)], fubs: usize) -> Netlist {
    let mut b = NetlistBuilder::new("prop");
    let fubs: Vec<_> = (0..fubs.max(1))
        .map(|i| b.add_fub(format!("f{i}")))
        .collect();
    let mut pool: Vec<NodeId> = Vec::new();
    let s1 = b.add_structure("f0.sa", 3, fubs[0]);
    let s2 = b.add_structure("f0.sb", 3, fubs[0]);
    for bit in 0..3 {
        pool.push(b.structure_cell(s1, bit));
        pool.push(b.structure_cell(s2, bit));
    }
    for i in 0..2 {
        pool.push(b.add_node(format!("f0.in{i}"), NodeKind::Input, fubs[0]));
    }

    let flop = NodeKind::Seq {
        kind: SeqKind::Flop,
        has_enable: false,
    };
    let gates = [GateOp::And, GateOp::Or, GateOp::Nor, GateOp::Xor];
    let mut struct_writes = 0usize;
    for (i, &(kind, x, y)) in recipe.iter().enumerate() {
        let fub = fubs[i % fubs.len()];
        let fname = |n: &str| format!("f{}.{n}{i}", i % fubs.len());
        let pick = |k: u8| pool[k as usize % pool.len()];
        match kind % 7 {
            0 | 1 => {
                let g = b.add_node(
                    fname("g"),
                    NodeKind::Comb(gates[x as usize % gates.len()]),
                    fub,
                );
                b.connect(pick(x), g);
                b.connect(pick(y), g);
                let q = b.add_node(fname("q"), flop, fub);
                b.connect(g, q);
                pool.push(q);
            }
            2 => {
                let q = b.add_node(fname("p"), flop, fub);
                b.connect(pick(x), q);
                pool.push(q);
            }
            3 => {
                // FSM loop → LoopSeq slots.
                let a = b.add_node(fname("la"), flop, fub);
                let l2 = b.add_node(fname("lb"), flop, fub);
                let g = b.add_node(fname("lg"), NodeKind::Comb(GateOp::Or), fub);
                b.connect(a, l2);
                b.connect(l2, g);
                b.connect(pick(x), g);
                b.connect(g, a);
                pool.push(l2);
            }
            4 => {
                // Structure write (bounded so some cells stay read-only).
                if struct_writes < 4 {
                    let cell = b.structure_cell(if x % 2 == 0 { s1 } else { s2 }, u32::from(y) % 3);
                    b.connect(pick(x), cell);
                    struct_writes += 1;
                } else {
                    let q = b.add_node(fname("pw"), flop, fub);
                    b.connect(pick(x), q);
                    pool.push(q);
                }
            }
            5 => {
                // Control register → Ctrl slots.
                let c = b.add_node(fname("creg"), flop, fub);
                b.connect(pick(x), c);
                pool.push(c);
            }
            _ => {
                let o = b.add_node(fname("o"), NodeKind::Output, fub);
                b.connect(pick(x), o);
            }
        }
    }
    let last = *pool.last().expect("pool non-empty");
    let o = b.add_node("f0.final_out", NodeKind::Output, fubs[0]);
    b.connect(last, o);
    b.finish().expect("recipe-built netlists are valid")
}

fn recipe_strategy() -> impl Strategy<Value = (Vec<(u8, u8, u8)>, usize)> {
    (
        prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 4..60),
        1usize..4,
    )
}

/// A random per-workload table: port pAVFs for the two structures plus an
/// optional measured structure AVF (exercising the struct-cell override).
fn table_strategy() -> impl Strategy<Value = PavfInputs> {
    (
        (0.0f64..1.0, 0.0f64..1.0),
        (0.0f64..1.0, 0.0f64..1.0),
        (any::<bool>(), 0.0f64..1.0),
    )
        .prop_map(|((ra, wa), (rb, wb), (measured, savf))| {
            let mut p = PavfInputs::new();
            p.set_port("f0.sa", ra, wa);
            p.set_port("f0.sb", rb, wb);
            if measured {
                p.set_structure_avf("f0.sa", savf);
            }
            p
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compiled_is_bit_identical_to_interpreter_and_fresh_run(
        (recipe, fubs) in recipe_strategy(),
        tables in prop::collection::vec(table_strategy(), 1..5),
        loop_pavf in 0.0f64..1.0,
    ) {
        let nl = build_circuit(&recipe, fubs);
        let config = SartConfig { loop_pavf, ..SartConfig::default() };
        let obs = Collector::disabled();
        let engine = SartEngine::new_traced(&nl, &StructureMapping::new(), config, None, &obs);
        let result = engine.run_traced(&tables[0], &obs);
        let compiled = CompiledSweep::compile_traced(&result, &nl, &obs);
        for (k, t) in tables.iter().enumerate() {
            let fast = compiled.evaluate_traced(t, &obs);
            let slow = result.reevaluate(&nl, t);
            prop_assert_eq!(fast.len(), slow.len());
            for id in nl.nodes() {
                let i = id.index();
                prop_assert_eq!(
                    fast[i].to_bits(), slow[i].to_bits(),
                    "table {}, node {}: compiled {} vs interpreted {}",
                    k, nl.name(id), fast[i], slow[i]
                );
            }
            // The relaxation fixpoint is symbolic and value-independent, so
            // a fresh run under the same config must agree bitwise too.
            let fresh = engine.run_traced(t, &obs);
            for id in nl.nodes() {
                prop_assert_eq!(
                    fast[id.index()].to_bits(), fresh.avf(id).to_bits(),
                    "table {}, node {}: compiled {} vs fresh {}",
                    k, nl.name(id), fast[id.index()], fresh.avf(id)
                );
            }
        }
    }

    /// Batches of up to 40 tables cross the 16-lane group and every lane
    /// width; node rows and summary folds must both equal one-table
    /// evaluation bit for bit.
    #[test]
    fn evaluate_many_matches_per_table_evaluation(
        (recipe, fubs) in recipe_strategy(),
        tables in prop::collection::vec(table_strategy(), 1..=40),
        threads in 1usize..5,
    ) {
        let nl = build_circuit(&recipe, fubs);
        let obs = Collector::disabled();
        let engine =
            SartEngine::new_traced(&nl, &StructureMapping::new(), SartConfig::default(), None, &obs);
        let result = engine.run_traced(&tables[0], &obs);
        let compiled = CompiledSweep::compile_traced(&result, &nl, &obs);
        let batch = compiled.evaluate_many_traced(&tables, threads, &obs);
        prop_assert_eq!(batch.len(), tables.len());
        let seq: Vec<usize> = nl.seq_nodes().map(|id| id.index()).collect();
        let stats =
            compiled.evaluate_seq_stats_traced(&tables, &seq, threads, &obs);
        prop_assert_eq!(stats.len(), tables.len());
        for (k, t) in tables.iter().enumerate() {
            let single = compiled.evaluate_traced(t, &obs);
            prop_assert_eq!(batch[k].len(), single.len());
            for (a, b) in batch[k].iter().zip(&single) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "workload {}", k);
            }
            let mut want = SeqStats::IDENTITY;
            for &i in &seq {
                want.fold(single[i]);
            }
            prop_assert_eq!(
                [stats[k].sum, stats[k].min, stats[k].max].map(f64::to_bits),
                [want.sum, want.min, want.max].map(f64::to_bits),
                "workload {} summary", k
            );
        }
    }

    #[test]
    fn artifact_roundtrip_preserves_bitwise_evaluation(
        (recipe, fubs) in recipe_strategy(),
        table in table_strategy(),
    ) {
        let nl = build_circuit(&recipe, fubs);
        let obs = Collector::disabled();
        let engine =
            SartEngine::new_traced(&nl, &StructureMapping::new(), SartConfig::default(), None, &obs);
        let result = engine.run_traced(&table, &obs);
        let compiled = CompiledSweep::compile_traced(&result, &nl, &obs);
        let bytes = compiled.encode();
        let back = CompiledSweep::decode(&bytes, compiled.config())
            .expect("serialized artifact decodes");
        prop_assert_eq!(&back, &compiled);
        prop_assert_eq!(back.encode(), bytes);
        let a = compiled.evaluate_traced(&table, &obs);
        let b = back.evaluate_traced(&table, &obs);
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
