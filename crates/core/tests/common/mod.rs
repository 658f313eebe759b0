//! Node-level checks of library sweeps. A sweep returns summary rows
//! only, so a check that two sweeps agree node by node evaluates the DAG
//! each sweep used: its `SweepCache` artifact, or the DAG a fresh
//! relaxation compiles.

use std::path::Path;

use seqavf_core::compile::{CompiledSweep, SeqStats};
use seqavf_core::engine::SartConfig;
use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_core::sweep::{cache_key, obtain_compiled_traced, SweepCache, SweepOutcome};
use seqavf_netlist::graph::Netlist;
use seqavf_obs::Collector;

/// The DAG a cache-less, cold sweep of `nl` compiles.
pub fn fresh_dag(
    nl: &Netlist,
    mapping: &StructureMapping,
    config: &SartConfig,
    base_inputs: &PavfInputs,
) -> CompiledSweep {
    obtain_compiled_traced(
        nl,
        mapping,
        config,
        base_inputs,
        None,
        None,
        &Collector::disabled(),
    )
    .expect("compiles")
    .0
}

/// The DAG the sweep cache in `dir` holds for `nl`.
pub fn cached_dag(
    dir: &Path,
    nl: &Netlist,
    mapping: &StructureMapping,
    config: &SartConfig,
) -> CompiledSweep {
    SweepCache::open(dir)
        .unwrap()
        .load(cache_key(nl, mapping, config), config, nl.node_count())
        .expect("the sweep stored its DAG")
}

/// Every node's AVF bits under `dag`, one row per workload, after
/// checking that `outcome`'s summary rows fold exactly these rows — so
/// the bits are the node-level answer of the sweep that used `dag`.
pub fn node_bits(
    outcome: &SweepOutcome,
    dag: &CompiledSweep,
    nl: &Netlist,
    workloads: &[(String, PavfInputs)],
) -> Vec<Vec<u64>> {
    let seq: Vec<usize> = nl.seq_nodes().map(|id| id.index()).collect();
    assert_eq!(outcome.rows.len(), workloads.len());
    workloads
        .iter()
        .zip(&outcome.rows)
        .map(|((name, table), row)| {
            let avfs = dag.evaluate(table);
            let mut st = SeqStats::IDENTITY;
            for &i in &seq {
                st.fold(avfs[i]);
            }
            let (mean, min, max) = st.summary(seq.len());
            assert_eq!(row.workload, *name);
            assert_eq!(
                [row.mean_seq_avf, row.min_seq_avf, row.max_seq_avf].map(f64::to_bits),
                [mean, min, max].map(f64::to_bits),
                "workload {name}: the sweep's summary is not a fold of this DAG's rows"
            );
            avfs.iter().map(|v| v.to_bits()).collect()
        })
        .collect()
}
