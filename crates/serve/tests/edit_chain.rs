//! The sweep driver and the server run one fresh-solve ladder. Along a
//! chain of one-gate edits, re-solved once through
//! `run_sweep_with_loops_traced` (disk fixpoint and disk DAG tiers) and
//! once through `Resident::handle_design_update` (resident fixpoint and
//! patch donor), both must take the same warm/cold and patched/rebuilt
//! path at every revision and produce bit-identical rows.

use std::path::PathBuf;

use seqavf_core::engine::{SartConfig, WarmStatus};
use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_core::sweep::{run_sweep_with_loops_traced, PatchStatus, SweepOptions};
use seqavf_netlist::synth::{generate, SynthConfig};
use seqavf_netlist::{exlif, flatten};
use seqavf_obs::Collector;
use seqavf_serve::api::{AvfRequest, DesignUpdateRequest, NamedTable};
use seqavf_serve::resident::{Resident, ResidentConfig};

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seqavf-edit-chain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn the_sweep_driver_and_the_server_agree_along_an_edit_chain() {
    let dir = scratch();
    let synth = generate(&SynthConfig::xeon_like(31));
    let design = dir.join("chain.exlif");
    let map = dir.join("chain.map");
    let map_text =
        StructureMapping::from_pairs(synth.meta.structure_map.clone()).to_text(&synth.netlist);
    std::fs::write(&design, exlif::write(&synth.netlist)).unwrap();
    std::fs::write(&map, &map_text).unwrap();
    let tables: Vec<(String, PavfInputs)> = (0..3)
        .map(|w| {
            let mut inputs = PavfInputs::new();
            for (i, (_, perf)) in synth.meta.structure_map.iter().enumerate() {
                let read = ((i + w) % 7) as f64 / 8.0;
                inputs.set_port(perf.clone(), read, 0.25 + 0.1 * w as f64);
            }
            (format!("w{w}"), inputs)
        })
        .collect();
    let opts = SweepOptions {
        threads: 1,
        cache_dir: Some(dir.join("cache")),
        warm_start: Some(dir.join("warm")),
    };
    let server = Resident::new(ResidentConfig::default(), Collector::new());
    let mut prev_ref: Option<String> = None;

    for revision in 0..4 {
        let mut text = std::fs::read_to_string(&design).unwrap();
        if revision > 0 {
            let edited = text.replacen(".gate and ", ".gate or ", 1);
            assert_ne!(edited, text, "revision {revision}: no and-gate left");
            std::fs::write(&design, &edited).unwrap();
            text = edited;
        }

        let nl = flatten::parse_netlist(&text).unwrap();
        let mapping = StructureMapping::from_text(&nl, &map_text).unwrap();
        let swept = run_sweep_with_loops_traced(
            &nl,
            &mapping,
            &SartConfig::default(),
            &tables[0].1,
            &tables,
            &opts,
            None,
            &Collector::disabled(),
        )
        .unwrap();

        let update = server
            .handle_design_update(&DesignUpdateRequest {
                design_path: design.display().to_string(),
                prev_ref: prev_ref.clone(),
                map_path: Some(map.display().to_string()),
                config: None,
                base_inputs: Some(tables[0].1.clone()),
            })
            .unwrap();
        let served = server
            .handle(&AvfRequest {
                design_path: None,
                design_ref: Some(update.design_ref.clone()),
                map_path: None,
                config: None,
                base_inputs: None,
                tables: tables
                    .iter()
                    .map(|(workload, inputs)| NamedTable {
                        workload: workload.clone(),
                        inputs: inputs.clone(),
                    })
                    .collect(),
                include_nodes: None,
                include_fubs: None,
            })
            .unwrap();
        assert_eq!(served.sweep_cache, "hit", "revision {revision}");

        // The same path through the ladder, on both surfaces.
        let (mode, dag) = if revision == 0 {
            ("cold", "compiled")
        } else {
            ("warm", "patched")
        };
        assert_eq!(update.mode, mode, "revision {revision}: {update:?}");
        assert_eq!(update.dag, dag, "revision {revision}: {update:?}");
        match swept.warm {
            Some(WarmStatus::Warm {
                seeded_fubs,
                dirty_fubs,
            }) => {
                assert_eq!(mode, "warm", "revision {revision}");
                assert_eq!(seeded_fubs as u64, update.seeded_fubs);
                assert_eq!(dirty_fubs as u64, update.dirty_fubs);
            }
            Some(WarmStatus::Cold(_)) => assert_eq!(mode, "cold", "revision {revision}"),
            None => panic!("revision {revision}: the sweep relaxed nothing"),
        }
        match swept.patch {
            Some(PatchStatus::Patched(st)) => {
                assert_eq!(dag, "patched", "revision {revision}");
                assert_eq!(st.nodes_patched() as u64, update.ops_patched);
                assert_eq!(st.ops_orphaned as u64, update.ops_orphaned);
            }
            Some(PatchStatus::Rebuilt(r)) => panic!("revision {revision}: rebuilt ({r})"),
            None => assert_eq!(dag, "compiled", "revision {revision}"),
        }

        // Bit-identical rows.
        assert_eq!(served.rows.len(), swept.rows.len());
        for (s, c) in served.rows.iter().zip(&swept.rows) {
            assert_eq!(s.workload, c.workload);
            assert_eq!(s.mean_seq_avf.to_bits(), c.mean_seq_avf.to_bits());
            assert_eq!(s.min_seq_avf.to_bits(), c.min_seq_avf.to_bits());
            assert_eq!(s.max_seq_avf.to_bits(), c.max_seq_avf.to_bits());
        }
        prev_ref = Some(update.design_ref);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
