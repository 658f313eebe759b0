//! Property tests pinning the warm-start path to the cold solver: for
//! random synthetic designs and random single- and multi-FUB gate edits,
//! a re-solve seeded from the previous revision's stored fixpoint must be
//! **bit-identical** (`f64::to_bits`) to a cold solve of the edited
//! design — at 1, 2, and 8 threads — while walking strictly fewer nodes.
//! The `seqavf-fixpoint/1` artifact itself must round-trip exactly and
//! reject (never panic on) truncated or corrupted bytes.

use proptest::prelude::*;

use seqavf_core::engine::{SartConfig, SartEngine, WarmStatus};
use seqavf_core::fixpoint::StoredFixpoint;
use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_netlist::exlif;
use seqavf_netlist::flatten;
use seqavf_netlist::synth::{generate, SynthConfig};
use seqavf_obs::Collector;

/// The base revision: a synthetic design's EXLIF text, its structure
/// mapping, and a workload table.
fn base_revision(seed: u64) -> (String, StructureMapping, PavfInputs) {
    let design = generate(&SynthConfig::xeon_like(seed));
    let text = exlif::write(&design.netlist);
    let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
    let mut inputs = PavfInputs::new();
    inputs.set_port("uops_executed", 0.21, 0.34);
    (text, mapping, inputs)
}

/// Flips `picks`-selected and/or gates in the EXLIF text — the textual
/// form of a designer's edit. Returns `None` if the design has no gates
/// to flip.
fn flip_gates(text: &str, picks: &[usize]) -> Option<String> {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let gate_lines: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| {
            let t = l.trim_start();
            t.starts_with(".gate and ") || t.starts_with(".gate or ")
        })
        .map(|(i, _)| i)
        .collect();
    if gate_lines.is_empty() {
        return None;
    }
    for &p in picks {
        let i = gate_lines[p % gate_lines.len()];
        lines[i] = if lines[i].trim_start().starts_with(".gate and ") {
            lines[i].replacen(".gate and ", ".gate or ", 1)
        } else {
            lines[i].replacen(".gate or ", ".gate and ", 1)
        };
    }
    Some(lines.join("\n") + "\n")
}

/// Cold-solves `text` and captures its fixpoint artifact.
fn solve_and_capture(
    text: &str,
    mapping: &StructureMapping,
    inputs: &PavfInputs,
) -> StoredFixpoint {
    let nl = flatten::parse_netlist(text).unwrap();
    let obs = Collector::disabled();
    let engine = SartEngine::new_traced(&nl, mapping, SartConfig::default(), None, &obs);
    let result = engine.run_traced(inputs, &obs);
    engine
        .capture_fixpoint(&result)
        .expect("base revision must converge")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline contract: warm ≡ cold, bit for bit, for arbitrary
    /// gate edits (1..6 flips land in one or several FUBs) at every
    /// thread count — and the warm path engages (some FUBs seeded).
    #[test]
    fn warm_resolve_is_bit_identical_to_cold(
        seed in 0u64..3,
        picks in proptest::collection::vec(any::<usize>(), 1..6),
    ) {
        let (base, mapping, inputs) = base_revision(seed);
        let stored = solve_and_capture(&base, &mapping, &inputs);
        let edited = flip_gates(&base, &picks).expect("synthetic design has gates");
        prop_assume!(edited != base);

        let nl = flatten::parse_netlist(&edited).unwrap();
        let obs = Collector::disabled();
        for threads in [1usize, 2, 8] {
            let config = SartConfig { threads, ..SartConfig::default() };
            let engine = SartEngine::new_traced(&nl, &mapping, config, None, &obs);
            let cold = engine.run_traced(&inputs, &obs);
            let (warm, status, _, _) = engine.run_warm_start_traced(&inputs, Ok(&stored), &obs);
            match status {
                WarmStatus::Warm { seeded_fubs, dirty_fubs } => {
                    prop_assert!(seeded_fubs > 0, "no FUB seeded at {threads} threads");
                    prop_assert!(dirty_fubs > 0, "an edit must dirty at least one FUB");
                }
                WarmStatus::Cold(reason) => {
                    prop_assert!(false, "warm path refused at {threads} threads: {reason}");
                }
            }
            prop_assert_eq!(cold.avf.len(), warm.avf.len());
            for (i, (c, w)) in cold.avf.iter().zip(&warm.avf).enumerate() {
                prop_assert_eq!(
                    c.to_bits(), w.to_bits(),
                    "AVF diverges at node {} with {} threads", i, threads
                );
            }
        }
    }

    /// Artifact robustness: decode must reject — never panic on — any
    /// truncation and any single corrupted byte of a valid artifact.
    #[test]
    fn artifact_decode_survives_truncation_and_corruption(
        seed in 0u64..2,
        cut in any::<usize>(),
        flip_at in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let (base, mapping, inputs) = base_revision(seed);
        let stored = solve_and_capture(&base, &mapping, &inputs);
        let bytes = stored.encode();

        let cut = cut % bytes.len();
        prop_assert!(
            StoredFixpoint::decode(&bytes[..cut]).is_err(),
            "truncation to {cut} bytes decoded successfully"
        );

        let mut corrupt = bytes.clone();
        let i = flip_at % corrupt.len();
        corrupt[i] ^= 1 << flip_bit;
        // The checksum trailer catches virtually every flip; the assert
        // is only that decode returns (no panic, no unbounded alloc).
        let _ = StoredFixpoint::decode(&corrupt);
    }
}

/// The artifact round-trips exactly: decode(encode(x)) reproduces every
/// field, and re-encoding is byte-stable.
#[test]
fn artifact_roundtrips_byte_stably() {
    let (base, mapping, inputs) = base_revision(1);
    let stored = solve_and_capture(&base, &mapping, &inputs);
    let bytes = stored.encode();
    let back = StoredFixpoint::decode(&bytes).unwrap();
    assert_eq!(back.encode(), bytes);
}

/// An unedited re-solve seeds every FUB and converges without walking a
/// single node.
#[test]
fn unedited_warm_resolve_walks_nothing() {
    let (base, mapping, inputs) = base_revision(2);
    let stored = solve_and_capture(&base, &mapping, &inputs);
    let nl = flatten::parse_netlist(&base).unwrap();
    let obs = Collector::disabled();
    let engine = SartEngine::new_traced(&nl, &mapping, SartConfig::default(), None, &obs);
    let cold = engine.run_traced(&inputs, &obs);
    let (warm, status, _, _) = engine.run_warm_start_traced(&inputs, Ok(&stored), &obs);
    match status {
        WarmStatus::Warm {
            seeded_fubs,
            dirty_fubs,
        } => {
            assert!(seeded_fubs > 0);
            assert_eq!(dirty_fubs, 0);
        }
        WarmStatus::Cold(reason) => panic!("warm path refused: {reason}"),
    }
    assert_eq!(warm.outcome.total_walked_nodes(), 0);
    for (c, w) in cold.avf.iter().zip(&warm.avf) {
        assert_eq!(c.to_bits(), w.to_bits());
    }
}

/// A one-gate edit re-walks fewer than half the nodes of the cold solve
/// — the latency claim behind the whole artifact.
#[test]
fn one_gate_edit_walks_fewer_nodes_than_cold() {
    let (base, mapping, inputs) = base_revision(3);
    let stored = solve_and_capture(&base, &mapping, &inputs);
    let edited = flip_gates(&base, &[0]).unwrap();
    assert_ne!(edited, base);
    let nl = flatten::parse_netlist(&edited).unwrap();
    let obs = Collector::disabled();
    let engine = SartEngine::new_traced(&nl, &mapping, SartConfig::default(), None, &obs);
    let cold = engine.run_traced(&inputs, &obs);
    let (warm, status, _, _) = engine.run_warm_start_traced(&inputs, Ok(&stored), &obs);
    assert!(
        matches!(status, WarmStatus::Warm { dirty_fubs: 1, .. }),
        "one gate flip must dirty exactly one FUB: {status:?}"
    );
    let cold_walked = cold.outcome.total_walked_nodes();
    let warm_walked = warm.outcome.total_walked_nodes();
    assert!(
        2 * warm_walked < cold_walked,
        "warm walked {warm_walked} nodes, cold {cold_walked}"
    );
    for (c, w) in cold.avf.iter().zip(&warm.avf) {
        assert_eq!(c.to_bits(), w.to_bits());
    }
}

/// A config whose `result_key` differs from the stored artifact must fall
/// back to a cold solve — warm-starting across result-affecting config
/// changes would seed from the wrong fixpoint.
#[test]
fn result_key_mismatch_falls_back_to_cold() {
    let (base, mapping, inputs) = base_revision(4);
    let stored = solve_and_capture(&base, &mapping, &inputs);
    let nl = flatten::parse_netlist(&base).unwrap();
    let config = SartConfig {
        loop_pavf: 0.45,
        ..SartConfig::default()
    };
    let obs = Collector::disabled();
    let engine = SartEngine::new_traced(&nl, &mapping, config.clone(), None, &obs);
    let (warm, status, _, _) = engine.run_warm_start_traced(&inputs, Ok(&stored), &obs);
    assert!(
        matches!(status, WarmStatus::Cold(_)),
        "result_key mismatch must refuse the seed: {status:?}"
    );
    // The fallback is a full, correct solve.
    let cold = engine.run_traced(&inputs, &obs);
    for (c, w) in cold.avf.iter().zip(&warm.avf) {
        assert_eq!(c.to_bits(), w.to_bits());
    }
}
