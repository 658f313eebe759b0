//! Property tests pinning the incremental DAG patch to the cold
//! compiler: for random synthetic designs and random one-FUB,
//! several-FUB, and whole-design gate edits, patching the previous
//! revision's compiled sweep DAG ([`CompiledSweep::patch`]) must
//! evaluate **bit-identically** (`f64::to_bits`) to a cold
//! [`CompiledSweep::compile`] of the edited design — at 1, 2, and 8
//! threads — and any violated precondition (corrupt layout, mismatched
//! fixpoint, stale mask) must degrade to an `Err` the caller turns into
//! a full rebuild, never a panic and never a wrong DAG.

use proptest::prelude::*;

use seqavf_core::compile::CompiledSweep;
use seqavf_core::engine::{SartConfig, SartEngine, WarmStatus};
use seqavf_core::fixpoint::StoredFixpoint;
use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_netlist::exlif;
use seqavf_netlist::flatten;
use seqavf_netlist::graph::Netlist;
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

/// Flips `picks`-selected and/or gates in the EXLIF text. Returns `None`
/// if the design has no gates to flip.
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

/// Flips every and/or gate — the full-rewrite perturbation.
fn flip_all_gates(text: &str) -> String {
    let n = text
        .lines()
        .filter(|l| {
            let t = l.trim_start();
            t.starts_with(".gate and ") || t.starts_with(".gate or ")
        })
        .count();
    flip_gates(text, &(0..n).collect::<Vec<_>>()).expect("synthetic design has gates")
}

/// Cold-solves the base revision and returns its compiled DAG plus the
/// captured fixpoint artifact — the persisted state a later edit patches
/// against.
fn compile_base(
    text: &str,
    mapping: &StructureMapping,
    inputs: &PavfInputs,
) -> (CompiledSweep, StoredFixpoint) {
    let nl = flatten::parse_netlist(text).unwrap();
    let engine = SartEngine::new(&nl, mapping, SartConfig::default());
    let result = engine.run(inputs);
    let stored = engine
        .capture_fixpoint(&result)
        .expect("base revision must converge");
    (CompiledSweep::compile(&result, &nl), stored)
}

/// The stored artifact's FUB layout: name and node count in FUB-id order.
fn layout(stored: &StoredFixpoint) -> Vec<(&str, usize)> {
    stored
        .fubs
        .iter()
        .map(|f| (f.name.as_str(), f.fwd.len()))
        .collect()
}

/// Patches `old` for the edited design at `threads` and asserts the
/// result evaluates bit-identically to a cold recompile, for the base
/// table and a couple of shifted workload tables. Returns
/// `(ops_patched, total_new_ops)`.
fn assert_patch_matches_cold(
    old: &CompiledSweep,
    stored: &StoredFixpoint,
    nl: &Netlist,
    mapping: &StructureMapping,
    inputs: &PavfInputs,
    threads: usize,
) -> (usize, usize) {
    let config = SartConfig {
        threads,
        ..SartConfig::default()
    };
    let engine = SartEngine::new(nl, mapping, config);
    let cold = engine.run_exact(inputs);
    let (warm, status, clean) = engine.run_warm_patch_exact(inputs, stored);
    let clean = match status {
        WarmStatus::Warm { .. } => clean.expect("warm solve must produce a clean mask"),
        WarmStatus::Cold(reason) => panic!("warm path refused at {threads} threads: {reason}"),
    };
    let (patched, stats) = old
        .patch_traced(&warm, nl, &layout(stored), &clean, &Collector::disabled())
        .expect("patch preconditions hold for a gate edit");
    let reference = CompiledSweep::compile(&cold, nl);
    let mut tables = vec![inputs.clone()];
    for shift in [0.07, 0.41] {
        let mut t = PavfInputs::new();
        t.set_port("uops_executed", 0.21 + shift, 0.34);
        tables.push(t);
    }
    for t in &tables {
        let a = reference.evaluate(t);
        let b = patched.evaluate(t);
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "patched AVF diverges from cold recompile at node {i}, {threads} threads"
            );
        }
    }
    // And through the threaded batch evaluator the sweep driver uses.
    let many_ref = reference.evaluate_many(&tables, threads);
    let many_pat = patched.evaluate_many(&tables, threads);
    for (a, b) in many_ref.iter().zip(&many_pat) {
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    let total_ops = patched.stats().sum_ops + patched.stats().min_ops;
    (stats.nodes_patched(), total_ops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline contract: patched DAG ≡ cold recompile, bit for bit,
    /// for arbitrary gate edits at every thread count.
    #[test]
    fn patched_dag_is_bit_identical_to_cold_recompile(
        seed in 0u64..3,
        picks in proptest::collection::vec(any::<usize>(), 1..6),
    ) {
        let (base, mapping, inputs) = base_revision(seed);
        let (old, stored) = compile_base(&base, &mapping, &inputs);
        let edited = flip_gates(&base, &picks).expect("synthetic design has gates");
        prop_assume!(edited != base);
        let nl = flatten::parse_netlist(&edited).unwrap();
        for threads in [1usize, 2, 8] {
            assert_patch_matches_cold(&old, &stored, &nl, &mapping, &inputs, threads);
        }
    }

    /// A corrupted old-FUB layout or a stale clean mask must be rejected
    /// with `Err` — never a panic, never an `Ok` patch.
    #[test]
    fn corrupt_layout_degrades_to_full_rebuild(
        seed in 0u64..2,
        victim in any::<usize>(),
        grow in 1usize..5,
    ) {
        let (base, mapping, inputs) = base_revision(seed);
        let (old, stored) = compile_base(&base, &mapping, &inputs);
        let edited = flip_gates(&base, &[victim]).expect("synthetic design has gates");
        prop_assume!(edited != base);
        let nl = flatten::parse_netlist(&edited).unwrap();
        let engine = SartEngine::new(&nl, &mapping, SartConfig::default());
        let (warm, status, clean) = engine.run_warm_patch_exact(&inputs, &stored);
        prop_assume!(matches!(status, WarmStatus::Warm { .. }));
        let clean = clean.unwrap();

        // Layout that no longer covers the old DAG (a FUB grew).
        let mut grown = layout(&stored);
        let v = victim % grown.len();
        grown[v].1 += grow;
        prop_assert!(old.patch_traced(&warm, &nl, &grown, &clean, &Collector::disabled()).is_err());

        // Layout with a FUB the netlist has never heard of, where a
        // clean FUB's name should be.
        let mut renamed = layout(&stored);
        renamed[clean.iter().position(|&c| c).unwrap_or(0)].0 = "no-such-fub";
        prop_assert!(old.patch_traced(&warm, &nl, &renamed, &clean, &Collector::disabled()).is_err());

        // A mask of the wrong arity (fixpoint from some other design).
        let mut short = clean.clone();
        short.pop();
        prop_assert!(old.patch_traced(&warm, &nl, &layout(&stored), &short, &Collector::disabled()).is_err());
    }
}

/// One-FUB edit: the patch touches strictly fewer ops than the DAG holds
/// — the proportional-to-edit claim — at every thread count.
#[test]
fn one_fub_edit_patches_strictly_less_than_the_dag() {
    let (base, mapping, inputs) = base_revision(5);
    let (old, stored) = compile_base(&base, &mapping, &inputs);
    let edited = flip_gates(&base, &[0]).unwrap();
    assert_ne!(edited, base);
    let nl = flatten::parse_netlist(&edited).unwrap();
    for threads in [1usize, 2, 8] {
        let (patched_ops, total_ops) =
            assert_patch_matches_cold(&old, &stored, &nl, &mapping, &inputs, threads);
        assert!(
            patched_ops < total_ops,
            "one-FUB edit patched {patched_ops} of {total_ops} ops — not proportional"
        );
    }
}

/// 5%-of-FUBs edit: several FUBs dirty at once, still bit-identical.
#[test]
fn five_percent_edit_patches_bit_identically() {
    let (base, mapping, inputs) = base_revision(6);
    let (old, stored) = compile_base(&base, &mapping, &inputs);
    let fubs = stored.fubs.len();
    let gates: Vec<usize> = base
        .lines()
        .enumerate()
        .filter(|(_, l)| l.trim_start().starts_with(".gate and "))
        .map(|(i, _)| i)
        .collect();
    // Spread picks across the gate population so several FUBs dirty.
    let wanted = (fubs.div_ceil(20)).max(2);
    let picks: Vec<usize> = (0..wanted)
        .map(|k| k * gates.len().max(1) / wanted)
        .collect();
    let edited = flip_gates(&base, &picks).unwrap();
    assert_ne!(edited, base);
    let nl = flatten::parse_netlist(&edited).unwrap();
    for threads in [1usize, 2, 8] {
        assert_patch_matches_cold(&old, &stored, &nl, &mapping, &inputs, threads);
    }
}

/// Full rewrite: every FUB dirty. The patch either still reproduces the
/// cold DAG bit for bit (retaining nothing) or the warm solve itself
/// degrades — in both cases the caller ends with a correct DAG.
#[test]
fn full_rewrite_still_ends_bit_identical() {
    let (base, mapping, inputs) = base_revision(7);
    let (old, stored) = compile_base(&base, &mapping, &inputs);
    let edited = flip_all_gates(&base);
    assert_ne!(edited, base);
    let nl = flatten::parse_netlist(&edited).unwrap();
    let engine = SartEngine::new(&nl, &mapping, SartConfig::default());
    let cold = engine.run_exact(&inputs);
    let reference = CompiledSweep::compile(&cold, &nl);
    let (warm, status, clean) = engine.run_warm_patch_exact(&inputs, &stored);
    let evaluated = match (status, clean) {
        (WarmStatus::Warm { .. }, Some(mask)) => {
            match old.patch_traced(&warm, &nl, &layout(&stored), &mask, &Collector::disabled()) {
                Ok((patched, _)) => patched,
                // Precondition failure is a legal outcome of a rewrite;
                // the fallback is the cold compile itself.
                Err(_) => CompiledSweep::compile(&warm, &nl),
            }
        }
        _ => reference.clone(),
    };
    for (x, y) in reference
        .evaluate(&inputs)
        .iter()
        .zip(&evaluated.evaluate(&inputs))
    {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

/// A fixpoint whose digests mismatch the old DAG (captured from a
/// *different* design) must refuse the patch, not panic: the layout
/// cannot cover the old DAG's slots.
#[test]
fn mismatched_fixpoint_degrades_to_full_rebuild() {
    let (base_a, mapping_a, inputs) = base_revision(8);
    let (old_a, _) = compile_base(&base_a, &mapping_a, &inputs);
    // A fixpoint captured from an unrelated design.
    let (base_b, mapping_b, _) = base_revision(9);
    let (_, stored_b) = compile_base(&base_b, &mapping_b, &inputs);

    let edited = flip_gates(&base_a, &[0]).unwrap();
    let nl = flatten::parse_netlist(&edited).unwrap();
    let engine = SartEngine::new(&nl, &mapping_a, SartConfig::default());
    let result = engine.run_exact(&inputs);
    // Pretend every FUB is clean — the worst possible stale mask.
    let all_clean = vec![true; nl.fub_count()];
    assert!(
        old_a
            .patch_traced(
                &result,
                &nl,
                &layout(&stored_b),
                &all_clean,
                &Collector::disabled()
            )
            .is_err(),
        "a foreign fixpoint's layout must not cover the old DAG"
    );
}
