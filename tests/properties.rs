//! Property-based tests over randomly generated circuits, checking the
//! invariants listed in DESIGN.md §6: range, the MIN resolution rule,
//! equality with the reference walk, bit-identity at any thread count,
//! closed-form reuse, monotonicity in the measured inputs, EXLIF
//! round-tripping, and SART's conservatism against fault injection.

mod reference;

use proptest::prelude::*;

use seqavf::core::engine::{SartConfig, SartEngine, SartResult};
use seqavf::core::mapping::{PavfInputs, StructureMapping};
use seqavf::netlist::graph::{GateOp, Netlist, NetlistBuilder, NodeId, NodeKind, SeqKind};
use seqavf::obs::Collector;
use seqavf::sfi::campaign::{run_campaign, CampaignConfig};

/// Deterministically builds a valid circuit from a byte recipe: bytes
/// select operations (gates, flops, FSM rings, structure writes, outputs)
/// over a growing signal pool, so every generated netlist is valid by
/// construction.
fn build_circuit(recipe: &[(u8, u8, u8)], fubs: usize) -> Netlist {
    let mut b = NetlistBuilder::new("prop");
    let fubs: Vec<_> = (0..fubs.max(1))
        .map(|i| b.add_fub(format!("f{i}")))
        .collect();
    let mut pool: Vec<NodeId> = Vec::new();
    // Two structures of three bits each plus two inputs seed the pool.
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
    let gates = [
        GateOp::And,
        GateOp::Or,
        GateOp::Nor,
        GateOp::Xor,
        GateOp::Nand,
    ];
    let mut struct_writes = 0usize;
    for (i, &(kind, x, y)) in recipe.iter().enumerate() {
        let fub = fubs[i % fubs.len()];
        let fname = |n: &str| format!("f{}.{n}{i}", i % fubs.len());
        let pick = |k: u8| pool[k as usize % pool.len()];
        match kind % 6 {
            0 | 1 => {
                // Two-input gate followed by a flop (pipeline + join).
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
                // Plain pipeline flop.
                let q = b.add_node(fname("p"), flop, fub);
                b.connect(pick(x), q);
                pool.push(q);
            }
            3 => {
                // FSM loop: two flops closed through an OR with an entry.
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
            _ => {
                // Boundary output.
                let o = b.add_node(fname("o"), NodeKind::Output, fub);
                b.connect(pick(x), o);
            }
        }
    }
    // Guarantee at least one sink.
    let last = *pool.last().expect("pool non-empty");
    let o = b.add_node("f0.final_out", NodeKind::Output, fubs[0]);
    b.connect(last, o);
    b.finish().expect("recipe-built netlists are valid")
}

/// Builds a multi-FUB circuit stressing the partition machinery:
/// configuration control registers (classified by the `creg` name
/// pattern), FSM rings whose flops live in *different* FUBs (loop-cut
/// nodes on partition boundaries), join gates, and cross-FUB pipeline
/// flops. Deterministic in the recipe, valid by construction.
fn build_partition_stress_circuit(recipe: &[(u8, u8, u8)], fubs: usize) -> Netlist {
    let mut b = NetlistBuilder::new("stress");
    let fub_ids: Vec<_> = (0..fubs.max(2))
        .map(|i| b.add_fub(format!("g{i}")))
        .collect();
    let s1 = b.add_structure("g0.sa", 2, fub_ids[0]);
    let flop = NodeKind::Seq {
        kind: SeqKind::Flop,
        has_enable: false,
    };
    let mut pool: Vec<NodeId> = vec![b.structure_cell(s1, 0), b.structure_cell(s1, 1)];
    pool.push(b.add_node("g0.cfg", NodeKind::Input, fub_ids[0]));
    for (i, &(kind, x, y)) in recipe.iter().enumerate() {
        let here = i % fub_ids.len();
        let next = (i + 1) % fub_ids.len();
        let pick = |k: u8| pool[k as usize % pool.len()];
        match kind % 4 {
            0 => {
                // Control register (the name makes classify() tag it).
                let c = b.add_node(format!("g{here}.creg{i}"), flop, fub_ids[here]);
                b.connect(pick(x), c);
                pool.push(c);
            }
            1 => {
                // FSM ring spanning two FUBs: the loop cut happens on a
                // partition boundary.
                let la = b.add_node(format!("g{here}.xla{i}"), flop, fub_ids[here]);
                let lb = b.add_node(format!("g{next}.xlb{i}"), flop, fub_ids[next]);
                let g = b.add_node(
                    format!("g{here}.xlg{i}"),
                    NodeKind::Comb(GateOp::Or),
                    fub_ids[here],
                );
                b.connect(la, lb);
                b.connect(lb, g);
                b.connect(pick(x), g);
                b.connect(g, la);
                pool.push(lb);
            }
            2 => {
                // Join gate feeding a flop.
                let g = b.add_node(
                    format!("g{here}.jg{i}"),
                    NodeKind::Comb(GateOp::And),
                    fub_ids[here],
                );
                b.connect(pick(x), g);
                b.connect(pick(y), g);
                let q = b.add_node(format!("g{here}.jq{i}"), flop, fub_ids[here]);
                b.connect(g, q);
                pool.push(q);
            }
            _ => {
                // Pipeline flop in the *next* FUB: a cross-partition edge.
                let q = b.add_node(format!("g{next}.pq{i}"), flop, fub_ids[next]);
                b.connect(pick(x), q);
                pool.push(q);
            }
        }
    }
    // A structure write and an output keep both walks anchored.
    let wcell = b.structure_cell(s1, 1);
    b.connect(*pool.last().expect("pool non-empty"), wcell);
    let o = b.add_node("g0.out", NodeKind::Output, fub_ids[0]);
    b.connect(pool[pool.len() / 2], o);
    b.finish().expect("stress-built netlists are valid")
}

/// Builds a multi-FUB circuit with `structures` one- or two-bit
/// structures spread over the FUBs. Left unmapped, each structure adds its
/// own read and write term, so 30 or more structures take the design past
/// 64 terms and the relaxation onto multi-word term masks. Recipe bytes
/// pick joins over random cells, cross-FUB pipeline flops, FSM rings
/// spanning two FUBs, control registers and structure writes.
fn build_wide_term_circuit(recipe: &[(u8, u8, u8)], fubs: usize, structures: usize) -> Netlist {
    let mut b = NetlistBuilder::new("wide");
    let fub_ids: Vec<_> = (0..fubs.max(2))
        .map(|i| b.add_fub(format!("w{i}")))
        .collect();
    let flop = NodeKind::Seq {
        kind: SeqKind::Flop,
        has_enable: false,
    };
    let mut cells = Vec::new();
    for k in 0..structures {
        let fub = k % fub_ids.len();
        let width = 1 + (k % 2) as u32;
        let s = b.add_structure(format!("w{fub}.s{k}"), width, fub_ids[fub]);
        for bit in 0..width {
            cells.push(b.structure_cell(s, bit));
        }
    }
    let mut pool = cells.clone();
    pool.push(b.add_node("w0.in", NodeKind::Input, fub_ids[0]));
    for (i, &(kind, x, y)) in recipe.iter().enumerate() {
        let here = i % fub_ids.len();
        let next = (i + 1) % fub_ids.len();
        let pick = |k: u8| pool[k as usize % pool.len()];
        match kind % 5 {
            0 => {
                let g = b.add_node(
                    format!("w{here}.jg{i}"),
                    NodeKind::Comb(GateOp::Or),
                    fub_ids[here],
                );
                b.connect(pick(x), g);
                b.connect(pick(y), g);
                let q = b.add_node(format!("w{here}.jq{i}"), flop, fub_ids[here]);
                b.connect(g, q);
                pool.push(q);
            }
            1 => {
                let q = b.add_node(format!("w{next}.pq{i}"), flop, fub_ids[next]);
                b.connect(pick(x), q);
                pool.push(q);
            }
            2 => {
                let la = b.add_node(format!("w{here}.la{i}"), flop, fub_ids[here]);
                let lb = b.add_node(format!("w{next}.lb{i}"), flop, fub_ids[next]);
                let g = b.add_node(
                    format!("w{here}.lg{i}"),
                    NodeKind::Comb(GateOp::Or),
                    fub_ids[here],
                );
                b.connect(la, lb);
                b.connect(lb, g);
                b.connect(pick(x), g);
                b.connect(g, la);
                pool.push(lb);
            }
            3 => {
                let c = b.add_node(format!("w{here}.creg{i}"), flop, fub_ids[here]);
                b.connect(pick(x), c);
                pool.push(c);
            }
            _ => {
                let cell = cells[y as usize % cells.len()];
                b.connect(pick(x), cell);
            }
        }
    }
    let o = b.add_node("w0.out", NodeKind::Output, fub_ids[0]);
    b.connect(*pool.last().expect("pool non-empty"), o);
    b.finish().expect("wide-term netlists are valid")
}

fn recipe_strategy() -> impl Strategy<Value = (Vec<(u8, u8, u8)>, usize)> {
    (
        prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 4..60),
        1usize..4,
    )
}

fn inputs_with(v: f64, w: f64) -> PavfInputs {
    let mut p = PavfInputs::new();
    p.set_port("f0.sa", v, w);
    p.set_port("f0.sb", v / 2.0, w / 2.0);
    p
}

/// One SART solve of `nl` with no structure mapping and no collection.
fn solve(nl: &Netlist, config: SartConfig, inputs: &PavfInputs) -> SartResult {
    let obs = Collector::disabled();
    SartEngine::new_traced(nl, &StructureMapping::new(), config, None, &obs)
        .run_traced(inputs, &obs)
}

/// Requires every node of `r`, a solve of `nl`, to carry exactly the
/// forward and backward term sets of the reference walk.
fn assert_equals_reference(nl: &Netlist, r: &SartResult, setting: &str) {
    let (fwd, bwd) = reference::walk(nl, &r.roles, &r.terms, &r.struct_perf_names);
    for id in nl.nodes() {
        let i = id.index();
        assert_eq!(
            r.arena.terms(r.fwd[i]),
            &fwd[i][..],
            "fwd {} {setting}",
            nl.name(id)
        );
        assert_eq!(
            r.arena.terms(r.bwd[i]),
            &bwd[i][..],
            "bwd {} {setting}",
            nl.name(id)
        );
    }
}

/// Requires every sweep of `r`, a solve of `nl` asking for `threads`
/// workers, to have engaged one per dirty FUB up to that count, which the
/// cold flood reaches whenever the design has that many FUBs.
fn assert_workers(nl: &Netlist, r: &SartResult, threads: usize) {
    let trace = &r.outcome.trace;
    assert_eq!(trace[0].effective_threads, threads.min(nl.fub_count()));
    for s in trace {
        assert_eq!(s.effective_threads, threads.min(s.dirty_fubs).max(1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn avf_is_min_of_walks_and_in_range((recipe, fubs) in recipe_strategy()) {
        let nl = build_circuit(&recipe, fubs);
        let inputs = inputs_with(0.3, 0.4);
        let r = solve(&nl, SartConfig::default(), &inputs);
        for id in nl.nodes() {
            let avf = r.avf(id);
            prop_assert!((0.0..=1.0).contains(&avf), "{}", nl.name(id));
            if !r.roles.role(id).is_injected() {
                let f = r.forward_value(id, &inputs);
                let b = r.backward_value(id, &inputs);
                prop_assert!((avf - f.min(b)).abs() < 1e-12, "{}", nl.name(id));
                prop_assert!(avf <= f + 1e-12);
                prop_assert!(avf <= b + 1e-12);
            }
        }
    }

    #[test]
    fn partitioned_equals_global((recipe, fubs) in recipe_strategy()) {
        // The per-FUB relaxation reaches the whole-design fixpoint of the
        // walk equations.
        let nl = build_circuit(&recipe, fubs);
        let inputs = inputs_with(0.25, 0.35);
        let part = solve(&nl, SartConfig::default(), &inputs);
        prop_assert!(part.outcome.converged);
        assert_equals_reference(&nl, &part, "");
    }

    #[test]
    fn closed_form_reuse_is_exact((recipe, fubs) in recipe_strategy(),
                                  v in 0.0f64..1.0, w in 0.0f64..1.0) {
        let nl = build_circuit(&recipe, fubs);
        let first = solve(&nl, SartConfig::default(), &inputs_with(0.5, 0.5));
        let new_inputs = inputs_with(v, w);
        let cheap = first.reevaluate(&nl, &new_inputs);
        let fresh = solve(&nl, SartConfig::default(), &new_inputs);
        for id in nl.nodes() {
            prop_assert!((cheap[id.index()] - fresh.avf(id)).abs() < 1e-12);
        }
    }

    #[test]
    fn avf_is_monotone_in_port_pavfs((recipe, fubs) in recipe_strategy(),
                                     lo in 0.0f64..0.5) {
        let nl = build_circuit(&recipe, fubs);
        let low = solve(&nl, SartConfig::default(), &inputs_with(lo, lo));
        let high = solve(&nl, SartConfig::default(), &inputs_with(lo + 0.4, lo + 0.4));
        for id in nl.nodes() {
            prop_assert!(
                high.avf(id) + 1e-12 >= low.avf(id),
                "{}: raising inputs lowered AVF {} -> {}",
                nl.name(id), low.avf(id), high.avf(id)
            );
        }
    }

    #[test]
    fn partitioned_equals_global_with_loops_and_ctrl((recipe, fubs) in recipe_strategy()) {
        // Multi-FUB netlists with cross-partition FSM loops and control
        // registers: the partitioned relaxation must still converge to
        // the whole-design fixpoint of the walk equations. A generous
        // iteration cap keeps deep cross-FUB chains from hitting the limit.
        let nl = build_partition_stress_circuit(&recipe, fubs);
        let mut inputs = PavfInputs::new();
        inputs.set_port("g0.sa", 0.2, 0.6);
        let config = SartConfig { max_iterations: 64, ..SartConfig::default() };
        let part = solve(&nl, config, &inputs);
        prop_assert!(part.outcome.converged);
        assert_equals_reference(&nl, &part, "");
    }

    #[test]
    fn parallel_relax_is_bit_identical_to_sequential((recipe, fubs) in recipe_strategy()) {
        // The parallel engine's contract: any thread count yields
        // the same SetId annotations, arena size, and bitwise-equal AVFs.
        let nl = build_partition_stress_circuit(&recipe, fubs);
        let mut inputs = PavfInputs::new();
        inputs.set_port("g0.sa", 0.35, 0.15);
        let config = SartConfig { max_iterations: 64, ..SartConfig::default() };
        let seq = solve(&nl, config.clone(), &inputs);
        let par = solve(&nl, SartConfig { threads: 5, ..config }, &inputs);
        assert_workers(&nl, &par, 5);
        prop_assert_eq!(&seq.fwd, &par.fwd);
        prop_assert_eq!(&seq.bwd, &par.bwd);
        prop_assert_eq!(seq.arena.len(), par.arena.len());
        for id in nl.nodes() {
            prop_assert_eq!(seq.avf(id).to_bits(), par.avf(id).to_bits(), "{}", nl.name(id));
        }
    }

    #[test]
    fn incremental_relax_equals_full_and_global((recipe, fubs) in recipe_strategy()) {
        // The change worklists' contract: skipping clean FUBs must be
        // invisible. At any thread count — one again included, which
        // checks that a repeat run agrees — the solve matches the
        // threads-1 run in SetId annotations, arena size, iteration count,
        // per-sweep work and bitwise-equal AVFs, and that run carries the
        // reference walk's term sets.
        let nl = build_partition_stress_circuit(&recipe, fubs);
        let mut inputs = PavfInputs::new();
        inputs.set_port("g0.sa", 0.3, 0.45);
        let config = SartConfig { max_iterations: 64, ..SartConfig::default() };
        let seq = solve(&nl, config.clone(), &inputs);
        prop_assert!(seq.outcome.converged);
        assert_equals_reference(&nl, &seq, "");
        for threads in [1usize, 2, 8] {
            let r = solve(&nl, SartConfig { threads, ..config.clone() }, &inputs);
            assert_workers(&nl, &r, threads);
            prop_assert_eq!(&seq.fwd, &r.fwd, "fwd mismatch at {} threads", threads);
            prop_assert_eq!(&seq.bwd, &r.bwd, "bwd mismatch at {} threads", threads);
            prop_assert_eq!(seq.arena.len(), r.arena.len());
            prop_assert_eq!(seq.outcome.iterations, r.outcome.iterations);
            for (a, b) in seq.outcome.trace.iter().zip(&r.outcome.trace) {
                prop_assert_eq!(a.dirty_fubs, b.dirty_fubs);
                prop_assert_eq!(a.walked_nodes, b.walked_nodes);
            }
            for id in nl.nodes() {
                prop_assert_eq!(
                    seq.avf(id).to_bits(), r.avf(id).to_bits(),
                    "{} at {} threads", nl.name(id), threads
                );
            }
        }
    }

    #[test]
    fn wide_term_relax_is_bit_identical_and_equals_global(
        (recipe, fubs) in recipe_strategy(),
        structures in 30usize..64,
    ) {
        // More than 64 terms: the relaxation carries two- or three-word
        // masks at a runtime width. Every thread count must agree bit for
        // bit with the threads-1 run — SetIds, arena, iterations,
        // per-sweep telemetry — and every term set must equal the
        // reference walk's.
        let nl = build_wide_term_circuit(&recipe, fubs, structures);
        let inputs = PavfInputs::new();
        let config = SartConfig {
            max_iterations: 64,
            default_port_pavf: 0.01,
            ..SartConfig::default()
        };
        let base = solve(&nl, config.clone(), &inputs);
        prop_assert!(base.terms.len() > 64, "{} terms", base.terms.len());
        prop_assert!(base.outcome.converged);
        assert_equals_reference(&nl, &base, "");
        for threads in [1usize, 2, 8] {
            let r = solve(&nl, SartConfig { threads, ..config.clone() }, &inputs);
            prop_assert_eq!(&r.fwd, &base.fwd, "threads={}", threads);
            prop_assert_eq!(&r.bwd, &base.bwd, "threads={}", threads);
            prop_assert_eq!(r.arena.len(), base.arena.len());
            prop_assert_eq!(r.outcome.iterations, base.outcome.iterations);
            for (a, b) in r.outcome.trace.iter().zip(&base.outcome.trace) {
                prop_assert_eq!(a.changed_sets, b.changed_sets);
                prop_assert_eq!(a.max_delta.to_bits(), b.max_delta.to_bits());
                prop_assert_eq!(&a.fub_seq_mean, &b.fub_seq_mean);
            }
        }
    }

    #[test]
    fn relaxation_equals_the_reference_walk(
        (recipe, fubs) in recipe_strategy(),
        structures in 30usize..64,
    ) {
        // At 1 or 3 threads, the relaxation must give every node exactly
        // the forward and backward term sets of the reference walk, on
        // partition-stress circuits and on circuits past 64 terms.
        let stress = build_partition_stress_circuit(&recipe, fubs);
        let wide = build_wide_term_circuit(&recipe, fubs, structures);
        let inputs = PavfInputs::new();
        let config = SartConfig {
            max_iterations: 64,
            default_port_pavf: 0.01,
            ..SartConfig::default()
        };
        for nl in [&stress, &wide] {
            for threads in [1usize, 3] {
                let r = solve(nl, SartConfig { threads, ..config.clone() }, &inputs);
                prop_assert!(r.outcome.converged);
                assert_equals_reference(nl, &r, &format!("threads={threads}"));
            }
        }
        let r = solve(&wide, config, &inputs);
        prop_assert!(r.terms.len() > 64, "{} terms", r.terms.len());
    }

    #[test]
    fn exlif_roundtrip_preserves_graph((recipe, fubs) in recipe_strategy()) {
        let nl = build_circuit(&recipe, fubs);
        let text = seqavf::netlist::exlif::write(&nl);
        let nl2 = seqavf::netlist::flatten::parse_netlist(&text).unwrap();
        prop_assert_eq!(nl.node_count(), nl2.node_count());
        prop_assert_eq!(nl.edge_count(), nl2.edge_count());
        prop_assert_eq!(nl.seq_count(), nl2.seq_count());
        for id in nl.nodes() {
            let id2 = nl2.lookup(nl.name(id)).expect("name preserved");
            prop_assert_eq!(nl.kind(id), nl2.kind(id2));
        }
    }
}

/// The default solve of two generated designs equals the reference walk,
/// term set for term set: a mapped core (2,930 nodes, 37 terms, one-word
/// masks) and an unmapped two-core design (6,643 nodes, 85 terms, two-word
/// masks).
#[test]
fn generated_designs_relax_to_the_reference_walk() {
    use seqavf::netlist::synth::{generate, SynthConfig};
    for (synth, mapped) in [
        (SynthConfig::xeon_like(3), true),
        (SynthConfig::xeon_like(5).with_cores(2), false),
    ] {
        let design = generate(&synth);
        let mapping = if mapped {
            StructureMapping::from_pairs(design.meta.structure_map.clone())
        } else {
            StructureMapping::new()
        };
        let nl = &design.netlist;
        let obs = Collector::disabled();
        let r = SartEngine::new_traced(nl, &mapping, SartConfig::default(), None, &obs)
            .run_traced(&PavfInputs::new(), &obs);
        assert!(r.outcome.converged);
        let words = r.terms.len().div_ceil(64);
        assert_eq!(words, if mapped { 1 } else { 2 }, "{} terms", r.terms.len());
        assert_equals_reference(nl, &r, if mapped { "mapped" } else { "unmapped" });
    }
}

/// Replays the shrunk failing case recorded in
/// `tests/properties.proptest-regressions` for `closed_form_reuse_is_exact`.
/// The offline proptest stand-in does not read regression files, so the
/// seed is pinned here as a plain test.
#[test]
fn closed_form_reuse_regression_seed() {
    let recipe: Vec<(u8, u8, u8)> = vec![
        (94, 0, 0),
        (160, 0, 0),
        (184, 0, 0),
        (214, 0, 0),
        (46, 0, 0),
        (0, 0, 0),
        (0, 0, 0),
        (0, 0, 0),
        (0, 0, 3),
        (217, 174, 150),
        (168, 19, 112),
        (25, 111, 184),
        (195, 92, 195),
        (88, 172, 60),
        (165, 60, 188),
        (136, 149, 183),
        (186, 163, 67),
        (216, 100, 4),
        (90, 214, 83),
        (55, 40, 14),
        (23, 55, 242),
        (144, 167, 235),
        (7, 47, 204),
        (30, 26, 203),
        (128, 52, 150),
    ];
    let (fubs, v, w) = (2usize, 0.4015249373321048f64, 0.06049688487082415f64);
    let nl = build_circuit(&recipe, fubs);
    let first = solve(&nl, SartConfig::default(), &inputs_with(0.5, 0.5));
    let cheap = first.reevaluate(&nl, &inputs_with(v, w));
    let fresh = solve(&nl, SartConfig::default(), &inputs_with(v, w));
    for id in nl.nodes() {
        assert!(
            (cheap[id.index()] - fresh.avf(id)).abs() < 1e-12,
            "{}: reused {} vs fresh {}",
            nl.name(id),
            cheap[id.index()],
            fresh.avf(id)
        );
    }
}

proptest! {
    // SFI pairs are comparatively expensive; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn conservative_sart_dominates_sfi((recipe, fubs) in recipe_strategy()) {
        let nl = build_circuit(&recipe, fubs);
        let config = SartConfig {
            loop_pavf: 1.0,
            boundary_in_pavf: 1.0,
            boundary_out_pavf: 1.0,
            default_port_pavf: 1.0,
            ..SartConfig::default()
        };
        let sart = solve(&nl, config, &PavfInputs::new());
        let targets: Vec<NodeId> = nl.seq_nodes().collect();
        let camp = run_campaign(
            &nl,
            &targets,
            &CampaignConfig {
                injections_per_node: 4,
                threads: 1,
                max_warmup: 8,
                horizon: 60,
                ..CampaignConfig::default()
            },
        );
        for est in &camp.nodes {
            let err = est.errors as f64 / est.injections as f64;
            prop_assert!(
                sart.avf(est.node) + 1e-9 >= err,
                "{}: SFI {} > SART bound {}",
                nl.name(est.node), err, sart.avf(est.node)
            );
        }
    }
}
