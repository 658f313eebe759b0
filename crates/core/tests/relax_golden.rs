//! Golden digests of the partitioned relaxation on generated designs.
//!
//! Each digest folds the arena's sets in id order, every forward and
//! backward `SetId`, and the per-sweep `IterationStats` (all of it except
//! wall time and the engaged thread count). The numbering, the
//! canonical set store and the convergence telemetry are part of the
//! artifact formats and of compile's CSE, so a change to the relaxation's
//! internals must leave every digest here unchanged.
//!
//! The designs cover both mask widths the relaxation dispatches on today:
//! a mapped core (37 terms, one 64-bit word) and an unmapped two-core
//! design whose RTL structure names make 85 distinct terms (two words).

use seqavf_core::arena::SetId;
use seqavf_core::engine::{SartConfig, SartEngine, SartResult, WarmStatus};
use seqavf_core::fixpoint::StoredFixpoint;
use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_netlist::graph::Netlist;
use seqavf_netlist::synth::{generate, SynthConfig};
use seqavf_netlist::{exlif, flatten, Fnv1a64};

fn put(h: &mut Fnv1a64, v: u64) {
    h.update(&v.to_le_bytes());
}

/// Digest of the arena (sets in id order), the per-node annotations and
/// every sweep's telemetry.
fn digest(r: &SartResult) -> u64 {
    let mut h = Fnv1a64::new();
    put(&mut h, r.arena.len() as u64);
    for i in 0..r.arena.len() {
        let terms = r.arena.terms(SetId::from_index(i));
        put(&mut h, terms.len() as u64);
        for t in terms {
            put(&mut h, t.index() as u64);
        }
    }
    for s in r.fwd.iter().chain(&r.bwd) {
        put(&mut h, s.index() as u64);
    }
    put(&mut h, r.outcome.iterations as u64);
    put(&mut h, u64::from(r.outcome.converged));
    for st in &r.outcome.trace {
        put(&mut h, st.changed_sets as u64);
        put(&mut h, st.max_delta.to_bits());
        put(&mut h, st.dirty_fubs as u64);
        put(&mut h, st.skipped_fubs as u64);
        put(&mut h, st.walked_nodes as u64);
        for m in &st.fub_seq_mean {
            put(&mut h, m.to_bits());
        }
    }
    h.finish()
}

fn inputs() -> PavfInputs {
    let mut p = PavfInputs::new();
    p.set_port("rob", 0.21, 0.34);
    p.set_port("issue_queue", 0.17, 0.05);
    p.set_port("load_queue", 0.4, 0.12);
    p
}

/// Unmeasured ports (every port of the unmapped design) take a small
/// default, so sums stay below the 1.0 cap and `max_delta` and the FUB
/// means carry information.
fn config() -> SartConfig {
    SartConfig {
        default_port_pavf: 0.03,
        ..SartConfig::default()
    }
}

/// Flips the `pick`-th `.gate and`/`.gate or` line of an EXLIF text.
fn flip_gate(text: &str, pick: usize) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let gates: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| {
            let t = l.trim_start();
            t.starts_with(".gate and ") || t.starts_with(".gate or ")
        })
        .map(|(i, _)| i)
        .collect();
    let i = gates[pick % gates.len()];
    lines[i] = if lines[i].trim_start().starts_with(".gate and ") {
        lines[i].replacen(".gate and ", ".gate or ", 1)
    } else {
        lines[i].replacen(".gate or ", ".gate and ", 1)
    };
    lines.join("\n") + "\n"
}

/// The term count, then the digests of a cold solve with incremental
/// sweeps, one with full sweeps and a warm re-solve after a one-gate
/// edit. Every thread count must reproduce the single-thread digests.
fn digests(nl: &Netlist, mapping: &StructureMapping) -> (usize, u64, u64, u64) {
    let inputs = inputs();
    let cold = |config: SartConfig| {
        let engine = SartEngine::new(nl, mapping, config);
        let base = digest(&engine.run(&inputs));
        for threads in [2, 3] {
            let par = SartEngine::new(
                nl,
                mapping,
                SartConfig {
                    threads,
                    ..engine.config().clone()
                },
            );
            assert_eq!(digest(&par.run_exact(&inputs)), base, "threads={threads}");
        }
        base
    };
    let incremental = cold(config());
    let full = cold(SartConfig {
        incremental: false,
        ..config()
    });

    let engine = SartEngine::new(nl, mapping, config());
    let base = engine.run(&inputs);
    let terms = base.terms.len();
    let stored: StoredFixpoint = engine
        .capture_fixpoint(&base)
        .expect("base revision converges");
    let edited = flatten::parse_netlist(&flip_gate(&exlif::write(nl), 7)).unwrap();
    let warm_engine = SartEngine::new(&edited, mapping, config());
    let (warm, status, _) = warm_engine.run_warm_patch_exact(&inputs, &stored);
    assert!(matches!(status, WarmStatus::Warm { .. }), "{status:?}");
    let warm_digest = digest(&warm);
    for threads in [2, 3] {
        let par = SartEngine::new(
            &edited,
            mapping,
            SartConfig {
                threads,
                ..config()
            },
        );
        let (r, _, _) = par.run_warm_patch_exact(&inputs, &stored);
        assert_eq!(digest(&r), warm_digest, "warm threads={threads}");
    }
    (terms, incremental, full, warm_digest)
}

#[test]
fn mapped_core_relaxation_is_pinned() {
    let design = generate(&SynthConfig::xeon_like(3));
    let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
    let (terms, incremental, full, warm) = digests(&design.netlist, &mapping);
    assert!(terms <= 64, "{terms} terms");
    let got = (incremental, full, warm);
    let want = (0xc7dd6a9141fc1eec, 0xd3ab46004fceedbe, 0xde73d2e93f235240);
    assert_eq!(got, want, "got {got:#018x?}");
}

#[test]
fn unmapped_two_core_relaxation_is_pinned() {
    let design = generate(&SynthConfig::xeon_like(5).with_cores(2));
    let mapping = StructureMapping::new();
    let (terms, incremental, full, warm) = digests(&design.netlist, &mapping);
    assert!((65..=128).contains(&terms), "{terms} terms");
    let got = (incremental, full, warm);
    let want = (0x5fba1783ac33a2fe, 0xc024092e737fe60d, 0xaf3eaefe98d074d2);
    assert_eq!(got, want, "got {got:#018x?}");
}
