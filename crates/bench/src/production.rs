//! **E15 — production-scale pipeline**: thread-scaling curves and
//! per-phase peak-RSS at reference (~3k-node) and production (100k+-node)
//! design sizes.
//!
//! Every speedup claim in BENCH_1–BENCH_5 was measured on the ~3k-node
//! `xeon_like` reference — where BENCH_5 caught parallel flatten actually
//! *losing* 1.5× to the sequential path. This study re-proves the claims
//! where they matter: a multi-core scaled design (replicated cores behind
//! a shared uncore, ≥100k nodes) is pushed through flatten, relaxation,
//! and compiled-sweep re-evaluation at 1/8/32 threads, with the resident
//! high-water mark sampled after every phase.
//!
//! Three things are checked, not just timed:
//!
//! - **Small-scale parity.** Below the flatten work threshold the public
//!   entry point must fall back to the sequential path, so the reference
//!   design's "8-thread" time equals its 1-thread time (±5%) instead of
//!   inverting. The raw parallel machinery is still curve-measured via
//!   `build_netlist_threaded_exact`.
//! - **Thread identity.** AVF vectors at 1/8/32 relaxation threads must
//!   be bit-identical, at every scale.
//! - **Warm/cold identity.** The AVF computed on a snapshot-restored
//!   graph must be bit-identical to the cold-built one.
//!
//! Wall-clock speedups are a property of the *host*: on a single-core
//! runner every curve is flat (≈1.0×) and the honest headline is parity,
//! not speedup. `host_parallelism` is recorded in the report so readers
//! can tell which regime a number came from; CI's multi-core `scale-smoke`
//! job exercises the >1× regime.

use serde::{Deserialize, Serialize};

use seqavf_core::engine::{SartConfig, SartEngine};
use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_netlist::exlif;
use seqavf_netlist::flatten;
use seqavf_netlist::scc::find_loops;
use seqavf_netlist::snapshot;
use seqavf_netlist::synth::{generate, SynthConfig};

use crate::common::{Provenance, Scale};

/// Thread counts every phase is swept over.
pub const THREAD_COUNTS: [usize; 3] = [1, 8, 32];

/// One (threads, wall-time) sample of a phase sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhasePoint {
    /// Worker threads used.
    pub threads: usize,
    /// Best-of wall time, milliseconds.
    pub ms: f64,
    /// Single-thread time / this time.
    pub speedup: f64,
}

/// Resident-memory high-water mark sampled after a phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RssSample {
    /// Phase label (`generate`, `flatten`, `scc`, `relax`, …).
    pub phase: String,
    /// `VmHWM` from `/proc/self/status` after the phase, KiB. The kernel
    /// counter is monotone, so each sample is the process-wide peak up to
    /// and including its phase; per-phase growth is the delta to the
    /// previous row.
    pub peak_rss_kb: u64,
}

/// All measurements for one design size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalePoint {
    /// Human label (`xeon_like`, `xeon_like_x8 @ 2.0`, …).
    pub label: String,
    /// Nodes in the design.
    pub nodes: usize,
    /// Sequential nodes.
    pub seq_nodes: usize,
    /// Fan-in edges.
    pub edges: usize,
    /// FUB partitions (the relaxation parallelism grain).
    pub fubs: usize,
    /// EXLIF source size, bytes.
    pub exlif_bytes: usize,
    /// Binary snapshot size, bytes.
    pub snapshot_bytes: usize,
    /// Flatten thread curve via `build_netlist_threaded_exact` (the raw
    /// parallel machinery, no sequential fallback).
    pub flatten: Vec<PhasePoint>,
    /// Flatten via the *public* entry at 8 threads — equals the 1-thread
    /// time when the sequential fallback engages.
    pub flatten_public_8t_ms: f64,
    /// Whether this design's work estimate fell below the parallel
    /// crossover (public entry ran sequentially).
    pub sequential_fallback_engaged: bool,
    /// 1-thread / best parallel flatten time from the exact curve.
    pub flatten_parallel_speedup: f64,
    /// Public 8-thread / public 1-thread flatten time, interleaved —
    /// the parity check; ≈1.0 when the fallback engages.
    pub small_scale_parity: f64,
    /// Relaxation thread curve via [`SartEngine::run_exact`] (the raw
    /// parallel machinery, no sequential fallback).
    pub relax: Vec<PhasePoint>,
    /// Relaxation via the *public* entry at 8 threads — equals the
    /// 1-thread time when the small-design clamp engages.
    pub relax_public_8t_ms: f64,
    /// Whether the design fell below the relaxation parallel crossover
    /// (public entry relaxed sequentially regardless of `threads`).
    pub relax_sequential_fallback_engaged: bool,
    /// Public 8-thread / public 1-thread relaxation time, interleaved —
    /// the parity check; ≈1.0 when the fallback engages.
    pub relax_small_scale_parity: f64,
    /// Compiled-sweep re-evaluation thread curve (batch of workload
    /// tables against the stored closed forms).
    pub sweep: Vec<PhasePoint>,
    /// AVF vectors bit-identical across all relaxation thread counts.
    pub avf_identical_across_threads: bool,
    /// AVF on the snapshot-restored graph bit-identical to the cold one.
    pub avf_identical_warm_cold: bool,
    /// Peak-RSS samples in phase order.
    pub rss: Vec<RssSample>,
}

/// The production-scale study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProductionReport {
    /// Measurement provenance (base design digest, host, thread counts).
    pub provenance: Provenance,
    /// `std::thread::available_parallelism()` on the measuring host —
    /// wall-clock speedups above 1.0 require this to exceed 1.
    pub host_parallelism: usize,
    /// Measured design sizes, ascending.
    pub points: Vec<ScalePoint>,
}

impl ProductionReport {
    /// Renders the per-scale tables.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "production-scale study (host parallelism: {})",
            self.host_parallelism
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "\n== {} — {} nodes, {} seq, {} edges, {} FUBs\n\
                 EXLIF {} bytes, snapshot {} bytes ({})",
                p.label,
                p.nodes,
                p.seq_nodes,
                p.edges,
                p.fubs,
                p.exlif_bytes,
                p.snapshot_bytes,
                if p.snapshot_bytes < p.exlif_bytes {
                    "smaller than source"
                } else {
                    "LARGER than source"
                },
            );
            let _ = writeln!(
                out,
                "{:<10} {:>14} {:>14} {:>14}",
                "threads", "flatten", "relax", "sweep"
            );
            for i in 0..p.flatten.len() {
                let _ = writeln!(
                    out,
                    "{:<10} {:>11.3} ms {:>11.3} ms {:>11.3} ms",
                    p.flatten[i].threads, p.flatten[i].ms, p.relax[i].ms, p.sweep[i].ms
                );
            }
            let _ =
                writeln!(
                out,
                "flatten speedup (exact 1t/best): {:.2}x   public 8t parity: {:.2}   fallback: {}",
                p.flatten_parallel_speedup,
                p.small_scale_parity,
                if p.sequential_fallback_engaged { "sequential" } else { "parallel" },
            );
            let _ = writeln!(
                out,
                "relax public 8t parity: {:.2}   fallback: {}",
                p.relax_small_scale_parity,
                if p.relax_sequential_fallback_engaged {
                    "sequential"
                } else {
                    "parallel"
                },
            );
            let _ = writeln!(
                out,
                "AVF identical across threads: {}   warm/cold identical: {}",
                if p.avf_identical_across_threads {
                    "yes"
                } else {
                    "NO (BUG)"
                },
                if p.avf_identical_warm_cold {
                    "yes"
                } else {
                    "NO (BUG)"
                },
            );
            let _ = writeln!(out, "{:<18} {:>14}", "phase", "peak RSS (KiB)");
            for r in &p.rss {
                let _ = writeln!(out, "{:<18} {:>14}", r.phase, r.peak_rss_kb);
            }
        }
        out
    }
}

/// Reads the process resident high-water mark (`VmHWM`) in KiB.
pub fn peak_rss_kb() -> u64 {
    let status = match std::fs::read_to_string("/proc/self/status") {
        Ok(s) => s,
        Err(_) => return 0,
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn best_of_ms<T>(repeats: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..repeats {
        let t0 = std::time::Instant::now();
        let v = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(v);
    }
    (best, last.expect("at least one repeat"))
}

/// A small batch of distinct workload pAVF tables over the perf-catalog
/// structure names, for the sweep-re-evaluation curve.
fn workload_tables(count: usize) -> Vec<PavfInputs> {
    let names = [
        "fetch_buffer",
        "itlb",
        "btb",
        "ras",
        "uop_queue",
        "rat",
        "free_list",
        "issue_queue",
        "bypass",
        "fp_regfile",
        "dtlb",
        "load_queue",
        "store_queue",
        "rob",
        "prf",
        "csr_bank",
    ];
    (0..count)
        .map(|w| {
            let mut t = PavfInputs::new();
            for (i, name) in names.iter().enumerate() {
                // Deterministic spread in (0, 0.9]; varies per workload.
                let r = 0.05 + 0.85 * ((w * 7 + i * 3) % 17) as f64 / 17.0;
                let wr = 0.05 + 0.85 * ((w * 11 + i * 5) % 13) as f64 / 13.0;
                t.set_port(*name, r, wr);
            }
            t
        })
        .collect()
}

/// Measures one design size end to end.
pub fn measure_point(label: &str, config: &SynthConfig, repeats: usize) -> ScalePoint {
    let mut rss = Vec::new();
    let sample = |phase: &str, rss: &mut Vec<RssSample>| {
        rss.push(RssSample {
            phase: phase.to_owned(),
            peak_rss_kb: peak_rss_kb(),
        });
    };

    let design = generate(config);
    sample("generate", &mut rss);
    let src = exlif::write(&design.netlist);
    let ast = exlif::parse(&src).expect("generated EXLIF parses");

    // Flatten curve on the raw parallel machinery.
    let mut flatten_points = Vec::new();
    let mut flat_1t = f64::INFINITY;
    let mut nl = None;
    for &threads in &THREAD_COUNTS {
        let (ms, graph) = best_of_ms(repeats, || {
            flatten::build_netlist_threaded_exact(&ast, threads).expect("flattens")
        });
        if threads == 1 {
            flat_1t = ms;
        }
        flatten_points.push(PhasePoint {
            threads,
            ms,
            speedup: flat_1t / ms.max(1e-9),
        });
        nl = Some(graph);
    }
    let nl = nl.expect("at least one thread count");
    sample("flatten", &mut rss);

    // The public entry applies the work threshold. Measure its 1- and
    // 8-thread times interleaved so the parity ratio compares equally
    // warm code, not a cold first pass against a hot later one.
    let est = flatten::estimated_flat_stmts(&ast);
    let mut public_1t_ms = f64::INFINITY;
    let mut flatten_public_8t_ms = f64::INFINITY;
    for _ in 0..repeats * 2 {
        let t0 = std::time::Instant::now();
        let _ = flatten::build_netlist_threaded(&ast, 1).expect("flattens");
        public_1t_ms = public_1t_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = std::time::Instant::now();
        let _ = flatten::build_netlist_threaded(&ast, 8).expect("flattens");
        flatten_public_8t_ms = flatten_public_8t_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    let best_parallel = flatten_points[1..]
        .iter()
        .map(|p| p.ms)
        .fold(f64::INFINITY, f64::min);

    let loops = find_loops(&nl);
    sample("scc", &mut rss);

    let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
    let inputs = PavfInputs::new();

    // Relaxation curve on the raw parallel machinery (`run_exact`), with
    // the AVF identity check folded in.
    let mut relax_points = Vec::new();
    let mut relax_1t = f64::INFINITY;
    let mut baseline_avf: Option<Vec<f64>> = None;
    let mut avf_identical_across_threads = true;
    let mut result_for_sweep = None;
    for &threads in &THREAD_COUNTS {
        let engine = SartEngine::new_with_loops(
            &nl,
            &mapping,
            SartConfig {
                threads,
                ..SartConfig::default()
            },
            &loops,
        );
        let (ms, result) = best_of_ms(repeats, || engine.run_exact(&inputs));
        if threads == 1 {
            relax_1t = ms;
        }
        match &baseline_avf {
            None => baseline_avf = Some(result.avf.clone()),
            Some(base) => {
                if base != &result.avf {
                    avf_identical_across_threads = false;
                }
            }
        }
        relax_points.push(PhasePoint {
            threads,
            ms,
            speedup: relax_1t / ms.max(1e-9),
        });
        result_for_sweep = Some(result);
    }
    let result = result_for_sweep.expect("at least one relax point");
    sample("relax", &mut rss);

    // The public entry applies the relaxation work threshold. Interleaved
    // 1t/8t measurement, same rationale as the flatten parity above.
    let engine_1t = SartEngine::new_with_loops(
        &nl,
        &mapping,
        SartConfig {
            threads: 1,
            ..SartConfig::default()
        },
        &loops,
    );
    let engine_8t = SartEngine::new_with_loops(
        &nl,
        &mapping,
        SartConfig {
            threads: 8,
            ..SartConfig::default()
        },
        &loops,
    );
    let mut relax_public_1t_ms = f64::INFINITY;
    let mut relax_public_8t_ms = f64::INFINITY;
    let mut relax_effective_8t = 8;
    for _ in 0..repeats {
        let t0 = std::time::Instant::now();
        let _ = engine_1t.run(&inputs);
        relax_public_1t_ms = relax_public_1t_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = std::time::Instant::now();
        let public_8t = engine_8t.run(&inputs);
        relax_public_8t_ms = relax_public_8t_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        relax_effective_8t = public_8t
            .outcome
            .trace
            .iter()
            .map(|s| s.effective_threads)
            .max()
            .unwrap_or(1);
    }

    // Compiled-sweep curve: batch re-evaluation of workload tables
    // against the stored closed forms.
    let tables = workload_tables(16);
    let mut sweep_points = Vec::new();
    let mut sweep_1t = f64::INFINITY;
    for &threads in &THREAD_COUNTS {
        let (ms, _) = best_of_ms(repeats, || result.reevaluate_many(&nl, &tables, threads));
        if threads == 1 {
            sweep_1t = ms;
        }
        sweep_points.push(PhasePoint {
            threads,
            ms,
            speedup: sweep_1t / ms.max(1e-9),
        });
    }
    sample("sweep", &mut rss);

    // Warm path: snapshot round-trip, then re-solve on the restored
    // graph and compare AVFs bit for bit.
    let bytes = snapshot::save(&nl, &loops);
    sample("snapshot_save", &mut rss);
    let (warm_nl, warm_loops) = snapshot::load(&bytes).expect("snapshot loads");
    sample("snapshot_load", &mut rss);
    let warm_engine =
        SartEngine::new_with_loops(&warm_nl, &mapping, SartConfig::default(), &warm_loops);
    let warm_result = warm_engine.run(&inputs);
    let avf_identical_warm_cold = baseline_avf.as_deref() == Some(warm_result.avf.as_slice());

    let edges = nl.nodes().map(|id| nl.fanin(id).len()).sum();
    ScalePoint {
        label: label.to_owned(),
        nodes: nl.node_count(),
        seq_nodes: nl.seq_count(),
        edges,
        fubs: nl.fub_count(),
        exlif_bytes: src.len(),
        snapshot_bytes: bytes.len(),
        flatten: flatten_points,
        flatten_public_8t_ms,
        sequential_fallback_engaged: est < 20_000,
        flatten_parallel_speedup: flat_1t / best_parallel.max(1e-9),
        small_scale_parity: flatten_public_8t_ms / public_1t_ms.max(1e-9),
        relax: relax_points,
        relax_public_8t_ms,
        relax_sequential_fallback_engaged: relax_effective_8t == 1,
        relax_small_scale_parity: relax_public_8t_ms / relax_public_1t_ms.max(1e-9),
        sweep: sweep_points,
        avf_identical_across_threads,
        avf_identical_warm_cold,
        rss,
    }
}

/// Runs the study. `Quick` measures the reference design plus the ~100k
/// 8-core point; `Full` adds the ~1M-node 16-core point.
pub fn run(scale: Scale, seed: u64) -> ProductionReport {
    // Small first: VmHWM is process-monotone, so measuring ascending
    // keeps each point's samples meaningful.
    let mut specs = vec![
        ("xeon_like", SynthConfig::xeon_like(seed), 15usize),
        (
            "xeon_like_x8 @ 2.0",
            SynthConfig::xeon_like(seed).scaled(2.0).with_cores(8),
            2usize,
        ),
    ];
    if scale == Scale::Full {
        specs.push((
            "xeon_like_x16 @ 4.0",
            SynthConfig::xeon_like(seed).scaled(4.0).with_cores(16),
            1usize,
        ));
    }
    ProductionReport {
        provenance: Provenance::capture(
            generate(&SynthConfig::xeon_like(seed))
                .netlist
                .content_digest(),
            &[1, 8, 32],
        ),
        host_parallelism: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        points: specs
            .into_iter()
            .map(|(label, cfg, repeats)| measure_point(label, &cfg, repeats))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_point_has_parity_and_identity() {
        let p = measure_point("xeon_like", &SynthConfig::xeon_like(42), 2);
        assert!(p.sequential_fallback_engaged, "3k design must fall back");
        assert!(
            (p.small_scale_parity - 1.0).abs() < 0.25,
            "public 8t should track 1t at small scale, got {:.2}",
            p.small_scale_parity
        );
        assert!(
            p.relax_sequential_fallback_engaged,
            "3k design must relax sequentially through the public entry"
        );
        assert!(
            (p.relax_small_scale_parity - 1.0).abs() < 0.35,
            "public 8t relax should track 1t at small scale, got {:.2}",
            p.relax_small_scale_parity
        );
        assert!(p.avf_identical_across_threads);
        assert!(p.avf_identical_warm_cold);
        assert!(p.snapshot_bytes < p.exlif_bytes);
        assert!(p.rss.iter().all(|r| r.peak_rss_kb > 0));
    }
}
