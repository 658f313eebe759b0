//! The multi-workload sweep driver: compile once, evaluate per workload,
//! and skip relaxation entirely on repeated sweeps via an on-disk cache.
//!
//! The paper's amortization argument (§5.2) is that SART's symbolic result
//! makes per-workload AVF nearly free: one relaxation, then cheap
//! substitution of each workload's measured pAVF terms. This module
//! industrializes that path:
//!
//! 1. [`run_sweep`] relaxes the design once (or loads a cached compiled
//!    DAG), lowers the closed forms with [`CompiledSweep::compile`], and
//!    evaluates every workload's input table in parallel.
//! 2. [`SweepCache`] persists the compiled DAG keyed by
//!    **(netlist content hash, structure mapping, result-affecting
//!    `SartConfig` fields)** — see [`cache_key`]. The relaxation fixpoint
//!    is symbolic and independent of input values (see [`crate::relax`]),
//!    so those inputs fully determine the compiled artifact; a
//!    byte-identical netlist under the same configuration may reuse it
//!    regardless of file name — and regardless of `threads` or
//!    `incremental`, which change execution strategy but never the result
//!    — while any netlist edit, mapping edit, or result-affecting
//!    configuration change produces a different key and a fresh
//!    relaxation.
//!
//! Observability: compilation records a `sweep.compile` span, every
//! workload evaluation a `sweep.eval` span, and cache consultations bump
//! the `sweep.cache.hit` / `sweep.cache.miss` counters.

use std::path::{Path, PathBuf};

use seqavf_netlist::graph::Netlist;
use seqavf_netlist::scc::LoopAnalysis;
use seqavf_netlist::snapshot::write_atomic;
use seqavf_netlist::Fnv1a64;
use seqavf_obs::Collector;

use crate::compile::{CompileStats, CompiledSweep, PatchStats};
use crate::engine::{SartConfig, SartEngine, SartResult, WarmStatus};
use crate::fixpoint;
use crate::mapping::{PavfInputs, StructureMapping};

/// The sweep-cache key: a 64-bit FNV-1a hash over the netlist's semantic
/// content digest ([`Netlist::content_digest`] — the same digest the
/// binary graph snapshot embeds), the structure→performance-counter
/// mapping, and the configuration's *result key*
/// ([`SartConfig::result_key`]). The digest depends only on graph
/// *content*, never on the file it was parsed from, so renaming a design
/// file cannot invalidate the cache while any structural edit must.
///
/// The result key deliberately excludes `threads` and `incremental`:
/// both are execution strategies with a bit-identity guarantee, so a
/// `--threads 8` sweep reuses the artifact a `--threads 1` sweep wrote.
/// The mapping is keyed because it decides which structures carry
/// performance-counter names — it changes the compiled DAG's `Struct`
/// slots and therefore the evaluated AVFs.
pub fn cache_key(nl: &Netlist, mapping: &StructureMapping, config: &SartConfig) -> u64 {
    cache_key_parts(
        nl.content_digest(),
        &mapping.to_text(nl),
        &config.result_key(),
    )
}

/// [`cache_key`] from its already-extracted ingredients. The warm patch
/// path uses this to address the *previous* revision's compiled artifact:
/// the fixpoint artifact records the old content digest
/// ([`crate::fixpoint::StoredFixpoint::content_digest`]), while mapping
/// text and result key are revision-independent for a graph edit.
pub fn cache_key_parts(content_digest: u64, mapping_text: &str, result_key: &str) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(&content_digest.to_le_bytes());
    h.update(&[0]);
    h.update(mapping_text.as_bytes());
    h.update(&[0]);
    h.update(result_key.as_bytes());
    h.finish()
}

/// An on-disk cache of compiled sweep artifacts.
///
/// One directory, one sealed `seqavf-sweep/3` artifact
/// (`sweep-<key>.bin`, see [`CompiledSweep::encode`]) per key, written
/// atomically. Artifacts that fail their checksum or any decode check,
/// embed a different result key, or disagree with the requested
/// netlist's node count are treated as misses (and overwritten by the
/// fresh store) — corruption degrades to a recompute, never to a wrong
/// answer.
#[derive(Debug, Clone)]
pub struct SweepCache {
    dir: PathBuf,
}

impl SweepCache {
    /// Opens (creating if needed) a cache directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<SweepCache, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create cache dir {}: {e}", dir.display()))?;
        Ok(SweepCache { dir })
    }

    /// The artifact path for a key.
    pub fn artifact_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("sweep-{key:016x}.bin"))
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Loads the artifact for `key` if present, intact, configured as
    /// requested, and shaped for a netlist of `node_count` nodes.
    pub fn load(&self, key: u64, config: &SartConfig, node_count: usize) -> Option<CompiledSweep> {
        let bytes = std::fs::read(self.artifact_path(key)).ok()?;
        let compiled = CompiledSweep::decode(&bytes, config).ok()?;
        (compiled.node_count() == node_count).then_some(compiled)
    }

    /// Stores a compiled artifact under `key`.
    pub fn store(&self, key: u64, compiled: &CompiledSweep) -> Result<PathBuf, String> {
        let path = self.artifact_path(key);
        write_atomic(&path, &compiled.encode())
            .map_err(|e| format!("cannot write cache artifact {}: {e}", path.display()))?;
        Ok(path)
    }
}

/// How the sweep obtained its compiled DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// No cache directory configured: relaxed and compiled fresh.
    Disabled,
    /// Cache consulted, artifact absent or invalid: relaxed, compiled,
    /// and stored.
    Miss,
    /// Cache consulted and the artifact reused: relaxation skipped.
    Hit,
}

/// How a cache-miss sweep rebuilt its compiled DAG after an edit, when a
/// warm-started relaxation made incremental patching possible at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatchStatus {
    /// The previous revision's cached DAG was patched in place of a full
    /// recompile ([`CompiledSweep::patch_traced`]).
    Patched(PatchStats),
    /// Patching was attempted but fell back to a full recompile, with the
    /// first reason encountered on the fallback ladder.
    Rebuilt(&'static str),
}

/// Per-workload AVF summary row.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadAvf {
    /// Workload name.
    pub workload: String,
    /// Mean AVF over sequential nodes.
    pub mean_seq_avf: f64,
    /// Lowest sequential-node AVF.
    pub min_seq_avf: f64,
    /// Highest sequential-node AVF.
    pub max_seq_avf: f64,
    /// Every node's AVF, indexed by `NodeId::index`.
    pub node_avfs: Vec<f64>,
}

/// Sweep-driver options.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads for the per-workload evaluation fan-out (0 and 1
    /// both run inline).
    pub threads: usize,
    /// Artifact-cache directory; `None` disables the cache.
    pub cache_dir: Option<PathBuf>,
    /// Warm-start directory holding `seqavf-fixpoint/1` artifacts
    /// (see [`crate::fixpoint`]); `None` always relaxes cold. Only
    /// consulted when a fresh relaxation actually runs — a compiled-DAG
    /// cache hit skips relaxation entirely and needs no seed.
    pub warm_start: Option<PathBuf>,
}

/// Everything a sweep produces.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Whether the compiled DAG came from the cache.
    pub cache: CacheStatus,
    /// Which solve path a warm-start request took, when a fresh
    /// relaxation ran with [`SweepOptions::warm_start`] set.
    pub warm: Option<WarmStatus>,
    /// Whether a cache-miss rebuild patched the previous revision's DAG
    /// or recompiled from scratch; `None` when no patch was attemptable
    /// (cache hit, cache disabled, or cold solve).
    pub patch: Option<PatchStatus>,
    /// Sharing statistics of the compiled DAG.
    pub stats: CompileStats,
    /// One row per requested workload, in request order.
    pub rows: Vec<WorkloadAvf>,
}

/// Runs a multi-workload sweep: obtain the compiled DAG (cache or fresh
/// relaxation seeded by `base_inputs`), then evaluate every named workload
/// table. See [`run_sweep_traced`] for the observability variant.
pub fn run_sweep(
    nl: &Netlist,
    mapping: &StructureMapping,
    config: &SartConfig,
    base_inputs: &PavfInputs,
    workloads: &[(String, PavfInputs)],
    opts: &SweepOptions,
) -> Result<SweepOutcome, String> {
    run_sweep_traced(
        nl,
        mapping,
        config,
        base_inputs,
        workloads,
        opts,
        &Collector::disabled(),
    )
}

/// [`run_sweep`] with observability (spans `sweep.compile` / `sweep.eval`,
/// counters `sweep.cache.hit` / `sweep.cache.miss`, plus the usual
/// relaxation telemetry on a miss).
pub fn run_sweep_traced(
    nl: &Netlist,
    mapping: &StructureMapping,
    config: &SartConfig,
    base_inputs: &PavfInputs,
    workloads: &[(String, PavfInputs)],
    opts: &SweepOptions,
    obs: &Collector,
) -> Result<SweepOutcome, String> {
    run_sweep_with_loops_traced(nl, mapping, config, base_inputs, workloads, opts, None, obs)
}

/// Obtains the compiled DAG for a design: from the artifact cache when
/// `cache_dir` holds a valid artifact for the (netlist, mapping, config)
/// key, otherwise via a fresh relaxation (seeded by `base_inputs`) that
/// is stored back when the cache is enabled.
///
/// This is the compile-or-cache half of [`run_sweep_with_loops_traced`],
/// split out so other consumers of the analytical result — the `validate`
/// flow's SART side in particular — share the sweep's artifacts instead
/// of re-relaxing designs the sweep already compiled.
#[allow(clippy::too_many_arguments)]
pub fn obtain_compiled_traced(
    nl: &Netlist,
    mapping: &StructureMapping,
    config: &SartConfig,
    base_inputs: &PavfInputs,
    cache_dir: Option<&Path>,
    loops: Option<&LoopAnalysis>,
    obs: &Collector,
) -> Result<(CompiledSweep, CacheStatus), String> {
    let (compiled, cache, _, _) = obtain_compiled_warm_traced(
        nl,
        mapping,
        config,
        base_inputs,
        cache_dir,
        None,
        loops,
        obs,
    )?;
    Ok((compiled, cache))
}

/// [`obtain_compiled_traced`] with an optional warm-start directory: when
/// a fresh relaxation is needed and `warm_dir` holds a fixpoint artifact
/// for this design (by name), mapping, and config, the relaxation is
/// seeded from it (`relax.warmstart.hit`); any artifact problem falls
/// back to a cold solve (`relax.warmstart.miss`). Either way, a converged
/// fresh solve refreshes the artifact so the *next* edit starts warm.
///
/// When the warm solve succeeds *and* the cache still holds the previous
/// revision's compiled DAG (addressed via the fixpoint artifact's stored
/// content digest, [`cache_key_parts`]), the DAG is **patched** instead
/// of recompiled — [`CompiledSweep::patch_traced`] re-lowers only the
/// dirty cone — and the `sweep.patch.hit` counter bumps. Any patch
/// precondition failure recompiles from scratch (`sweep.patch.
/// full_rebuild`); the returned [`PatchStatus`] reports which happened.
#[allow(clippy::too_many_arguments)]
pub fn obtain_compiled_warm_traced(
    nl: &Netlist,
    mapping: &StructureMapping,
    config: &SartConfig,
    base_inputs: &PavfInputs,
    cache_dir: Option<&Path>,
    warm_dir: Option<&Path>,
    loops: Option<&LoopAnalysis>,
    obs: &Collector,
) -> Result<
    (
        CompiledSweep,
        CacheStatus,
        Option<WarmStatus>,
        Option<PatchStatus>,
    ),
    String,
> {
    type Solved = (
        SartResult,
        Option<WarmStatus>,
        Option<fixpoint::StoredFixpoint>,
        Option<Vec<bool>>,
    );
    let solve = || -> Solved {
        let engine = match loops {
            Some(l) => SartEngine::new_with_loops_traced(nl, mapping, config.clone(), l, obs),
            None => SartEngine::new_traced(nl, mapping, config.clone(), obs),
        };
        match warm_dir {
            None => (engine.run_traced(base_inputs, obs), None, None, None),
            Some(dir) => {
                let path = fixpoint::artifact_path(
                    dir,
                    fixpoint::artifact_key(
                        nl.design_name(),
                        &mapping.to_text(nl),
                        &config.result_key(),
                    ),
                );
                let stored = fixpoint::load(&path).unwrap_or_default();
                let (result, warm, clean) = match &stored {
                    Some(s) => engine.run_warm_patch_traced(base_inputs, s, obs),
                    None => (
                        engine.run_traced(base_inputs, obs),
                        WarmStatus::Cold("no usable fixpoint artifact"),
                        None,
                    ),
                };
                match warm {
                    WarmStatus::Warm { .. } => obs.count("relax.warmstart.hit", 1),
                    WarmStatus::Cold(_) => obs.count("relax.warmstart.miss", 1),
                }
                // Best-effort refresh: the next run should warm-start from
                // *this* design's fixpoint.
                if let Some(captured) = engine.capture_fixpoint(&result) {
                    let _ = fixpoint::store(&path, &captured);
                }
                (result, Some(warm), stored, clean)
            }
        }
    };
    match cache_dir {
        None => {
            let (result, warm, _, _) = solve();
            Ok((
                CompiledSweep::compile_traced(&result, nl, obs),
                CacheStatus::Disabled,
                warm,
                None,
            ))
        }
        Some(dir) => {
            let store = SweepCache::open(dir)?;
            let key = cache_key(nl, mapping, config);
            match store.load(key, config, nl.node_count()) {
                Some(c) => {
                    obs.count("sweep.cache.hit", 1);
                    Ok((c, CacheStatus::Hit, None, None))
                }
                None => {
                    obs.count("sweep.cache.miss", 1);
                    let (result, warm, stored, clean) = solve();
                    let mut patch = None;
                    let compiled = match (&warm, &stored, &clean) {
                        (Some(WarmStatus::Warm { .. }), Some(s), Some(mask)) => {
                            let attempt = store
                                .load(
                                    cache_key_parts(
                                        s.content_digest,
                                        &mapping.to_text(nl),
                                        &config.result_key(),
                                    ),
                                    config,
                                    s.node_count,
                                )
                                .ok_or("no cached DAG for the previous revision")
                                .and_then(|old| {
                                    let layout: Vec<(&str, usize)> = s
                                        .fubs
                                        .iter()
                                        .map(|f| (f.name.as_str(), f.fwd.len()))
                                        .collect();
                                    old.patch_traced(&result, nl, &layout, mask, obs)
                                });
                            match attempt {
                                Ok((patched, stats)) => {
                                    obs.count("sweep.patch.hit", 1);
                                    patch = Some(PatchStatus::Patched(stats));
                                    patched
                                }
                                Err(reason) => {
                                    obs.count("sweep.patch.full_rebuild", 1);
                                    patch = Some(PatchStatus::Rebuilt(reason));
                                    CompiledSweep::compile_traced(&result, nl, obs)
                                }
                            }
                        }
                        _ => CompiledSweep::compile_traced(&result, nl, obs),
                    };
                    store.store(key, &compiled)?;
                    Ok((compiled, CacheStatus::Miss, warm, patch))
                }
            }
        }
    }
}

/// [`run_sweep_traced`] with an optional precomputed loop analysis (e.g.
/// one restored from a graph snapshot): when present, a fresh relaxation
/// reuses it instead of re-running the SCC pass.
#[allow(clippy::too_many_arguments)]
pub fn run_sweep_with_loops_traced(
    nl: &Netlist,
    mapping: &StructureMapping,
    config: &SartConfig,
    base_inputs: &PavfInputs,
    workloads: &[(String, PavfInputs)],
    opts: &SweepOptions,
    loops: Option<&LoopAnalysis>,
    obs: &Collector,
) -> Result<SweepOutcome, String> {
    let (compiled, cache, warm, patch) = obtain_compiled_warm_traced(
        nl,
        mapping,
        config,
        base_inputs,
        opts.cache_dir.as_deref(),
        opts.warm_start.as_deref(),
        loops,
        obs,
    )?;

    let tables: Vec<PavfInputs> = workloads.iter().map(|(_, t)| t.clone()).collect();
    let avfs = compiled.evaluate_many_traced(&tables, opts.threads, obs);
    let seq: Vec<usize> = nl.seq_nodes().map(|id| id.index()).collect();
    let rows = workloads
        .iter()
        .zip(avfs)
        .map(|((name, _), node_avfs)| {
            let mut sum = 0.0;
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            for &i in &seq {
                let v = node_avfs[i];
                sum += v;
                min = min.min(v);
                max = max.max(v);
            }
            let (mean, min, max) = if seq.is_empty() {
                (0.0, 0.0, 0.0)
            } else {
                (sum / seq.len() as f64, min, max)
            };
            WorkloadAvf {
                workload: name.clone(),
                mean_seq_avf: mean,
                min_seq_avf: min,
                max_seq_avf: max,
                node_avfs,
            }
        })
        .collect();
    Ok(SweepOutcome {
        cache,
        warm,
        patch,
        stats: compiled.stats(),
        rows,
    })
}
