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
//!    evaluates every workload's summary row — mean, min and max over the
//!    sequential nodes — with [`CompiledSweep::evaluate_seq_stats_traced`],
//!    which folds them in the DAG pass without writing node-length rows.
//!    Callers that need every node's AVF evaluate the DAG themselves
//!    ([`obtain_compiled_traced`], [`CompiledSweep::evaluate`]).
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
//! 3. [`solve_fresh_traced`] is that fresh relaxation after an edit:
//!    warm-started from the previous revision's fixpoint, then patching
//!    the previous revision's DAG. The server runs the same function.
//!
//! Observability: compilation records a `sweep.compile` span, evaluation
//! a `sweep.eval` span per one-table group and a `sweep.eval_batch` span
//! per wider one, and cache consultations bump the `sweep.cache.hit` /
//! `sweep.cache.miss` counters.

use std::borrow::Borrow;
use std::path::{Path, PathBuf};

use seqavf_netlist::graph::Netlist;
use seqavf_netlist::scc::LoopAnalysis;
use seqavf_netlist::snapshot::write_atomic;
use seqavf_netlist::Fnv1a64;
use seqavf_obs::Collector;

use crate::compile::{CompileStats, CompiledSweep, PatchStats};
use crate::engine::{SartConfig, SartEngine, WarmStatus};
use crate::fixpoint::{self, StoredFixpoint};
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
    KeyParts::new(nl, mapping, config).sweep_key(nl.content_digest())
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

/// The revision-independent ingredients of a design's cache keys — the
/// structure-mapping text and the configuration's result key — rendered
/// once and shared by the sweep key of the current revision, the sweep
/// key of the previous one and the fixpoint key.
#[derive(Debug, Clone)]
pub struct KeyParts {
    mapping_text: String,
    result_key: String,
}

impl KeyParts {
    /// Renders the mapping text and result key.
    pub fn new(nl: &Netlist, mapping: &StructureMapping, config: &SartConfig) -> KeyParts {
        KeyParts {
            mapping_text: mapping.to_text(nl),
            result_key: config.result_key(),
        }
    }

    /// The sweep-cache key of the revision with this content digest.
    pub fn sweep_key(&self, content_digest: u64) -> u64 {
        cache_key_parts(content_digest, &self.mapping_text, &self.result_key)
    }

    /// The fixpoint key of a design ([`fixpoint::artifact_key`]).
    pub fn fixpoint_key(&self, design_name: &str) -> u64 {
        fixpoint::artifact_key(design_name, &self.mapping_text, &self.result_key)
    }
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

/// Per-workload AVF summary row ([`crate::compile::SeqStats::summary`]:
/// zeros when the design has no sequential node).
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
}

/// Sweep-driver options.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads for the per-workload evaluation fan-out (0 and 1
    /// both run inline).
    pub threads: usize,
    /// Artifact-cache directory; `None` disables the cache.
    pub cache_dir: Option<PathBuf>,
    /// Warm-start directory holding `seqavf-fixpoint/2` artifacts
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

/// [`run_sweep`] with observability (spans `sweep.compile` /
/// `sweep.eval` / `sweep.eval_batch`, counters `sweep.cache.hit` /
/// `sweep.cache.miss`, plus the usual relaxation telemetry on a miss).
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
    let opts = SweepOptions {
        cache_dir: cache_dir.map(Path::to_path_buf),
        ..SweepOptions::default()
    };
    let (compiled, cache, _) = obtain(nl, mapping, config, base_inputs, &opts, loops, obs)?;
    Ok((compiled, cache))
}

/// What [`solve_fresh_traced`] did besides building the DAG.
#[derive(Debug, Clone, Copy)]
pub struct FreshSolve {
    /// Which solve path ran.
    pub warm: WarmStatus,
    /// Whether the previous revision's DAG was patched or a patch fell
    /// back to a full recompile; `None` when the solve ran cold or the
    /// caller has no DAG tier to look in.
    pub patch: Option<PatchStatus>,
    /// Nodes the relaxation walked.
    pub walked_nodes: usize,
}

/// The fresh-solve ladder every edit path runs — the sweep driver and
/// the server alike:
///
/// 1. the warm solve ([`SartEngine::run_warm_start_traced`]) from `prev`,
///    the previous revision's fixpoint (`Err` names why there is none),
///    whose converged fixpoint goes to `keep_fixpoint` before any DAG is
///    built;
/// 2. when it ran warm and the caller has a DAG tier (`old_dag`), the
///    previous revision's compiled DAG, looked up by its sweep key — the
///    stored fixpoint's content digest under `keys` — and node count;
/// 3. [`CompiledSweep::patch_traced`] of that DAG (`sweep.patch.hit`),
///    or, on any `Err` on the way, a full [`CompiledSweep::compile_traced`]
///    (`sweep.patch.full_rebuild`).
///
/// Where fixpoints and DAGs are kept stays with the callers.
pub fn solve_fresh_traced<D: Borrow<CompiledSweep>>(
    engine: SartEngine,
    base_inputs: &PavfInputs,
    prev: Result<&StoredFixpoint, &'static str>,
    keys: &KeyParts,
    old_dag: Option<impl FnOnce(u64, usize) -> Result<D, &'static str>>,
    keep_fixpoint: impl FnOnce(StoredFixpoint),
    obs: &Collector,
) -> (CompiledSweep, FreshSolve) {
    let nl = engine.netlist();
    let (result, status, clean, fixpoint) = engine.run_warm_start_traced(base_inputs, prev, obs);
    // Building the DAG needs only the result: free the prepared
    // propagation state first, so it never coexists with the new DAG.
    drop(engine);
    if let Some(fp) = fixpoint {
        keep_fixpoint(fp);
    }
    let (patched, patch) = match (prev, &clean, old_dag) {
        (Ok(fp), Some(clean), Some(lookup)) => {
            let layout: Vec<(&str, usize)> = fp
                .fubs
                .iter()
                .map(|f| (f.name.as_str(), f.fwd.len()))
                .collect();
            let attempt = lookup(keys.sweep_key(fp.content_digest), fp.node_count)
                .and_then(|old| old.borrow().patch_traced(&result, nl, &layout, clean, obs));
            match attempt {
                Ok((dag, stats)) => {
                    obs.count("sweep.patch.hit", 1);
                    (Some(dag), Some(PatchStatus::Patched(stats)))
                }
                Err(reason) => {
                    obs.count("sweep.patch.full_rebuild", 1);
                    (None, Some(PatchStatus::Rebuilt(reason)))
                }
            }
        }
        _ => (None, None),
    };
    let compiled = patched.unwrap_or_else(|| CompiledSweep::compile_traced(&result, nl, obs));
    let fresh = FreshSolve {
        warm: status,
        patch,
        walked_nodes: result.outcome.total_walked_nodes(),
    };
    (compiled, fresh)
}

/// The library's cache tiers around [`solve_fresh_traced`]: the
/// [`SweepCache`] artifact for this revision, else a fresh solve — cold
/// without [`SweepOptions::warm_start`], else seeded from and refreshing
/// the fixpoint file there, patching from the cache's artifact for the
/// previous revision — stored back when the cache is enabled.
fn obtain(
    nl: &Netlist,
    mapping: &StructureMapping,
    config: &SartConfig,
    base_inputs: &PavfInputs,
    opts: &SweepOptions,
    loops: Option<&LoopAnalysis>,
    obs: &Collector,
) -> Result<(CompiledSweep, CacheStatus, Option<FreshSolve>), String> {
    let keys = KeyParts::new(nl, mapping, config);
    let cache = match &opts.cache_dir {
        None => None,
        Some(dir) => {
            let store = SweepCache::open(dir)?;
            let key = keys.sweep_key(nl.content_digest());
            if let Some(c) = store.load(key, config, nl.node_count()) {
                obs.count("sweep.cache.hit", 1);
                return Ok((c, CacheStatus::Hit, None));
            }
            obs.count("sweep.cache.miss", 1);
            Some((store, key))
        }
    };
    let new_engine = || match loops {
        Some(l) => SartEngine::new_with_loops_traced(nl, mapping, config.clone(), l, obs),
        None => SartEngine::new_traced(nl, mapping, config.clone(), obs),
    };
    let (compiled, fresh) = match &opts.warm_start {
        None => {
            let result = new_engine().run_traced(base_inputs, obs);
            (CompiledSweep::compile_traced(&result, nl, obs), None)
        }
        Some(dir) => {
            let path = fixpoint::artifact_path(dir, keys.fixpoint_key(nl.design_name()));
            let stored = fixpoint::load(&path).unwrap_or_default();
            let old_dag = cache.as_ref().map(|(store, _)| {
                |key, nodes| {
                    store
                        .load(key, config, nodes)
                        .ok_or("no cached DAG for the previous revision")
                }
            });
            let prev = stored.as_ref().ok_or("no usable fixpoint artifact");
            // Best-effort refresh: the next run should warm-start from
            // *this* design's fixpoint.
            let keep = |fp| {
                let _ = fixpoint::store(&path, &fp);
            };
            let (compiled, fresh) =
                solve_fresh_traced(new_engine(), base_inputs, prev, &keys, old_dag, keep, obs);
            (compiled, Some(fresh))
        }
    };
    let status = match cache {
        None => CacheStatus::Disabled,
        Some((store, key)) => {
            store.store(key, &compiled)?;
            CacheStatus::Miss
        }
    };
    Ok((compiled, status, fresh))
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
    let (compiled, cache, fresh) = obtain(nl, mapping, config, base_inputs, opts, loops, obs)?;

    let tables: Vec<PavfInputs> = workloads.iter().map(|(_, t)| t.clone()).collect();
    let seq: Vec<usize> = nl.seq_nodes().map(|id| id.index()).collect();
    let stats = compiled.evaluate_seq_stats_traced(&tables, &seq, opts.threads, obs);
    let rows = workloads
        .iter()
        .zip(stats)
        .map(|((name, _), st)| {
            let (mean, min, max) = st.summary(seq.len());
            WorkloadAvf {
                workload: name.clone(),
                mean_seq_avf: mean,
                min_seq_avf: min,
                max_seq_avf: max,
            }
        })
        .collect();
    Ok(SweepOutcome {
        cache,
        warm: fresh.map(|f| f.warm),
        patch: fresh.and_then(|f| f.patch),
        stats: compiled.stats(),
        rows,
    })
}
