//! Resident state: loaded design graphs and compiled sweep DAGs, each
//! behind a digest-keyed LRU, shared by every worker thread.
//!
//! Two tiers of residency, keyed by the digests the on-disk caches
//! already use so warm state and disk artifacts agree about identity:
//!
//! * **Graphs** — keyed by [`DesignSource::key`], the key that also
//!   names the `--graph-cache` snapshot files, loaded through the same
//!   [`DesignSource::load`] the CLI uses. A resident entry holds the
//!   flattened [`Netlist`], its [`LoopAnalysis`], and the structure
//!   mapping it was loaded with. The key doubles as the `design_ref`
//!   token clients echo back to skip file IO entirely.
//! * **Compiled sweeps** — keyed by [`seqavf_core::sweep::cache_key`]
//!   (netlist content digest × mapping × result-affecting config), each
//!   an [`Arc<CompiledSweep>`] so evaluation proceeds after the LRU lock
//!   is dropped and eviction never invalidates an in-flight request.
//!
//! Misses deliberately release the LRU lock while parsing/relaxing:
//! two clients racing the same cold design may both do the work (last
//! insert wins), but a cold load never stalls warm traffic. Disk caches
//! (`--graph-cache`, `--cache-dir`) are consulted between the LRU and a
//! full recompute, so a server restart warms from the same artifacts the
//! batch CLI writes. A full recompute runs the sweep driver's own
//! fresh-solve ladder ([`solve_fresh_traced`]) with the resident
//! fixpoints as its warm-start tier.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use seqavf_core::compile::{CompiledSweep, SeqStats};
use seqavf_core::engine::{SartConfig, SartEngine, WarmStatus};
use seqavf_core::fixpoint::StoredFixpoint;
use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_core::sweep::{
    cache_key, solve_fresh_traced, FreshSolve, KeyParts, PatchStatus, SweepCache,
};
use seqavf_netlist::graph::Netlist;
use seqavf_netlist::scc::{find_loops_traced, LoopAnalysis};
use seqavf_netlist::DesignSource;
use seqavf_obs::Collector;

use crate::api::{
    AvfRequest, AvfResponse, DesignUpdateRequest, DesignUpdateResponse, FubRow, Health,
    RequestConfig, RowOut,
};
use crate::lru::Lru;

/// A request-level failure with its HTTP status.
#[derive(Debug)]
pub struct ApiError {
    /// Status code to answer with.
    pub status: u16,
    /// Human-readable message for the error body.
    pub message: String,
}

impl ApiError {
    /// 400: the request itself is wrong.
    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            message: message.into(),
        }
    }

    /// 404: a `design_ref` that is no longer (or never was) resident.
    pub fn not_found(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 404,
            message: message.into(),
        }
    }

    /// 500: the server failed to do valid work.
    pub fn internal(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 500,
            message: message.into(),
        }
    }
}

/// Residency and evaluation settings.
#[derive(Debug, Clone)]
pub struct ResidentConfig {
    /// LRU capacity for each tier (graphs and compiled sweeps).
    pub max_resident: usize,
    /// Threads for relaxation and batch evaluation.
    pub threads: usize,
    /// `--graph-cache` directory shared with the CLI: binary
    /// `seqavf-graph/2` snapshots consulted (and written) on graph
    /// misses.
    pub graph_cache: Option<PathBuf>,
    /// `--cache-dir` directory shared with the CLI: sealed
    /// `seqavf-sweep/3` artifacts consulted (and written) on sweep misses.
    pub sweep_cache: Option<PathBuf>,
}

impl Default for ResidentConfig {
    fn default() -> Self {
        ResidentConfig {
            max_resident: 4,
            threads: 1,
            graph_cache: None,
            sweep_cache: None,
        }
    }
}

/// A design held resident: the parsed graph, its loop analysis, and the
/// mapping it was loaded with.
#[derive(Debug)]
pub struct LoadedDesign {
    /// The flattened node graph.
    pub netlist: Netlist,
    /// Loop analysis (always present for resident designs).
    pub loops: LoopAnalysis,
    /// Structure mapping from the load-time `map_path` (empty if none
    /// was given).
    pub mapping: StructureMapping,
    /// Dense indices of the sequential nodes, ascending: the bits every
    /// query's summary row folds, built once per resident design.
    seq: Vec<usize>,
}

impl LoadedDesign {
    fn new(netlist: Netlist, loops: LoopAnalysis, mapping: StructureMapping) -> LoadedDesign {
        let mut seq = Vec::with_capacity(netlist.seq_count());
        seq.extend(netlist.seq_nodes().map(|id| id.index()));
        LoadedDesign {
            netlist,
            loops,
            mapping,
            seq,
        }
    }
}

/// The shared resident state.
pub struct Resident {
    cfg: ResidentConfig,
    graphs: Mutex<Lru<Arc<LoadedDesign>>>,
    sweeps: Mutex<Lru<Arc<CompiledSweep>>>,
    /// Converged fixpoints, keyed by [`KeyParts::fixpoint_key`] — which
    /// deliberately hashes the design *name* (not its content digest),
    /// so an edited revision of the same design resolves to the same
    /// entry and can seed its re-solve from the previous fixpoint.
    fixpoints: Mutex<Lru<Arc<StoredFixpoint>>>,
    obs: Collector,
}

impl Resident {
    /// Creates empty resident state. `obs` receives the service counters
    /// (`serve.graph.{hit,miss}`, `serve.cache.{hit,miss}`,
    /// `serve.warmstart.{hit,miss}`, `serve.evict.{graph,sweep}`) and all
    /// engine telemetry.
    pub fn new(cfg: ResidentConfig, obs: Collector) -> Resident {
        let cap = cfg.max_resident;
        Resident {
            cfg,
            graphs: Mutex::new(Lru::new(cap)),
            sweeps: Mutex::new(Lru::new(cap)),
            fixpoints: Mutex::new(Lru::new(cap)),
            obs: obs.clone(),
        }
    }

    /// The collector shared with the server.
    pub fn obs(&self) -> &Collector {
        &self.obs
    }

    /// Health snapshot for `/healthz`.
    pub fn health(&self) -> Health {
        Health {
            status: "ok".to_owned(),
            resident_graphs: lock(&self.graphs).len() as u64,
            resident_sweeps: lock(&self.sweeps).len() as u64,
            resident_fixpoints: lock(&self.fixpoints).len() as u64,
        }
    }

    /// Lifetime evictions `(graphs, sweeps)` for `/metrics`.
    pub fn evictions(&self) -> (u64, u64) {
        (
            lock(&self.graphs).evictions(),
            lock(&self.sweeps).evictions(),
        )
    }

    /// Handles one `POST /v1/avf` request end to end.
    pub fn handle(&self, req: &AvfRequest) -> Result<AvfResponse, ApiError> {
        if req.tables.is_empty() {
            return Err(ApiError::bad_request(
                "empty batch: `tables` must contain at least one workload",
            ));
        }
        let (key, design, graph_cache) = self.resolve_design(req)?;
        // An explicit map_path always wins; warm requests without one
        // reuse the mapping the design was loaded with.
        let mapping = match &req.map_path {
            Some(path) => read_mapping(path, &design.netlist)?,
            None => design.mapping.clone(),
        };
        let config = self.resolve_config(req.config.as_ref())?;
        let base = req
            .base_inputs
            .clone()
            .unwrap_or_else(|| req.tables[0].inputs.clone());

        let (compiled, sweep_cache, _) =
            self.resolve_sweep_with_donor(&design, &mapping, &config, &base, None);

        // Summarize each workload exactly the way `run_sweep` does — the
        // compiled DAG's summary fold, which never materializes
        // node-length rows — so the service's rows are bit-identical to
        // the `sweep` CLI's. When node or FUB rows are wanted, evaluate
        // node rows and fold them with the same `SeqStats::fold`.
        let tables: Vec<PavfInputs> = req.tables.iter().map(|t| t.inputs.clone()).collect();
        let nl = &design.netlist;
        let seq = &design.seq;
        let include_nodes = req.include_nodes.unwrap_or(false);
        let include_fubs = req.include_fubs.unwrap_or(false);
        let mut fubs: Vec<FubRow> = Vec::new();
        let rows: Vec<RowOut> = if include_nodes || include_fubs {
            let avfs = compiled.evaluate_many_traced(&tables, self.cfg.threads, &self.obs);
            req.tables
                .iter()
                .zip(&avfs)
                .map(|(t, node_avfs)| {
                    let mut st = SeqStats::IDENTITY;
                    for &i in seq {
                        st.fold(node_avfs[i]);
                    }
                    let (mean, min, max) = st.summary(seq.len());
                    if include_fubs {
                        fubs.extend(fub_rows(nl, &t.workload, node_avfs));
                    }
                    RowOut {
                        workload: t.workload.clone(),
                        mean_seq_avf: mean,
                        min_seq_avf: min,
                        max_seq_avf: max,
                        node_avfs: include_nodes
                            .then(|| seq.iter().map(|&i| node_avfs[i]).collect()),
                    }
                })
                .collect()
        } else {
            let stats =
                compiled.evaluate_seq_stats_traced(&tables, seq, self.cfg.threads, &self.obs);
            req.tables
                .iter()
                .zip(&stats)
                .map(|(t, st)| {
                    let (mean, min, max) = st.summary(seq.len());
                    RowOut {
                        workload: t.workload.clone(),
                        mean_seq_avf: mean,
                        min_seq_avf: min,
                        max_seq_avf: max,
                        node_avfs: None,
                    }
                })
                .collect()
        };
        Ok(AvfResponse {
            design_ref: format!("{key:016x}"),
            graph_cache: graph_cache.to_owned(),
            sweep_cache: sweep_cache.to_owned(),
            rows,
            nodes: include_nodes.then(|| nl.seq_nodes().map(|id| nl.name(id).to_owned()).collect()),
            fubs: include_fubs.then_some(fubs),
        })
    }

    /// Resolves the request's design to a resident graph, loading it on a
    /// miss. Returns `(key, design, "hit"|"miss")`.
    fn resolve_design(
        &self,
        req: &AvfRequest,
    ) -> Result<(u64, Arc<LoadedDesign>, &'static str), ApiError> {
        // Warm path: a ref names resident state directly — no file IO.
        if let Some(r) = &req.design_ref {
            let key = u64::from_str_radix(r, 16)
                .map_err(|_| ApiError::bad_request(format!("bad design_ref `{r}`")))?;
            if let Some(d) = lock(&self.graphs).get(key) {
                self.obs.count("serve.graph.hit", 1);
                return Ok((key, Arc::clone(d), "hit"));
            }
            if req.design_path.is_none() {
                return Err(ApiError::not_found(format!(
                    "design_ref {r} is not resident (evicted or unknown); \
                     resend with design_path to reload"
                )));
            }
        }
        let path = req.design_path.as_deref().ok_or_else(|| {
            ApiError::bad_request("missing design: give design_path or a resident design_ref")
        })?;
        let source = read_design(path)?;
        let key = source.key();
        if let Some(d) = lock(&self.graphs).get(key) {
            self.obs.count("serve.graph.hit", 1);
            return Ok((key, Arc::clone(d), "hit"));
        }
        // Cold: parse (or restore a snapshot) without holding the lock.
        self.obs.count("serve.graph.miss", 1);
        let (netlist, loops) = self.load_graph(path, &source)?;
        let mapping = match &req.map_path {
            Some(mp) => read_mapping(mp, &netlist)?,
            None => StructureMapping::new(),
        };
        let design = Arc::new(LoadedDesign::new(netlist, loops, mapping));
        if lock(&self.graphs)
            .insert(key, Arc::clone(&design))
            .is_some()
        {
            self.obs.count("serve.evict.graph", 1);
        }
        Ok((key, design, "miss"))
    }

    /// Loads a design's graph through the shared snapshot tier
    /// ([`DesignSource::load`]); resident designs always carry their loop
    /// analysis, so an uncached parse runs it here.
    fn load_graph(
        &self,
        path: &str,
        source: &DesignSource,
    ) -> Result<(Netlist, LoopAnalysis), ApiError> {
        let (nl, loops) = source
            .load(self.cfg.graph_cache.as_deref(), &self.obs)
            .map_err(|e| ApiError::bad_request(format!("parsing {path}: {e}")))?;
        let loops = loops.unwrap_or_else(|| find_loops_traced(&nl, &self.obs));
        Ok((nl, loops))
    }

    /// Resolves the compiled sweep DAG for `(design, mapping, config)`:
    /// the resident LRU (`"hit"`), then the disk tier shared with the
    /// batch CLI's `--cache-dir`, then a fresh solve through the sweep
    /// driver's ladder ([`solve_fresh_traced`]) — both `"miss"`. Only a
    /// fresh solve returns what it did.
    ///
    /// The fresh solve warm-starts from the resident fixpoint of the same
    /// `(design name, mapping, config)` identity when one exists —
    /// typically left behind by the previous revision of an edited
    /// design — and refreshes that entry. When it runs warm, the DAG is
    /// patched from the previous revision's: `donor` first — the
    /// superseded revision's DAG, keyed by the cache key it was resident
    /// under, trusted only when that key equals the key the stored
    /// fixpoint's revision compiles to, so a patch can never graft ops
    /// from an unrelated artifact — then the disk tier's artifact for the
    /// old key. Every guard that fails falls back to a cold solve or a
    /// full recompile, bit-identical either way.
    ///
    /// The patched (or compiled) DAG is fully constructed *before* the
    /// LRU insert publishes it: in-flight evaluations hold their own
    /// `Arc` clones of the old entry and are never exposed to
    /// intermediate state (swap-on-publish).
    fn resolve_sweep_with_donor(
        &self,
        design: &LoadedDesign,
        mapping: &StructureMapping,
        config: &SartConfig,
        base: &PavfInputs,
        donor: Option<(u64, Arc<CompiledSweep>)>,
    ) -> (Arc<CompiledSweep>, &'static str, Option<FreshSolve>) {
        let nl = &design.netlist;
        let keys = KeyParts::new(nl, mapping, config);
        let key = keys.sweep_key(nl.content_digest());
        if let Some(c) = lock(&self.sweeps).get(key) {
            self.obs.count("serve.cache.hit", 1);
            return (Arc::clone(c), "hit", None);
        }
        self.obs.count("serve.cache.miss", 1);
        let disk = self
            .cfg
            .sweep_cache
            .as_ref()
            .and_then(|dir| SweepCache::open(dir).ok());
        let (compiled, fresh) = match disk
            .as_ref()
            .and_then(|s| s.load(key, config, nl.node_count()))
        {
            Some(c) => {
                self.obs.count("sweep.cache.hit", 1);
                (Arc::new(c), None)
            }
            None => {
                let engine = SartEngine::new_with_loops_traced(
                    nl,
                    mapping,
                    config.clone(),
                    &design.loops,
                    &self.obs,
                );
                let fp_key = keys.fixpoint_key(nl.design_name());
                let stored = lock(&self.fixpoints).get(fp_key).map(Arc::clone);
                let old_dag = |old_key, nodes| {
                    donor
                        .filter(|(k, _)| *k == old_key)
                        .map(|(_, dag)| dag)
                        .or_else(|| {
                            let s = disk.as_ref()?;
                            s.load(old_key, config, nodes).map(Arc::new)
                        })
                        .ok_or("no DAG resident or on disk for the previous revision")
                };
                let prev = stored.as_deref().ok_or("no resident fixpoint");
                let keep = |fp| {
                    lock(&self.fixpoints).insert(fp_key, Arc::new(fp));
                };
                let (compiled, fresh) =
                    solve_fresh_traced(engine, base, prev, &keys, Some(old_dag), keep, &self.obs);
                let counter = match fresh.warm {
                    WarmStatus::Warm { .. } => "serve.warmstart.hit",
                    WarmStatus::Cold(_) => "serve.warmstart.miss",
                };
                self.obs.count(counter, 1);
                if let Some(s) = &disk {
                    self.obs.count("sweep.cache.miss", 1);
                    let _ = s.store(key, &compiled);
                }
                (Arc::new(compiled), Some(fresh))
            }
        };
        if lock(&self.sweeps)
            .insert(key, Arc::clone(&compiled))
            .is_some()
        {
            self.obs.count("serve.evict.sweep", 1);
        }
        (compiled, "miss", fresh)
    }

    /// Builds the effective [`SartConfig`], validating every override.
    fn resolve_config(&self, rc: Option<&RequestConfig>) -> Result<SartConfig, ApiError> {
        let rc = rc.cloned().unwrap_or_default();
        let mut config = SartConfig {
            threads: self.cfg.threads,
            ..SartConfig::default()
        };
        if let Some(v) = rc.loop_pavf {
            if !(0.0..=1.0).contains(&v) {
                return Err(ApiError::bad_request(format!(
                    "config.loop_pavf must be a probability in [0, 1], got {v:?}"
                )));
            }
            config.loop_pavf = v;
        }
        if let Some(n) = rc.iterations {
            if n == 0 || n > 10_000 {
                return Err(ApiError::bad_request(format!(
                    "config.iterations must be in [1, 10000], got {n}"
                )));
            }
            config.max_iterations = n as usize;
        }
        if let Some(g) = rc.global {
            config.partitioned = !g;
        }
        Ok(config)
    }

    /// Handles one `POST /v1/design-update` request: load the edited
    /// design, *patch* the resident state in place (new graph and DAG in,
    /// the superseded revision's entries out), and re-solve by seeding
    /// from the resident converged fixpoint so only the edited cone is
    /// re-relaxed. Falls back to a cold solve — bit-identical either way
    /// — whenever a warm-start guard fails.
    pub fn handle_design_update(
        &self,
        req: &DesignUpdateRequest,
    ) -> Result<DesignUpdateResponse, ApiError> {
        let config = self.resolve_config(req.config.as_ref())?;
        let path = &req.design_path;
        let source = read_design(path)?;
        let key = source.key();

        // The revision being superseded, if it is still resident.
        let prev = match &req.prev_ref {
            Some(r) => {
                let pk = u64::from_str_radix(r, 16)
                    .map_err(|_| ApiError::bad_request(format!("bad prev_ref `{r}`")))?;
                lock(&self.graphs).get(pk).map(|d| (pk, Arc::clone(d)))
            }
            None => None,
        };

        let (netlist, loops) = self.load_graph(path, &source)?;
        // An explicit map_path wins; otherwise the previous revision's
        // mapping carries across by structure name (names are the
        // edit-stable identity the whole warm path is built on).
        let mapping = match &req.map_path {
            Some(mp) => read_mapping(mp, &netlist)?,
            None => match &prev {
                Some((_, d)) => {
                    StructureMapping::from_text(&netlist, &d.mapping.to_text(&d.netlist)).map_err(
                        |e| {
                            ApiError::bad_request(format!(
                                "previous mapping does not apply to the edited design ({e}); \
                                 supply map_path"
                            ))
                        },
                    )?
                }
                None => StructureMapping::new(),
            },
        };
        let design = Arc::new(LoadedDesign::new(netlist, loops, mapping.clone()));

        // Patch residency: the edited graph goes in under its new key and
        // the superseded revision's graph and compiled DAG are removed,
        // so a stale artifact keyed by the old content can never be
        // served — and capacity is freed instead of burned on eviction.
        {
            let mut graphs = lock(&self.graphs);
            graphs.insert(key, Arc::clone(&design));
            if let Some((pk, _)) = &prev {
                if *pk != key {
                    graphs.remove(*pk);
                }
            }
        }
        // The superseded DAG is removed from residency but *kept* as the
        // patch donor: a warm re-solve grafts its unchanged ops into the
        // edited design's DAG instead of re-lowering everything.
        let donor = prev.as_ref().and_then(|(_, d)| {
            let stale = cache_key(&d.netlist, &d.mapping, &config);
            lock(&self.sweeps).remove(stale).map(|dag| (stale, dag))
        });

        let base = req.base_inputs.clone().unwrap_or_default();
        let (_, _, fresh) = self.resolve_sweep_with_donor(&design, &mapping, &config, &base, donor);
        let node_count = design.netlist.node_count() as u64;
        let (mode, reason, seeded_fubs, dirty_fubs, walked_nodes) = match &fresh {
            // The edited design's DAG was already resident (idempotent
            // re-POST) or on disk: nothing relaxed, nothing walked.
            None => ("resident", None, 0, 0, 0),
            Some(f) => match f.warm {
                WarmStatus::Warm {
                    seeded_fubs,
                    dirty_fubs,
                } => ("warm", None, seeded_fubs, dirty_fubs, f.walked_nodes),
                WarmStatus::Cold(r) => ("cold", Some(r.to_owned()), 0, 0, f.walked_nodes),
            },
        };
        let (dag, dag_reason, ops_patched, ops_orphaned) = match fresh.map(|f| f.patch) {
            Some(Some(PatchStatus::Patched(st))) => (
                "patched",
                None,
                st.nodes_patched() as u64,
                st.ops_orphaned as u64,
            ),
            Some(Some(PatchStatus::Rebuilt(r))) => ("rebuilt", Some(r.to_owned()), 0, 0),
            Some(None) => ("compiled", None, 0, 0),
            None => ("resident", None, 0, 0),
        };
        Ok(DesignUpdateResponse {
            design_ref: format!("{key:016x}"),
            prev_ref: req.prev_ref.clone(),
            mode: mode.to_owned(),
            reason,
            seeded_fubs: seeded_fubs as u64,
            dirty_fubs: dirty_fubs as u64,
            walked_nodes: walked_nodes as u64,
            node_count,
            dag: dag.to_owned(),
            dag_reason,
            ops_patched,
            ops_orphaned,
        })
    }
}

/// Reads a request's design file; the frontend follows the extension.
fn read_design(path: &str) -> Result<DesignSource, ApiError> {
    DesignSource::read(path)
        .map_err(|e| ApiError::bad_request(format!("reading design {path}: {e}")))
}

/// Reads a request's structure-mapping file against `nl`.
fn read_mapping(path: &str, nl: &Netlist) -> Result<StructureMapping, ApiError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ApiError::bad_request(format!("reading map {path}: {e}")))?;
    StructureMapping::from_text(nl, &text)
        .map_err(|e| ApiError::bad_request(format!("parsing map {path}: {e}")))
}

/// Per-FUB mean AVFs for one workload's node table.
fn fub_rows(nl: &Netlist, workload: &str, node_avfs: &[f64]) -> Vec<FubRow> {
    let mut sums = vec![0.0f64; nl.fub_count()];
    let mut counts = vec![0u64; nl.fub_count()];
    for id in nl.seq_nodes() {
        let f = nl.fub(id).index();
        sums[f] += node_avfs[id.index()];
        counts[f] += 1;
    }
    nl.fub_ids()
        .filter(|f| counts[f.index()] > 0)
        .map(|f| FubRow {
            workload: workload.to_owned(),
            fub: nl.fub_name(f).to_owned(),
            seq_bits: counts[f.index()],
            mean_seq_avf: sums[f.index()] / counts[f.index()] as f64,
        })
        .collect()
}

/// Locks a mutex, recovering from poison: resident state is only ever
/// mutated through the LRU's own methods, which cannot leave it torn.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::NamedTable;
    use seqavf_netlist::synth::{generate, SynthConfig};
    use seqavf_netlist::{exlif, flatten};

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("seqavf-serve-test-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_design(dir: &std::path::Path, seed: u64) -> (PathBuf, PathBuf) {
        let design = generate(&SynthConfig::xeon_like(seed));
        let exlif_path = dir.join(format!("d{seed}.exlif"));
        std::fs::write(&exlif_path, exlif::write(&design.netlist)).unwrap();
        let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
        let map_path = dir.join(format!("d{seed}.map"));
        std::fs::write(&map_path, mapping.to_text(&design.netlist)).unwrap();
        (exlif_path, map_path)
    }

    fn request(design: &std::path::Path, map: &std::path::Path, n_tables: usize) -> AvfRequest {
        let tables = (0..n_tables)
            .map(|i| {
                let mut inputs = PavfInputs::new();
                inputs.set_port("uops_executed", 0.2 + 0.1 * i as f64, 0.3);
                NamedTable {
                    workload: format!("w{i}"),
                    inputs,
                }
            })
            .collect();
        AvfRequest {
            design_path: Some(design.display().to_string()),
            design_ref: None,
            map_path: Some(map.display().to_string()),
            config: None,
            base_inputs: None,
            tables,
            include_nodes: None,
            include_fubs: None,
        }
    }

    #[test]
    fn cold_then_warm_requests_agree_bitwise() {
        let dir = scratch("cold-warm");
        let (design, map) = write_design(&dir, 7);
        let r = Resident::new(ResidentConfig::default(), Collector::new());
        let req = request(&design, &map, 3);
        let cold = r.handle(&req).unwrap();
        assert_eq!(cold.graph_cache, "miss");
        assert_eq!(cold.sweep_cache, "miss");
        assert_eq!(cold.rows.len(), 3);

        // Warm via design_ref: no paths needed at all.
        let warm_req = AvfRequest {
            design_path: None,
            map_path: None,
            design_ref: Some(cold.design_ref.clone()),
            ..req.clone()
        };
        let warm = r.handle(&warm_req).unwrap();
        assert_eq!(warm.graph_cache, "hit");
        assert_eq!(warm.sweep_cache, "hit");
        for (a, b) in cold.rows.iter().zip(&warm.rows) {
            assert_eq!(a.mean_seq_avf.to_bits(), b.mean_seq_avf.to_bits());
            assert_eq!(a.min_seq_avf.to_bits(), b.min_seq_avf.to_bits());
            assert_eq!(a.max_seq_avf.to_bits(), b.max_seq_avf.to_bits());
        }
        let report = r.obs().report();
        assert_eq!(report.counter("serve.graph.miss"), Some(1));
        assert_eq!(report.counter("serve.graph.hit"), Some(1));
        assert_eq!(report.counter("serve.cache.miss"), Some(1));
        assert_eq!(report.counter("serve.cache.hit"), Some(1));
    }

    #[test]
    fn rows_are_bit_identical_to_the_sweep_driver() {
        use seqavf_core::sweep::{run_sweep_with_loops_traced, SweepOptions};
        let dir = scratch("bit-identity");
        let (design, map) = write_design(&dir, 11);
        let r = Resident::new(ResidentConfig::default(), Collector::new());
        let req = request(&design, &map, 4);
        let served = r.handle(&req).unwrap();

        // The same computation through the library path the CLI uses.
        let text = std::fs::read_to_string(&design).unwrap();
        let nl = flatten::parse_netlist_traced(&text, &Collector::disabled()).unwrap();
        let mapping =
            StructureMapping::from_text(&nl, &std::fs::read_to_string(&map).unwrap()).unwrap();
        let workloads: Vec<(String, PavfInputs)> = req
            .tables
            .iter()
            .map(|t| (t.workload.clone(), t.inputs.clone()))
            .collect();
        let outcome = run_sweep_with_loops_traced(
            &nl,
            &mapping,
            &SartConfig::default(),
            &req.tables[0].inputs,
            &workloads,
            &SweepOptions::default(),
            None,
            &Collector::disabled(),
        )
        .unwrap();
        assert_eq!(served.rows.len(), outcome.rows.len());
        for (s, c) in served.rows.iter().zip(&outcome.rows) {
            assert_eq!(s.workload, c.workload);
            assert_eq!(s.mean_seq_avf.to_bits(), c.mean_seq_avf.to_bits());
            assert_eq!(s.min_seq_avf.to_bits(), c.min_seq_avf.to_bits());
            assert_eq!(s.max_seq_avf.to_bits(), c.max_seq_avf.to_bits());
        }
    }

    #[test]
    fn eviction_then_ref_reuse_is_a_named_404() {
        let dir = scratch("evict");
        let (d1, m1) = write_design(&dir, 1);
        let (d2, m2) = write_design(&dir, 2);
        let r = Resident::new(
            ResidentConfig {
                max_resident: 1,
                ..ResidentConfig::default()
            },
            Collector::new(),
        );
        let first = r.handle(&request(&d1, &m1, 1)).unwrap();
        r.handle(&request(&d2, &m2, 1)).unwrap();
        // d1 was evicted by d2 (capacity 1): the stale ref must 404 with
        // recovery instructions, not crash or silently recompute.
        let stale = AvfRequest {
            design_path: None,
            map_path: None,
            design_ref: Some(first.design_ref.clone()),
            ..request(&d1, &m1, 1)
        };
        let err = r.handle(&stale).unwrap_err();
        assert_eq!(err.status, 404);
        assert!(err.message.contains("design_path"), "{}", err.message);
        let (graph_evictions, _) = r.evictions();
        assert_eq!(graph_evictions, 1);
        // Supplying the path alongside the stale ref reloads cleanly.
        let recover = AvfRequest {
            design_ref: Some(first.design_ref.clone()),
            ..request(&d1, &m1, 1)
        };
        let back = r.handle(&recover).unwrap();
        assert_eq!(back.graph_cache, "miss");
        assert_eq!(back.design_ref, first.design_ref);
    }

    #[test]
    fn disk_caches_warm_a_fresh_server() {
        let dir = scratch("disk-warm");
        let (design, map) = write_design(&dir, 3);
        let cfg = ResidentConfig {
            graph_cache: Some(dir.join("graphs")),
            sweep_cache: Some(dir.join("sweeps")),
            ..ResidentConfig::default()
        };
        let r1 = Resident::new(cfg.clone(), Collector::new());
        let first = r1.handle(&request(&design, &map, 2)).unwrap();

        // A brand-new Resident (server restart) misses the LRU but finds
        // both disk artifacts: no parse, no relaxation.
        let obs = Collector::new();
        let r2 = Resident::new(cfg, obs.clone());
        let second = r2.handle(&request(&design, &map, 2)).unwrap();
        assert_eq!(second.graph_cache, "miss");
        assert_eq!(second.sweep_cache, "miss");
        let report = obs.report();
        assert_eq!(report.counter("frontend.snapshot.hit"), Some(1));
        assert_eq!(report.counter("sweep.cache.hit"), Some(1));
        assert!(report.span("relax.sweep").is_none(), "relaxation ran");
        for (a, b) in first.rows.iter().zip(&second.rows) {
            assert_eq!(a.mean_seq_avf.to_bits(), b.mean_seq_avf.to_bits());
        }
    }

    #[test]
    fn bad_requests_get_named_400s() {
        let dir = scratch("bad-req");
        let (design, map) = write_design(&dir, 5);
        let r = Resident::new(ResidentConfig::default(), Collector::new());
        let empty = AvfRequest {
            tables: Vec::new(),
            ..request(&design, &map, 1)
        };
        let err = r.handle(&empty).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("tables"));

        let mut bad_cfg = request(&design, &map, 1);
        bad_cfg.config = Some(crate::api::RequestConfig {
            loop_pavf: Some(f64::NAN),
            ..Default::default()
        });
        let err = r.handle(&bad_cfg).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("loop_pavf"));

        let mut gone = request(&design, &map, 1);
        gone.design_path = Some(dir.join("nonexistent.exlif").display().to_string());
        let err = r.handle(&gone).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("nonexistent.exlif"));
    }

    /// Flips the first and-gate of an EXLIF design on disk — the
    /// one-FUB edit the warm-start path is built for.
    fn edit_one_gate(path: &std::path::Path) {
        let text = std::fs::read_to_string(path).unwrap();
        let edited = text.replacen(".gate and ", ".gate or ", 1);
        assert_ne!(text, edited, "fixture design must contain an and-gate");
        std::fs::write(path, edited).unwrap();
    }

    #[test]
    fn design_update_warm_starts_from_the_resident_fixpoint() {
        let dir = scratch("design-update");
        let (design, map) = write_design(&dir, 13);
        let r = Resident::new(ResidentConfig::default(), Collector::new());
        let cold = r.handle(&request(&design, &map, 2)).unwrap();

        edit_one_gate(&design);
        let upd = r
            .handle_design_update(&crate::api::DesignUpdateRequest {
                design_path: design.display().to_string(),
                prev_ref: Some(cold.design_ref.clone()),
                map_path: None,
                config: None,
                base_inputs: None,
            })
            .unwrap();
        assert_eq!(upd.mode, "warm", "reason: {:?}", upd.reason);
        assert!(upd.seeded_fubs > 0, "{upd:?}");
        assert!(upd.dirty_fubs >= 1, "{upd:?}");
        assert!(
            upd.walked_nodes < upd.node_count,
            "warm re-solve walked {} of {} nodes — no saving",
            upd.walked_nodes,
            upd.node_count
        );
        assert_ne!(upd.design_ref, cold.design_ref);

        // The new ref serves warm, no file IO, and the rows are
        // bit-identical to a fresh server cold-solving the edited design.
        let warm_req = AvfRequest {
            design_path: None,
            map_path: None,
            design_ref: Some(upd.design_ref.clone()),
            ..request(&design, &map, 2)
        };
        let served = r.handle(&warm_req).unwrap();
        assert_eq!(served.graph_cache, "hit");
        assert_eq!(served.sweep_cache, "hit");
        let fresh = Resident::new(ResidentConfig::default(), Collector::new());
        let reference = fresh.handle(&request(&design, &map, 2)).unwrap();
        for (a, b) in served.rows.iter().zip(&reference.rows) {
            assert_eq!(a.mean_seq_avf.to_bits(), b.mean_seq_avf.to_bits());
            assert_eq!(a.min_seq_avf.to_bits(), b.min_seq_avf.to_bits());
            assert_eq!(a.max_seq_avf.to_bits(), b.max_seq_avf.to_bits());
        }
        let report = r.obs().report();
        assert_eq!(report.counter("serve.warmstart.hit"), Some(1));
        // The initial cold solve counts one miss (no fixpoint resident yet).
        assert_eq!(report.counter("serve.warmstart.miss"), Some(1));
    }

    #[test]
    fn design_update_patches_residency_and_never_serves_a_stale_dag() {
        let dir = scratch("design-update-stale");
        let (design, map) = write_design(&dir, 17);
        let r = Resident::new(ResidentConfig::default(), Collector::new());
        let cold = r.handle(&request(&design, &map, 1)).unwrap();
        assert_eq!(r.health().resident_graphs, 1);
        assert_eq!(r.health().resident_sweeps, 1);

        edit_one_gate(&design);
        let upd = r
            .handle_design_update(&crate::api::DesignUpdateRequest {
                design_path: design.display().to_string(),
                prev_ref: Some(cold.design_ref.clone()),
                map_path: Some(map.display().to_string()),
                config: None,
                base_inputs: None,
            })
            .unwrap();

        // Patched, not accumulated: exactly one graph and one DAG remain
        // resident — the edited design's — and the superseded revision's
        // entries are gone rather than lingering until eviction.
        let h = r.health();
        assert_eq!(h.resident_graphs, 1, "stale graph still resident");
        assert_eq!(h.resident_sweeps, 1, "stale compiled DAG still resident");
        assert_eq!(h.resident_fixpoints, 1);

        // The old ref must 404 (with recovery instructions), never
        // resolve the stale artifacts against the edited design.
        let stale = AvfRequest {
            design_path: None,
            map_path: None,
            design_ref: Some(cold.design_ref.clone()),
            ..request(&design, &map, 1)
        };
        let err = r.handle(&stale).unwrap_err();
        assert_eq!(err.status, 404);

        // And the surviving DAG is the edited design's: serving via the
        // new ref matches an independent cold solve bit for bit.
        let served = r
            .handle(&AvfRequest {
                design_path: None,
                map_path: None,
                design_ref: Some(upd.design_ref.clone()),
                ..request(&design, &map, 1)
            })
            .unwrap();
        assert_eq!(served.sweep_cache, "hit");
        let fresh = Resident::new(ResidentConfig::default(), Collector::new());
        let reference = fresh.handle(&request(&design, &map, 1)).unwrap();
        assert_eq!(
            served.rows[0].mean_seq_avf.to_bits(),
            reference.rows[0].mean_seq_avf.to_bits()
        );
    }

    #[test]
    fn design_update_without_resident_state_is_a_cold_solve() {
        let dir = scratch("design-update-cold");
        let (design, map) = write_design(&dir, 19);
        let r = Resident::new(ResidentConfig::default(), Collector::new());
        let upd = r
            .handle_design_update(&crate::api::DesignUpdateRequest {
                design_path: design.display().to_string(),
                prev_ref: None,
                map_path: Some(map.display().to_string()),
                config: None,
                base_inputs: None,
            })
            .unwrap();
        assert_eq!(upd.mode, "cold");
        assert_eq!(upd.reason.as_deref(), Some("no resident fixpoint"));
        assert_eq!(upd.seeded_fubs, 0);
        // The cold solve still leaves warm state behind: a second update
        // of an edited revision engages the warm path.
        edit_one_gate(&design);
        let again = r
            .handle_design_update(&crate::api::DesignUpdateRequest {
                design_path: design.display().to_string(),
                prev_ref: Some(upd.design_ref.clone()),
                map_path: Some(map.display().to_string()),
                config: None,
                base_inputs: None,
            })
            .unwrap();
        assert_eq!(again.mode, "warm", "reason: {:?}", again.reason);
    }

    #[test]
    fn design_update_patches_the_superseded_dag_instead_of_recompiling() {
        let dir = scratch("design-update-patch");
        let (design, map) = write_design(&dir, 23);
        let r = Resident::new(ResidentConfig::default(), Collector::new());
        let cold = r.handle(&request(&design, &map, 1)).unwrap();

        edit_one_gate(&design);
        let upd = r
            .handle_design_update(&crate::api::DesignUpdateRequest {
                design_path: design.display().to_string(),
                prev_ref: Some(cold.design_ref.clone()),
                map_path: None,
                config: None,
                base_inputs: None,
            })
            .unwrap();
        assert_eq!(upd.mode, "warm", "reason: {:?}", upd.reason);
        assert_eq!(upd.dag, "patched", "dag_reason: {:?}", upd.dag_reason);
        assert!(upd.ops_patched > 0, "{upd:?}");
        let report = r.obs().report();
        assert_eq!(report.counter("sweep.patch.hit"), Some(1));
        assert_eq!(report.counter("sweep.patch.full_rebuild"), None);
        let patched_nodes = report.counter("sweep.patch.nodes_patched").unwrap_or(0);
        assert_eq!(patched_nodes, upd.ops_patched);

        // The patched DAG serves rows bit-identical to a fresh server
        // cold-solving the edited design.
        let served = r
            .handle(&AvfRequest {
                design_path: None,
                map_path: None,
                design_ref: Some(upd.design_ref.clone()),
                ..request(&design, &map, 1)
            })
            .unwrap();
        assert_eq!(served.sweep_cache, "hit");
        let fresh = Resident::new(ResidentConfig::default(), Collector::new());
        let reference = fresh.handle(&request(&design, &map, 1)).unwrap();
        for (a, b) in served.rows.iter().zip(&reference.rows) {
            assert_eq!(a.mean_seq_avf.to_bits(), b.mean_seq_avf.to_bits());
            assert_eq!(a.min_seq_avf.to_bits(), b.min_seq_avf.to_bits());
            assert_eq!(a.max_seq_avf.to_bits(), b.max_seq_avf.to_bits());
        }
    }

    /// Swap-on-publish: a `query` holding the old revision's DAG across a
    /// mid-flight `design-update` must finish on that old `Arc` and never
    /// observe a half-patched DAG. The patch builds the new DAG fully
    /// before the LRU insert publishes it, so the old `Arc` stays valid
    /// and immutable for as long as any evaluation holds it.
    #[test]
    fn in_flight_evaluations_finish_on_the_old_dag_across_an_update() {
        let dir = scratch("swap-on-publish");
        let (design, map) = write_design(&dir, 29);
        let r = Resident::new(ResidentConfig::default(), Collector::new());
        let cold = r.handle(&request(&design, &map, 1)).unwrap();

        // An in-flight evaluation clones the Arc out of the LRU and drops
        // the lock — exactly what `handle` does before evaluating.
        let key = u64::from_str_radix(&cold.design_ref, 16).unwrap();
        let d = lock(&r.graphs).get(key).map(Arc::clone).unwrap();
        let config = r.resolve_config(None).unwrap();
        let dag_key = cache_key(&d.netlist, &d.mapping, &config);
        let old_dag = lock(&r.sweeps).get(dag_key).map(Arc::clone).unwrap();
        let inputs = request(&design, &map, 1).tables[0].inputs.clone();
        let before: Vec<u64> = old_dag
            .evaluate(&inputs)
            .iter()
            .map(|v| v.to_bits())
            .collect();

        // The design is edited and patched mid-flight.
        edit_one_gate(&design);
        let upd = r
            .handle_design_update(&crate::api::DesignUpdateRequest {
                design_path: design.display().to_string(),
                prev_ref: Some(cold.design_ref.clone()),
                map_path: None,
                config: None,
                base_inputs: None,
            })
            .unwrap();
        assert_eq!(upd.dag, "patched", "dag_reason: {:?}", upd.dag_reason);

        // The in-flight holder's DAG is unchanged — same values, bit for
        // bit — even though residency now serves the patched revision.
        let after: Vec<u64> = old_dag
            .evaluate(&inputs)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(before, after, "old Arc mutated by the patch");
        let new_key = u64::from_str_radix(&upd.design_ref, 16).unwrap();
        let nd = lock(&r.graphs).get(new_key).map(Arc::clone).unwrap();
        let new_dag_key = cache_key(&nd.netlist, &nd.mapping, &config);
        let new_dag = lock(&r.sweeps).get(new_dag_key).map(Arc::clone).unwrap();
        assert!(
            !Arc::ptr_eq(&old_dag, &new_dag),
            "the patched DAG must be a fresh allocation, not an in-place edit"
        );
        // And the old entry is no longer resident: the stale key misses.
        assert!(lock(&r.sweeps).get(dag_key).is_none());
    }

    #[test]
    fn per_fub_and_per_node_tables_are_consistent() {
        let dir = scratch("fub-rows");
        let (design, map) = write_design(&dir, 9);
        let r = Resident::new(ResidentConfig::default(), Collector::new());
        let mut req = request(&design, &map, 1);
        req.include_nodes = Some(true);
        req.include_fubs = Some(true);
        let resp = r.handle(&req).unwrap();
        let nodes = resp.nodes.as_ref().unwrap();
        let avfs = resp.rows[0].node_avfs.as_ref().unwrap();
        assert_eq!(nodes.len(), avfs.len());
        let fubs = resp.fubs.as_ref().unwrap();
        assert!(!fubs.is_empty());
        // FUB bit counts sum to the sequential population, and the
        // bit-weighted FUB means reproduce the overall mean.
        let total_bits: u64 = fubs.iter().map(|f| f.seq_bits).sum();
        assert_eq!(total_bits as usize, nodes.len());
        let weighted: f64 = fubs
            .iter()
            .map(|f| f.mean_seq_avf * f.seq_bits as f64)
            .sum::<f64>()
            / total_bits as f64;
        assert!((weighted - resp.rows[0].mean_seq_avf).abs() < 1e-9);
    }
}
