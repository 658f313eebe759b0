//! The top-level SART engine: prepares a netlist, runs the relaxation,
//! resolves final AVFs, and exposes the closed-form results.

use seqavf_netlist::graph::{Netlist, NodeId, NodeKind};
use seqavf_netlist::scc::{find_loops_traced, LoopAnalysis};
use seqavf_obs::Collector;
use serde::{Deserialize, Serialize};

use crate::arena::{SetId, TermTable, UnionArena};
use crate::classify::{classify, NodeRole, RoleMap};
use crate::fixpoint::{self, StoredFixpoint};
use crate::mapping::{PavfInputs, StructureMapping};
use crate::relax::{relax_partitioned, RelaxOutcome};
use crate::walk::{prepare, Propagator, INJ_BOUNDARY_IN, INJ_BOUNDARY_OUT, INJ_CTRL, INJ_LOOP};

/// Configuration of a SART run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SartConfig {
    /// Injected pAVF for loop-boundary sequentials. The paper sweeps this
    /// (Figure 8) and settles on 0.3.
    pub loop_pavf: f64,
    /// Injected `pAVF_R` for configuration control registers (§5.1: 100%).
    pub ctrl_read_pavf: f64,
    /// `pAVF_R` of the input-boundary pseudo-structure (circuits outside
    /// the RTL under analysis, §5.1). Conservative default 1.0.
    pub boundary_in_pavf: f64,
    /// `pAVF_W` of the output-boundary pseudo-structure.
    pub boundary_out_pavf: f64,
    /// Port pAVF used for structures with no measured value. Conservative
    /// default 1.0.
    pub default_port_pavf: f64,
    /// Name substrings identifying control registers.
    pub ctrl_patterns: Vec<String>,
    /// Relaxation iteration cap (the paper used 20).
    pub max_iterations: usize,
    /// Relax one partition per FUB with FUBIO merging (`true`, the
    /// paper's mode) or the whole design as one partition (`false`; same
    /// fixpoint in one sweep, useful for validation). Both run the same
    /// walk.
    pub partitioned: bool,
    /// Skip FUBs whose cross-partition boundary reads did not change in
    /// the previous relaxation sweep (`true`, the default). Results are
    /// bit-identical to full sweeps — only the work shrinks; `false`
    /// re-walks every FUB every iteration (the escape hatch behind the
    /// CLI's `--no-incremental`).
    pub incremental: bool,
    /// Worker threads for the partitioned relaxation and batch
    /// re-evaluation, engaged as given at any design size. Every thread
    /// count produces bit-identical annotations and `SetId` numbering
    /// (see [`crate::relax`]); `1` walks every FUB on the calling thread.
    pub threads: usize,
}

impl SartConfig {
    /// Canonical rendering of exactly the fields that can change a
    /// computed AVF — the cache identity of a relaxation/compilation.
    ///
    /// `threads` and `incremental` are deliberately excluded: both are
    /// execution strategies with a bit-identity contract (see
    /// [`crate::relax`]), so `--threads 8` must reuse an artifact written
    /// by `--threads 1` and vice versa. Every other field either injects a
    /// term value (`loop_pavf`, `ctrl_read_pavf`, boundary/default pAVFs),
    /// selects node roles (`ctrl_patterns`), or changes which fixpoint is
    /// reached (`max_iterations` caps convergence, and `partitioned`
    /// changes how far each sweep gets, so a capped run stops elsewhere)
    /// — all result-affecting, all keyed.
    ///
    /// Floats render via `{:?}` (shortest round-trip), so distinct values
    /// never collide.
    pub fn result_key(&self) -> String {
        format!(
            "loop={:?} ctrl={:?} bin={:?} bout={:?} dflt={:?} pat={:?} iters={} part={}",
            self.loop_pavf,
            self.ctrl_read_pavf,
            self.boundary_in_pavf,
            self.boundary_out_pavf,
            self.default_port_pavf,
            self.ctrl_patterns,
            self.max_iterations,
            self.partitioned,
        )
    }
}

impl Default for SartConfig {
    fn default() -> Self {
        SartConfig {
            loop_pavf: 0.3,
            ctrl_read_pavf: 1.0,
            boundary_in_pavf: 1.0,
            boundary_out_pavf: 1.0,
            default_port_pavf: 1.0,
            ctrl_patterns: vec!["creg".to_owned()],
            max_iterations: 20,
            partitioned: true,
            incremental: true,
            threads: 1,
        }
    }
}

/// The SART engine, bound to one netlist.
///
/// Preparation (loop detection, role classification, term interning,
/// topological ordering) happens once in [`SartEngine::new_traced`]; each
/// [`SartEngine::run_traced`] then clones the propagation state, so one
/// engine can serve many input tables.
#[derive(Debug, Clone)]
pub struct SartEngine<'nl> {
    nl: &'nl Netlist,
    config: SartConfig,
    prop_template: Propagator<'nl>,
    struct_perf_names: Vec<String>,
    fub_digests: Vec<u64>,
    mapping_digest: u64,
}

impl<'nl> SartEngine<'nl> {
    /// Prepares the engine: classifies nodes, interns pAVF terms, and
    /// computes the loop-cut topological order. Loop detection runs here
    /// (a `netlist.scc` span) only when `loops` is `None`; a precomputed
    /// analysis, e.g. one restored from a graph snapshot, skips it and
    /// changes no result. Classification plus term interning report
    /// through a `sart.prepare` span.
    pub fn new_traced(
        nl: &'nl Netlist,
        mapping: &StructureMapping,
        config: SartConfig,
        loops: Option<&LoopAnalysis>,
        obs: &Collector,
    ) -> Self {
        let found;
        let loops = match loops {
            Some(l) => l,
            None => {
                found = find_loops_traced(nl, obs);
                &found
            }
        };
        let mut span = obs.span("sart.prepare");
        let roles = classify(nl, loops, &config.ctrl_patterns);
        let mut arena = UnionArena::new();
        let prep = prepare(nl, roles, mapping, config.partitioned, &mut arena);
        // Per-FUB content digests and the mapping digest anchor cross-run
        // warm starts (see `crate::fixpoint`); both are cheap relative to
        // `prepare` and loops are only available here.
        let fub_digests = nl.fub_digests(loops);
        let mapping_digest = fixpoint::mapping_digest(nl, mapping);
        span.field_u64("nodes", nl.node_count() as u64);
        span.field_u64("terms", prep.terms.len() as u64);
        span.finish();
        let struct_perf_names = nl
            .structure_ids()
            .map(|sid| {
                mapping
                    .perf_name(sid)
                    .unwrap_or_else(|| nl.structure(sid).name())
                    .to_owned()
            })
            .collect();
        SartEngine {
            nl,
            config,
            prop_template: Propagator::new(nl, prep, arena),
            struct_perf_names,
            fub_digests,
            mapping_digest,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SartConfig {
        &self.config
    }

    /// The netlist under analysis.
    pub fn netlist(&self) -> &'nl Netlist {
        self.nl
    }

    /// Runs the full analysis against a measured pAVF table. Every
    /// relaxation sweep reports a `relax.sweep` span, and the final
    /// closed-form resolution a `sart.resolve` span. Neither collection
    /// nor `config.threads` changes the result: the relaxation engages
    /// exactly that many workers, and any count is bit-identical.
    pub fn run_traced(&self, inputs: &PavfInputs, obs: &Collector) -> SartResult {
        let mut prop = self.prop_template.clone();
        let outcome = self.relax(&mut prop, inputs, None, obs);
        self.assemble(prop, outcome, inputs, obs)
    }

    /// The configured relaxation over `prop`, warm when `warm_dirty`
    /// flags the FUBs to flood first.
    fn relax(
        &self,
        prop: &mut Propagator<'nl>,
        inputs: &PavfInputs,
        warm_dirty: Option<&[bool]>,
        obs: &Collector,
    ) -> RelaxOutcome {
        let values = term_values(&prop.prep.terms, inputs, &self.config);
        relax_partitioned(
            prop,
            &values,
            self.config.max_iterations,
            self.config.threads,
            self.config.incremental,
            warm_dirty,
            obs,
        )
    }

    fn assemble(
        &self,
        prop: Propagator<'nl>,
        outcome: RelaxOutcome,
        inputs: &PavfInputs,
        obs: &Collector,
    ) -> SartResult {
        obs.count("relax.iterations", outcome.iterations as u64);
        let mut result = SartResult {
            config: self.config.clone(),
            terms: prop.prep.terms.clone(),
            arena: prop.arena,
            roles: prop.prep.roles.clone(),
            fwd: prop.fwd,
            bwd: prop.bwd,
            struct_perf_names: self.struct_perf_names.clone(),
            avf: Vec::new(),
            outcome,
        };
        let mut span = obs.span("sart.resolve");
        result.avf = result.reevaluate(self.nl, inputs);
        span.field_u64("nodes", result.avf.len() as u64);
        span.finish();
        result
    }

    /// Per-FUB content digests of the engine's netlist — the identities a
    /// fixpoint artifact diffs against on a later run.
    pub fn fub_digests(&self) -> &[u64] {
        &self.fub_digests
    }

    /// Digest of the structure mapping this engine was prepared with.
    pub fn mapping_digest(&self) -> u64 {
        self.mapping_digest
    }

    /// Packages a converged result as a `seqavf-fixpoint/3` artifact for
    /// a later warm start. `None` when the relaxation did not converge.
    pub fn capture_fixpoint(&self, result: &SartResult) -> Option<StoredFixpoint> {
        fixpoint::capture(self.nl, &self.fub_digests, self.mapping_digest, result)
    }

    /// The warm solve every surface runs: seeded from `prev`, the previous
    /// revision's fixpoint, or cold when there is none (`Err` names why).
    /// FUBs whose content digests still match adopt their converged
    /// annotations and the relaxation force-walks only the rest. Any
    /// global mismatch (config, mapping, non-converged store) degrades to
    /// a full cold solve. Results are bit-identical to a cold run either
    /// way.
    ///
    /// Bumps `relax.warmstart.hit` or `relax.warmstart.miss` and returns
    /// the result, the path taken ([`WarmStatus`] says which and why),
    /// the patch-clean mask and the converged fixpoint (`None` if the
    /// relaxation did not converge); where fixpoints are kept — a file
    /// for the CLI, the resident LRU for the server — stays with the
    /// caller.
    ///
    /// A FUB is *patch-clean* when it was seeded from the stored fixpoint
    /// AND the relaxation left every one of its annotations at the seeded
    /// value. A patch-clean FUB's closed forms are exactly the previous
    /// revision's, so a compiled sweep DAG built for that revision can
    /// keep its ops verbatim (see
    /// [`crate::compile::CompiledSweep::patch_traced`]). The mask is
    /// `None` when the solve fell back to cold.
    pub fn run_warm_start_traced(
        &self,
        inputs: &PavfInputs,
        prev: Result<&StoredFixpoint, &'static str>,
        obs: &Collector,
    ) -> (
        SartResult,
        WarmStatus,
        Option<Vec<bool>>,
        Option<StoredFixpoint>,
    ) {
        let (result, status, clean) = match prev {
            Ok(stored) => self.run_warm_patch_traced(inputs, stored, obs),
            Err(reason) => (self.run_traced(inputs, obs), WarmStatus::Cold(reason), None),
        };
        let counter = match status {
            WarmStatus::Warm { .. } => "relax.warmstart.hit",
            WarmStatus::Cold(_) => "relax.warmstart.miss",
        };
        obs.count(counter, 1);
        let fixpoint = self.capture_fixpoint(&result);
        (result, status, clean, fixpoint)
    }

    /// [`SartEngine::run_warm_start_traced`]'s solve from a stored
    /// fixpoint, returning the patch-clean mask.
    fn run_warm_patch_traced(
        &self,
        inputs: &PavfInputs,
        stored: &StoredFixpoint,
        obs: &Collector,
    ) -> (SartResult, WarmStatus, Option<Vec<bool>>) {
        if !self.config.partitioned || !self.config.incremental {
            return (
                self.run_traced(inputs, obs),
                WarmStatus::Cold("config disables partitioned incremental relaxation"),
                None,
            );
        }
        let mut prop = self.prop_template.clone();
        let (dirty, plan) = match fixpoint::seed(
            stored,
            self.nl,
            &self.fub_digests,
            self.mapping_digest,
            &self.config.result_key(),
            &mut prop,
        ) {
            Ok(seeded) => seeded,
            Err(reason) => {
                return (self.run_traced(inputs, obs), WarmStatus::Cold(reason), None);
            }
        };
        // Snapshot the seeded annotations: after relaxation, a seeded FUB
        // whose final SetIds all equal the seed is patch-clean — cone
        // propagation did not move it, so the previous revision's compiled
        // DAG still lowers it correctly. SetId equality is content
        // equality (the arena interns sets by content).
        let seed_fwd = prop.fwd.clone();
        let seed_bwd = prop.bwd.clone();
        let outcome = self.relax(&mut prop, inputs, Some(&dirty), obs);
        let fub_nodes = fixpoint::nodes_by_fub(self.nl);
        let clean: Vec<bool> = self
            .nl
            .fub_ids()
            .map(|f| {
                !dirty[f.index()]
                    && fub_nodes[f.index()].iter().all(|n| {
                        let i = n.index();
                        prop.fwd[i] == seed_fwd[i] && prop.bwd[i] == seed_bwd[i]
                    })
            })
            .collect();
        (
            self.assemble(prop, outcome, inputs, obs),
            WarmStatus::Warm {
                seeded_fubs: plan.seeded_fubs,
                dirty_fubs: plan.dirty_fubs,
            },
            Some(clean),
        )
    }
}

/// Which solve path a warm-start request actually took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmStatus {
    /// The stored fixpoint seeded the solve; the counts describe the
    /// per-FUB digest diff.
    Warm {
        /// FUBs whose stored annotations were adopted.
        seeded_fubs: usize,
        /// FUBs force-walked from the conservative default.
        dirty_fubs: usize,
    },
    /// The artifact could not seed this run; a full cold solve ran.
    Cold(&'static str),
}

/// Builds the term-value vector for an input table under a configuration.
pub(crate) fn term_values(terms: &TermTable, inputs: &PavfInputs, config: &SartConfig) -> Vec<f64> {
    let ports = |name: &str| inputs.port(name).map(|p| (p.read.value(), p.write.value()));
    let injected = |name: &str| match name {
        INJ_LOOP => Some(config.loop_pavf),
        INJ_CTRL => Some(config.ctrl_read_pavf),
        INJ_BOUNDARY_IN => Some(config.boundary_in_pavf),
        INJ_BOUNDARY_OUT => Some(config.boundary_out_pavf),
        _ => None,
    };
    terms.values(&ports, &injected, config.default_port_pavf, 1.0)
}

/// The result of a SART run: closed-form annotations for every node plus
/// the resolved AVFs and convergence telemetry.
#[derive(Debug, Clone)]
pub struct SartResult {
    /// Configuration the run used.
    pub config: SartConfig,
    /// Interned terms.
    pub terms: TermTable,
    /// Interned term sets.
    pub arena: UnionArena,
    /// Node roles.
    pub roles: RoleMap,
    /// Forward (read-port walk) annotation per node.
    pub fwd: Vec<SetId>,
    /// Backward (write-port walk) annotation per node.
    pub bwd: Vec<SetId>,
    /// Performance-model structure name per netlist structure.
    pub struct_perf_names: Vec<String>,
    /// Resolved AVF per node under the run's input table.
    pub avf: Vec<f64>,
    /// Relaxation telemetry.
    pub outcome: RelaxOutcome,
}

impl SartResult {
    /// The resolved AVF of a node.
    pub fn avf(&self, id: NodeId) -> f64 {
        self.avf[id.index()]
    }

    /// All node AVFs, indexed by [`NodeId::index`].
    pub fn node_avfs(&self) -> &[f64] {
        &self.avf
    }

    /// Iterations the relaxation ran.
    pub fn iterations(&self) -> usize {
        self.outcome.iterations
    }

    /// The term-value vector this result's configuration assigns to an
    /// input table (TOP pinned to 1.0, injected terms from the config,
    /// ports from the measurements).
    pub fn term_values(&self, inputs: &PavfInputs) -> Vec<f64> {
        term_values(&self.terms, inputs, &self.config)
    }

    /// Re-resolves every node's AVF for a *new* measured input table using
    /// the stored closed forms — the fast path of §5.2 ("simply … plug
    /// those values into the closed form equations"). No walks are re-run.
    pub fn reevaluate(&self, nl: &Netlist, inputs: &PavfInputs) -> Vec<f64> {
        let values = term_values(&self.terms, inputs, &self.config);
        let set_vals = self.arena.eval_all(&values);
        let mut avf = Vec::with_capacity(nl.node_count());
        for id in nl.nodes() {
            let i = id.index();
            let min_fb = set_vals[self.fwd[i].index()].min(set_vals[self.bwd[i].index()]);
            let v = match self.roles.role(id) {
                // "For the nodes that have pAVF values computed by the ACE
                // model, the estimate value is discarded in favor of the
                // computed value" (§4.2).
                NodeRole::StructCell => {
                    let NodeKind::StructCell { structure, .. } = nl.kind(id) else {
                        unreachable!("role implies kind");
                    };
                    let perf = &self.struct_perf_names[structure.index()];
                    inputs.structure_avf(perf).unwrap_or(min_fb)
                }
                // Control registers hold essentially-always-ACE
                // configuration state.
                NodeRole::ControlReg => self.config.ctrl_read_pavf,
                // Loop sequentials carry the injected loop-boundary value.
                NodeRole::LoopSeq => self.config.loop_pavf,
                _ => min_fb,
            };
            avf.push(v);
        }
        avf
    }

    /// Mean AVF over sequential nodes (weighted by count — every flop and
    /// latch contributes equally, as in the paper's 14% headline figure).
    pub fn mean_seq_avf(&self, nl: &Netlist) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for id in nl.seq_nodes() {
            sum += self.avf[id.index()];
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Fraction of nodes reached by at least one walk (the paper's run
    /// visited >98%).
    pub fn visited_fraction(&self, nl: &Netlist) -> f64 {
        let top = self.arena.top();
        let mut visited = 0usize;
        for id in nl.nodes() {
            let i = id.index();
            if self.fwd[i] != top || self.bwd[i] != top {
                visited += 1;
            }
        }
        visited as f64 / nl.node_count().max(1) as f64
    }

    /// Renders the closed-form AVF equation for a node, e.g.
    /// `MIN(pAVF_R(s1) ∪ pAVF_R(s2), pAVF_W(s3))`.
    pub fn closed_form(&self, id: NodeId) -> String {
        let i = id.index();
        format!(
            "MIN({}, {})",
            self.arena.display(self.fwd[i], &self.terms),
            self.arena.display(self.bwd[i], &self.terms)
        )
    }

    /// The forward-walk pAVF of a node under the run's stored resolution.
    pub fn forward_value(&self, id: NodeId, inputs: &PavfInputs) -> f64 {
        let values = term_values(&self.terms, inputs, &self.config);
        self.arena.eval(self.fwd[id.index()], &values)
    }

    /// The backward-walk pAVF of a node under the run's stored resolution.
    pub fn backward_value(&self, id: NodeId, inputs: &PavfInputs) -> f64 {
        let values = term_values(&self.terms, inputs, &self.config);
        self.arena.eval(self.bwd[id.index()], &values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqavf_netlist::flatten::parse_netlist;

    /// The paper's Figure 7 circuit: structures S1, S2 feeding a join/split
    /// network into S3 and S4, with pAVF_1 = 0.10 and pAVF_2 = 0.02.
    const FIGURE7: &str = r"
.design fig7
.fub f
  .struct s1 1
  .struct s2 1
  .struct s3 1
  .struct s4 1
  .flop q1a s1[0]
  .flop q1b s2[0]
  .flop q2a q1a
  .gate nor g1 q2a q1b
  .flop q3b g1
  .gate nor g2 q2a g1
  .flop q3a g2
  .sw s3[0] q3a
  .sw s4[0] q3b
.endfub
.end
";

    fn fig7_inputs() -> PavfInputs {
        let mut p = PavfInputs::new();
        p.set_port("f.s1", 0.10, 0.5);
        p.set_port("f.s2", 0.02, 0.5);
        p.set_port("f.s3", 0.5, 0.9);
        p.set_port("f.s4", 0.5, 0.9);
        p
    }

    fn run(text: &str, inputs: &PavfInputs, config: SartConfig) -> (Netlist, SartResult) {
        let nl = parse_netlist(text).unwrap();
        let obs = Collector::disabled();
        let engine = SartEngine::new_traced(&nl, &StructureMapping::new(), config, None, &obs);
        let r = engine.run_traced(inputs, &obs);
        (engine.netlist().clone(), r)
    }

    #[test]
    fn figure7_forward_values() {
        let (nl, r) = run(FIGURE7, &fig7_inputs(), SartConfig::default());
        let inputs = fig7_inputs();
        // Q1a and Q2a carry pAVF_1 = 0.10.
        for q in ["f.q1a", "f.q2a"] {
            let id = nl.lookup(q).unwrap();
            assert!((r.forward_value(id, &inputs) - 0.10).abs() < 1e-12, "{q}");
        }
        // Q1b carries pAVF_2 = 0.02.
        let q1b = nl.lookup("f.q1b").unwrap();
        assert!((r.forward_value(q1b, &inputs) - 0.02).abs() < 1e-12);
        // Join outputs carry the union 0.12; the nested union
        // pAVF_1 ∪ (pAVF_1 ∪ pAVF_2) simplifies to 0.12, not 0.22.
        for q in ["f.q3b", "f.q3a"] {
            let id = nl.lookup(q).unwrap();
            assert!(
                (r.forward_value(id, &inputs) - 0.12).abs() < 1e-12,
                "{q} = {}",
                r.forward_value(id, &inputs)
            );
        }
    }

    #[test]
    fn figure7_final_avfs_are_min_of_walks() {
        let (nl, r) = run(FIGURE7, &fig7_inputs(), SartConfig::default());
        let inputs = fig7_inputs();
        for id in nl.seq_nodes() {
            let f = r.forward_value(id, &inputs);
            let b = r.backward_value(id, &inputs);
            assert!((r.avf(id) - f.min(b)).abs() < 1e-12, "{}", nl.name(id));
        }
        // With write pAVFs of 0.9 through the backward union, forward
        // dominates: Q1a stays at 0.10.
        let q1a = nl.lookup("f.q1a").unwrap();
        assert!((r.avf(q1a) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn backward_refines_when_write_rate_is_low() {
        let mut inputs = fig7_inputs();
        // S3/S4 almost never accept ACE writes: backward walk caps
        // everything upstream.
        inputs.set_port("f.s3", 0.5, 0.01);
        inputs.set_port("f.s4", 0.5, 0.01);
        let (nl, r) = run(FIGURE7, &inputs, SartConfig::default());
        let q1a = nl.lookup("f.q1a").unwrap();
        // Q1a feeds both sinks: backward = 0.01 + 0.01 = 0.02 < 0.10.
        assert!((r.avf(q1a) - 0.02).abs() < 1e-12, "got {}", r.avf(q1a));
    }

    #[test]
    fn closed_form_mentions_terms() {
        let (nl, r) = run(FIGURE7, &fig7_inputs(), SartConfig::default());
        let q3a = nl.lookup("f.q3a").unwrap();
        let s = r.closed_form(q3a);
        assert!(s.contains("pAVF_R(f.s1)"), "{s}");
        assert!(s.contains("pAVF_R(f.s2)"), "{s}");
        assert!(s.starts_with("MIN("));
    }

    #[test]
    fn reevaluate_matches_fresh_run() {
        let (nl, r) = run(FIGURE7, &fig7_inputs(), SartConfig::default());
        let mut new_inputs = fig7_inputs();
        new_inputs.set_port("f.s1", 0.25, 0.5);
        new_inputs.set_port("f.s2", 0.05, 0.5);
        let cheap = r.reevaluate(&nl, &new_inputs);
        let (_, fresh) = run(FIGURE7, &new_inputs, SartConfig::default());
        for id in nl.nodes() {
            assert!(
                (cheap[id.index()] - fresh.avf(id)).abs() < 1e-12,
                "{}",
                nl.name(id)
            );
        }
    }

    #[test]
    fn thread_count_is_invisible_in_results() {
        let inputs = fig7_inputs();
        let (nl, seq) = run(FIGURE7, &inputs, SartConfig::default());
        let (_, par) = run(
            FIGURE7,
            &inputs,
            SartConfig {
                threads: 4,
                ..SartConfig::default()
            },
        );
        assert!(par.outcome.trace.iter().all(|s| s.effective_threads == 4));
        // Bit-identical SetId annotations and AVFs at any thread count.
        assert_eq!(seq.fwd, par.fwd);
        assert_eq!(seq.bwd, par.bwd);
        assert_eq!(seq.arena.len(), par.arena.len());
        for id in nl.nodes() {
            assert_eq!(seq.avf(id).to_bits(), par.avf(id).to_bits());
        }
    }

    #[test]
    fn incremental_mode_is_invisible_in_results() {
        let inputs = fig7_inputs();
        let (_, inc) = run(FIGURE7, &inputs, SartConfig::default());
        let (nl, full) = run(
            FIGURE7,
            &inputs,
            SartConfig {
                incremental: false,
                ..SartConfig::default()
            },
        );
        assert_eq!(inc.fwd, full.fwd);
        assert_eq!(inc.bwd, full.bwd);
        assert_eq!(inc.arena.len(), full.arena.len());
        assert_eq!(inc.iterations(), full.iterations());
        for id in nl.nodes() {
            assert_eq!(inc.avf(id).to_bits(), full.avf(id).to_bits());
        }
        // The default mode never walks more than the full mode.
        assert!(inc.outcome.total_walked_nodes() <= full.outcome.total_walked_nodes());
    }

    #[test]
    fn outcome_reports_wall_time() {
        let (_, r) = run(FIGURE7, &fig7_inputs(), SartConfig::default());
        assert!(!r.outcome.trace.is_empty());
        assert!(r.outcome.total_wall_seconds() >= 0.0);
    }

    #[test]
    fn partitioned_equals_global_fixpoint() {
        let inputs = fig7_inputs();
        let (_, part) = run(FIGURE7, &inputs, SartConfig::default());
        let (nl, glob) = run(
            FIGURE7,
            &inputs,
            SartConfig {
                partitioned: false,
                ..SartConfig::default()
            },
        );
        for id in nl.nodes() {
            assert!((part.avf(id) - glob.avf(id)).abs() < 1e-12);
        }
    }

    #[test]
    fn global_run_obeys_the_iteration_cap() {
        let inputs = fig7_inputs();
        let global = |max_iterations| SartConfig {
            partitioned: false,
            max_iterations,
            ..SartConfig::default()
        };
        // One sweep reaches the fixpoint; only the second can confirm it.
        let (_, one) = run(FIGURE7, &inputs, global(1));
        assert!(!one.outcome.converged);
        assert_eq!(one.outcome.trace.len(), 1);
        let (nl, two) = run(FIGURE7, &inputs, global(2));
        assert!(two.outcome.converged);
        assert_eq!(two.iterations(), 1);
        for id in nl.nodes() {
            assert_eq!(one.avf(id).to_bits(), two.avf(id).to_bits());
        }
        // No sweep leaves every node at the conservative start.
        let (_, none) = run(FIGURE7, &inputs, global(0));
        assert!(!none.outcome.converged);
        let top = none.arena.top();
        assert!(none.fwd.iter().chain(&none.bwd).all(|&s| s == top));
    }

    #[test]
    fn struct_cells_take_measured_avf() {
        let mut inputs = fig7_inputs();
        inputs.set_structure_avf("f.s1", 0.42);
        let (nl, r) = run(FIGURE7, &inputs, SartConfig::default());
        let cell = nl.lookup("f.s1[0]").unwrap();
        assert!((r.avf(cell) - 0.42).abs() < 1e-12);
    }

    #[test]
    fn loop_and_ctrl_nodes_take_injected_values() {
        let text = r"
.design lc
.fub f
  .input cfg
  .struct s1 1
  .flop creg_a cfg cfg
  .flop l1 l2
  .flop l2 l1
  .flop q s1[0]
  .sw s1[0] q
.endfub
.end
";
        let inputs = PavfInputs::new();
        let (nl, r) = run(text, &inputs, SartConfig::default());
        assert_eq!(r.avf(nl.lookup("f.creg_a").unwrap()), 1.0);
        assert!((r.avf(nl.lookup("f.l1").unwrap()) - 0.3).abs() < 1e-12);
        assert_eq!(r.roles.control_reg_bits(), 1);
        assert_eq!(r.roles.loop_seq_bits(), 2);
    }

    #[test]
    fn unmeasured_structures_fall_back_to_conservative_default() {
        // No inputs at all: everything resolves against default port 1.0.
        let (nl, r) = run(FIGURE7, &PavfInputs::new(), SartConfig::default());
        for id in nl.seq_nodes() {
            assert_eq!(r.avf(id), 1.0, "{}", nl.name(id));
        }
    }

    #[test]
    fn visited_fraction_is_high() {
        let (nl, r) = run(FIGURE7, &fig7_inputs(), SartConfig::default());
        assert!(r.visited_fraction(&nl) > 0.98);
    }

    #[test]
    fn traced_run_emits_phase_spans_and_identical_results() {
        let nl = parse_netlist(FIGURE7).unwrap();
        let inputs = fig7_inputs();
        let config = SartConfig {
            threads: 2,
            ..SartConfig::default()
        };
        let obs = Collector::new();
        let engine =
            SartEngine::new_traced(&nl, &StructureMapping::new(), config.clone(), None, &obs);
        let traced = engine.run_traced(&inputs, &obs);
        let plain = engine.run_traced(&inputs, &Collector::disabled());
        // A supplied loop analysis skips SCC and changes no result.
        let loops = seqavf_netlist::scc::find_loops(&nl);
        let given_obs = Collector::new();
        let given = SartEngine::new_traced(
            &nl,
            &StructureMapping::new(),
            config,
            Some(&loops),
            &given_obs,
        )
        .run_traced(&inputs, &given_obs);
        assert!(given_obs.report().span("netlist.scc").is_none());
        assert!(given_obs.report().span("sart.prepare").is_some());
        // Collection must not perturb the analysis in any way.
        for other in [&plain, &given] {
            assert_eq!(traced.fwd, other.fwd);
            assert_eq!(traced.bwd, other.bwd);
            for id in nl.nodes() {
                assert_eq!(traced.avf(id).to_bits(), other.avf(id).to_bits());
            }
        }
        let report = obs.report();
        for phase in ["netlist.scc", "sart.prepare", "relax.sweep", "sart.resolve"] {
            assert!(report.span(phase).is_some(), "missing span `{phase}`");
        }
        // One relax.sweep span per traced sweep.
        assert_eq!(
            report.span("relax.sweep").unwrap().count,
            traced.outcome.trace.len()
        );
        assert!(report.counter("relax.iterations").is_some());
        assert!(report.counter("relax.changed_sets").is_some());
    }

    #[test]
    fn mean_seq_avf_in_range() {
        let (nl, r) = run(FIGURE7, &fig7_inputs(), SartConfig::default());
        let m = r.mean_seq_avf(&nl);
        assert!(m > 0.0 && m <= 1.0);
    }
}
