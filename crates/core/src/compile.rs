//! Compilation of resolved closed forms into a flat, CSE-deduplicated
//! term DAG — the engine behind the multi-workload sweep (§5.2).
//!
//! [`SartResult::reevaluate`] is already the paper's "plug new pAVFs into
//! the closed form equations" fast path, but it *interprets* the union-set
//! structure on every call: it evaluates **every** set the relaxation ever
//! interned (most are dead intermediates of the walks), re-matches each
//! node's role, and resolves struct-cell overrides through per-node string
//! map lookups. [`CompiledSweep`] lowers the resolved annotations once into
//! a three-level DAG —
//!
//! ```text
//! term leaves  →  capped-sum nodes (live sets only)  →  MIN nodes  →  node slots
//! ```
//!
//! — where both capped-sum and MIN nodes are hash-consed: every distinct
//! live set becomes exactly one sum node and every distinct `(F, B)` pair
//! exactly one MIN node, shared across all sequential bits that resolve to
//! it. A workload evaluation is then a single topological pass over the
//! flat op arrays plus a gather into the per-node AVF vector, with
//! struct-cell AVF overrides resolved once per distinct performance
//! structure instead of once per cell.
//!
//! The compiled path is **bit-identical** (`f64::to_bits`) to
//! [`SartResult::reevaluate`]: sums accumulate in the same (sorted
//! term-id) order, the cap and `MIN` use the same `f64` operations in the
//! same operand order, and overrides take the same precedence. A property
//! test (`tests/compiled_equivalence.rs`) pins this contract against the
//! interpreter and against fresh relaxations.
//!
//! [`CompiledSweep`] also serializes to a sealed binary artifact,
//! `seqavf-sweep/3` ([`CompiledSweep::encode`] / [`CompiledSweep::decode`]),
//! so the sweep cache ([`crate::sweep`]) can skip relaxation entirely on
//! repeated sweeps of the same design. It uses the container the graph
//! snapshot and the fixpoint artifact share ([`seqavf_netlist::snapshot`]),
//! with six sections: meta, terms, sums, MINs, perf names, slots.

use std::collections::HashMap;

use seqavf_netlist::graph::{Netlist, NodeKind};
use seqavf_netlist::snapshot::{
    open_sealed, put_delta, put_section, put_str, put_varint, seal, Cursor, SnapshotError,
};
use seqavf_obs::Collector;

use crate::arena::{SetId, TermTable};
use crate::classify::NodeRole;
use crate::engine::{term_values, SartConfig, SartResult};
use crate::fixpoint::{nodes_by_fub, put_terms, read_terms};
use crate::mapping::PavfInputs;

/// Format magic of the compiled-sweep artifact, bumped whenever the
/// layout changes.
pub const SWEEP_MAGIC: &[u8] = b"seqavf-sweep/3\n";

/// Version-family prefix of [`SWEEP_MAGIC`].
const SWEEP_MAGIC_FAMILY: &[u8] = b"seqavf-sweep/";

const SEC_META: u8 = 1;
const SEC_TERMS: u8 = 2;
const SEC_SUMS: u8 = 3;
const SEC_MINS: u8 = 4;
const SEC_PERF: u8 = 5;
const SEC_SLOTS: u8 = 6;

/// Slot kind bytes.
const SLOT_MIN: u8 = 0;
const SLOT_CTRL: u8 = 1;
const SLOT_LOOP: u8 = 2;
const SLOT_STRUCT: u8 = 3;

/// Lane width of the batched evaluator: how many workload tables one op
/// walk evaluates together. Sized so the per-op lane arrays fit in stack
/// registers/L1 while still amortizing slot decode over a useful batch.
const MAX_LANES: usize = 16;

/// How one netlist node obtains its AVF from the evaluated DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// `MIN(F, B)` — index into the MIN-op array.
    Min(u32),
    /// Control register: the configured `ctrl_read_pavf` constant.
    Ctrl,
    /// Loop sequential: the configured `loop_pavf` constant.
    Loop,
    /// Structure cell: the measured structure AVF of `perf` when present,
    /// else the `MIN(F, B)` fallback.
    Struct { perf: u32, min: u32 },
}

/// Compile-time sharing statistics (reported through `sweep.compile`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileStats {
    /// Netlist nodes covered (one slot each).
    pub nodes: usize,
    /// Distinct live sets lowered to capped-sum ops.
    pub sum_ops: usize,
    /// Distinct `(F, B)` pairs lowered to MIN ops.
    pub min_ops: usize,
    /// Sets the relaxation arena held in total (dead intermediates the
    /// compiled DAG does not evaluate).
    pub arena_sets: usize,
    /// Interned pAVF terms (DAG leaves).
    pub terms: usize,
}

/// What a DAG patch did, op by op (reported through the `sweep.patch`
/// span and the `sweep.patch.*` counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchStats {
    /// Node slots relocated verbatim from the old DAG (clean FUBs).
    pub slots_retained: usize,
    /// Node slots re-lowered from the new result (the dirty cone).
    pub slots_relowered: usize,
    /// Sum + MIN ops carried over from the old DAG.
    pub ops_retained: usize,
    /// Sum + MIN ops lowered fresh for the dirty cone.
    pub ops_added: usize,
    /// Old ops no clean slot references anymore, dropped at compaction.
    pub ops_orphaned: usize,
}

impl PatchStats {
    /// DAG nodes the patch wrote: re-lowered slots plus freshly lowered
    /// ops. The proportional-to-edit quantity — for a small edit this is
    /// far below the DAG's total op count.
    pub fn nodes_patched(&self) -> usize {
        self.slots_relowered + self.ops_added
    }
}

/// A compiled multi-workload evaluator: the hash-consed term DAG plus the
/// captured configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledSweep {
    config: SartConfig,
    terms: TermTable,
    /// Flattened term indices of every sum op, in sorted term-id order
    /// (matching [`crate::arena::UnionArena::eval`] accumulation order).
    sum_terms: Vec<u32>,
    /// `sum_bounds[k]..sum_bounds[k+1]` delimits sum op `k` in `sum_terms`.
    sum_bounds: Vec<u32>,
    /// MIN ops as `(forward sum, backward sum)` — operand order preserved.
    mins: Vec<(u32, u32)>,
    /// One slot per netlist node, indexed by `NodeId::index`.
    slots: Vec<Slot>,
    /// Distinct performance-structure names referenced by struct slots.
    perf_names: Vec<String>,
    /// Sets the source arena held (for [`CompileStats`] only).
    arena_sets: usize,
}

impl CompiledSweep {
    /// Lowers a resolved [`SartResult`] into the compiled DAG.
    pub fn compile(result: &SartResult, nl: &Netlist) -> CompiledSweep {
        Self::compile_traced(result, nl, &Collector::disabled())
    }

    /// [`CompiledSweep::compile`] with observability: one `sweep.compile`
    /// span carrying the sharing statistics.
    pub fn compile_traced(result: &SartResult, nl: &Netlist, obs: &Collector) -> CompiledSweep {
        let mut span = obs.span("sweep.compile");
        let n = nl.node_count();
        let mut sum_terms: Vec<u32> = Vec::new();
        let mut sum_bounds: Vec<u32> = vec![0];
        let mut sum_index: HashMap<SetId, u32> = HashMap::new();
        let mut mins: Vec<(u32, u32)> = Vec::new();
        let mut min_index: HashMap<(SetId, SetId), u32> = HashMap::new();
        let mut perf_names: Vec<String> = Vec::new();
        let mut perf_index: HashMap<String, u32> = HashMap::new();
        let mut slots: Vec<Slot> = Vec::with_capacity(n);

        let mut lower_sum =
            |s: SetId, sum_terms: &mut Vec<u32>, sum_bounds: &mut Vec<u32>| -> u32 {
                *sum_index.entry(s).or_insert_with(|| {
                    let k = sum_bounds.len() - 1;
                    sum_terms.extend(result.arena.terms(s).iter().map(|t| t.index() as u32));
                    sum_bounds.push(sum_terms.len() as u32);
                    u32::try_from(k).expect("sum op count fits u32")
                })
            };

        for id in nl.nodes() {
            let i = id.index();
            let slot = match result.roles.role(id) {
                NodeRole::ControlReg => Slot::Ctrl,
                NodeRole::LoopSeq => Slot::Loop,
                role => {
                    let pair = (result.fwd[i], result.bwd[i]);
                    let min = *min_index.entry(pair).or_insert_with(|| {
                        let a = lower_sum(pair.0, &mut sum_terms, &mut sum_bounds);
                        let b = lower_sum(pair.1, &mut sum_terms, &mut sum_bounds);
                        mins.push((a, b));
                        u32::try_from(mins.len() - 1).expect("min op count fits u32")
                    });
                    if role == NodeRole::StructCell {
                        let NodeKind::StructCell { structure, .. } = nl.kind(id) else {
                            unreachable!("role implies kind");
                        };
                        let name = &result.struct_perf_names[structure.index()];
                        let perf = *perf_index.entry(name.clone()).or_insert_with(|| {
                            perf_names.push(name.clone());
                            u32::try_from(perf_names.len() - 1).expect("perf count fits u32")
                        });
                        Slot::Struct { perf, min }
                    } else {
                        Slot::Min(min)
                    }
                }
            };
            slots.push(slot);
        }

        let compiled = CompiledSweep {
            config: result.config.clone(),
            terms: result.terms.clone(),
            sum_terms,
            sum_bounds,
            mins,
            slots,
            perf_names,
            arena_sets: result.arena.len(),
        };
        let st = compiled.stats();
        span.field_u64("nodes", st.nodes as u64);
        span.field_u64("sum_ops", st.sum_ops as u64);
        span.field_u64("min_ops", st.min_ops as u64);
        span.field_u64("arena_sets", st.arena_sets as u64);
        span.field_u64("terms", st.terms as u64);
        span.finish();
        compiled
    }

    /// Patches this DAG (compiled for the *previous* revision of an
    /// edited design) into the DAG of the new revision, touching only the
    /// dirty cone. See [`CompiledSweep::patch_traced`].
    pub fn patch(
        &self,
        result: &SartResult,
        nl: &Netlist,
        old_fubs: &[(&str, usize)],
        clean: &[bool],
    ) -> Result<(CompiledSweep, PatchStats), &'static str> {
        self.patch_traced(result, nl, old_fubs, clean, &Collector::disabled())
    }

    /// Incrementally re-lowers an edited design against this DAG instead
    /// of recompiling it from scratch.
    ///
    /// `self` is the DAG compiled for the previous revision; `result` is
    /// the new revision's warm-relaxed result; `old_fubs` is the previous
    /// revision's FUB layout (name and node count, in FUB-id order, as
    /// recorded by the `seqavf-fixpoint/2` artifact); `clean` marks the
    /// new FUBs whose annotations the warm solve left exactly at the
    /// seeded values ([`crate::engine::SartEngine::run_warm_patch_traced`]).
    ///
    /// Clean FUBs keep their old slots and the ops those slots reference
    /// — hash-consing means unchanged closed forms dedupe back to their
    /// old nodes; only their indices move during compaction. Dirty FUBs
    /// are re-lowered from the new result, reusing retained ops through
    /// the same content maps a cold compile builds. Ops no retained slot
    /// references are tombstoned and compacted away, so repeated patches
    /// never grow the artifact unboundedly.
    ///
    /// The patched DAG evaluates **bit-identically** to a cold
    /// [`CompiledSweep::compile`] of `result`: retained sums hold exactly
    /// the term list (in sorted new-term-id order) a cold lower would
    /// emit, MIN operand order is preserved, and dirty slots run the cold
    /// path verbatim. Any violated precondition — layout mismatch, a
    /// role or structure change inside a supposedly clean FUB, a vanished
    /// term — returns `Err`, and the caller falls back to a full
    /// recompile; a patch never degrades to a wrong DAG.
    pub fn patch_traced(
        &self,
        result: &SartResult,
        nl: &Netlist,
        old_fubs: &[(&str, usize)],
        clean: &[bool],
        obs: &Collector,
    ) -> Result<(CompiledSweep, PatchStats), &'static str> {
        let mut span = obs.span("sweep.patch");
        let out = self.patch_inner(result, nl, old_fubs, clean);
        if let Ok((_, st)) = &out {
            span.field_u64("slots_retained", st.slots_retained as u64);
            span.field_u64("slots_relowered", st.slots_relowered as u64);
            span.field_u64("ops_retained", st.ops_retained as u64);
            span.field_u64("ops_added", st.ops_added as u64);
            span.field_u64("ops_orphaned", st.ops_orphaned as u64);
            obs.count("sweep.patch.nodes_patched", st.nodes_patched() as u64);
            obs.count("sweep.patch.nodes_orphaned", st.ops_orphaned as u64);
        }
        span.finish();
        out
    }

    fn patch_inner(
        &self,
        result: &SartResult,
        nl: &Netlist,
        old_fubs: &[(&str, usize)],
        clean: &[bool],
    ) -> Result<(CompiledSweep, PatchStats), &'static str> {
        if self.config.result_key() != result.config.result_key() {
            return Err("result key mismatch between old DAG and new result");
        }
        if clean.len() != nl.fub_count() {
            return Err("clean mask does not cover the netlist's FUBs");
        }
        let old_total: usize = old_fubs.iter().map(|&(_, n)| n).sum();
        if old_total != self.slots.len() {
            return Err("old FUB layout does not cover the old DAG");
        }
        // Old FUB name -> (first slot index, node count). Node ids are
        // assigned contiguously per FUB in FUB-id order (the flattener's
        // sequential merge phase), so a FUB's slots are one dense range.
        let mut old_base: HashMap<&str, (usize, usize)> = HashMap::with_capacity(old_fubs.len());
        let mut acc = 0usize;
        for &(name, count) in old_fubs {
            if old_base.insert(name, (acc, count)).is_some() {
                return Err("duplicate FUB name in old layout");
            }
            acc += count;
        }
        // Verify the layout invariant on the revision we can see. Both
        // revisions come from the same merge phase, so a violation here
        // means relocation would be unsafe for the old one too.
        let fub_nodes = nodes_by_fub(nl);
        let mut expect = 0usize;
        for nodes in &fub_nodes {
            for n in nodes {
                if n.index() != expect {
                    return Err("netlist node ids are not FUB-contiguous");
                }
                expect += 1;
            }
        }
        if expect != nl.node_count() {
            return Err("FUB grouping does not cover the netlist");
        }

        // Term remap old -> new, by content. Identity in the common case:
        // gate edits never change the interned port terms.
        let same_terms = self.terms == result.terms;
        let tmap: Vec<Option<u32>> = if same_terms {
            Vec::new()
        } else {
            self.terms
                .iter()
                .map(|(_, k)| result.terms.get(k).map(|t| t.index() as u32))
                .collect()
        };

        // Phase 1 — mark: walk the clean FUBs' old slots to find the live
        // ops and learn each one's identity in the *new* arena (the
        // relaxed SetIds, which patch-cleanliness pins to the seed). Pure
        // array traffic: no hashing per node, which is where the patch
        // beats a recompile.
        let n_old_sums = self.sum_bounds.len() - 1;
        let mut min_pair: Vec<Option<(SetId, SetId)>> = vec![None; self.mins.len()];
        let mut sum_set: Vec<Option<SetId>> = vec![None; n_old_sums];
        let mut slots_retained = 0usize;
        for f in nl.fub_ids() {
            if !clean[f.index()] {
                continue;
            }
            let nodes = &fub_nodes[f.index()];
            let Some(&(base, count)) = old_base.get(nl.fub_name(f)) else {
                return Err("clean FUB missing from the old layout");
            };
            if count != nodes.len() {
                return Err("clean FUB changed node count");
            }
            for (k, id) in nodes.iter().enumerate() {
                let i = id.index();
                let old_slot = self.slots[base + k];
                let role = result.roles.role(*id);
                let m = match (old_slot, role) {
                    (Slot::Ctrl, NodeRole::ControlReg) | (Slot::Loop, NodeRole::LoopSeq) => {
                        continue;
                    }
                    (Slot::Min(m), r)
                        if r != NodeRole::ControlReg
                            && r != NodeRole::LoopSeq
                            && r != NodeRole::StructCell =>
                    {
                        m
                    }
                    (Slot::Struct { perf, min }, NodeRole::StructCell) => {
                        let NodeKind::StructCell { structure, .. } = nl.kind(*id) else {
                            return Err("struct role without struct kind");
                        };
                        if self.perf_names[perf as usize]
                            != result.struct_perf_names[structure.index()]
                        {
                            return Err("clean FUB changed a structure's performance name");
                        }
                        min
                    }
                    _ => return Err("clean FUB changed a node role"),
                };
                let pair = (result.fwd[i], result.bwd[i]);
                match min_pair[m as usize] {
                    None => {
                        min_pair[m as usize] = Some(pair);
                        let (a, b) = self.mins[m as usize];
                        for (s, new_set) in [(a, pair.0), (b, pair.1)] {
                            match sum_set[s as usize] {
                                None => sum_set[s as usize] = Some(new_set),
                                Some(seen) if seen == new_set => {}
                                Some(_) => return Err("old sum op maps to conflicting sets"),
                            }
                        }
                    }
                    Some(seen) if seen == pair => {}
                    Some(_) => return Err("old MIN op maps to conflicting pairs"),
                }
            }
            slots_retained += nodes.len();
        }

        // Phase 2 — compact: copy the live ops in old-index order,
        // remapping term ids when the term table changed. Dead ops are
        // simply not copied (tombstone + compact in one pass).
        let mut sum_terms: Vec<u32> = Vec::new();
        let mut sum_bounds: Vec<u32> = vec![0];
        let mut sum_index: HashMap<SetId, u32> = HashMap::new();
        let mut sum_remap: Vec<u32> = vec![u32::MAX; n_old_sums];
        for s in 0..n_old_sums {
            let Some(set) = sum_set[s] else { continue };
            let k = u32::try_from(sum_bounds.len() - 1).expect("sum op count fits u32");
            let lo = self.sum_bounds[s] as usize;
            let hi = self.sum_bounds[s + 1] as usize;
            if same_terms {
                sum_terms.extend_from_slice(&self.sum_terms[lo..hi]);
            } else {
                let start = sum_terms.len();
                for &t in &self.sum_terms[lo..hi] {
                    sum_terms.push(
                        tmap[t as usize].ok_or("live sum references a term the edit removed")?,
                    );
                }
                // Sums fold in sorted term-id order; re-sort under the
                // new ids so the fold order matches a cold compile.
                sum_terms[start..].sort_unstable();
            }
            sum_bounds.push(sum_terms.len() as u32);
            sum_remap[s] = k;
            sum_index.insert(set, k);
        }
        let retained_sums = sum_bounds.len() - 1;

        let mut mins: Vec<(u32, u32)> = Vec::new();
        let mut min_index: HashMap<(SetId, SetId), u32> = HashMap::new();
        let mut min_remap: Vec<u32> = vec![u32::MAX; self.mins.len()];
        for m in 0..self.mins.len() {
            let Some(pair) = min_pair[m] else { continue };
            let (a, b) = self.mins[m];
            mins.push((sum_remap[a as usize], sum_remap[b as usize]));
            let k = u32::try_from(mins.len() - 1).expect("min op count fits u32");
            min_remap[m] = k;
            min_index.insert(pair, k);
        }
        let retained_mins = mins.len();
        let ops_retained = retained_sums + retained_mins;
        let ops_orphaned = (n_old_sums - retained_sums) + (self.mins.len() - retained_mins);

        // Orphaned performance names are kept: they cost one map lookup
        // per evaluation and vanish on the next full compile, while
        // compacting them would force a slot rewrite of every retained
        // struct cell.
        let mut perf_names = self.perf_names.clone();
        let mut perf_index: HashMap<String, u32> = perf_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u32))
            .collect();

        // Phase 3 — lower: emit slots in node-id order. Clean FUBs
        // relocate their old slots through the compaction remaps; dirty
        // FUBs run the cold compile's per-node lowering against the new
        // result, deduping into the retained ops via the content maps.
        let lower_sum = |s: SetId,
                         sum_terms: &mut Vec<u32>,
                         sum_bounds: &mut Vec<u32>,
                         sum_index: &mut HashMap<SetId, u32>|
         -> u32 {
            *sum_index.entry(s).or_insert_with(|| {
                let k = sum_bounds.len() - 1;
                sum_terms.extend(result.arena.terms(s).iter().map(|t| t.index() as u32));
                sum_bounds.push(sum_terms.len() as u32);
                u32::try_from(k).expect("sum op count fits u32")
            })
        };
        let mut slots: Vec<Slot> = Vec::with_capacity(nl.node_count());
        let mut slots_relowered = 0usize;
        for f in nl.fub_ids() {
            let nodes = &fub_nodes[f.index()];
            if clean[f.index()] {
                let (base, _) = old_base[nl.fub_name(f)];
                for k in 0..nodes.len() {
                    slots.push(match self.slots[base + k] {
                        Slot::Min(m) => Slot::Min(min_remap[m as usize]),
                        Slot::Ctrl => Slot::Ctrl,
                        Slot::Loop => Slot::Loop,
                        Slot::Struct { perf, min } => Slot::Struct {
                            perf,
                            min: min_remap[min as usize],
                        },
                    });
                }
                continue;
            }
            for id in nodes {
                let i = id.index();
                let slot = match result.roles.role(*id) {
                    NodeRole::ControlReg => Slot::Ctrl,
                    NodeRole::LoopSeq => Slot::Loop,
                    role => {
                        let pair = (result.fwd[i], result.bwd[i]);
                        let min = match min_index.get(&pair) {
                            Some(&m) => m,
                            None => {
                                let a = lower_sum(
                                    pair.0,
                                    &mut sum_terms,
                                    &mut sum_bounds,
                                    &mut sum_index,
                                );
                                let b = lower_sum(
                                    pair.1,
                                    &mut sum_terms,
                                    &mut sum_bounds,
                                    &mut sum_index,
                                );
                                mins.push((a, b));
                                let m =
                                    u32::try_from(mins.len() - 1).expect("min op count fits u32");
                                min_index.insert(pair, m);
                                m
                            }
                        };
                        if role == NodeRole::StructCell {
                            let NodeKind::StructCell { structure, .. } = nl.kind(*id) else {
                                unreachable!("role implies kind");
                            };
                            let name = &result.struct_perf_names[structure.index()];
                            let perf = *perf_index.entry(name.clone()).or_insert_with(|| {
                                perf_names.push(name.clone());
                                u32::try_from(perf_names.len() - 1).expect("perf count fits u32")
                            });
                            Slot::Struct { perf, min }
                        } else {
                            Slot::Min(min)
                        }
                    }
                };
                slots.push(slot);
            }
            slots_relowered += nodes.len();
        }

        let ops_added = (sum_bounds.len() - 1 - retained_sums) + (mins.len() - retained_mins);
        let patched = CompiledSweep {
            config: result.config.clone(),
            terms: result.terms.clone(),
            sum_terms,
            sum_bounds,
            mins,
            slots,
            perf_names,
            arena_sets: result.arena.len(),
        };
        Ok((
            patched,
            PatchStats {
                slots_retained,
                slots_relowered,
                ops_retained,
                ops_added,
                ops_orphaned,
            },
        ))
    }

    /// The configuration captured at compile time.
    pub fn config(&self) -> &SartConfig {
        &self.config
    }

    /// Number of node slots (equals the compiled netlist's node count).
    pub fn node_count(&self) -> usize {
        self.slots.len()
    }

    /// Sharing statistics of the compiled DAG.
    pub fn stats(&self) -> CompileStats {
        CompileStats {
            nodes: self.slots.len(),
            sum_ops: self.sum_bounds.len() - 1,
            min_ops: self.mins.len(),
            arena_sets: self.arena_sets,
            terms: self.terms.len(),
        }
    }

    /// Evaluates every node's AVF for one workload's input table —
    /// bit-identical to [`SartResult::reevaluate`] on the source result.
    pub fn evaluate(&self, inputs: &PavfInputs) -> Vec<f64> {
        let mut scratch = EvalScratch::default();
        self.evaluate_with(inputs, &mut scratch)
    }

    /// [`CompiledSweep::evaluate`] with observability: one `sweep.eval`
    /// span per workload.
    pub fn evaluate_traced(&self, inputs: &PavfInputs, obs: &Collector) -> Vec<f64> {
        let mut span = obs.span("sweep.eval");
        let mut scratch = EvalScratch::default();
        let avf = self.evaluate_with(inputs, &mut scratch);
        span.field_u64("nodes", avf.len() as u64);
        span.finish();
        avf
    }

    /// Evaluates the op arrays (sums, MINs, struct overrides) for one
    /// table into `scratch`; [`CompiledSweep::slot_value`] then reads any
    /// node's AVF out of the filled scratch.
    fn eval_ops(&self, inputs: &PavfInputs, scratch: &mut EvalScratch) {
        let values = term_values(&self.terms, inputs, &self.config);
        let n_sums = self.sum_bounds.len() - 1;
        scratch.sums.clear();
        scratch.sums.reserve(n_sums);
        for k in 0..n_sums {
            let lo = self.sum_bounds[k] as usize;
            let hi = self.sum_bounds[k + 1] as usize;
            // Same accumulation order as `UnionArena::eval`: sorted term
            // ids, left fold, then the cap.
            let sum: f64 = self.sum_terms[lo..hi]
                .iter()
                .map(|&t| values[t as usize])
                .sum();
            scratch.sums.push(sum.min(1.0));
        }
        scratch.mins.clear();
        scratch.mins.reserve(self.mins.len());
        for &(a, b) in &self.mins {
            scratch
                .mins
                .push(scratch.sums[a as usize].min(scratch.sums[b as usize]));
        }
        // Struct-cell overrides: one map lookup per distinct performance
        // structure, not per cell.
        scratch.struct_avfs.clear();
        scratch
            .struct_avfs
            .extend(self.perf_names.iter().map(|p| inputs.structure_avf(p)));
    }

    /// One node's AVF from op results computed by
    /// [`CompiledSweep::eval_ops`].
    #[inline]
    fn slot_value(&self, slot: Slot, scratch: &EvalScratch) -> f64 {
        match slot {
            Slot::Min(m) => scratch.mins[m as usize],
            Slot::Ctrl => self.config.ctrl_read_pavf,
            Slot::Loop => self.config.loop_pavf,
            Slot::Struct { perf, min } => {
                scratch.struct_avfs[perf as usize].unwrap_or(scratch.mins[min as usize])
            }
        }
    }

    /// One topological pass with caller-provided scratch buffers (reused
    /// across workloads by [`CompiledSweep::evaluate_many`]).
    fn evaluate_with(&self, inputs: &PavfInputs, scratch: &mut EvalScratch) -> Vec<f64> {
        self.eval_ops(inputs, scratch);
        self.slots
            .iter()
            .map(|&slot| self.slot_value(slot, scratch))
            .collect()
    }

    /// Evaluates up to [`MAX_LANES`] tables in ONE pass over the op
    /// arrays: every sum, MIN, and slot op is decoded once and applied to
    /// all lanes, so the per-op overhead (index decode, bounds checks,
    /// slot dispatch) is amortized across the batch. Per lane the
    /// arithmetic is exactly [`CompiledSweep::evaluate`]'s — same term
    /// order, same left-fold accumulation, same cap and MIN operand
    /// order — so each appended row is bit-identical to a scalar
    /// evaluation of that table (pinned by the equivalence proptest).
    ///
    /// This is the sweep server's warm-path workhorse: at ~100k nodes it
    /// roughly halves the per-table evaluation cost versus scalar.
    fn evaluate_lanes(&self, tables: &[PavfInputs], out: &mut Vec<Vec<f64>>) {
        let k = tables.len();
        let ops = self.lane_ops(tables);
        let base = out.len();
        out.extend((0..k).map(|_| vec![0.0f64; self.slots.len()]));
        let rows = &mut out[base..];
        let mut lane_vals = [0.0f64; MAX_LANES];
        for (i, &slot) in self.slots.iter().enumerate() {
            self.lane_slot_values(slot, &ops, &mut lane_vals);
            for (l, row) in rows.iter_mut().enumerate() {
                row[i] = lane_vals[l];
            }
        }
    }

    /// The op phase of the lane evaluator: term values, sums, MINs, and
    /// struct overrides for every lane, all lane-interleaved.
    fn lane_ops(&self, tables: &[PavfInputs]) -> LaneOps {
        let k = tables.len();
        debug_assert!((2..=MAX_LANES).contains(&k));
        let n_terms = self.terms.len();
        // Term values, term-major so each op reads its lanes contiguously.
        let mut vt = vec![0.0f64; n_terms * k];
        for (lane, t) in tables.iter().enumerate() {
            let values = term_values(&self.terms, t, &self.config);
            for (ti, &v) in values.iter().enumerate() {
                vt[ti * k + lane] = v;
            }
        }
        let n_sums = self.sum_bounds.len() - 1;
        // `-0.0` seed: `Iterator::sum::<f64>()` folds from -0.0, and the
        // scalar path's empty/only-negative-zero sums therefore produce
        // -0.0. Bit identity requires the same identity element here.
        let mut sums = vec![-0.0f64; n_sums * k];
        for s in 0..n_sums {
            let lo = self.sum_bounds[s] as usize;
            let hi = self.sum_bounds[s + 1] as usize;
            let acc = &mut sums[s * k..(s + 1) * k];
            for &t in &self.sum_terms[lo..hi] {
                let tv = &vt[t as usize * k..t as usize * k + k];
                for l in 0..k {
                    acc[l] += tv[l];
                }
            }
            for v in acc {
                *v = v.min(1.0);
            }
        }
        let mut mins = vec![0.0f64; self.mins.len() * k];
        for (m, &(a, b)) in self.mins.iter().enumerate() {
            for l in 0..k {
                mins[m * k + l] = sums[a as usize * k + l].min(sums[b as usize * k + l]);
            }
        }
        // Struct-cell overrides: perf-major, lane-minor.
        let struct_avfs: Vec<Option<f64>> = self
            .perf_names
            .iter()
            .flat_map(|p| tables.iter().map(|t| t.structure_avf(p)))
            .collect();
        LaneOps {
            k,
            mins,
            struct_avfs,
        }
    }

    /// Fills `lane_vals[..ops.k]` with one slot's AVF in every lane.
    #[inline]
    fn lane_slot_values(&self, slot: Slot, ops: &LaneOps, lane_vals: &mut [f64; MAX_LANES]) {
        let k = ops.k;
        match slot {
            Slot::Min(m) => {
                lane_vals[..k].copy_from_slice(&ops.mins[m as usize * k..m as usize * k + k]);
            }
            Slot::Ctrl => lane_vals[..k].fill(self.config.ctrl_read_pavf),
            Slot::Loop => lane_vals[..k].fill(self.config.loop_pavf),
            Slot::Struct { perf, min } => {
                for (l, v) in lane_vals[..k].iter_mut().enumerate() {
                    *v = ops.struct_avfs[perf as usize * k + l]
                        .unwrap_or(ops.mins[min as usize * k + l]);
                }
            }
        }
    }

    /// Evaluates a batch of workload tables, fanned out over `threads`
    /// scoped workers. Output order matches the input order; each entry is
    /// exactly `self.evaluate(&tables[k])` bit for bit (multi-table chunks
    /// run through the lane evaluator, whose per-lane arithmetic is
    /// identical).
    pub fn evaluate_many(&self, tables: &[PavfInputs], threads: usize) -> Vec<Vec<f64>> {
        self.evaluate_many_traced(tables, threads, &Collector::disabled())
    }

    /// [`CompiledSweep::evaluate_many`] with observability: scalar
    /// evaluations record a `sweep.eval` span each, lane batches one
    /// `sweep.eval_batch` span per group (workers share the collector).
    pub fn evaluate_many_traced(
        &self,
        tables: &[PavfInputs],
        threads: usize,
        obs: &Collector,
    ) -> Vec<Vec<f64>> {
        let threads = threads.max(1).min(tables.len().max(1));
        let eval_chunk = |part: &[PavfInputs]| {
            let mut out: Vec<Vec<f64>> = Vec::with_capacity(part.len());
            let mut scratch = EvalScratch::default();
            for group in part.chunks(MAX_LANES) {
                if group.len() == 1 {
                    let mut span = obs.span("sweep.eval");
                    let avf = self.evaluate_with(&group[0], &mut scratch);
                    span.field_u64("nodes", avf.len() as u64);
                    span.finish();
                    out.push(avf);
                } else {
                    let mut span = obs.span("sweep.eval_batch");
                    self.evaluate_lanes(group, &mut out);
                    span.field_u64("tables", group.len() as u64);
                    span.field_u64("nodes", self.slots.len() as u64);
                    span.finish();
                }
            }
            out
        };
        if threads == 1 {
            return eval_chunk(tables);
        }
        let chunk = tables.len().div_ceil(threads);
        let mut out: Vec<Vec<f64>> = Vec::with_capacity(tables.len());
        std::thread::scope(|s| {
            let handles: Vec<_> = tables
                .chunks(chunk)
                .map(|part| s.spawn(|| eval_chunk(part)))
                .collect();
            for h in handles {
                out.extend(h.join().expect("sweep evaluation worker panicked"));
            }
        });
        out
    }

    /// Per-table `(sum, min, max)` folded over the slot indices in `seq`,
    /// in the given order — bit-identical to running the same left fold
    /// over [`CompiledSweep::evaluate`]'s vector, but without
    /// materializing any node-length row. This is the serve warm path's
    /// summary evaluation: at ~100k nodes it avoids writing and re-reading
    /// ~1.6 MB of per-node AVFs per table, which otherwise dominates the
    /// resident request cost.
    pub fn evaluate_seq_stats_traced(
        &self,
        tables: &[PavfInputs],
        seq: &[usize],
        threads: usize,
        obs: &Collector,
    ) -> Vec<SeqStats> {
        let threads = threads.max(1).min(tables.len().max(1));
        let eval_chunk = |part: &[PavfInputs]| {
            let mut out: Vec<SeqStats> = Vec::with_capacity(part.len());
            let mut scratch = EvalScratch::default();
            for group in part.chunks(MAX_LANES) {
                if group.len() == 1 {
                    let mut span = obs.span("sweep.eval");
                    self.eval_ops(&group[0], &mut scratch);
                    let mut st = SeqStats::IDENTITY;
                    for &i in seq {
                        st.fold(self.slot_value(self.slots[i], &scratch));
                    }
                    span.field_u64("nodes", seq.len() as u64);
                    span.finish();
                    out.push(st);
                } else {
                    let mut span = obs.span("sweep.eval_batch");
                    let k = group.len();
                    let ops = self.lane_ops(group);
                    let mut stats = [SeqStats::IDENTITY; MAX_LANES];
                    let mut lane_vals = [0.0f64; MAX_LANES];
                    for &i in seq {
                        self.lane_slot_values(self.slots[i], &ops, &mut lane_vals);
                        for (st, &v) in stats[..k].iter_mut().zip(&lane_vals[..k]) {
                            st.fold(v);
                        }
                    }
                    span.field_u64("tables", k as u64);
                    span.field_u64("nodes", seq.len() as u64);
                    span.finish();
                    out.extend_from_slice(&stats[..k]);
                }
            }
            out
        };
        if threads == 1 {
            return eval_chunk(tables);
        }
        let chunk = tables.len().div_ceil(threads);
        let mut out: Vec<SeqStats> = Vec::with_capacity(tables.len());
        std::thread::scope(|s| {
            let handles: Vec<_> = tables
                .chunks(chunk)
                .map(|part| s.spawn(|| eval_chunk(part)))
                .collect();
            for h in handles {
                out.extend(h.join().expect("sweep evaluation worker panicked"));
            }
        });
        out
    }

    // -----------------------------------------------------------------
    // Artifact serialization (the sweep cache's on-disk format)
    // -----------------------------------------------------------------

    /// Serializes the compiled DAG to the sealed `seqavf-sweep/3`
    /// artifact. The configuration is stored as its
    /// [`SartConfig::result_key`], so an artifact written at one thread
    /// count (or with incremental relaxation toggled) loads under any
    /// other — those fields never change the result.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = SWEEP_MAGIC.to_vec();

        let mut p = Vec::new();
        put_str(&mut p, &self.config.result_key());
        put_varint(&mut p, self.arena_sets as u64);
        put_section(&mut out, SEC_META, &p);

        let mut p = Vec::new();
        put_terms(&mut p, self.terms.iter().map(|(_, kind)| kind));
        put_section(&mut out, SEC_TERMS, &p);

        // SUMS: each op's term count, then its term ids delta-coded
        // (ascending, so the gaps are small).
        let mut p = Vec::with_capacity(self.sum_terms.len() + self.sum_bounds.len());
        put_varint(&mut p, (self.sum_bounds.len() - 1) as u64);
        for w in self.sum_bounds.windows(2) {
            put_varint(&mut p, u64::from(w[1] - w[0]));
            let mut prev = 0;
            for &t in &self.sum_terms[w[0] as usize..w[1] as usize] {
                put_delta(&mut p, prev, t as usize);
                prev = t as usize;
            }
        }
        put_section(&mut out, SEC_SUMS, &p);

        // MINS: operand sum ids delta-coded along the operand stream —
        // ops are lowered in node order, so operands are mostly recent.
        let mut p = Vec::with_capacity(self.mins.len() * 2);
        put_varint(&mut p, self.mins.len() as u64);
        let mut prev = 0;
        for &(a, b) in &self.mins {
            for s in [a as usize, b as usize] {
                put_delta(&mut p, prev, s);
                prev = s;
            }
        }
        put_section(&mut out, SEC_MINS, &p);

        let mut p = Vec::new();
        put_varint(&mut p, self.perf_names.len() as u64);
        for name in &self.perf_names {
            put_str(&mut p, name);
        }
        put_section(&mut out, SEC_PERF, &p);

        // SLOTS: per node a kind byte, then a MIN id delta-coded against
        // the previous slot's (neighbouring nodes mostly share or create
        // adjacent MIN ops) and a struct cell's perf id, delta-coded
        // likewise (a structure's cells are consecutive nodes).
        let mut p = Vec::with_capacity(self.slots.len() * 2);
        put_varint(&mut p, self.slots.len() as u64);
        let (mut prev_min, mut prev_perf) = (0, 0);
        for &slot in &self.slots {
            match slot {
                Slot::Min(m) => {
                    p.push(SLOT_MIN);
                    put_delta(&mut p, prev_min, m as usize);
                    prev_min = m as usize;
                }
                Slot::Ctrl => p.push(SLOT_CTRL),
                Slot::Loop => p.push(SLOT_LOOP),
                Slot::Struct { perf, min } => {
                    p.push(SLOT_STRUCT);
                    put_delta(&mut p, prev_min, min as usize);
                    put_delta(&mut p, prev_perf, perf as usize);
                    (prev_min, prev_perf) = (min as usize, perf as usize);
                }
            }
        }
        put_section(&mut out, SEC_SLOTS, &p);

        seal(&mut out);
        out
    }

    /// Parses and validates a sealed `seqavf-sweep/3` artifact. The caller
    /// supplies the configuration it expects (the cache key binds it); a
    /// stored artifact whose *result key* differs is rejected, while
    /// execution-only fields (`threads`, `incremental`) may differ freely.
    /// The checksum is verified before any section is parsed, terms must
    /// be in interning order without duplicates, every index is bounds
    /// checked and trailing bytes are rejected — a corrupt artifact yields
    /// `Err`, never a panic or an out-of-range evaluator.
    pub fn decode(bytes: &[u8], config: &SartConfig) -> Result<CompiledSweep, SnapshotError> {
        let mut top = Cursor::new(open_sealed(bytes, SWEEP_MAGIC, SWEEP_MAGIC_FAMILY)?);

        let mut c = top.section(SEC_META)?;
        if c.string()? != config.result_key() {
            return Err(SnapshotError::ResultKeyMismatch);
        }
        let arena_sets = usize::try_from(c.varint()?).map_err(|_| SnapshotError::BadIndex)?;
        c.end()?;

        let mut c = top.section(SEC_TERMS)?;
        let mut terms = TermTable::new();
        for (k, kind) in read_terms(&mut c)?.into_iter().enumerate() {
            if terms.intern(kind).index() != k {
                // A duplicate or misordered term would renumber the table.
                return Err(SnapshotError::BadIndex);
            }
        }
        c.end()?;

        let mut c = top.section(SEC_SUMS)?;
        let n_sums = c.count()?;
        let mut sum_terms: Vec<u32> = Vec::with_capacity(c.remaining());
        let mut sum_bounds: Vec<u32> = Vec::with_capacity(n_sums + 1);
        sum_bounds.push(0);
        for _ in 0..n_sums {
            let mut prev = 0;
            for _ in 0..c.count()? {
                prev = c.delta_index(prev, terms.len())?;
                sum_terms.push(prev as u32);
            }
            sum_bounds.push(u32::try_from(sum_terms.len()).map_err(|_| SnapshotError::BadIndex)?);
        }
        c.end()?;

        let mut c = top.section(SEC_MINS)?;
        let n_mins = c.count()?;
        let mut mins = Vec::with_capacity(n_mins);
        let mut prev = 0;
        for _ in 0..n_mins {
            let a = c.delta_index(prev, n_sums)?;
            prev = c.delta_index(a, n_sums)?;
            mins.push((a as u32, prev as u32));
        }
        c.end()?;

        let mut c = top.section(SEC_PERF)?;
        let n_perf = c.count()?;
        let mut perf_names = Vec::with_capacity(n_perf);
        for _ in 0..n_perf {
            perf_names.push(c.string()?);
        }
        c.end()?;

        let mut c = top.section(SEC_SLOTS)?;
        let n_slots = c.count()?;
        let mut slots = Vec::with_capacity(n_slots);
        let (mut prev_min, mut prev_perf) = (0, 0);
        for _ in 0..n_slots {
            slots.push(match c.u8()? {
                SLOT_MIN => {
                    prev_min = c.delta_index(prev_min, n_mins)?;
                    Slot::Min(prev_min as u32)
                }
                SLOT_CTRL => Slot::Ctrl,
                SLOT_LOOP => Slot::Loop,
                SLOT_STRUCT => {
                    prev_min = c.delta_index(prev_min, n_mins)?;
                    prev_perf = c.delta_index(prev_perf, n_perf)?;
                    Slot::Struct {
                        perf: prev_perf as u32,
                        min: prev_min as u32,
                    }
                }
                _ => return Err(SnapshotError::BadIndex),
            });
        }
        c.end()?;
        top.end()?;

        Ok(CompiledSweep {
            config: config.clone(),
            terms,
            sum_terms,
            sum_bounds,
            mins,
            slots,
            perf_names,
            arena_sets,
        })
    }
}

/// Reusable evaluation buffers (one per worker thread).
#[derive(Debug, Default)]
struct EvalScratch {
    sums: Vec<f64>,
    mins: Vec<f64>,
    struct_avfs: Vec<Option<f64>>,
}

/// Lane-interleaved op results shared by the batched gather paths: entry
/// `op * k + lane` is `op`'s value for table `lane`.
struct LaneOps {
    k: usize,
    mins: Vec<f64>,
    struct_avfs: Vec<Option<f64>>,
}

/// One workload's summary fold over the sequential slots, as produced by
/// [`CompiledSweep::evaluate_seq_stats_traced`]. The fold is the sweep
/// driver's: left fold in the caller's index order, `sum` seeded with
/// `+0.0`, `min`/`max` with the infinities (so an empty index set yields
/// the identities — callers map that to their own empty-row convention).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeqStats {
    /// Running sum of sequential-node AVFs.
    pub sum: f64,
    /// Lowest sequential-node AVF (`f64::INFINITY` when empty).
    pub min: f64,
    /// Highest sequential-node AVF (`f64::NEG_INFINITY` when empty).
    pub max: f64,
}

impl SeqStats {
    /// The fold identity.
    pub const IDENTITY: SeqStats = SeqStats {
        sum: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };

    /// Folds one node's AVF in — the exact `+=`/`min`/`max` sequence the
    /// sweep driver applies to materialized rows.
    #[inline]
    pub fn fold(&mut self, v: f64) {
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::TermKind;
    use crate::engine::SartEngine;
    use crate::mapping::StructureMapping;
    use seqavf_netlist::flatten::parse_netlist;

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

    fn compiled_fig7() -> (Netlist, SartResult, CompiledSweep) {
        let nl = parse_netlist(FIGURE7).unwrap();
        let engine = SartEngine::new(&nl, &StructureMapping::new(), SartConfig::default());
        let result = engine.run(&fig7_inputs());
        let compiled = CompiledSweep::compile(&result, &nl);
        (nl, result, compiled)
    }

    #[test]
    fn unedited_patch_is_the_identity() {
        let (nl, result, compiled) = compiled_fig7();
        let layout: Vec<(&str, usize)> = vec![("f", nl.node_count())];
        let clean = vec![true; nl.fub_count()];
        let (patched, st) = compiled.patch(&result, &nl, &layout, &clean).unwrap();
        assert_eq!(st.slots_retained, nl.node_count());
        assert_eq!(st.slots_relowered, 0);
        assert_eq!(st.ops_added, 0);
        assert_eq!(st.ops_orphaned, 0);
        assert_eq!(st.nodes_patched(), 0);
        // Nothing moved, so the patched artifact is byte-identical.
        assert_eq!(patched, compiled);
        assert_eq!(patched.encode(), compiled.encode());
    }

    #[test]
    fn all_dirty_patch_reproduces_a_cold_compile_exactly() {
        let (nl, result, compiled) = compiled_fig7();
        let layout: Vec<(&str, usize)> = vec![("f", nl.node_count())];
        let clean = vec![false; nl.fub_count()];
        let (patched, st) = compiled.patch(&result, &nl, &layout, &clean).unwrap();
        assert_eq!(st.slots_retained, 0);
        assert_eq!(st.ops_retained, 0);
        assert_eq!(st.slots_relowered, nl.node_count());
        // Every old op is orphaned, every new op freshly lowered — and
        // fresh lowering in node order is exactly what compile does.
        assert_eq!(patched, compiled);
    }

    #[test]
    fn patched_artifact_roundtrips() {
        let (nl, result, compiled) = compiled_fig7();
        let layout: Vec<(&str, usize)> = vec![("f", nl.node_count())];
        let clean = vec![true; nl.fub_count()];
        let (patched, _) = compiled.patch(&result, &nl, &layout, &clean).unwrap();
        let bytes = patched.encode();
        let back = CompiledSweep::decode(&bytes, &result.config).unwrap();
        assert_eq!(back, patched);
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn patch_rejects_a_result_key_mismatch() {
        let (nl, _, compiled) = compiled_fig7();
        let other = SartConfig {
            loop_pavf: 0.45,
            ..SartConfig::default()
        };
        let engine = SartEngine::new(&nl, &StructureMapping::new(), other);
        let result = engine.run(&fig7_inputs());
        let layout: Vec<(&str, usize)> = vec![("f", nl.node_count())];
        let clean = vec![true; nl.fub_count()];
        assert!(compiled.patch(&result, &nl, &layout, &clean).is_err());
    }

    #[test]
    fn compiled_matches_interpreter_bitwise() {
        let (nl, result, compiled) = compiled_fig7();
        let mut tables = vec![fig7_inputs(), PavfInputs::new()];
        let mut varied = fig7_inputs();
        varied.set_port("f.s1", 0.31, 0.07);
        varied.set_structure_avf("f.s2", 0.42);
        tables.push(varied);
        for (k, t) in tables.iter().enumerate() {
            let fast = compiled.evaluate(t);
            let slow = result.reevaluate(&nl, t);
            assert_eq!(fast.len(), slow.len());
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "table {k}, node {i}");
            }
        }
    }

    #[test]
    fn evaluate_many_matches_evaluate() {
        let (_, _, compiled) = compiled_fig7();
        let tables: Vec<PavfInputs> = (0..7)
            .map(|k| {
                let mut p = fig7_inputs();
                p.set_port("f.s1", 0.05 * (k + 1) as f64, 0.4);
                p
            })
            .collect();
        let batch = compiled.evaluate_many(&tables, 3);
        assert_eq!(batch.len(), tables.len());
        for (k, t) in tables.iter().enumerate() {
            assert_eq!(batch[k], compiled.evaluate(t), "workload {k}");
        }
    }

    /// The lane evaluator must be bit-identical to scalar evaluation at
    /// every chunk shape: full 16-lane groups, a multi-table remainder,
    /// and a single-table remainder (which takes the scalar path), with
    /// tables that do and don't carry struct-AVF overrides.
    #[test]
    fn lane_batches_match_scalar_bitwise_across_chunk_boundaries() {
        let (_, _, compiled) = compiled_fig7();
        for count in [2usize, MAX_LANES, MAX_LANES + 1, 2 * MAX_LANES + 3] {
            let tables: Vec<PavfInputs> = (0..count)
                .map(|k| {
                    let mut p = fig7_inputs();
                    p.set_port("f.s1", 0.01 * (k + 1) as f64, 0.4);
                    if k % 3 == 0 {
                        p.set_structure_avf("f.s3", 0.2 + 0.01 * k as f64);
                    }
                    p
                })
                .collect();
            for threads in [1usize, 2] {
                let batch = compiled.evaluate_many(&tables, threads);
                assert_eq!(batch.len(), tables.len());
                for (k, t) in tables.iter().enumerate() {
                    let scalar = compiled.evaluate(t);
                    assert_eq!(batch[k].len(), scalar.len());
                    for (i, (a, b)) in batch[k].iter().zip(&scalar).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "count {count}, threads {threads}, table {k}, node {i}"
                        );
                    }
                }
            }
        }
    }

    /// The summary fold must be bit-identical to materializing the row
    /// and folding it, at scalar and lane-batch chunk shapes alike.
    #[test]
    fn seq_stats_match_materialized_fold_bitwise() {
        let (nl, _, compiled) = compiled_fig7();
        let seq: Vec<usize> = nl.seq_nodes().map(|id| id.index()).collect();
        for count in [1usize, 2, MAX_LANES + 1] {
            let tables: Vec<PavfInputs> = (0..count)
                .map(|k| {
                    let mut p = fig7_inputs();
                    p.set_port("f.s1", 0.02 * (k + 1) as f64, 0.4);
                    p
                })
                .collect();
            let obs = Collector::disabled();
            let stats = compiled.evaluate_seq_stats_traced(&tables, &seq, 2, &obs);
            assert_eq!(stats.len(), tables.len());
            for (k, t) in tables.iter().enumerate() {
                let row = compiled.evaluate(t);
                let mut want = SeqStats::IDENTITY;
                for &i in &seq {
                    want.fold(row[i]);
                }
                assert_eq!(stats[k].sum.to_bits(), want.sum.to_bits(), "table {k}");
                assert_eq!(stats[k].min.to_bits(), want.min.to_bits(), "table {k}");
                assert_eq!(stats[k].max.to_bits(), want.max.to_bits(), "table {k}");
            }
        }
    }

    #[test]
    fn dag_is_deduplicated() {
        let (nl, result, compiled) = compiled_fig7();
        let st = compiled.stats();
        assert_eq!(st.nodes, nl.node_count());
        // The DAG only lowers live sets; the arena holds at least as many.
        assert!(st.sum_ops <= st.arena_sets, "{st:?}");
        // MIN ops are shared: never more than one per node, and strictly
        // fewer here because struct cells of one structure share pairs.
        assert!(st.min_ops <= st.nodes);
        assert_eq!(st.arena_sets, result.arena.len());
    }

    #[test]
    fn artifact_roundtrips_bitwise() {
        let (_, _, compiled) = compiled_fig7();
        let bytes = compiled.encode();
        let back = CompiledSweep::decode(&bytes, compiled.config()).unwrap();
        assert_eq!(back, compiled);
        // Re-encoding is byte-stable.
        assert_eq!(back.encode(), bytes);
        let inputs = fig7_inputs();
        let a = compiled.evaluate(&inputs);
        let b = back.evaluate(&inputs);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn artifact_loads_across_execution_strategy_changes() {
        // threads/incremental are not part of the result key: an artifact
        // written under one setting decodes under any other and evaluates
        // bit-identically.
        let (_, _, compiled) = compiled_fig7();
        let bytes = compiled.encode();
        let exec_only = SartConfig {
            threads: 8,
            incremental: !compiled.config().incremental,
            ..compiled.config().clone()
        };
        let back = CompiledSweep::decode(&bytes, &exec_only)
            .expect("execution-only config changes must not reject the artifact");
        let inputs = fig7_inputs();
        for (x, y) in compiled
            .evaluate(&inputs)
            .iter()
            .zip(&back.evaluate(&inputs))
        {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn artifact_rejects_a_result_key_mismatch() {
        let (_, _, compiled) = compiled_fig7();
        let other = SartConfig {
            loop_pavf: 0.9,
            ..SartConfig::default()
        };
        assert_eq!(
            CompiledSweep::decode(&compiled.encode(), &other),
            Err(SnapshotError::ResultKeyMismatch)
        );
    }

    #[test]
    fn artifact_rejects_every_truncation() {
        let (_, _, compiled) = compiled_fig7();
        let bytes = compiled.encode();
        for cut in 0..bytes.len() {
            assert!(
                CompiledSweep::decode(&bytes[..cut], compiled.config()).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    /// The checksum catches every single-bit flip — each block step of
    /// `WideFnv64` is a bijection, so any one-byte change alters the
    /// digest — and a flip inside the magic fails the magic check.
    #[test]
    fn artifact_rejects_every_single_bit_flip() {
        let (_, _, compiled) = compiled_fig7();
        let bytes = compiled.encode();
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= 1 << bit;
                assert!(
                    CompiledSweep::decode(&corrupt, compiled.config()).is_err(),
                    "flip of bit {bit} at byte {pos} accepted"
                );
            }
        }
    }

    /// Indices past their section's count must reach the bounds checks:
    /// `encode` writes whatever the DAG holds and re-seals it, so these
    /// forged artifacts pass the checksum.
    #[test]
    fn artifact_rejects_out_of_range_indices() {
        let (_, _, compiled) = compiled_fig7();
        let n_terms = compiled.terms.len() as u32;
        let n_sums = (compiled.sum_bounds.len() - 1) as u32;
        let n_mins = compiled.mins.len() as u32;
        let n_perf = compiled.perf_names.len() as u32;
        assert!(n_perf > 0, "struct-slot forgeries need a valid perf id");
        let forge = |what: &str, edit: &dyn Fn(&mut CompiledSweep)| {
            let mut bad = compiled.clone();
            edit(&mut bad);
            assert_eq!(
                CompiledSweep::decode(&bad.encode(), compiled.config()),
                Err(SnapshotError::BadIndex),
                "{what} past its section's count accepted"
            );
        };
        forge("sum term id", &|c| c.sum_terms[0] = n_terms);
        forge("MIN operand", &|c| c.mins[0].1 = n_sums);
        forge("MIN slot", &|c| c.slots[0] = Slot::Min(n_mins));
        forge("struct slot MIN", &|c| {
            c.slots[0] = Slot::Struct {
                perf: 0,
                min: n_mins,
            }
        });
        forge("struct slot perf", &|c| {
            c.slots[0] = Slot::Struct {
                perf: n_perf,
                min: 0,
            }
        });
    }

    /// Re-seals `bytes` with the TERMS section's payload replaced.
    fn with_terms_section(bytes: &[u8], terms: &[u8]) -> Vec<u8> {
        let mut top = Cursor::new(open_sealed(bytes, SWEEP_MAGIC, SWEEP_MAGIC_FAMILY).unwrap());
        let mut out = SWEEP_MAGIC.to_vec();
        for tag in SEC_META..=SEC_SLOTS {
            let mut s = top.section(tag).unwrap();
            let payload = s.take(s.remaining()).unwrap();
            put_section(
                &mut out,
                tag,
                if tag == SEC_TERMS { terms } else { payload },
            );
        }
        seal(&mut out);
        out
    }

    #[test]
    fn artifact_rejects_duplicate_terms_and_trailing_bytes() {
        let (_, _, compiled) = compiled_fig7();
        let bytes = compiled.encode();
        let kinds: Vec<TermKind> = compiled.terms.iter().map(|(_, k)| k.clone()).collect();
        // The forging helper itself round-trips an untouched section.
        let mut p = Vec::new();
        put_terms(&mut p, kinds.iter());
        assert_eq!(with_terms_section(&bytes, &p), bytes);
        // A duplicated term would renumber every later one.
        let mut dup = kinds.clone();
        dup.insert(1, kinds[1].clone());
        let mut p = Vec::new();
        put_terms(&mut p, dup.iter());
        assert_eq!(
            CompiledSweep::decode(&with_terms_section(&bytes, &p), compiled.config()),
            Err(SnapshotError::BadIndex)
        );
        // A byte after the section's last field is rejected.
        let mut p = Vec::new();
        put_terms(&mut p, kinds.iter());
        p.push(0);
        assert_eq!(
            CompiledSweep::decode(&with_terms_section(&bytes, &p), compiled.config()),
            Err(SnapshotError::BadIndex)
        );
    }
}
