//! Compilation of resolved closed forms into a flat, CSE-deduplicated
//! term DAG — the engine behind the multi-workload sweep (§5.2).
//!
//! [`SartResult::reevaluate`] is already the paper's "plug new pAVFs into
//! the closed form equations" fast path, but it *interprets* the union-set
//! structure on every call: it evaluates **every** set the relaxation ever
//! interned (many hold annotations a later sweep moved past), re-matches each
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
//! it.
//!
//! Whenever a DAG is built (compile, patch or decode) each node also gets
//! a `u32` *row id*: MIN op `m` is row `m`, and every distinct non-MIN
//! slot (the control and loop constants, each struct cell's
//! `(structure, MIN)` pair) one row after the MIN ops. Evaluation is one
//! kernel, generic over its lane width `W` (1, 2, 4, 8 or 16 tables, the
//! narrowest that holds the batch): a single topological pass over the
//! flat op arrays fills one `[f64; W]` per row, with struct-cell AVF
//! overrides resolved once per distinct performance structure instead of
//! once per cell, and every consumer then reads node `i` as
//! `rows[row_of[i]]` — node rows
//! ([`CompiledSweep::evaluate_many_traced`]) and summary folds that never
//! write a node-length row ([`CompiledSweep::evaluate_seq_stats_traced`])
//! alike, with no per-node slot dispatch.
//!
//! The compiled path is **bit-identical** (`f64::to_bits`) to
//! [`SartResult::reevaluate`]: sums accumulate in the same (sorted
//! term-id) order, the cap and `MIN` use the same `f64` operations in the
//! same operand order, and overrides take the same precedence. Lanes are
//! independent, so every width gives every table the same bits. A
//! property test (`tests/compiled_equivalence.rs`) pins this contract
//! against the interpreter, against fresh relaxations and across lane
//! widths.
//!
//! [`CompiledSweep`] also serializes to a sealed binary artifact,
//! `seqavf-sweep/3` ([`CompiledSweep::encode`] / [`CompiledSweep::decode`]),
//! so the sweep cache ([`crate::sweep`]) can skip relaxation entirely on
//! repeated sweeps of the same design. It uses the container the graph
//! snapshot and the fixpoint artifact share ([`seqavf_netlist::snapshot`]),
//! with six sections: meta, terms, sums, MINs, perf names, slots.

use std::collections::HashMap;

use seqavf_netlist::graph::{Netlist, NodeId, NodeKind};
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

/// Widest lane group of the evaluator: how many workload tables one pass
/// over the ops evaluates together (a `[f64; 16]` row is two cache lines).
const MAX_LANES: usize = 16;

/// How one netlist node obtains its AVF from the evaluated DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
    /// Sets the relaxation arena held in total, including those of
    /// annotations a later sweep moved past (the compiled DAG does not
    /// evaluate them).
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
    /// Row ids, derived from `slots` and `mins` (never stored in the
    /// artifact, so equal DAGs have equal rows).
    rows: RowIds,
}

/// The evaluator's row layout: MIN op `m` is row `m`, and each distinct
/// non-MIN slot one row after the MIN ops, in order of first appearance.
#[derive(Debug, Clone, PartialEq)]
struct RowIds {
    /// Row id of every node, indexed by `NodeId::index`.
    of: Vec<u32>,
    /// The slot of row `mins.len() + k`: never a `Slot::Min`.
    extra: Vec<Slot>,
}

impl RowIds {
    fn derive(slots: &[Slot], n_mins: usize) -> RowIds {
        let mut extra: Vec<Slot> = Vec::new();
        let mut index: HashMap<Slot, u32> = HashMap::new();
        // A structure's cells are consecutive nodes and mostly share one
        // slot, so the last non-MIN slot answers most lookups unhashed.
        let mut last: Option<(Slot, u32)> = None;
        let mut of = Vec::with_capacity(slots.len());
        for &slot in slots {
            of.push(match (slot, last) {
                (Slot::Min(m), _) => m,
                (slot, Some((seen, row))) if seen == slot => row,
                (slot, _) => {
                    let row = *index.entry(slot).or_insert_with(|| {
                        extra.push(slot);
                        u32::try_from(n_mins + extra.len() - 1).expect("row count fits u32")
                    });
                    last = Some((slot, row));
                    row
                }
            });
        }
        RowIds { of, extra }
    }
}

/// The per-node lowering shared by compile and patch: the ops emitted so
/// far and the content maps that dedupe them (a live set to its sum op,
/// an `(F, B)` pair to its MIN op, a performance name to its index).
/// Compile starts it empty; patch seeds it with the ops it retains.
struct Lowering<'r> {
    result: &'r SartResult,
    sum_terms: Vec<u32>,
    sum_bounds: Vec<u32>,
    sum_index: HashMap<SetId, u32>,
    mins: Vec<(u32, u32)>,
    min_index: HashMap<(SetId, SetId), u32>,
    perf_names: Vec<String>,
    perf_index: HashMap<String, u32>,
    slots: Vec<Slot>,
}

impl<'r> Lowering<'r> {
    fn new(result: &'r SartResult, nodes: usize) -> Lowering<'r> {
        Lowering {
            result,
            sum_terms: Vec::new(),
            sum_bounds: vec![0],
            sum_index: HashMap::new(),
            mins: Vec::new(),
            min_index: HashMap::new(),
            perf_names: Vec::new(),
            perf_index: HashMap::new(),
            slots: Vec::with_capacity(nodes),
        }
    }

    /// The sum op of set `s`, lowered on first sight.
    fn sum(&mut self, s: SetId) -> u32 {
        let Lowering {
            result,
            sum_terms,
            sum_bounds,
            sum_index,
            ..
        } = self;
        *sum_index.entry(s).or_insert_with(|| {
            let k = sum_bounds.len() - 1;
            sum_terms.extend(result.arena.terms(s).iter().map(|t| t.index() as u32));
            sum_bounds.push(sum_terms.len() as u32);
            u32::try_from(k).expect("sum op count fits u32")
        })
    }

    /// The index of performance name `name`, added on first sight.
    fn perf(&mut self, name: &str) -> u32 {
        if let Some(&k) = self.perf_index.get(name) {
            return k;
        }
        self.perf_names.push(name.to_owned());
        let k = u32::try_from(self.perf_names.len() - 1).expect("perf count fits u32");
        self.perf_index.insert(name.to_owned(), k);
        k
    }

    /// Lowers node `id` of the result and appends its slot.
    fn node(&mut self, nl: &Netlist, id: NodeId) {
        let i = id.index();
        let slot = match self.result.roles.role(id) {
            NodeRole::ControlReg => Slot::Ctrl,
            NodeRole::LoopSeq => Slot::Loop,
            role => {
                let pair = (self.result.fwd[i], self.result.bwd[i]);
                let min = match self.min_index.get(&pair) {
                    Some(&m) => m,
                    None => {
                        let a = self.sum(pair.0);
                        let b = self.sum(pair.1);
                        self.mins.push((a, b));
                        let m = u32::try_from(self.mins.len() - 1).expect("min op count fits u32");
                        self.min_index.insert(pair, m);
                        m
                    }
                };
                if role == NodeRole::StructCell {
                    let NodeKind::StructCell { structure, .. } = nl.kind(id) else {
                        unreachable!("role implies kind");
                    };
                    let perf = self.perf(&self.result.struct_perf_names[structure.index()]);
                    Slot::Struct { perf, min }
                } else {
                    Slot::Min(min)
                }
            }
        };
        self.slots.push(slot);
    }

    fn finish(self) -> CompiledSweep {
        CompiledSweep {
            config: self.result.config.clone(),
            terms: self.result.terms.clone(),
            sum_terms: self.sum_terms,
            sum_bounds: self.sum_bounds,
            rows: RowIds::derive(&self.slots, self.mins.len()),
            mins: self.mins,
            slots: self.slots,
            perf_names: self.perf_names,
            arena_sets: self.result.arena.len(),
        }
    }
}

impl CompiledSweep {
    /// Lowers a resolved [`SartResult`] into the compiled DAG, recording
    /// one `sweep.compile` span carrying the sharing statistics.
    pub fn compile_traced(result: &SartResult, nl: &Netlist, obs: &Collector) -> CompiledSweep {
        let mut span = obs.span("sweep.compile");
        let mut lower = Lowering::new(result, nl.node_count());
        for id in nl.nodes() {
            lower.node(nl, id);
        }
        let compiled = lower.finish();
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
    /// edited design) into the DAG of the new revision, re-lowering only
    /// the dirty cone instead of recompiling it from scratch; one
    /// `sweep.patch` span carries the [`PatchStats`].
    ///
    /// `self` is the DAG compiled for the previous revision; `result` is
    /// the new revision's warm-relaxed result; `old_fubs` is the previous
    /// revision's FUB layout (name and node count, in FUB-id order, as
    /// recorded by the `seqavf-fixpoint/2` artifact); `clean` marks the
    /// new FUBs whose annotations the warm solve left exactly at the
    /// seeded values ([`crate::engine::SartEngine::run_warm_start_traced`]).
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
    /// [`CompiledSweep::compile_traced`] of `result`: retained sums hold
    /// exactly the term list (in sorted new-term-id order) a cold lower
    /// would emit, MIN operand order is preserved, and dirty slots run the
    /// cold path verbatim. Any violated precondition — layout mismatch, a
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

        // Phase 2 — compact: copy the live ops in old-index order into
        // the lowering, remapping term ids when the term table changed.
        // Dead ops are simply not copied (tombstone + compact in one pass).
        let mut lower = Lowering::new(result, nl.node_count());
        let mut sum_remap: Vec<u32> = vec![u32::MAX; n_old_sums];
        for s in 0..n_old_sums {
            let Some(set) = sum_set[s] else { continue };
            let k = u32::try_from(lower.sum_bounds.len() - 1).expect("sum op count fits u32");
            let lo = self.sum_bounds[s] as usize;
            let hi = self.sum_bounds[s + 1] as usize;
            if same_terms {
                lower.sum_terms.extend_from_slice(&self.sum_terms[lo..hi]);
            } else {
                let start = lower.sum_terms.len();
                for &t in &self.sum_terms[lo..hi] {
                    lower.sum_terms.push(
                        tmap[t as usize].ok_or("live sum references a term the edit removed")?,
                    );
                }
                // Sums fold in sorted term-id order; re-sort under the
                // new ids so the fold order matches a cold compile.
                lower.sum_terms[start..].sort_unstable();
            }
            lower.sum_bounds.push(lower.sum_terms.len() as u32);
            sum_remap[s] = k;
            lower.sum_index.insert(set, k);
        }
        let retained_sums = lower.sum_bounds.len() - 1;

        let mut min_remap: Vec<u32> = vec![u32::MAX; self.mins.len()];
        for m in 0..self.mins.len() {
            let Some(pair) = min_pair[m] else { continue };
            let (a, b) = self.mins[m];
            lower
                .mins
                .push((sum_remap[a as usize], sum_remap[b as usize]));
            let k = u32::try_from(lower.mins.len() - 1).expect("min op count fits u32");
            min_remap[m] = k;
            lower.min_index.insert(pair, k);
        }
        let retained_mins = lower.mins.len();
        let ops_retained = retained_sums + retained_mins;
        let ops_orphaned = (n_old_sums - retained_sums) + (self.mins.len() - retained_mins);

        // Orphaned performance names are kept: they cost one map lookup
        // per evaluation and vanish on the next full compile, while
        // compacting them would force a slot rewrite of every retained
        // struct cell.
        lower.perf_names = self.perf_names.clone();
        lower.perf_index = (0u32..)
            .zip(&self.perf_names)
            .map(|(k, name)| (name.clone(), k))
            .collect();

        // Phase 3 — lower: emit slots in node-id order. Clean FUBs
        // relocate their old slots through the compaction remaps; dirty
        // FUBs run the cold compile's per-node lowering against the new
        // result, deduping into the retained ops via the content maps.
        let mut slots_relowered = 0usize;
        for f in nl.fub_ids() {
            let nodes = &fub_nodes[f.index()];
            if clean[f.index()] {
                let (base, _) = old_base[nl.fub_name(f)];
                for k in 0..nodes.len() {
                    lower.slots.push(match self.slots[base + k] {
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
            for &id in nodes {
                lower.node(nl, id);
            }
            slots_relowered += nodes.len();
        }

        let ops_added =
            (lower.sum_bounds.len() - 1 - retained_sums) + (lower.mins.len() - retained_mins);
        Ok((
            lower.finish(),
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
    /// Records one `sweep.eval` span.
    pub fn evaluate_traced(&self, inputs: &PavfInputs, obs: &Collector) -> Vec<f64> {
        let mut rows = self.eval_batches(std::slice::from_ref(inputs), 1, obs, &NodeRows);
        rows.pop().expect("one table, one row")
    }

    /// Evaluates a batch of workload tables, fanned out over `threads`
    /// scoped workers. Output order matches the input order; each entry is
    /// exactly [`CompiledSweep::evaluate_traced`] of `tables[k]` bit for
    /// bit (lanes are independent, so the width a table is evaluated at
    /// never shows). A one-table group records a `sweep.eval` span, a
    /// wider one a `sweep.eval_batch` span (workers share the collector).
    pub fn evaluate_many_traced(
        &self,
        tables: &[PavfInputs],
        threads: usize,
        obs: &Collector,
    ) -> Vec<Vec<f64>> {
        self.eval_batches(tables, threads, obs, &NodeRows)
    }

    /// Per-table `(sum, min, max)` folded over the node indices in `seq`,
    /// in the given order — bit-identical to running [`SeqStats::fold`]
    /// over [`CompiledSweep::evaluate_traced`]'s vector, but without
    /// writing any node-length row: each node reads its lanes straight out
    /// of the row matrix. This is the summary evaluation of the sweep driver and
    /// of the server's warm path; at ~100k nodes a 16-table batch would
    /// otherwise write and re-read ~13 MB of per-node AVFs.
    pub fn evaluate_seq_stats_traced(
        &self,
        tables: &[PavfInputs],
        seq: &[usize],
        threads: usize,
        obs: &Collector,
    ) -> Vec<SeqStats> {
        self.eval_batches(tables, threads, obs, &SeqFold(seq))
    }

    /// Splits `tables` over `threads` scoped workers, and each worker's
    /// share into groups of at most [`MAX_LANES`], one span per group.
    fn eval_batches<G: Gather>(
        &self,
        tables: &[PavfInputs],
        threads: usize,
        obs: &Collector,
        gather: &G,
    ) -> Vec<G::Out> {
        let threads = threads.max(1).min(tables.len().max(1));
        let eval_chunk = |part: &[PavfInputs]| {
            let mut out: Vec<G::Out> = Vec::with_capacity(part.len());
            for group in part.chunks(MAX_LANES) {
                let mut span = if group.len() == 1 {
                    obs.span("sweep.eval")
                } else {
                    let mut span = obs.span("sweep.eval_batch");
                    span.field_u64("tables", group.len() as u64);
                    span
                };
                self.eval_group(group, gather, &mut out);
                span.field_u64("nodes", gather.nodes(self) as u64);
                span.finish();
            }
            out
        };
        if threads == 1 {
            return eval_chunk(tables);
        }
        let chunk = tables.len().div_ceil(threads);
        let mut out: Vec<G::Out> = Vec::with_capacity(tables.len());
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

    /// Evaluates one group of at most [`MAX_LANES`] tables at the
    /// narrowest lane width that holds it, so a small batch never pays
    /// for sixteen lanes.
    fn eval_group<G: Gather>(&self, group: &[PavfInputs], gather: &G, out: &mut Vec<G::Out>) {
        match group.len() {
            1 => gather.gather(self, &self.eval_rows::<1>(group), 1, out),
            2 => gather.gather(self, &self.eval_rows::<2>(group), 2, out),
            k @ 3..=4 => gather.gather(self, &self.eval_rows::<4>(group), k, out),
            k @ 5..=8 => gather.gather(self, &self.eval_rows::<8>(group), k, out),
            k => gather.gather(self, &self.eval_rows::<MAX_LANES>(group), k, out),
        }
    }

    /// The kernel: one topological pass over the ops fills every row id's
    /// value for each of the `tables.len() <= W` lanes. Lanes past the
    /// last table evaluate an all-zero term table and are never read.
    fn eval_rows<const W: usize>(&self, tables: &[PavfInputs]) -> Vec<[f64; W]> {
        debug_assert!(!tables.is_empty() && tables.len() <= W);
        // Term values, term-major so each op reads its lanes contiguously.
        let mut vt = vec![[0.0f64; W]; self.terms.len()];
        for (lane, t) in tables.iter().enumerate() {
            for (v, x) in vt.iter_mut().zip(term_values(&self.terms, t, &self.config)) {
                v[lane] = x;
            }
        }
        // Same accumulation as `UnionArena::eval`: sorted term ids, a left
        // fold from `Iterator::sum::<f64>`'s `-0.0` (which an empty sum
        // returns), then the cap.
        let sums: Vec<[f64; W]> = self
            .sum_bounds
            .windows(2)
            .map(|w| {
                let mut acc = [-0.0f64; W];
                for &t in &self.sum_terms[w[0] as usize..w[1] as usize] {
                    let tv = &vt[t as usize];
                    for l in 0..W {
                        acc[l] += tv[l];
                    }
                }
                acc.map(|s| s.min(1.0))
            })
            .collect();
        let mut rows: Vec<[f64; W]> = Vec::with_capacity(self.mins.len() + self.rows.extra.len());
        rows.extend(self.mins.iter().map(|&(a, b)| {
            let (a, b) = (&sums[a as usize], &sums[b as usize]);
            std::array::from_fn(|l| a[l].min(b[l]))
        }));
        // Struct-cell overrides: one map lookup per distinct performance
        // structure and lane, not per cell.
        let struct_avfs: Vec<[Option<f64>; W]> = self
            .perf_names
            .iter()
            .map(|p| std::array::from_fn(|l| tables.get(l).and_then(|t| t.structure_avf(p))))
            .collect();
        for &slot in &self.rows.extra {
            let row = match slot {
                Slot::Ctrl => [self.config.ctrl_read_pavf; W],
                Slot::Loop => [self.config.loop_pavf; W],
                Slot::Struct { perf, min } => {
                    let (avf, min) = (&struct_avfs[perf as usize], &rows[min as usize]);
                    std::array::from_fn(|l| avf[l].unwrap_or(min[l]))
                }
                Slot::Min(_) => unreachable!("MIN slots read their op's row"),
            };
            rows.push(row);
        }
        rows
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
            rows: RowIds::derive(&slots, mins.len()),
            mins,
            slots,
            perf_names,
            arena_sets,
        })
    }
}

/// What an evaluation pass reads out of its filled row matrix.
trait Gather: Sync {
    /// One table's result.
    type Out: Send;
    /// How many node values one table reads (the spans' `nodes` field).
    fn nodes(&self, dag: &CompiledSweep) -> usize;
    /// Appends the results of lanes `0..k` of `rows`.
    fn gather<const W: usize>(
        &self,
        dag: &CompiledSweep,
        rows: &[[f64; W]],
        k: usize,
        out: &mut Vec<Self::Out>,
    );
}

/// Node rows: every node's AVF, indexed by `NodeId::index`.
struct NodeRows;

impl Gather for NodeRows {
    type Out = Vec<f64>;

    fn nodes(&self, dag: &CompiledSweep) -> usize {
        dag.rows.of.len()
    }

    fn gather<const W: usize>(
        &self,
        dag: &CompiledSweep,
        rows: &[[f64; W]],
        k: usize,
        out: &mut Vec<Vec<f64>>,
    ) {
        out.extend((0..k).map(|l| dag.rows.of.iter().map(|&r| rows[r as usize][l]).collect()));
    }
}

/// Summary folds over the node indices of `.0`, in order.
struct SeqFold<'a>(&'a [usize]);

impl Gather for SeqFold<'_> {
    type Out = SeqStats;

    fn nodes(&self, _: &CompiledSweep) -> usize {
        self.0.len()
    }

    /// [`SeqStats::fold`] in every lane, with each statistic's lanes side
    /// by side so a node's lanes fold as vectors.
    fn gather<const W: usize>(
        &self,
        dag: &CompiledSweep,
        rows: &[[f64; W]],
        k: usize,
        out: &mut Vec<SeqStats>,
    ) {
        let mut sum = [SeqStats::IDENTITY.sum; W];
        let mut min = [SeqStats::IDENTITY.min; W];
        let mut max = [SeqStats::IDENTITY.max; W];
        for &i in self.0 {
            let v = &rows[dag.rows.of[i] as usize];
            for l in 0..W {
                sum[l] += v[l];
                min[l] = lower(min[l], v[l]);
                max[l] = higher(max[l], v[l]);
            }
        }
        out.extend((0..k).map(|l| SeqStats {
            sum: sum[l],
            min: min[l],
            max: max[l],
        }));
    }
}

/// One workload's summary fold over the sequential slots, as produced by
/// [`CompiledSweep::evaluate_seq_stats_traced`]. The fold is the sweep
/// driver's: left fold in the caller's index order, `sum` seeded with
/// `+0.0`, `min`/`max` with the infinities (so an empty index set yields
/// the identities; [`SeqStats::summary`] maps that to zeros).
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

    /// Folds one node's AVF in: `sum += v`, then compare-select for the
    /// extremes — `if v < min { v } else { min }`, and `>` for `max`.
    ///
    /// Compare-select compiles to one `minpd`/`maxpd` per lane pair,
    /// where `f64::min`/`f64::max` add a NaN fix-up and a blend, and it
    /// returns their bits on x86-64: there `acc.min(v)` is lowered to
    /// `v < acc ? v : acc` plus a fix-up that fires only when the
    /// accumulator is NaN, and an accumulator that starts at ±∞ never
    /// becomes NaN (a NaN `v` compares false and leaves it unchanged).
    /// Unlike `f64::min`, which may return either of two equal zeros,
    /// compare-select keeps the accumulator on a `±0.0` tie everywhere.
    #[inline]
    pub fn fold(&mut self, v: f64) {
        self.sum += v;
        self.min = lower(self.min, v);
        self.max = higher(self.max, v);
    }

    /// `(mean, min, max)` over `count` folded nodes, or zeros when there
    /// were none: the summary row of the sweep driver and the server.
    pub fn summary(&self, count: usize) -> (f64, f64, f64) {
        if count == 0 {
            (0.0, 0.0, 0.0)
        } else {
            (self.sum / count as f64, self.min, self.max)
        }
    }
}

/// The running minimum of [`SeqStats::fold`].
#[inline(always)]
fn lower(acc: f64, v: f64) -> f64 {
    if v < acc {
        v
    } else {
        acc
    }
}

/// The running maximum of [`SeqStats::fold`].
#[inline(always)]
fn higher(acc: f64, v: f64) -> f64 {
    if v > acc {
        v
    } else {
        acc
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

    fn solve(nl: &Netlist, config: SartConfig) -> SartResult {
        let obs = Collector::disabled();
        SartEngine::new_traced(nl, &StructureMapping::new(), config, None, &obs)
            .run_traced(&fig7_inputs(), &obs)
    }

    fn compiled_fig7() -> (Netlist, SartResult, CompiledSweep) {
        let nl = parse_netlist(FIGURE7).unwrap();
        let result = solve(&nl, SartConfig::default());
        let compiled = CompiledSweep::compile_traced(&result, &nl, &Collector::disabled());
        (nl, result, compiled)
    }

    #[test]
    fn unedited_patch_is_the_identity() {
        let (nl, result, compiled) = compiled_fig7();
        let layout: Vec<(&str, usize)> = vec![("f", nl.node_count())];
        let clean = vec![true; nl.fub_count()];
        let (patched, st) = compiled
            .patch_traced(&result, &nl, &layout, &clean, &Collector::disabled())
            .unwrap();
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
        let (patched, st) = compiled
            .patch_traced(&result, &nl, &layout, &clean, &Collector::disabled())
            .unwrap();
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
        let (patched, _) = compiled
            .patch_traced(&result, &nl, &layout, &clean, &Collector::disabled())
            .unwrap();
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
        let result = solve(&nl, other);
        let layout: Vec<(&str, usize)> = vec![("f", nl.node_count())];
        let clean = vec![true; nl.fub_count()];
        assert!(compiled
            .patch_traced(&result, &nl, &layout, &clean, &Collector::disabled())
            .is_err());
    }

    #[test]
    fn compiled_matches_interpreter_bitwise() {
        let obs = Collector::disabled();
        let (nl, result, compiled) = compiled_fig7();
        let mut tables = vec![fig7_inputs(), PavfInputs::new()];
        let mut varied = fig7_inputs();
        varied.set_port("f.s1", 0.31, 0.07);
        varied.set_structure_avf("f.s2", 0.42);
        tables.push(varied);
        for (k, t) in tables.iter().enumerate() {
            let fast = compiled.evaluate_traced(t, &obs);
            let slow = result.reevaluate(&nl, t);
            assert_eq!(fast.len(), slow.len());
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "table {k}, node {i}");
            }
        }
    }

    #[test]
    fn evaluate_many_matches_evaluate() {
        let obs = Collector::disabled();
        let (_, _, compiled) = compiled_fig7();
        let tables: Vec<PavfInputs> = (0..7)
            .map(|k| {
                let mut p = fig7_inputs();
                p.set_port("f.s1", 0.05 * (k + 1) as f64, 0.4);
                p
            })
            .collect();
        let batch = compiled.evaluate_many_traced(&tables, 3, &obs);
        assert_eq!(batch.len(), tables.len());
        for (k, t) in tables.iter().enumerate() {
            assert_eq!(batch[k], compiled.evaluate_traced(t, &obs), "workload {k}");
        }
    }

    /// Every lane width must be bit-identical to one-table evaluation at
    /// every chunk shape: full 16-lane groups, groups evaluated at widths
    /// 2, 4 and 8 with padding lanes, and a single-table remainder, with
    /// tables that do and don't carry struct-AVF overrides.
    #[test]
    fn lane_batches_match_scalar_bitwise_across_chunk_boundaries() {
        let obs = Collector::disabled();
        let (_, _, compiled) = compiled_fig7();
        for count in [2usize, 3, 5, 9, MAX_LANES, MAX_LANES + 1, 2 * MAX_LANES + 3] {
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
                let batch = compiled.evaluate_many_traced(&tables, threads, &obs);
                assert_eq!(batch.len(), tables.len());
                for (k, t) in tables.iter().enumerate() {
                    let scalar = compiled.evaluate_traced(t, &obs);
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
        let obs = Collector::disabled();
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
            let stats = compiled.evaluate_seq_stats_traced(&tables, &seq, 2, &obs);
            assert_eq!(stats.len(), tables.len());
            for (k, t) in tables.iter().enumerate() {
                let row = compiled.evaluate_traced(t, &obs);
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

    /// Special operands: NaNs of both signs, both zeros, both
    /// infinities and finite values.
    const SPECIALS: [f64; 9] = [
        f64::NAN,
        -f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.25,
        -1.5,
        f64::MIN_POSITIVE,
    ];

    fn stat_bits(st: SeqStats) -> [u64; 3] {
        [st.sum.to_bits(), st.min.to_bits(), st.max.to_bits()]
    }

    /// The compare-select fold returns the bits `f64::min`/`f64::max`
    /// return on x86-64, for every pair of special operands folded from
    /// the identity in either order. `black_box` keeps the reference fold
    /// from being evaluated at compile time, where LLVM may pick the
    /// other of two equal zeros.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_returns_the_bits_of_f64_min_and_max() {
        use std::hint::black_box;
        let reference = |st: &mut SeqStats, v: f64| {
            st.sum += v;
            st.min = black_box(st.min).min(black_box(v));
            st.max = black_box(st.max).max(black_box(v));
        };
        for a in SPECIALS {
            for b in SPECIALS {
                for order in [[a, b], [b, a]] {
                    let (mut new, mut old) = (SeqStats::IDENTITY, SeqStats::IDENTITY);
                    for v in order {
                        new.fold(black_box(v));
                        reference(&mut old, v);
                    }
                    assert_eq!(stat_bits(new), stat_bits(old), "{order:?}");
                }
            }
        }
    }

    /// The 16-lane summary fold equals [`SeqStats::fold`] lane by lane
    /// on rows of special values.
    #[test]
    fn lane_fold_matches_scalar_fold_on_special_values() {
        let (nl, _, compiled) = compiled_fig7();
        let seq: Vec<usize> = nl.seq_nodes().map(|id| id.index()).collect();
        let n_rows = compiled.mins.len() + compiled.rows.extra.len();
        let rows: Vec<[f64; MAX_LANES]> = (0..n_rows)
            .map(|r| std::array::from_fn(|l| SPECIALS[(r * 7 + l * 3) % SPECIALS.len()]))
            .collect();
        let mut got = Vec::new();
        SeqFold(&seq).gather(&compiled, &rows, MAX_LANES, &mut got);
        for (l, st) in got.iter().enumerate() {
            let mut want = SeqStats::IDENTITY;
            for &i in &seq {
                want.fold(rows[compiled.rows.of[i] as usize][l]);
            }
            assert_eq!(stat_bits(*st), stat_bits(want), "lane {l}");
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
        let obs = Collector::disabled();
        let (_, _, compiled) = compiled_fig7();
        let bytes = compiled.encode();
        let back = CompiledSweep::decode(&bytes, compiled.config()).unwrap();
        assert_eq!(back, compiled);
        // Re-encoding is byte-stable.
        assert_eq!(back.encode(), bytes);
        let inputs = fig7_inputs();
        let a = compiled.evaluate_traced(&inputs, &obs);
        let b = back.evaluate_traced(&inputs, &obs);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn artifact_loads_across_execution_strategy_changes() {
        let obs = Collector::disabled();
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
            .evaluate_traced(&inputs, &obs)
            .iter()
            .zip(&back.evaluate_traced(&inputs, &obs))
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
