//! The FUB-partitioned relaxation loop (§5.2).
//!
//! "We chose to deal with this situation using a relaxation approach that
//! calculates the AVF for the entire design repeatedly over several
//! iterations, refining the AVF values each iteration. … During subsequent
//! analysis iterations (defined to be one up and one down walk through the
//! netlist for each FUB), the merged FUBIO information is used as an input
//! to the analysis. … any walk can only cross one partition during each
//! iteration."
//!
//! Each iteration re-walks FUBs against the iteration-start annotations
//! (the FUBIO merge of the previous iteration) and measures both
//! structural change (how many node annotations got a new term set) and
//! numeric change (the largest pAVF movement under a given term-value
//! vector). Convergence is declared when nothing changes structurally — an
//! exact, input-independent criterion available because the propagation is
//! symbolic.
//!
//! The partitions are [`Prepared::parts`], one per FUB: partition `f` is
//! FUB `f` ([`Netlist::fub`]) in topological order.
//!
//! # Term bitmasks, interned at the barrier
//!
//! §5.2 builds every closed form as a union of pAVF terms, and a design
//! has few terms (37 on the 102k-node reference design). While it relaxes,
//! the loop therefore carries each node's forward and backward annotation
//! as a fixed-width bitmask of `⌈terms/64⌉` words, bit `t` standing for
//! term `t`: union is a word-wise OR, and TOP (term 0, bit 0) absorbs
//! every other bit, exactly as in the [`UnionArena`]. The width is chosen
//! once per run and the walk is generic over it, so a design of up to 64
//! terms runs scalar code over one-word masks; a wider design runs the
//! same walk at a runtime width. Masks live in flat vectors, so a wide
//! mask costs no allocation of its own.
//!
//! Walks intern nothing. At the iteration barrier the main thread visits
//! exactly the annotations whose mask moved, in a fixed order — partition
//! ascending, forward before backward, topological position ascending —
//! and maps each mask to its canonical [`SetId`] through a mask→id index,
//! interning the set into the shared arena on first sight. Canonical ids
//! therefore depend only on the netlist and inputs, never on the thread
//! count, and a skipped node — whose mask could not have moved — never
//! needs an id at all.
//!
//! # Parallelism
//!
//! Every cross-partition read sees the iteration-start mask (Jacobi
//! relaxation), even when the same worker already walked the partition it
//! reads from, so the per-partition walks of one iteration are data
//! parallel. Partitions are spread over workers by
//! longest-processing-time scheduling over their sizes; each worker writes
//! only its own partitions' scratch masks and worklists, which the barrier
//! then reads in place. Only the grouping depends on the schedule, never
//! the results.
//!
//! # Change worklists
//!
//! A node's walk is a pure function of its reads, so it needs recomputing
//! only when one of them moved. Each partition keeps one pending bitset
//! per walk direction over its topological positions:
//!
//! * a recompute whose mask moved marks its readers in the same
//!   partition —
//!   forward, the fan-outs with no fixed forward source; backward, the
//!   fan-ins with no fixed backward source, unless the node's backward
//!   contribution is overridden — which the walk, visiting positions in
//!   topological (forward) or reverse (backward) order, reaches later in
//!   the same sweep;
//! * at the barrier, a moved boundary value (one of the
//!   [`BoundaryDeps`] reads) marks its readers in other partitions for the
//!   next sweep.
//!
//! A partition with a pending bit is exactly one whose boundary reads
//! changed (§5.2 re-walks only what a changed FUBIO value reaches), and
//! inside it only the change cone is recomputed: propagation stops where a
//! recompute reproduces its previous mask. The first sweep floods every
//! node of a cold solve, or only the edited FUBs of a warm start
//! ([`relax_partitioned`]'s `warm_dirty`).
//!
//! Skipping is exact: a skipped node would reproduce its mask, and the
//! barrier interns and counts only moved masks, so [`SetId`] numbering
//! and the per-sweep `changed_sets`, `max_delta` and `fub_seq_mean`
//! telemetry are those of re-walking every node every sweep.
//!
//! [`BoundaryDeps`]: crate::walk::BoundaryDeps
//! [`Prepared::parts`]: crate::walk::Prepared::parts

use std::borrow::BorrowMut;
use std::collections::HashMap;
use std::hash::Hash;
use std::marker::PhantomData;
use std::time::Instant;

use seqavf_netlist::graph::{FubId, Netlist, NodeId};
use seqavf_obs::{Collector, FieldValue};

use crate::arena::{SetId, TermId, UnionArena};
use crate::walk::Propagator;

/// Per-iteration convergence telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationStats {
    /// Node annotations whose term set changed this iteration.
    pub changed_sets: usize,
    /// Largest numeric pAVF movement across node annotations.
    pub max_delta: f64,
    /// FUBs walked this sweep: every FUB in a cold solve's first sweep,
    /// the edited ones in a warm start's, afterwards the FUBs a moved
    /// boundary read marked.
    pub dirty_fubs: usize,
    /// FUBs skipped this sweep because no boundary value they read
    /// changed.
    pub skipped_fubs: usize,
    /// Nodes recomputed this sweep (in either walk direction): the change
    /// cones inside the dirty FUBs.
    pub walked_nodes: usize,
    /// Mean sequential-node `MIN(F, B)` value per FUB after this iteration
    /// (the paper's convergence plot, §6.1).
    pub fub_seq_mean: Vec<f64>,
    /// Workers the sweep engaged: the requested count (0 counts as 1) at
    /// any design size, but at most one per dirty FUB, so a sweep with at
    /// most one dirty FUB runs on the calling thread. Results never depend
    /// on it; wall time does.
    pub effective_threads: usize,
    /// Wall-clock time this iteration took (walks, barrier, telemetry),
    /// in seconds.
    pub wall_seconds: f64,
}

/// Outcome of the relaxation loop.
#[derive(Debug, Clone, PartialEq)]
pub struct RelaxOutcome {
    /// Productive sweeps executed. When the loop converges, the final
    /// sweep merely *verifies* that nothing changes; it appears in
    /// [`RelaxOutcome::trace`] but is not counted here.
    pub iterations: usize,
    /// Whether a verification sweep observed `changed_sets == 0` before
    /// the iteration cap.
    pub converged: bool,
    /// Telemetry per sweep, including the final verification sweep.
    pub trace: Vec<IterationStats>,
}

impl RelaxOutcome {
    /// Total wall-clock time across all sweeps, in seconds.
    pub fn total_wall_seconds(&self) -> f64 {
        self.trace.iter().map(|s| s.wall_seconds).sum()
    }

    /// Mean wall-clock time per sweep, in seconds.
    pub fn mean_iteration_seconds(&self) -> f64 {
        if self.trace.is_empty() {
            0.0
        } else {
            self.total_wall_seconds() / self.trace.len() as f64
        }
    }

    /// Total nodes walked across all sweeps — the relaxation's work
    /// metric.
    pub fn total_walked_nodes(&self) -> usize {
        self.trace.iter().map(|s| s.walked_nodes).sum()
    }

    /// The most workers any sweep engaged (1 when no sweep ran).
    pub fn max_threads(&self) -> usize {
        self.trace
            .iter()
            .map(|s| s.effective_threads)
            .max()
            .unwrap_or(1)
    }
}

/// A term set while relaxing: bit `t % 64` of word `t / 64` is term `t`.
/// The type fixes the width: a one-word array gives the walk a scalar
/// copy for designs of up to 64 terms, a boxed slice covers wider
/// designs at a runtime width. Node and set masks are stored flat in a
/// [`MaskVec`]; a `Mask` value is only a walk's accumulator or an index
/// key.
trait Mask: Eq + Hash + BorrowMut<[u64]> + Send + Sync {
    /// Words per mask in a run of `words`-word masks: a constant for
    /// arrays, so the one-word walk indexes at compile-time offsets.
    fn width(words: usize) -> usize;
    /// The empty set over `words` words (arrays ignore `words`).
    fn empty(words: usize) -> Self;
    fn words(&self) -> &[u64] {
        self.borrow()
    }
    fn words_mut(&mut self) -> &mut [u64] {
        self.borrow_mut()
    }
}

impl<const W: usize> Mask for [u64; W] {
    fn width(_: usize) -> usize {
        W
    }
    fn empty(_: usize) -> Self {
        [0; W]
    }
}

impl Mask for Box<[u64]> {
    fn width(words: usize) -> usize {
        words
    }
    fn empty(words: usize) -> Self {
        vec![0; words].into_boxed_slice()
    }
}

/// A vector of masks in one flat allocation: slot `i` is words
/// `i * w .. (i + 1) * w` with `w = M::width(words)`, so wide masks cost
/// neither an allocation nor a pointer chase each.
struct MaskVec<M> {
    words: usize,
    bits: Vec<u64>,
    mask: PhantomData<M>,
}

impl<M: Mask> MaskVec<M> {
    /// `len` empty masks.
    fn new(words: usize, len: usize) -> MaskVec<M> {
        MaskVec {
            words,
            bits: vec![0; len * M::width(words)],
            mask: PhantomData,
        }
    }

    #[inline]
    fn get(&self, i: usize) -> &[u64] {
        let w = M::width(self.words);
        &self.bits[i * w..(i + 1) * w]
    }

    #[inline]
    fn get_mut(&mut self, i: usize) -> &mut [u64] {
        let w = M::width(self.words);
        &mut self.bits[i * w..(i + 1) * w]
    }

    fn push(&mut self, m: &[u64]) {
        self.bits.extend_from_slice(m);
    }

    /// The masks of `ids`, in order, taken from the set masks `sets`.
    fn gather(sets: &MaskVec<M>, ids: &[SetId]) -> MaskVec<M> {
        let mut v = MaskVec {
            words: sets.words,
            bits: Vec::with_capacity(ids.len() * M::width(sets.words)),
            mask: PhantomData,
        };
        for s in ids {
            v.push(sets.get(s.index()));
        }
        v
    }
}

/// `acc ∪= v`.
#[inline]
fn or_into(acc: &mut [u64], v: &[u64]) {
    for (a, b) in acc.iter_mut().zip(v) {
        *a |= *b;
    }
}

/// Collapses a union containing TOP to `{TOP}`, as the arena does.
#[inline]
fn absorb_top(w: &mut [u64]) {
    if w[0] & 1 != 0 {
        w.fill(0);
        w[0] = 1;
    }
}

#[inline]
fn bit(bits: &[u64], k: usize) -> bool {
    bits[k / 64] >> (k % 64) & 1 != 0
}

#[inline]
fn set_bit(bits: &mut [u64], k: usize) {
    bits[k / 64] |= 1 << (k % 64);
}

/// The set bits of `bits`, ascending.
fn ones(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + b
            })
        })
    })
}

/// The interned sets as masks: `set_mask[s]` is the mask of `SetId` `s`
/// and `ids` its inverse. `set_val[s]` is `UnionArena::eval` of `s`
/// under the run's term values, so telemetry read from it is
/// bit-identical to evaluating the arena.
struct SetIndex<M> {
    set_mask: MaskVec<M>,
    ids: HashMap<M, SetId>,
    set_val: Vec<f64>,
}

impl<M: Mask> SetIndex<M> {
    fn new(arena: &UnionArena, words: usize, values: &[f64]) -> SetIndex<M> {
        let mut set_mask = MaskVec::new(words, arena.len());
        let mut ids = HashMap::with_capacity(arena.len());
        for s in 0..arena.len() {
            let mut m = M::empty(words);
            for t in arena.terms(SetId::from_index(s)) {
                set_bit(m.words_mut(), t.index());
            }
            set_mask.get_mut(s).copy_from_slice(m.words());
            ids.insert(m, SetId::from_index(s));
        }
        SetIndex {
            set_mask,
            ids,
            set_val: arena.eval_all(values),
        }
    }

    /// The canonical id of `m`, interning its terms into `arena` on first
    /// sight.
    fn id(&mut self, m: &[u64], arena: &mut UnionArena, values: &[f64]) -> SetId {
        if let Some(&id) = self.ids.get(m) {
            return id;
        }
        let terms: Vec<TermId> = ones(m).map(TermId::from_index).collect();
        let id = arena.intern_terms(&terms);
        assert_eq!(
            id.index(),
            self.set_val.len(),
            "every arena set is indexed, so a new mask is a new set"
        );
        self.set_mask.push(m);
        self.set_val.push(arena.eval(id, values));
        let mut key = M::empty(self.set_mask.words);
        key.words_mut().copy_from_slice(m);
        self.ids.insert(key, id);
        id
    }
}

/// One partition's change worklists, one bit per position of its
/// topological order: `pending_*` marks the recomputes a sweep still owes,
/// `moved_*` the recomputes of this sweep whose mask differs from the
/// iteration-start mask.
struct Worklist {
    pending_f: Vec<u64>,
    pending_b: Vec<u64>,
    moved_f: Vec<u64>,
    moved_b: Vec<u64>,
}

impl Worklist {
    fn new(len: usize) -> Worklist {
        let words = len.div_ceil(64);
        Worklist {
            pending_f: vec![0; words],
            pending_b: vec![0; words],
            moved_f: vec![0; words],
            moved_b: vec![0; words],
        }
    }

    fn is_pending(&self) -> bool {
        self.pending_f
            .iter()
            .chain(&self.pending_b)
            .any(|&w| w != 0)
    }

    /// Marks all `len` positions pending in both directions.
    fn flood(&mut self, len: usize) {
        for bits in [&mut self.pending_f, &mut self.pending_b] {
            let spare = bits.len() * 64 - len;
            bits.fill(!0);
            if let Some(last) = bits.last_mut() {
                *last >>= spare;
            }
        }
    }
}

/// One partition's recomputed masks by topological position. An entry is
/// valid in the sweep that set its pending bit; the barrier reads the
/// moved ones in place. Allocated on the calling thread before any worker
/// starts: allocating it lazily inside the workers slowed every later
/// request of a resident server (serve-query benchmark, 2-vCPU host).
struct Scratch<M> {
    next_f: MaskVec<M>,
    next_b: MaskVec<M>,
}

/// Relax-local view of the annotations: the set index plus the
/// iteration-start (Jacobi snapshot) mask of every node.
struct Masks<M> {
    words: usize,
    sets: SetIndex<M>,
    cur_f: MaskVec<M>,
    cur_b: MaskVec<M>,
}

/// Each node's position in its partition's topological order.
fn positions(parts: &[Vec<NodeId>], node_count: usize) -> Vec<u32> {
    let mut pos = vec![0u32; node_count];
    for order in parts {
        for (k, n) in order.iter().enumerate() {
            pos[n.index()] = k as u32;
        }
    }
    pos
}

/// Recomputes the pending nodes of one partition against the
/// iteration-start masks — forward in topological order, then backward in
/// reverse — and returns how many nodes it recomputed in either direction.
/// This is §4.1's rule, the only implementation of it: a source takes its
/// fixed set, a zero-fanin non-source node the conservative TOP, any other
/// node the union of its fan-ins (forward) or of its fan-outs'
/// contributions (backward), with TOP absorbing. New masks land in
/// `scratch`, the moved ones are flagged in `list`, and no pending bit is
/// left behind.
///
/// A same-partition read takes this sweep's mask when the read node was
/// recomputed (its pending bit is set, and topological order put it
/// first), the iteration-start mask otherwise; a cross-partition read
/// always takes the iteration-start mask.
fn walk_part<M: Mask>(
    prop: &Propagator<'_>,
    pos: &[u32],
    masks: &Masks<M>,
    part: usize,
    list: &mut Worklist,
    scratch: &mut Scratch<M>,
) -> usize {
    let nl = prop.nl;
    let prep = &prop.prep;
    let order = &prep.parts[part];
    let here = FubId::from_index(part);
    let set_mask = &masks.sets.set_mask;
    let Worklist {
        pending_f,
        pending_b,
        moved_f,
        moved_b,
    } = list;
    let Scratch { next_f, next_b } = scratch;
    let top = set_mask.get(prop.arena.top().index());
    let mut acc = M::empty(masks.words);
    for w in 0..pending_f.len() {
        let mut from = 0u32;
        while from < 64 {
            // Re-read the word: recomputes mark later positions pending.
            let rest = pending_f[w] >> from << from;
            if rest == 0 {
                break;
            }
            let b = rest.trailing_zeros();
            from = b + 1;
            let k = w * 64 + b as usize;
            let node = order[k];
            let i = node.index();
            let fanin = nl.fanin(node);
            let v = acc.words_mut();
            if let Some(s) = prep.fwd_source[i] {
                v.copy_from_slice(set_mask.get(s.index()));
            } else if fanin.is_empty() {
                v.copy_from_slice(top);
            } else {
                v.fill(0);
                for &f in fanin {
                    let j = f.index();
                    let p = pos[j] as usize;
                    let m = if nl.fub(f) == here && bit(pending_f, p) {
                        next_f.get(p)
                    } else {
                        masks.cur_f.get(j)
                    };
                    or_into(v, m);
                }
                absorb_top(v);
            }
            if acc.words() != masks.cur_f.get(i) {
                set_bit(moved_f, k);
                for &m in nl.fanout(node) {
                    if nl.fub(m) == here && prep.fwd_source[m.index()].is_none() {
                        set_bit(pending_f, pos[m.index()] as usize);
                    }
                }
            }
            next_f.get_mut(k).copy_from_slice(acc.words());
        }
    }
    for w in (0..pending_b.len()).rev() {
        let mut below = 64u32;
        while below > 0 {
            let rest = pending_b[w] & (u64::MAX >> (64 - below));
            if rest == 0 {
                break;
            }
            let b = 63 - rest.leading_zeros();
            below = b;
            let k = w * 64 + b as usize;
            let node = order[k];
            let i = node.index();
            let v = acc.words_mut();
            if let Some(s) = prep.bwd_source[i] {
                v.copy_from_slice(set_mask.get(s.index()));
            } else {
                v.fill(0);
                for &m in nl.fanout(node) {
                    let j = m.index();
                    let p = pos[j] as usize;
                    let c = if let Some(c) = prep.bwd_contrib[j] {
                        set_mask.get(c.index())
                    } else if nl.fub(m) == here && bit(pending_b, p) {
                        next_b.get(p)
                    } else {
                        masks.cur_b.get(j)
                    };
                    or_into(v, c);
                }
                absorb_top(v);
            }
            if acc.words() != masks.cur_b.get(i) {
                set_bit(moved_b, k);
                if prep.bwd_contrib[i].is_none() {
                    for &p in nl.fanin(node) {
                        if nl.fub(p) == here && prep.bwd_source[p.index()].is_none() {
                            set_bit(pending_b, pos[p.index()] as usize);
                        }
                    }
                }
            }
            next_b.get_mut(k).copy_from_slice(acc.words());
        }
    }
    let walked = pending_f
        .iter()
        .zip(pending_b.iter())
        .map(|(f, b)| (f | b).count_ones() as usize)
        .sum();
    pending_f.fill(0);
    pending_b.fill(0);
    walked
}

/// Longest-processing-time assignment of partitions to `workers` groups,
/// weighted by partition size: biggest first, each to the least-loaded
/// worker. Keeps sweeps balanced even when the dirty set is a skewed
/// slice of the design. Only the grouping depends on this choice —
/// the barrier interns in ascending partition order regardless, so
/// results are unaffected.
fn lpt_schedule(active: &[usize], parts: &[Vec<NodeId>], workers: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = active.to_vec();
    order.sort_by_key(|&p| (std::cmp::Reverse(parts[p].len()), p));
    let mut loads = vec![0usize; workers];
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); workers];
    for p in order {
        let w = (0..workers)
            .min_by_key(|&w| (loads[w], w))
            .expect("at least one worker");
        groups[w].push(p);
        loads[w] += parts[p].len().max(1);
    }
    groups.retain(|g| !g.is_empty());
    groups
}

/// Walks the pending nodes of every partition in `active` on up to
/// `threads` workers, at most one per partition, and returns the nodes
/// recomputed and the workers engaged. One worker is the calling thread.
fn walk_sweep<M: Mask>(
    prop: &Propagator<'_>,
    pos: &[u32],
    masks: &Masks<M>,
    lists: &mut [Worklist],
    scratch: &mut [Scratch<M>],
    active: &[usize],
    threads: usize,
) -> (usize, usize) {
    let workers = threads.max(1).min(active.len().max(1));
    if workers == 1 {
        let walked = active
            .iter()
            .map(|&p| walk_part(prop, pos, masks, p, &mut lists[p], &mut scratch[p]))
            .sum();
        return (walked, 1);
    }
    let groups = lpt_schedule(active, &prop.prep.parts, workers);
    let mut slots: Vec<Option<(&mut Worklist, &mut Scratch<M>)>> =
        lists.iter_mut().zip(scratch.iter_mut()).map(Some).collect();
    let jobs: Vec<Vec<_>> = groups
        .iter()
        .map(|group| {
            group
                .iter()
                .map(|&p| {
                    let (list, scr) = slots[p]
                        .take()
                        .expect("LPT assigns every partition exactly once");
                    (p, list, scr)
                })
                .collect()
        })
        .collect();
    let engaged = jobs.len();
    let walked = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|job| {
                s.spawn(move || {
                    job.into_iter()
                        .map(|(p, list, scr)| walk_part(prop, pos, masks, p, list, scr))
                        .sum::<usize>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("relaxation worker panicked"))
            .sum()
    });
    (walked, engaged)
}

/// Iteration barrier: interns every mask that moved this sweep in the
/// canonical order — partition ascending, forward before backward,
/// topological position ascending — so every `SetId` is independent of
/// how partitions were spread over workers. Writes the new ids and
/// iteration-start masks, flags the FUBs whose sequential annotations
/// moved in `seq_moved`, and returns `(changed_sets, max_delta)`.
fn barrier<M: Mask>(
    prop: &mut Propagator<'_>,
    masks: &mut Masks<M>,
    lists: &[Worklist],
    scratch: &[Scratch<M>],
    active: &[usize],
    values: &[f64],
    seq_moved: &mut [bool],
) -> (usize, f64) {
    let Propagator {
        nl,
        prep,
        arena,
        fwd,
        bwd,
    } = prop;
    let Masks {
        sets, cur_f, cur_b, ..
    } = masks;
    let mut changed = 0usize;
    let mut max_delta = 0.0f64;
    for &p in active {
        let order = &prep.parts[p];
        let mut settle = |k: usize, m: &[u64], ann: &mut [SetId], cur: &mut MaskVec<M>| {
            let node = order[k];
            let i = node.index();
            let id = sets.id(m, arena, values);
            let d = (sets.set_val[id.index()] - sets.set_val[ann[i].index()]).abs();
            max_delta = max_delta.max(d);
            changed += 1;
            ann[i] = id;
            cur.get_mut(i).copy_from_slice(m);
            if nl.kind(node).is_sequential() {
                seq_moved[nl.fub(node).index()] = true;
            }
        };
        for k in ones(&lists[p].moved_f) {
            settle(k, scratch[p].next_f.get(k), fwd, cur_f);
        }
        for k in ones(&lists[p].moved_b) {
            settle(k, scratch[p].next_b.get(k), bwd, cur_b);
        }
    }
    (changed, max_delta)
}

/// Marks, for the next sweep, every reader in another partition of a boundary
/// value that moved this sweep: the forward readers of a moved
/// [`BoundaryDeps::fwd_reads`] node are its foreign fan-outs with no fixed
/// forward source, the backward readers of a moved
/// [`BoundaryDeps::bwd_reads`] node its foreign fan-ins with no fixed
/// backward source. This is §5.2's rule that recomputation is confined to
/// the cone downstream of a changed FUBIO value.
///
/// [`BoundaryDeps::fwd_reads`]: crate::walk::BoundaryDeps::fwd_reads
/// [`BoundaryDeps::bwd_reads`]: crate::walk::BoundaryDeps::bwd_reads
fn mark_boundary_readers(prop: &Propagator<'_>, pos: &[u32], lists: &mut [Worklist]) {
    let nl = prop.nl;
    let prep = &prop.prep;
    for &n in &prep.boundary.fwd_reads {
        let home = nl.fub(n);
        if !bit(&lists[home.index()].moved_f, pos[n.index()] as usize) {
            continue;
        }
        for &m in nl.fanout(n) {
            let g = nl.fub(m);
            if g != home && prep.fwd_source[m.index()].is_none() {
                set_bit(&mut lists[g.index()].pending_f, pos[m.index()] as usize);
            }
        }
    }
    for &n in &prep.boundary.bwd_reads {
        let home = nl.fub(n);
        if !bit(&lists[home.index()].moved_b, pos[n.index()] as usize) {
            continue;
        }
        for &p in nl.fanin(n) {
            let g = nl.fub(p);
            if g != home && prep.bwd_source[p.index()].is_none() {
                set_bit(&mut lists[g.index()].pending_b, pos[p.index()] as usize);
            }
        }
    }
}

/// Mean `MIN(F, B)` over the sequential nodes of each FUB, refreshed FUB
/// by FUB. A FUB's sum runs over its sequential nodes in id order, so a
/// refreshed mean is bit-identical to one folded over the whole design.
struct SeqMeans {
    nodes: Vec<Vec<NodeId>>,
    means: Vec<f64>,
}

impl SeqMeans {
    fn new(nl: &Netlist) -> SeqMeans {
        let mut nodes: Vec<Vec<NodeId>> = vec![Vec::new(); nl.fub_count()];
        for id in nl.seq_nodes() {
            nodes[nl.fub(id).index()].push(id);
        }
        SeqMeans {
            means: vec![0.0; nodes.len()],
            nodes,
        }
    }

    /// Recomputes FUB `f`'s mean from per-set values `set_val`.
    fn refresh(&mut self, f: usize, fwd: &[SetId], bwd: &[SetId], set_val: &[f64]) {
        let nodes = &self.nodes[f];
        let mut sum = 0.0f64;
        for n in nodes {
            let i = n.index();
            sum += set_val[fwd[i].index()].min(set_val[bwd[i].index()]);
        }
        self.means[f] = if nodes.is_empty() {
            0.0
        } else {
            sum / nodes.len() as f64
        };
    }
}

/// Runs the relaxation over `prop.prep`'s per-FUB partitions to a
/// structural fixpoint, fanning the FUB walks of each sweep out over
/// `threads` workers, at most one per dirty FUB (see the module docs),
/// whatever the design size. Any thread count yields bit-identical
/// annotations and `SetId` numbering.
///
/// The first sweep walks every FUB; each later sweep walks only the
/// change cones of the FUBs whose cross-FUB boundary reads moved in the
/// sweep before, and clean FUBs keep their annotations untouched.
///
/// `warm_dirty` starts the run warm: the caller has already seeded
/// `prop.fwd`/`prop.bwd` with a previously converged fixpoint (see
/// `crate::fixpoint`), and the slice flags exactly the FUBs whose content
/// changed since that fixpoint was captured, one flag per FUB. The first
/// sweep force-walks only those FUBs instead of flooding the whole
/// design; from there the ordinary cross-FUB dirty propagation takes
/// over, so the work stays proportional to the edit's change cone. This
/// leans on the invariant of the change worklists: a skipped node's
/// annotation is reproduced exactly by recomputing it as long as none of
/// its reads moved. Seeded annotations are the converged values of the
/// *previous* run, so they satisfy it for every FUB whose content —
/// including its cross-FUB wiring, captured by `Netlist::fub_digests` —
/// is unchanged; any value that does move is diffed at the iteration
/// barrier and its consumers re-walked. The converged annotations (and
/// therefore the resolved AVFs) are bit-identical to a cold solve; only
/// `SetId` numbering and the work telemetry differ.
///
/// `values` supplies term values for the numeric telemetry only; the
/// propagation itself is symbolic and independent of them.
///
/// Every sweep is reported to `obs` as a `relax.sweep` span sharing the
/// single per-sweep clock measurement with [`IterationStats`] (the first
/// span also covers the mask set-up) and carrying the sweep's
/// `effective_threads` as its `threads` field, plus the
/// `relax.changed_sets` and `relax.walked_nodes` counters; collection
/// never affects the computed annotations.
///
/// # Panics
///
/// Panics if `warm_dirty` does not hold exactly one flag per FUB.
pub fn relax_partitioned(
    prop: &mut Propagator<'_>,
    values: &[f64],
    max_iterations: usize,
    threads: usize,
    warm_dirty: Option<&[bool]>,
    obs: &Collector,
) -> RelaxOutcome {
    if let Some(dirty) = warm_dirty {
        assert_eq!(
            dirty.len(),
            prop.nl.fub_count(),
            "warm_dirty holds one flag per FUB"
        );
    }
    let run = Request {
        values,
        max_iterations,
        threads,
        warm_dirty,
    };
    let words = prop.prep.terms.len().div_ceil(64);
    match words {
        1 => relax_masks::<[u64; 1]>(prop, &run, words, obs),
        _ => relax_masks::<Box<[u64]>>(prop, &run, words, obs),
    }
}

/// One relaxation run's parameters.
struct Request<'a> {
    values: &'a [f64],
    max_iterations: usize,
    threads: usize,
    /// FUBs a warm start must flood first; `None` floods every one.
    warm_dirty: Option<&'a [bool]>,
}

/// The relaxation at one mask width: one word for up to 64 terms, a
/// runtime width past that.
fn relax_masks<M: Mask>(
    prop: &mut Propagator<'_>,
    run: &Request<'_>,
    words: usize,
    obs: &Collector,
) -> RelaxOutcome {
    // The first sweep's span also covers this set-up.
    let mut t0 = Instant::now();
    let nl = prop.nl;
    let parts = &prop.prep.parts;
    let part_count = parts.len();
    let sets = SetIndex::<M>::new(&prop.arena, words, run.values);
    let mut masks = Masks {
        words,
        cur_f: MaskVec::gather(&sets.set_mask, &prop.fwd),
        cur_b: MaskVec::gather(&sets.set_mask, &prop.bwd),
        sets,
    };
    let pos = positions(parts, nl.node_count());
    let mut lists: Vec<Worklist> = parts
        .iter()
        .map(|order| Worklist::new(order.len()))
        .collect();
    let mut scratch: Vec<Scratch<M>> = parts
        .iter()
        .map(|order| Scratch {
            next_f: MaskVec::new(words, order.len()),
            next_b: MaskVec::new(words, order.len()),
        })
        .collect();
    let mut seq = SeqMeans::new(nl);
    // Every FUB's mean is folded after the first sweep; later sweeps
    // refold only FUBs whose sequential annotations moved.
    let mut seq_moved = vec![true; nl.fub_count()];

    let mut trace = Vec::new();
    let mut converged = false;
    for iter in 0..run.max_iterations {
        // The first sweep floods its FUBs: all of them cold, the edited
        // ones warm. Afterwards a FUB is walked exactly when a boundary
        // read marked it.
        let active: Vec<usize> = (0..part_count)
            .filter(|&p| {
                if iter == 0 {
                    run.warm_dirty.is_none_or(|dirty| dirty[p])
                } else {
                    lists[p].is_pending()
                }
            })
            .collect();
        if iter == 0 {
            for &p in &active {
                lists[p].flood(prop.prep.parts[p].len());
            }
        }
        let dirty_fubs = active.len();
        let skipped_fubs = part_count - dirty_fubs;
        let (walked_nodes, workers) = walk_sweep(
            prop,
            &pos,
            &masks,
            &mut lists,
            &mut scratch,
            &active,
            run.threads,
        );
        let (changed, max_delta) = barrier(
            prop,
            &mut masks,
            &lists,
            &scratch,
            &active,
            run.values,
            &mut seq_moved,
        );
        mark_boundary_readers(prop, &pos, &mut lists);
        for &p in &active {
            let list = &mut lists[p];
            list.moved_f.fill(0);
            list.moved_b.fill(0);
        }
        for (f, moved) in seq_moved.iter_mut().enumerate() {
            if std::mem::take(moved) {
                seq.refresh(f, &prop.fwd, &prop.bwd, &masks.sets.set_val);
            }
        }
        let wall = t0.elapsed();
        obs.record_span(
            "relax.sweep",
            t0,
            wall,
            vec![
                ("iter", FieldValue::U64(iter as u64)),
                ("changed_sets", FieldValue::U64(changed as u64)),
                ("max_delta", FieldValue::F64(max_delta)),
                ("threads", FieldValue::U64(workers as u64)),
                ("dirty_fubs", FieldValue::U64(dirty_fubs as u64)),
                ("skipped_fubs", FieldValue::U64(skipped_fubs as u64)),
            ],
        );
        obs.count("relax.changed_sets", changed as u64);
        obs.count("relax.walked_nodes", walked_nodes as u64);
        trace.push(IterationStats {
            changed_sets: changed,
            max_delta,
            dirty_fubs,
            skipped_fubs,
            walked_nodes,
            fub_seq_mean: seq.means.clone(),
            effective_threads: workers,
            wall_seconds: wall.as_secs_f64(),
        });
        t0 = Instant::now();
        if changed == 0 {
            converged = true;
            break;
        }
    }
    // The sweep that observes no change is a verification, not a
    // productive iteration; report only the sweeps that moved values.
    let iterations = if converged {
        trace.len().saturating_sub(1)
    } else {
        trace.len()
    };
    RelaxOutcome {
        iterations,
        converged,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use crate::mapping::StructureMapping;
    use crate::walk::prepare;
    use seqavf_netlist::flatten::parse_netlist;
    use seqavf_netlist::graph::Netlist;
    use seqavf_netlist::scc::find_loops;

    /// Three FUBs chained: a value must cross two partition boundaries, so
    /// partitioned relaxation needs at least three iterations to converge.
    const CHAIN: &str = r"
.design chain
.fub a
  .struct s1 1
  .flop q s1[0]
  .output o q
.endfub
.fub b
  .flop r a.o
  .output o r
.endfub
.fub c
  .struct s2 1
  .flop t b.o
  .sw s2[0] t
.endfub
.end
";

    /// Four FUBs: `a` fans out to `b` and `c`; `d` is fully isolated.
    const FANOUT: &str = r"
.design fanout
.fub a
  .struct s1 1
  .flop q s1[0]
  .output o q
.endfub
.fub b
  .struct s2 1
  .flop r a.o
  .sw s2[0] r
.endfub
.fub c
  .struct s3 1
  .flop t a.o
  .sw s3[0] t
.endfub
.fub d
  .struct s4 1
  .flop u s4[0]
  .sw s4[0] u
.endfub
.end
";

    /// A fresh propagator over one partition per FUB.
    fn propagator(text: &str) -> (Netlist, Propagator<'static>) {
        let nl = Box::leak(Box::new(parse_netlist(text).unwrap()));
        let loops = find_loops(nl);
        let roles = classify(nl, &loops, &["creg".to_owned()]);
        let mut arena = UnionArena::new();
        let prep = prepare(nl, roles, &StructureMapping::new(), &mut arena);
        (nl.clone(), Propagator::new(nl, prep, arena))
    }

    fn default_values(prop: &Propagator<'_>) -> Vec<f64> {
        prop.prep
            .terms
            .values(&|_| Some((0.25, 0.5)), &|_| Some(0.3), 1.0, 1.0)
    }

    #[test]
    fn incremental_skips_clean_fubs() {
        let (nl, mut p) = propagator(CHAIN);
        let values = default_values(&p);
        let out = relax_partitioned(&mut p, &values, 20, 1, None, &Collector::disabled());
        assert!(out.converged);
        // The first sweep floods everything…
        assert_eq!(out.trace[0].dirty_fubs, nl.fub_count());
        assert_eq!(out.trace[0].skipped_fubs, 0);
        // …and at least one later sweep skips FUBs whose boundary reads
        // were clean.
        assert!(out.trace[1..].iter().any(|s| s.skipped_fubs > 0));
        // The verification sweep observes an already-converged dirty set.
        let last = out.trace.last().unwrap();
        assert_eq!(last.changed_sets, 0);
    }

    #[test]
    fn single_fub_perturbation_marks_exactly_dependent_fubs() {
        let (nl, mut p) = propagator(FANOUT);
        let values = default_values(&p);
        let out = relax_partitioned(&mut p, &values, 20, 1, None, &Collector::disabled());
        assert!(out.converged);
        let boundary = &p.prep.boundary;
        let fub = |name: &str| nl.fub(nl.lookup(name).unwrap());
        // The isolated FUB `d` exposes no boundary value.
        for &n in boundary.fwd_reads.iter().chain(&boundary.bwd_reads) {
            assert_ne!(nl.fub(n), fub("d.u"));
        }
        let pos = positions(&p.prep.parts, nl.node_count());
        let mut lists: Vec<Worklist> = p
            .prep
            .parts
            .iter()
            .map(|order| Worklist::new(order.len()))
            .collect();
        // Nothing moved: the barrier marks nothing.
        mark_boundary_readers(&p, &pos, &mut lists);
        assert!(lists.iter().all(|l| !l.is_pending()), "clean state");
        // Move the forward annotation `a` exposes at `a.o`: exactly the
        // reading nodes of the dependent FUBs `b` and `c` become pending,
        // forward only.
        let a_o = nl.lookup("a.o").unwrap();
        assert!(boundary.fwd_reads.contains(&a_o));
        set_bit(
            &mut lists[fub("a.o").index()].moved_f,
            pos[a_o.index()] as usize,
        );
        mark_boundary_readers(&p, &pos, &mut lists);
        let pending_fubs: Vec<usize> = (0..lists.len())
            .filter(|&f| lists[f].is_pending())
            .collect();
        assert_eq!(
            pending_fubs,
            vec![fub("b.r").index(), fub("c.t").index()],
            "moving a.o must mark exactly its consumers"
        );
        for reader in ["b.r", "c.t"] {
            let n = nl.lookup(reader).unwrap();
            let list = &lists[fub(reader).index()];
            assert_eq!(
                ones(&list.pending_f).collect::<Vec<_>>(),
                vec![pos[n.index()] as usize]
            );
            assert!(list.pending_b.iter().all(|&w| w == 0));
        }
    }

    #[test]
    fn chain_needs_multiple_iterations() {
        let (_, mut p) = propagator(CHAIN);
        let values = default_values(&p);
        let out = relax_partitioned(&mut p, &values, 20, 1, None, &Collector::disabled());
        assert!(out.converged);
        assert!(
            out.iterations >= 3,
            "a two-boundary crossing needs ≥3 iterations, got {}",
            out.iterations
        );
        // The verification sweep is traced but not counted.
        assert_eq!(out.trace.len(), out.iterations + 1);
    }

    #[test]
    fn iteration_cap_respected() {
        let (_, mut p) = propagator(CHAIN);
        let values = default_values(&p);
        let out = relax_partitioned(&mut p, &values, 1, 1, None, &Collector::disabled());
        assert_eq!(out.iterations, 1);
        assert!(!out.converged);
    }

    #[test]
    fn deltas_shrink_to_zero() {
        let (_, mut p) = propagator(CHAIN);
        let values = default_values(&p);
        let out = relax_partitioned(&mut p, &values, 20, 1, None, &Collector::disabled());
        let last = out.trace.last().unwrap();
        assert_eq!(last.changed_sets, 0);
        assert_eq!(last.max_delta, 0.0);
        // Change counts are non-increasing after the initial flood.
        let first = &out.trace[0];
        assert!(first.changed_sets > 0);
    }

    #[test]
    fn fub_means_tracked_per_iteration() {
        let (nl, mut p) = propagator(CHAIN);
        let values = default_values(&p);
        let out = relax_partitioned(&mut p, &values, 20, 1, None, &Collector::disabled());
        for s in &out.trace {
            assert_eq!(s.fub_seq_mean.len(), nl.fub_count());
            for &m in &s.fub_seq_mean {
                assert!((0.0..=1.0).contains(&m));
            }
        }
    }

    #[test]
    fn thread_counts_are_bit_identical() {
        let (nl, p0) = propagator(CHAIN);
        let values = default_values(&p0);
        let mut runs = Vec::new();
        for threads in [1usize, 2, 3, 8] {
            let mut p = p0.clone();
            let out = relax_partitioned(&mut p, &values, 20, threads, None, &Collector::disabled());
            assert!(out.converged, "threads={threads}");
            // A sweep engages one worker per dirty FUB at most, and the
            // cold flood dirties every FUB.
            assert_eq!(out.trace[0].effective_threads, threads.min(nl.fub_count()));
            for s in &out.trace {
                assert_eq!(s.effective_threads, threads.min(s.dirty_fubs).max(1));
            }
            runs.push((threads, p, out));
        }
        let (_, base, base_out) = &runs[0];
        for (threads, p, out) in &runs[1..] {
            // Identical SetId annotations, arena contents, and telemetry
            // counters — the parallel engine is deterministic in the thread
            // count by construction.
            assert_eq!(&base.fwd, &p.fwd, "fwd SetIds differ at threads={threads}");
            assert_eq!(&base.bwd, &p.bwd, "bwd SetIds differ at threads={threads}");
            assert_eq!(base.arena.len(), p.arena.len(), "threads={threads}");
            assert_eq!(base_out.iterations, out.iterations);
            for (a, b) in base_out.trace.iter().zip(&out.trace) {
                assert_eq!(a.changed_sets, b.changed_sets);
                assert_eq!(a.max_delta, b.max_delta);
                assert_eq!(a.fub_seq_mean, b.fub_seq_mean);
                assert_eq!(a.dirty_fubs, b.dirty_fubs);
                assert_eq!(a.walked_nodes, b.walked_nodes);
            }
        }
    }

    #[test]
    fn lpt_balances_loads() {
        let (_, p) = propagator(CHAIN);
        let all: Vec<usize> = (0..p.prep.parts.len()).collect();
        let groups = lpt_schedule(&all, &p.prep.parts, 2);
        // Every partition appears exactly once across the groups.
        let mut seen: Vec<usize> = groups.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, all);
        // No group holds everything when more than one worker is asked for.
        assert!(groups.len() > 1);
        assert!(groups.iter().all(|g| !g.is_empty()));
    }

    #[test]
    fn thread_count_lands_in_the_sweep_trace() {
        let (nl, mut p) = propagator(CHAIN);
        let values = default_values(&p);
        let obs = Collector::new();
        let out = relax_partitioned(&mut p, &values, 20, 8, None, &obs);
        let spans = obs.spans();
        let sweeps: Vec<_> = spans.iter().filter(|s| s.name == "relax.sweep").collect();
        assert_eq!(sweeps.len(), out.trace.len());
        // Eight workers asked for, one per FUB engaged by the cold flood.
        assert_eq!(out.trace[0].effective_threads, nl.fub_count());
        assert_eq!(out.max_threads(), nl.fub_count());
        for (s, stats) in sweeps.iter().zip(&out.trace) {
            let field = |key: &str| {
                s.fields
                    .iter()
                    .find(|(k, _)| *k == key)
                    .unwrap_or_else(|| panic!("missing field {key}"))
                    .1
                    .clone()
            };
            assert_eq!(
                field("threads"),
                FieldValue::U64(stats.effective_threads as u64)
            );
        }
    }

    #[test]
    fn wall_time_is_recorded_per_iteration() {
        let (_, mut p) = propagator(CHAIN);
        let values = default_values(&p);
        let out = relax_partitioned(&mut p, &values, 20, 2, None, &Collector::disabled());
        assert!(!out.trace.is_empty());
        for s in &out.trace {
            assert!(s.wall_seconds >= 0.0);
        }
        let total = out.total_wall_seconds();
        assert!(total >= 0.0);
        assert!(out.mean_iteration_seconds() <= total + 1e-15);
    }

    /// 520 one-bit structures make 1,045 terms, so the walk runs over
    /// 17-word masks. A chain of OR gates in
    /// FUB `f0` unions every read term (with a few hops through `f1`), and
    /// every fifth flop writes a cell, so masks of up to 520 bits move
    /// across partitions in both directions.
    #[test]
    fn wide_masks_reach_the_known_fixpoint_at_any_thread_count() {
        use crate::engine::{SartConfig, SartEngine};
        use crate::mapping::PavfInputs;
        use seqavf_netlist::graph::{GateOp, NetlistBuilder, NodeKind, SeqKind};

        let flop = NodeKind::Seq {
            kind: SeqKind::Flop,
            has_enable: false,
        };
        let mut b = NetlistBuilder::new("wide");
        let fubs: Vec<FubId> = (0..3).map(|i| b.add_fub(format!("f{i}"))).collect();
        let input = b.add_node("f0.in", NodeKind::Input, fubs[0]);
        let mut cells = Vec::new();
        let mut flops: Vec<NodeId> = Vec::new();
        for k in 0..520usize {
            let s = b.add_structure(format!("f{}.s{k}", k % 3), 1, fubs[k % 3]);
            cells.push(b.structure_cell(s, 0));
            let home = usize::from(k % 100 == 99);
            let g = b.add_node(
                format!("f{home}.g{k}"),
                NodeKind::Comb(GateOp::Or),
                fubs[home],
            );
            b.connect(cells[k], g);
            b.connect(flops.last().copied().unwrap_or(input), g);
            let q = b.add_node(format!("f{home}.q{k}"), flop, fubs[home]);
            b.connect(g, q);
            flops.push(q);
        }
        for k in (0..520).step_by(5) {
            b.connect(flops[k], cells[(7 * k + 3) % 520]);
        }
        let out = b.add_node("f0.out", NodeKind::Output, fubs[0]);
        b.connect(*flops.last().unwrap(), out);
        let nl = b.finish().unwrap();

        let inputs = PavfInputs::new();
        let config = SartConfig {
            default_port_pavf: 0.001,
            ..SartConfig::default()
        };
        let obs = Collector::disabled();
        let run = |c: SartConfig| {
            SartEngine::new_traced(&nl, &StructureMapping::new(), c, None, &obs)
                .run_traced(&inputs, &obs)
        };
        let base = run(config.clone());
        assert!(base.terms.len() > 1024, "{} terms", base.terms.len());
        assert!(base.outcome.converged);
        // Flop `k` reads the read ports of cells 0..=k plus the input
        // boundary: 520 terms at flop 518.
        for (k, q) in flops.iter().enumerate() {
            assert_eq!(base.arena.terms(base.fwd[q.index()]).len(), k + 2, "q{k}");
        }
        let r = run(SartConfig {
            threads: 3,
            ..config.clone()
        });
        assert_eq!(r.fwd, base.fwd, "threads=3");
        assert_eq!(r.bwd, base.bwd, "threads=3");
        assert_eq!(r.arena.len(), base.arena.len());
        assert_eq!(r.outcome.iterations, base.outcome.iterations);
    }

    #[test]
    #[should_panic(expected = "warm_dirty holds one flag per FUB")]
    fn a_warm_start_needs_one_flag_per_fub() {
        // One flag short: the last FUB would read past the slice.
        let (nl, mut p) = propagator(CHAIN);
        let values = default_values(&p);
        let dirty = vec![false; nl.fub_count() - 1];
        relax_partitioned(&mut p, &values, 20, 1, Some(&dirty), &Collector::disabled());
    }
}
