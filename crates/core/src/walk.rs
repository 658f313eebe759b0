//! The pAVF walks: forward from read ports, backward from write ports
//! (§4.1).
//!
//! Walks are implemented as dataflow passes over the loop-cut node graph,
//! which is acyclic: every cycle in a legal synchronous netlist passes
//! through a sequential element inside a strongly-connected component, and
//! all such elements are injected loop boundaries whose incoming edges are
//! cut (§4.3). A single topological pass therefore computes exactly the
//! fixpoint the paper's iterative walks converge to:
//!
//! - **Forward** (`F`): sources (structure cells, control registers, loop
//!   boundaries, primary inputs) carry their term; a combinational node's
//!   value is the set-union of its fan-ins (logical join, Equation 5); a
//!   sequential node copies its data input (simple pipeline, Equation 4);
//!   fan-out copies values to every branch (distribution split, Equation 6).
//! - **Backward** (`B`): sinks contribute their term (structure cells their
//!   `pAVF_W`, loop boundaries the injected value, control registers
//!   nothing — their write rate approaches zero, §5.1); a node's value is
//!   the union of its fan-outs' contributions (Equations 8–10).
//!
//! The [`Propagator`] holds the annotations and runs the **global** pass
//! over the whole design. The **partitioned** per-FUB walks, which read
//! cross-FUB values from a snapshot taken at the start of each relaxation
//! iteration (§5.2) and so reproduce the paper's "a walk can only cross
//! one partition per iteration" behaviour, are [`crate::relax`]'s mask
//! walk over the same [`Prepared`] tables.

use seqavf_netlist::graph::{FubId, Netlist, NodeId};

use crate::arena::{SetId, TermId, TermKind, TermTable, UnionArena};
use crate::classify::{NodeRole, RoleMap};
use crate::mapping::StructureMapping;

/// Injected-term name for loop boundaries.
pub const INJ_LOOP: &str = "loop";
/// Injected-term name for control registers.
pub const INJ_CTRL: &str = "ctrl";
/// Injected-term name for the input-boundary pseudo-structure.
pub const INJ_BOUNDARY_IN: &str = "boundary_in";
/// Injected-term name for the output-boundary pseudo-structure.
pub const INJ_BOUNDARY_OUT: &str = "boundary_out";

/// Immutable preparation shared by all walks over one netlist: terms,
/// per-node source/contribution overrides, and a topological order of the
/// loop-cut graph.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Interned pAVF terms.
    pub terms: TermTable,
    /// Roles from [`crate::classify::classify`].
    pub roles: RoleMap,
    /// Fixed forward value for injected/boundary nodes.
    pub fwd_source: Vec<Option<SetId>>,
    /// Fixed backward value for sink nodes (structure cells, boundary
    /// outputs).
    pub bwd_source: Vec<Option<SetId>>,
    /// Override of the contribution a node makes to its fan-ins' backward
    /// values (`None` = the node's own backward value).
    pub bwd_contrib: Vec<Option<SetId>>,
    /// Topological order of the loop-cut graph.
    pub topo: Vec<NodeId>,
    /// `topo` filtered per FUB.
    pub fub_topo: Vec<Vec<NodeId>>,
    /// Cross-partition boundary-dependency graph for incremental
    /// relaxation.
    pub boundary: BoundaryDeps,
}

/// Which FUBs read which nodes across the partition, in each walk
/// direction — the FUB-level dependency graph the incremental relaxation
/// diffs at every iteration barrier (§5.2 only re-walks FUBs downstream
/// of a changed FUBIO value).
///
/// A node appears as a *forward* boundary read when some node of another
/// FUB takes it as a fan-in and is not itself a fixed forward source: the
/// partitioned walk then reads the node's forward annotation from the
/// iteration snapshot. Symmetrically, a node is a *backward* boundary read
/// when some node of another FUB has it as a fan-out, is not a fixed
/// backward source, and the read node's backward contribution is not
/// overridden (overridden contributions are iteration-invariant).
///
/// Both directions are stored as a CSR: `*_reads[k]` is the observed node
/// and `*_consumers[*_offsets[k]..*_offsets[k + 1]]` the deduplicated
/// FUBs whose next walk depends on it.
#[derive(Debug, Clone, Default)]
pub struct BoundaryDeps {
    /// Nodes whose forward annotation is read across a partition,
    /// ascending.
    pub fwd_reads: Vec<NodeId>,
    /// CSR offsets into [`BoundaryDeps::fwd_consumers`].
    pub fwd_offsets: Vec<u32>,
    /// Consumer FUBs per forward boundary read.
    pub fwd_consumers: Vec<FubId>,
    /// Nodes whose backward annotation is read across a partition,
    /// ascending.
    pub bwd_reads: Vec<NodeId>,
    /// CSR offsets into [`BoundaryDeps::bwd_consumers`].
    pub bwd_offsets: Vec<u32>,
    /// Consumer FUBs per backward boundary read.
    pub bwd_consumers: Vec<FubId>,
}

impl BoundaryDeps {
    /// FUBs whose forward walk reads `fwd_reads[k]` from the snapshot.
    pub fn fwd_consumers_of(&self, k: usize) -> &[FubId] {
        &self.fwd_consumers[self.fwd_offsets[k] as usize..self.fwd_offsets[k + 1] as usize]
    }

    /// FUBs whose backward walk reads `bwd_reads[k]` from the snapshot.
    pub fn bwd_consumers_of(&self, k: usize) -> &[FubId] {
        &self.bwd_consumers[self.bwd_offsets[k] as usize..self.bwd_offsets[k + 1] as usize]
    }

    fn from_pairs(fwd: Vec<(NodeId, FubId)>, bwd: Vec<(NodeId, FubId)>) -> BoundaryDeps {
        fn csr(mut pairs: Vec<(NodeId, FubId)>) -> (Vec<NodeId>, Vec<u32>, Vec<FubId>) {
            pairs.sort_unstable_by_key(|&(n, f)| (n.index(), f.index()));
            pairs.dedup();
            let mut reads = Vec::new();
            let mut offsets = vec![0u32];
            let mut consumers = Vec::with_capacity(pairs.len());
            for (n, f) in pairs {
                if reads.last() != Some(&n) {
                    reads.push(n);
                    offsets.push(consumers.len() as u32);
                }
                consumers.push(f);
                *offsets.last_mut().expect("offsets never empty") = consumers.len() as u32;
            }
            (reads, offsets, consumers)
        }
        let (fwd_reads, fwd_offsets, fwd_consumers) = csr(fwd);
        let (bwd_reads, bwd_offsets, bwd_consumers) = csr(bwd);
        BoundaryDeps {
            fwd_reads,
            fwd_offsets,
            fwd_consumers,
            bwd_reads,
            bwd_offsets,
            bwd_consumers,
        }
    }
}

/// Builds the walk preparation for a netlist.
///
/// # Panics
///
/// Panics if the loop-cut graph still contains a cycle, which indicates the
/// netlist violated the no-combinational-cycle invariant enforced by
/// [`seqavf_netlist::graph::NetlistBuilder::finish`].
pub fn prepare(
    nl: &Netlist,
    roles: RoleMap,
    mapping: &StructureMapping,
    arena: &mut UnionArena,
) -> Prepared {
    let mut terms = TermTable::with_capacity(8 + 2 * nl.structure_count());
    let loop_t = terms.intern(TermKind::Injected(INJ_LOOP.to_owned()));
    let ctrl_t = terms.intern(TermKind::Injected(INJ_CTRL.to_owned()));
    let bin_t = terms.intern(TermKind::Injected(INJ_BOUNDARY_IN.to_owned()));
    let bout_t = terms.intern(TermKind::Injected(INJ_BOUNDARY_OUT.to_owned()));

    // Per-structure read/write terms, named by the mapped performance-model
    // structure (unmapped structures use their own RTL name; the value
    // lookup then falls back to the conservative default).
    let n_structs = nl.structure_count();
    let mut read_t: Vec<TermId> = Vec::with_capacity(n_structs);
    let mut write_t: Vec<TermId> = Vec::with_capacity(n_structs);
    for sid in nl.structure_ids() {
        let name = mapping
            .perf_name(sid)
            .unwrap_or_else(|| nl.structure(sid).name())
            .to_owned();
        read_t.push(terms.intern(TermKind::ReadPort(name.clone())));
        write_t.push(terms.intern(TermKind::WritePort(name)));
    }

    let n = nl.node_count();
    let mut fwd_source: Vec<Option<SetId>> = vec![None; n];
    let mut bwd_source: Vec<Option<SetId>> = vec![None; n];
    let mut bwd_contrib: Vec<Option<SetId>> = vec![None; n];
    let loop_s = arena.singleton(loop_t);
    let ctrl_s = arena.singleton(ctrl_t);
    let bin_s = arena.singleton(bin_t);
    let bout_s = arena.singleton(bout_t);
    for id in nl.nodes() {
        let i = id.index();
        match roles.role(id) {
            NodeRole::StructCell => {
                let seqavf_netlist::graph::NodeKind::StructCell { structure, .. } = nl.kind(id)
                else {
                    unreachable!("role implies kind");
                };
                fwd_source[i] = Some(arena.singleton(read_t[structure.index()]));
                bwd_source[i] = Some(arena.singleton(write_t[structure.index()]));
                bwd_contrib[i] = Some(arena.singleton(write_t[structure.index()]));
            }
            NodeRole::ControlReg => {
                fwd_source[i] = Some(ctrl_s);
                // "Since writes to these control registers are relatively
                // rare, the pAVF_W will approach 0%. As a result, we can
                // omit walks up from these write-ports." (§5.1)
                bwd_source[i] = Some(ctrl_s);
                bwd_contrib[i] = Some(arena.empty());
            }
            NodeRole::LoopSeq => {
                // Loop nodes behave as structures: walks start and stop
                // here with the injected loop-boundary pAVF (§4.3).
                fwd_source[i] = Some(loop_s);
                bwd_source[i] = Some(loop_s);
                bwd_contrib[i] = Some(loop_s);
            }
            NodeRole::BoundaryIn => {
                fwd_source[i] = Some(bin_s);
            }
            NodeRole::BoundaryOut => {
                bwd_source[i] = Some(bout_s);
            }
            NodeRole::Normal => {}
        }
    }

    // Kahn topological sort over the loop-cut graph: fan-in edges of
    // injected nodes are ignored (walks never propagate into a source).
    let cut = |id: NodeId| fwd_source[id.index()].is_some() && roles.role(id).is_injected();
    let mut indeg = vec![0u32; n];
    for id in nl.nodes() {
        if cut(id) {
            continue;
        }
        indeg[id.index()] = nl.fanin(id).len() as u32;
    }
    let mut queue: Vec<NodeId> = nl.nodes().filter(|&id| indeg[id.index()] == 0).collect();
    let mut topo: Vec<NodeId> = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        topo.push(u);
        for &v in nl.fanout(u) {
            if cut(v) {
                continue;
            }
            indeg[v.index()] -= 1;
            if indeg[v.index()] == 0 {
                queue.push(v);
            }
        }
    }
    assert_eq!(
        topo.len(),
        n,
        "loop-cut graph must be acyclic; an uncut cycle remains"
    );

    let mut fub_topo: Vec<Vec<NodeId>> = vec![Vec::new(); nl.fub_count()];
    for &id in &topo {
        fub_topo[nl.fub(id).index()].push(id);
    }

    // Boundary-dependency graph: exactly the cross-partition snapshot
    // reads the partitioned walks perform. Forward: a non-source node
    // reads every foreign fan-in. Backward: a non-source node reads every
    // foreign fan-out whose contribution is not overridden.
    let mut fwd_pairs: Vec<(NodeId, FubId)> = Vec::new();
    let mut bwd_pairs: Vec<(NodeId, FubId)> = Vec::new();
    for id in nl.nodes() {
        let fub = nl.fub(id);
        if fwd_source[id.index()].is_none() {
            for &f in nl.fanin(id) {
                if nl.fub(f) != fub {
                    fwd_pairs.push((f, fub));
                }
            }
        }
        if bwd_source[id.index()].is_none() {
            for &m in nl.fanout(id) {
                if bwd_contrib[m.index()].is_none() && nl.fub(m) != fub {
                    bwd_pairs.push((m, fub));
                }
            }
        }
    }
    let boundary = BoundaryDeps::from_pairs(fwd_pairs, bwd_pairs);

    Prepared {
        terms,
        roles,
        fwd_source,
        bwd_source,
        bwd_contrib,
        topo,
        fub_topo,
        boundary,
    }
}

/// Mutable propagation state: the arena plus per-node forward/backward
/// annotations.
#[derive(Debug, Clone)]
pub struct Propagator<'nl> {
    /// The netlist being analyzed.
    pub nl: &'nl Netlist,
    /// Walk preparation.
    pub prep: Prepared,
    /// Union arena (grows as new sets are formed).
    pub arena: UnionArena,
    /// Per-node forward annotation; starts at the conservative `{TOP}`.
    pub fwd: Vec<SetId>,
    /// Per-node backward annotation; starts at the conservative `{TOP}`.
    pub bwd: Vec<SetId>,
}

impl<'nl> Propagator<'nl> {
    /// Creates a propagator with all nodes at the conservative initial
    /// annotation (Equation 7: "all nodes conservatively start with a pAVF
    /// of 1.0").
    pub fn new(nl: &'nl Netlist, prep: Prepared, arena: UnionArena) -> Self {
        let top = arena.top();
        let n = nl.node_count();
        Propagator {
            nl,
            prep,
            arena,
            fwd: vec![top; n],
            bwd: vec![top; n],
        }
    }

    /// One forward pass over the whole design in topological order: the
    /// global analysis, and the oracle the partitioned mask walk of
    /// [`crate::relax`] is tested against.
    pub fn forward_pass(&mut self) {
        for k in 0..self.prep.topo.len() {
            let n = self.prep.topo[k];
            let i = n.index();
            if let Some(s) = self.prep.fwd_source[i] {
                self.fwd[i] = s;
                continue;
            }
            // A non-source node with no fan-in (e.g. a constant gate) has
            // no measured provenance. The empty set would evaluate to 0.0 —
            // optimistically un-ACE — so resolve it conservatively to TOP;
            // only injected sources and boundary inputs may carry a
            // non-conservative fixed value.
            if self.nl.fanin(n).is_empty() {
                self.fwd[i] = self.arena.top();
                continue;
            }
            let mut acc = self.arena.empty();
            for &f in self.nl.fanin(n) {
                acc = self.arena.union2(acc, self.fwd[f.index()]);
            }
            self.fwd[i] = acc;
        }
    }

    /// One backward pass over the whole design in reverse topological
    /// order, the counterpart of [`Propagator::forward_pass`].
    pub fn backward_pass(&mut self) {
        for k in (0..self.prep.topo.len()).rev() {
            let n = self.prep.topo[k];
            let i = n.index();
            if let Some(s) = self.prep.bwd_source[i] {
                self.bwd[i] = s;
                continue;
            }
            let mut acc = self.arena.empty();
            for &m in self.nl.fanout(n) {
                let v = self.prep.bwd_contrib[m.index()].unwrap_or(self.bwd[m.index()]);
                acc = self.arena.union2(acc, v);
            }
            self.bwd[i] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use crate::mapping::StructureMapping;
    use seqavf_netlist::flatten::parse_netlist;
    use seqavf_netlist::scc::find_loops;

    fn build(text: &str, patterns: &[&str]) -> (Netlist, Propagator<'static>) {
        let nl = Box::leak(Box::new(parse_netlist(text).unwrap()));
        let loops = find_loops(nl);
        let pats: Vec<String> = patterns.iter().map(|s| (*s).to_owned()).collect();
        let roles = classify(nl, &loops, &pats);
        let mut arena = UnionArena::new();
        let prep = prepare(nl, roles, &StructureMapping::new(), &mut arena);
        let prop = Propagator::new(nl, prep, arena);
        (nl.clone(), prop)
    }

    const PIPE: &str = r"
.design p
.fub f
  .struct s1 1
  .struct s2 1
  .flop q1 s1[0]
  .flop q2 q1
  .flop q3 q2
  .sw s2[0] q3
.endfub
.end
";

    #[test]
    fn simple_pipeline_forward_copies_read_term() {
        let (nl, mut p) = build(PIPE, &[]);
        p.forward_pass();
        let s1 = nl.lookup("f.s1[0]").unwrap();
        for q in ["f.q1", "f.q2", "f.q3"] {
            let id = nl.lookup(q).unwrap();
            assert_eq!(p.fwd[id.index()], p.fwd[s1.index()], "{q}");
        }
    }

    #[test]
    fn simple_pipeline_backward_copies_write_term() {
        let (nl, mut p) = build(PIPE, &[]);
        p.backward_pass();
        let s2 = nl.lookup("f.s2[0]").unwrap();
        for q in ["f.q1", "f.q2", "f.q3"] {
            let id = nl.lookup(q).unwrap();
            assert_eq!(p.bwd[id.index()], p.bwd[s2.index()], "{q}");
        }
    }

    const JOIN: &str = r"
.design j
.fub f
  .struct s1 1
  .struct s2 1
  .struct s3 1
  .flop q1a s1[0]
  .flop q1b s2[0]
  .gate nor g1 q1a q1b
  .flop q2a g1
  .sw s3[0] q2a
.endfub
.end
";

    #[test]
    fn join_unions_input_terms() {
        let (nl, mut p) = build(JOIN, &[]);
        p.forward_pass();
        let q2a = nl.lookup("f.q2a").unwrap();
        let set = p.fwd[q2a.index()];
        assert_eq!(p.arena.terms(set).len(), 2, "union of two read terms");
        // Backward: both join inputs inherit the output value (Eq. 9).
        p.backward_pass();
        let q1a = nl.lookup("f.q1a").unwrap();
        let q1b = nl.lookup("f.q1b").unwrap();
        assert_eq!(p.bwd[q1a.index()], p.bwd[q1b.index()]);
        assert_eq!(p.arena.terms(p.bwd[q1a.index()]).len(), 1);
    }

    const SPLIT: &str = r"
.design sp
.fub f
  .struct s1 1
  .struct s2 1
  .struct s3 1
  .flop q1a s1[0]
  .flop q2a q1a
  .flop q2b q1a
  .sw s2[0] q2a
  .sw s3[0] q2b
.endfub
.end
";

    #[test]
    fn split_copies_forward_and_unions_backward() {
        let (nl, mut p) = build(SPLIT, &[]);
        p.forward_pass();
        let q1a = nl.lookup("f.q1a").unwrap();
        let q2a = nl.lookup("f.q2a").unwrap();
        let q2b = nl.lookup("f.q2b").unwrap();
        assert_eq!(p.fwd[q2a.index()], p.fwd[q1a.index()]);
        assert_eq!(p.fwd[q2b.index()], p.fwd[q1a.index()]);
        p.backward_pass();
        // Q1a's backward value is the union of the two write terms (Eq. 10).
        assert_eq!(p.arena.terms(p.bwd[q1a.index()]).len(), 2);
    }

    #[test]
    fn loop_nodes_are_sources_in_both_directions() {
        let text = r"
.design l
.fub f
  .struct s1 1
  .flop a b
  .flop b a
  .flop q s1[0]
  .gate and g q a
  .flop out g
  .sw s1[0] out
.endfub
.end
";
        let (nl, mut p) = build(text, &[]);
        p.forward_pass();
        p.backward_pass();
        let a = nl.lookup("f.a").unwrap();
        let g = nl.lookup("f.out").unwrap();
        // a's forward value is the injected loop term.
        let terms: Vec<_> = p
            .arena
            .terms(p.fwd[a.index()])
            .iter()
            .map(|&t| p.prep.terms.kind(t).clone())
            .collect();
        assert_eq!(terms, vec![TermKind::Injected(INJ_LOOP.to_owned())]);
        // The loop term ripples into downstream logic ("the AVF used for
        // loops could … propagate into sequentials fed by … the loop").
        assert!(p
            .arena
            .terms(p.fwd[g.index()])
            .iter()
            .any(|&t| *p.prep.terms.kind(t) == TermKind::Injected(INJ_LOOP.to_owned())));
    }

    #[test]
    fn control_reg_contributes_nothing_backward() {
        let text = r"
.design c
.fub f
  .input cfg
  .struct s1 1
  .flop creg_x cfg cfg
  .flop q s1[0]
  .sw s1[0] q
  .flop feeder q
  .gate and g feeder creg_x
  .flop dead g
.endfub
.end
";
        let (nl, mut p) = build(text, &["creg"]);
        p.forward_pass();
        p.backward_pass();
        let creg = nl.lookup("f.creg_x").unwrap();
        // Forward: the control-reg term.
        assert_eq!(
            p.prep.terms.kind(p.arena.terms(p.fwd[creg.index()])[0]),
            &TermKind::Injected(INJ_CTRL.to_owned())
        );
        // `dead` has no consumers at all -> backward empty -> resolves to 0.
        let dead = nl.lookup("f.dead").unwrap();
        assert_eq!(p.bwd[dead.index()], p.arena.empty());
    }

    #[test]
    fn zero_fanin_normal_node_resolves_to_top() {
        use seqavf_netlist::graph::{GateOp, NetlistBuilder, NodeKind, SeqKind};
        let mut b = NetlistBuilder::new("z");
        let f = b.add_fub("f");
        let s1 = b.add_structure("f.s1", 1, f);
        let cell = b.structure_cell(s1, 0);
        let c = b.add_node("f.c", NodeKind::Comb(GateOp::Const1), f);
        let g = b.add_node("f.g", NodeKind::Comb(GateOp::And), f);
        let q = b.add_node(
            "f.q",
            NodeKind::Seq {
                kind: SeqKind::Flop,
                has_enable: false,
            },
            f,
        );
        let o = b.add_node("f.o", NodeKind::Output, f);
        b.connect(cell, g);
        b.connect(c, g);
        b.connect(g, q);
        b.connect(q, o);
        let nl = Box::leak(Box::new(b.finish().unwrap()));
        let loops = find_loops(nl);
        let roles = classify(nl, &loops, &[]);
        assert_eq!(roles.role(c), crate::classify::NodeRole::Normal);
        let mut arena = UnionArena::new();
        let prep = prepare(nl, roles, &StructureMapping::new(), &mut arena);
        let mut p = Propagator::new(nl, prep, arena);
        p.forward_pass();
        // The constant gate has no fan-in and no injected source: its
        // forward value must be the conservative TOP, not the optimistic
        // empty set (which evaluates to 0.0).
        assert_eq!(p.fwd[c.index()], p.arena.top());
        // TOP absorbs through the downstream join.
        assert_eq!(p.fwd[g.index()], p.arena.top());
        assert_eq!(p.fwd[q.index()], p.arena.top());
    }

    #[test]
    fn boundary_deps_record_cross_fub_reads() {
        let text = r"
.design x
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
.end
";
        let (nl, p) = build(text, &[]);
        let deps = &p.prep.boundary;
        let a_o = nl.lookup("a.o").unwrap();
        let b_r = nl.lookup("b.r").unwrap();
        let fub_a = nl.fub(a_o);
        let fub_b = nl.fub(b_r);
        // Forward: b reads a.o's annotation from the snapshot.
        let k = deps
            .fwd_reads
            .iter()
            .position(|&n| n == a_o)
            .expect("a.o is a forward boundary read");
        assert_eq!(deps.fwd_consumers_of(k), &[fub_b]);
        // Backward: a reads b.r's annotation from the snapshot.
        let k = deps
            .bwd_reads
            .iter()
            .position(|&n| n == b_r)
            .expect("b.r is a backward boundary read");
        assert_eq!(deps.bwd_consumers_of(k), &[fub_a]);
        // Every recorded read really crosses the partition, and no
        // consumer list names the read node's own FUB.
        for (k, &n) in deps.fwd_reads.iter().enumerate() {
            assert!(!deps.fwd_consumers_of(k).is_empty());
            assert!(!deps.fwd_consumers_of(k).contains(&nl.fub(n)));
        }
        for (k, &n) in deps.bwd_reads.iter().enumerate() {
            assert!(!deps.bwd_consumers_of(k).is_empty());
            assert!(!deps.bwd_consumers_of(k).contains(&nl.fub(n)));
        }
    }
}
