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
//! [`prepare`] fixes the sources and splits the design into the
//! relaxation's partitions: one per FUB for the paper's partitioned
//! analysis (§5.2), or the whole design as one. The walks themselves are
//! [`crate::relax`]'s mask walk over those partitions; the [`Propagator`]
//! holds their annotations.

use seqavf_netlist::graph::{Netlist, NodeId};

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
/// per-node source/contribution overrides, and the partitions the
/// relaxation walks.
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
    /// The relaxation's partitions, each one topological order of the
    /// loop-cut graph restricted to its nodes: one per FUB (partition `f`
    /// is FUB `f`) when partitioned, else the whole design as one.
    pub parts: Vec<Vec<NodeId>>,
    /// Partition of every node, indexed by [`NodeId::index`].
    pub part_of: Vec<u32>,
    /// Cross-partition boundary reads for incremental relaxation.
    pub boundary: BoundaryDeps,
}

/// The nodes whose annotations another partition reads, in each walk
/// direction — what the incremental relaxation diffs at every iteration
/// barrier (§5.2 only re-walks partitions downstream of a changed FUBIO
/// value).
///
/// A node is a *forward* boundary read when some node of another
/// partition takes it as a fan-in and is not itself a fixed forward
/// source: the walk then reads the node's forward annotation from the
/// iteration snapshot. Symmetrically, a node is a *backward* boundary read
/// when some node of another partition has it as a fan-out, is not a fixed
/// backward source, and the read node's backward contribution is not
/// overridden (overridden contributions are iteration-invariant). Which
/// partitions read a moved node follows from its fan-outs (forward) or
/// fan-ins (backward), so only the read nodes are stored. One partition
/// reads nothing across a boundary.
#[derive(Debug, Clone, Default)]
pub struct BoundaryDeps {
    /// Nodes whose forward annotation is read across a partition,
    /// ascending.
    pub fwd_reads: Vec<NodeId>,
    /// Nodes whose backward annotation is read across a partition,
    /// ascending.
    pub bwd_reads: Vec<NodeId>,
}

/// Builds the walk preparation for a netlist, split into one partition
/// per FUB when `partitioned`, else into one partition.
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
    partitioned: bool,
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
    // Ready nodes leave in arrival order, which fixes each partition's
    // order and so the `SetId` numbering.
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

    let part_of: Vec<u32> = if partitioned {
        nl.nodes().map(|id| nl.fub(id).index() as u32).collect()
    } else {
        vec![0; n]
    };
    let mut parts: Vec<Vec<NodeId>> =
        vec![Vec::new(); if partitioned { nl.fub_count() } else { 1 }];
    for id in topo {
        parts[part_of[id.index()] as usize].push(id);
    }

    // Boundary reads: exactly the cross-partition snapshot reads the
    // walks perform. Forward: a non-source node reads every foreign
    // fan-in. Backward: a non-source node reads every foreign fan-out
    // whose contribution is not overridden.
    let mut fwd_read = vec![false; n];
    let mut bwd_read = vec![false; n];
    for id in nl.nodes() {
        let part = part_of[id.index()];
        if fwd_source[id.index()].is_none() {
            for &f in nl.fanin(id) {
                if part_of[f.index()] != part {
                    fwd_read[f.index()] = true;
                }
            }
        }
        if bwd_source[id.index()].is_none() {
            for &m in nl.fanout(id) {
                if bwd_contrib[m.index()].is_none() && part_of[m.index()] != part {
                    bwd_read[m.index()] = true;
                }
            }
        }
    }
    let reads = |marked: &[bool]| nl.nodes().filter(|n| marked[n.index()]).collect();
    let boundary = BoundaryDeps {
        fwd_reads: reads(&fwd_read),
        bwd_reads: reads(&bwd_read),
    };

    Prepared {
        terms,
        roles,
        fwd_source,
        bwd_source,
        bwd_contrib,
        parts,
        part_of,
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
    /// Union arena (grows as the relaxation interns new sets).
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use crate::mapping::StructureMapping;
    use crate::relax::relax_partitioned;
    use seqavf_netlist::flatten::parse_netlist;
    use seqavf_netlist::scc::find_loops;
    use seqavf_obs::Collector;

    fn prepared(
        text: &str,
        patterns: &[&str],
        partitioned: bool,
    ) -> (Netlist, Propagator<'static>) {
        let nl = Box::leak(Box::new(parse_netlist(text).unwrap()));
        let loops = find_loops(nl);
        let pats: Vec<String> = patterns.iter().map(|s| (*s).to_owned()).collect();
        let roles = classify(nl, &loops, &pats);
        let mut arena = UnionArena::new();
        let prep = prepare(nl, roles, &StructureMapping::new(), partitioned, &mut arena);
        let prop = Propagator::new(nl, prep, arena);
        (nl.clone(), prop)
    }

    /// Relaxes `p` to its fixpoint through the production walk.
    fn relax(p: &mut Propagator<'_>) {
        let values = p.prep.terms.values(&|_| None, &|_| None, 1.0, 1.0);
        let out = relax_partitioned(p, &values, 20, 1, true, None, &Collector::disabled());
        assert!(out.converged);
    }

    /// The walked annotations of a one-FUB design.
    fn build(text: &str, patterns: &[&str]) -> (Netlist, Propagator<'static>) {
        let (nl, mut p) = prepared(text, patterns, true);
        relax(&mut p);
        (nl, p)
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
        let (nl, p) = build(PIPE, &[]);
        let s1 = nl.lookup("f.s1[0]").unwrap();
        for q in ["f.q1", "f.q2", "f.q3"] {
            let id = nl.lookup(q).unwrap();
            assert_eq!(p.fwd[id.index()], p.fwd[s1.index()], "{q}");
        }
    }

    #[test]
    fn simple_pipeline_backward_copies_write_term() {
        let (nl, p) = build(PIPE, &[]);
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
        let (nl, p) = build(JOIN, &[]);
        let q2a = nl.lookup("f.q2a").unwrap();
        let set = p.fwd[q2a.index()];
        assert_eq!(p.arena.terms(set).len(), 2, "union of two read terms");
        // Backward: both join inputs inherit the output value (Eq. 9).
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
        let (nl, p) = build(SPLIT, &[]);
        let q1a = nl.lookup("f.q1a").unwrap();
        let q2a = nl.lookup("f.q2a").unwrap();
        let q2b = nl.lookup("f.q2b").unwrap();
        assert_eq!(p.fwd[q2a.index()], p.fwd[q1a.index()]);
        assert_eq!(p.fwd[q2b.index()], p.fwd[q1a.index()]);
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
        let (nl, p) = build(text, &[]);
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
        let (nl, p) = build(text, &["creg"]);
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
        let prep = prepare(nl, roles, &StructureMapping::new(), true, &mut arena);
        let mut p = Propagator::new(nl, prep, arena);
        relax(&mut p);
        // The constant gate has no fan-in and no injected source: its
        // forward value must be the conservative TOP, not the optimistic
        // empty set (which evaluates to 0.0).
        assert_eq!(p.fwd[c.index()], p.arena.top());
        // TOP absorbs through the downstream join.
        assert_eq!(p.fwd[g.index()], p.arena.top());
        assert_eq!(p.fwd[q.index()], p.arena.top());
    }

    /// Two FUBs, `a` feeding `b` through `a.o`.
    const TWO_FUBS: &str = r"
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

    #[test]
    fn boundary_deps_record_cross_fub_reads() {
        let (nl, p) = prepared(TWO_FUBS, &[], true);
        let a_o = nl.lookup("a.o").unwrap();
        let b_r = nl.lookup("b.r").unwrap();
        // Forward: b reads a.o's annotation from the snapshot. Backward: a
        // reads b.r's. Nothing else crosses.
        assert_eq!(p.prep.boundary.fwd_reads, vec![a_o]);
        assert_eq!(p.prep.boundary.bwd_reads, vec![b_r]);
        // One partition reads nothing across a boundary.
        let (_, one) = prepared(TWO_FUBS, &[], false);
        assert!(one.prep.boundary.fwd_reads.is_empty());
        assert!(one.prep.boundary.bwd_reads.is_empty());
    }

    #[test]
    fn partitions_are_the_fubs_or_the_whole_design() {
        let (nl, p) = prepared(TWO_FUBS, &[], true);
        assert_eq!(p.prep.parts.len(), nl.fub_count());
        for (k, order) in p.prep.parts.iter().enumerate() {
            let mut members: Vec<NodeId> = order.clone();
            members.sort_by_key(|n| n.index());
            let fub: Vec<NodeId> = nl.nodes().filter(|&n| nl.fub(n).index() == k).collect();
            assert_eq!(members, fub, "partition {k} is FUB {k}");
            assert!(order
                .iter()
                .all(|n| p.prep.part_of[n.index()] as usize == k));
        }
        let (_, one) = prepared(TWO_FUBS, &[], false);
        assert_eq!(one.prep.parts.len(), 1);
        assert_eq!(one.prep.parts[0].len(), nl.node_count());
        assert!(one.prep.part_of.iter().all(|&k| k == 0));
        // The whole-design order is topological: every fan-in of a walked
        // (non-source) node comes first.
        let mut pos = vec![0; nl.node_count()];
        for (k, n) in one.prep.parts[0].iter().enumerate() {
            pos[n.index()] = k;
        }
        for n in nl.nodes() {
            if one.prep.fwd_source[n.index()].is_none() {
                for f in nl.fanin(n) {
                    assert!(pos[f.index()] < pos[n.index()]);
                }
            }
        }
    }
}
