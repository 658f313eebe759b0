//! The reference walk: the equations of §4.1 iterated to their fixpoint
//! over plain sorted term lists, with no arena, masks, partitions or
//! worklists. It is the independent oracle the relaxation is checked
//! against.
//!
//! - Forward: a source node takes its fixed term; a non-source node with
//!   no fan-in takes the conservative TOP; any other node takes the union
//!   of its fan-ins.
//! - Backward: a sink node takes its fixed term; any other node takes the
//!   union of its fan-outs' contributions, where a structure cell or a
//!   loop boundary contributes its own term, a control register nothing,
//!   and every other node its backward value.
//!
//! A union holding TOP is `{TOP}`. Every node starts at `{TOP}`
//! (Equation 7), and each round recomputes every node from the previous
//! values until no set moves.

use seqavf::core::arena::{TermId, TermKind, TermTable};
use seqavf::core::classify::{NodeRole, RoleMap};
use seqavf::core::walk::{INJ_BOUNDARY_IN, INJ_BOUNDARY_OUT, INJ_CTRL, INJ_LOOP};
use seqavf::netlist::graph::{Netlist, NodeKind};

/// A term set: sorted, without repeats, and `{TOP}` alone when TOP is in
/// it.
pub type Terms = Vec<TermId>;

fn union(sets: &[&Terms], top: TermId) -> Terms {
    let mut out: Terms = sets.iter().flat_map(|s| s.iter().copied()).collect();
    out.sort_unstable();
    out.dedup();
    if out.contains(&top) {
        out = vec![top];
    }
    out
}

/// Every node's forward and backward term set at the fixpoint of the walk
/// equations. `terms`, `roles` and `perf_names` (the performance structure
/// of each netlist structure) are the ones the solve under test used.
///
/// # Panics
///
/// Panics if the equations do not settle within one round per node,
/// which would mean a cycle the loop cut missed.
pub fn walk(
    nl: &Netlist,
    roles: &RoleMap,
    terms: &TermTable,
    perf_names: &[String],
) -> (Vec<Terms>, Vec<Terms>) {
    let top = terms.top();
    let term = |kind: TermKind| vec![terms.get(&kind).expect("the solve interned this term")];
    let injected = |name: &str| term(TermKind::Injected(name.to_owned()));
    let n = nl.node_count();
    let mut fwd_source: Vec<Option<Terms>> = vec![None; n];
    let mut bwd_source: Vec<Option<Terms>> = vec![None; n];
    let mut contrib: Vec<Option<Terms>> = vec![None; n];
    for id in nl.nodes() {
        let i = id.index();
        match roles.role(id) {
            NodeRole::StructCell => {
                let NodeKind::StructCell { structure, .. } = nl.kind(id) else {
                    panic!("a structure cell's role without its kind");
                };
                let perf = &perf_names[structure.index()];
                fwd_source[i] = Some(term(TermKind::ReadPort(perf.clone())));
                bwd_source[i] = Some(term(TermKind::WritePort(perf.clone())));
                contrib[i] = bwd_source[i].clone();
            }
            NodeRole::ControlReg => {
                fwd_source[i] = Some(injected(INJ_CTRL));
                bwd_source[i] = Some(injected(INJ_CTRL));
                contrib[i] = Some(Vec::new());
            }
            NodeRole::LoopSeq => {
                fwd_source[i] = Some(injected(INJ_LOOP));
                bwd_source[i] = Some(injected(INJ_LOOP));
                contrib[i] = Some(injected(INJ_LOOP));
            }
            NodeRole::BoundaryIn => fwd_source[i] = Some(injected(INJ_BOUNDARY_IN)),
            NodeRole::BoundaryOut => bwd_source[i] = Some(injected(INJ_BOUNDARY_OUT)),
            NodeRole::Normal => {}
        }
    }

    let mut fwd: Vec<Terms> = vec![vec![top]; n];
    let mut bwd: Vec<Terms> = vec![vec![top]; n];
    for _ in 0..=n + 1 {
        let next_fwd: Vec<Terms> = nl
            .nodes()
            .map(|id| match &fwd_source[id.index()] {
                Some(s) => s.clone(),
                None if nl.fanin(id).is_empty() => vec![top],
                None => {
                    let ins: Vec<&Terms> = nl.fanin(id).iter().map(|f| &fwd[f.index()]).collect();
                    union(&ins, top)
                }
            })
            .collect();
        let next_bwd: Vec<Terms> = nl
            .nodes()
            .map(|id| match &bwd_source[id.index()] {
                Some(s) => s.clone(),
                None => {
                    let outs: Vec<&Terms> = nl
                        .fanout(id)
                        .iter()
                        .map(|m| contrib[m.index()].as_ref().unwrap_or(&bwd[m.index()]))
                        .collect();
                    union(&outs, top)
                }
            })
            .collect();
        if next_fwd == fwd && next_bwd == bwd {
            return (fwd, bwd);
        }
        fwd = next_fwd;
        bwd = next_bwd;
    }
    panic!("the walk equations did not settle in {} rounds", n + 2);
}
