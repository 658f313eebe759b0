//! Shared generator of valid EXLIF designs for the snapshot and
//! parallel-flatten property tests: every produced source must parse and
//! flatten cleanly, while covering structures, struct writes, latches,
//! FSM feedback loops and hierarchical `.subckt` instances across a
//! variable number of FUBs.
#![allow(dead_code)]

use proptest::prelude::*;

/// Shape parameters of one generated FUB.
#[derive(Debug, Clone)]
pub struct FubShape {
    /// Pipeline depth in sequential stages.
    pub flops: usize,
    /// ACE-structure width in bit cells.
    pub width: u32,
    /// Number of `stage` model instances to inline.
    pub insts: usize,
    /// Whether to add a two-flop FSM feedback loop.
    pub fsm: bool,
    /// Whether to alternate latches into the pipeline.
    pub latches: bool,
}

fn arb_fub_shape() -> impl Strategy<Value = FubShape> {
    (1usize..8, 1u32..5, 0usize..3, any::<bool>(), any::<bool>()).prop_map(
        |(flops, width, insts, fsm, latches)| FubShape {
            flops,
            width,
            insts,
            fsm,
            latches,
        },
    )
}

/// A random multi-FUB EXLIF design source.
pub fn arb_design() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_fub_shape(), 1..5).prop_map(render_design)
}

/// Renders the FUB shapes as EXLIF text.
pub fn render_design(fubs: Vec<FubShape>) -> String {
    let mut s = String::from(".design gen\n");
    s.push_str(
        ".model stage\n  .minput d\n  .moutput q\n  .gate not gi d\n  .flop q gi\n.endmodel\n",
    );
    for (fi, f) in fubs.iter().enumerate() {
        s.push_str(&format!(".fub f{fi}\n  .input in{fi}\n"));
        s.push_str(&format!("  .struct st{fi} {}\n", f.width));
        s.push_str(&format!("  .gate and g{fi}_0 in{fi} st{fi}[0]\n"));
        let mut prev = format!("g{fi}_0");
        for i in 0..f.flops {
            let kind = if f.latches && i % 2 == 1 {
                ".latch"
            } else {
                ".flop"
            };
            s.push_str(&format!("  {kind} q{fi}_{i} {prev}\n"));
            prev = format!("q{fi}_{i}");
        }
        for b in 1..f.width {
            s.push_str(&format!("  .sw st{fi}[{b}] {prev}\n"));
        }
        if f.fsm {
            // Forward references are legal: the loop gate reads a flop
            // declared below it.
            s.push_str(&format!("  .gate or lg{fi} a{fi}_1 {prev}\n"));
            s.push_str(&format!("  .flop a{fi}_0 lg{fi}\n"));
            s.push_str(&format!("  .flop a{fi}_1 a{fi}_0\n"));
        }
        for k in 0..f.insts {
            s.push_str(&format!("  .subckt stage u{fi}_{k} d={prev}\n"));
            s.push_str(&format!("  .output sout{fi}_{k} u{fi}_{k}.q\n"));
        }
        s.push_str(&format!("  .output out{fi} {prev}\n.endfub\n"));
    }
    s.push_str(".end\n");
    s
}

/// Shape of one FUB in the hierarchy-heavy generator ([`arb_hier_design`]).
#[derive(Debug, Clone)]
pub struct HierFub {
    /// Reuse the previous FUB's name: two FUBs then share one prefix.
    pub same_name: bool,
    /// ACE-structure width in bit cells.
    pub width: u32,
    /// Instances of `mid`, whose formals pass through two levels.
    pub mids: usize,
    /// Instances of `reader`, each reading a net `x` its parent defines
    /// with a dotted local name (`.gate buf r.x ...`).
    pub readers: usize,
    /// Read a flop two levels down an instance (`u.l1.q`).
    pub deep_ref: bool,
    /// Bind one formal twice (the later binding wins).
    pub rebind: bool,
    /// Read flops of the neighbouring FUBs (`other.net`), forward too.
    pub cross: bool,
}

/// A defect injected into a generated design, or none.
#[derive(Debug, Clone, Copy)]
pub enum Fault {
    /// A valid design.
    None,
    /// A `reader` instance whose parent never defines its `x`.
    UndefinedInInstance,
    /// A gate defined twice in one scope.
    Duplicate,
    /// A dotted definition that names a net the instance also defines.
    DuplicateAcrossScopes,
    /// A `.sw` past the structure's width.
    SwOutOfRange,
}

fn arb_hier_fub() -> impl Strategy<Value = HierFub> {
    (
        (any::<bool>(), 1u32..4, 0usize..3, 0usize..3),
        (any::<bool>(), any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |((same_name, width, mids, readers), (deep_ref, rebind, cross))| HierFub {
                same_name,
                width,
                mids,
                readers,
                deep_ref,
                rebind,
                cross,
            },
        )
}

/// Half of the generated designs are valid; the rest carry one fault.
fn arb_fault() -> impl Strategy<Value = Fault> {
    (0u8..8).prop_map(|k| match k {
        4 => Fault::UndefinedInInstance,
        5 => Fault::Duplicate,
        6 => Fault::DuplicateAcrossScopes,
        7 => Fault::SwOutOfRange,
        _ => Fault::None,
    })
}

/// A random hierarchical EXLIF design, possibly with one injected fault
/// (in the FUB picked by the index, modulo the FUB count). Covers nested
/// models with formals substituted through two levels, dotted reads into
/// child instances, dotted local definitions read from inside an
/// instance, FUBs sharing a name, cross-FUB and forward references, and
/// structure-cell reads. `mid` defines a local `x` and `reader` reads an
/// `x` it does not define, so a reader instance spells a name an earlier
/// scope defined: it must resolve through its parent, never to that
/// scope's `x`.
pub fn arb_hier_design() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(arb_hier_fub(), 1..5),
        arb_fault(),
        0usize..8,
    )
        .prop_map(|(fubs, fault, at)| render_hier_design(&fubs, fault, at))
}

/// Renders [`arb_hier_design`]'s shapes as EXLIF text.
pub fn render_hier_design(fubs: &[HierFub], fault: Fault, at: usize) -> String {
    let mut s = String::from(".design hier\n");
    s.push_str(
        ".model leaf\n  .minput d e\n  .moutput q\n  .gate and t d e\n  .flop q t\n.endmodel\n",
    );
    s.push_str(concat!(
        ".model mid\n  .minput a b\n  .moutput q\n",
        "  .subckt leaf l0 d=a e=b\n  .subckt leaf l1 d=l0.q e=a\n",
        "  .gate buf x l0.t\n  .gate or q l1.q x\n.endmodel\n",
    ));
    s.push_str(".model reader\n  .minput a\n  .moutput y\n  .gate and y a x\n.endmodel\n");
    let mut names: Vec<String> = Vec::with_capacity(fubs.len());
    for (fi, f) in fubs.iter().enumerate() {
        let name = match names.last() {
            Some(prev) if f.same_name => prev.clone(),
            _ => format!("f{fi}"),
        };
        s.push_str(&format!(".fub {name}\n  .input in{fi}\n"));
        s.push_str(&format!("  .struct st{fi} {}\n", f.width));
        s.push_str(&format!("  .gate and g{fi}_0 in{fi} st{fi}[0]\n"));
        // A forward reference: q{fi}_1 is declared below.
        s.push_str(&format!("  .gate or fw{fi} q{fi}_1 g{fi}_0\n"));
        s.push_str(&format!(
            "  .flop q{fi}_0 g{fi}_0\n  .flop q{fi}_1 q{fi}_0\n"
        ));
        for b in 1..f.width {
            s.push_str(&format!("  .sw st{fi}[{b}] q{fi}_1\n"));
        }
        for k in 0..f.mids {
            let bind = if f.rebind {
                format!("a=in{fi} b=in{fi} a=q{fi}_0")
            } else {
                format!("a=q{fi}_0 b=in{fi}")
            };
            s.push_str(&format!("  .subckt mid u{fi}_{k} {bind}\n"));
            s.push_str(&format!("  .output mo{fi}_{k} u{fi}_{k}.q\n"));
            if f.deep_ref {
                s.push_str(&format!("  .gate buf dr{fi}_{k} u{fi}_{k}.l1.q\n"));
            }
        }
        for k in 0..f.readers {
            s.push_str(&format!("  .gate buf r{fi}_{k}.x q{fi}_1\n"));
            s.push_str(&format!("  .subckt reader r{fi}_{k} a=fw{fi}\n"));
            s.push_str(&format!("  .output ro{fi}_{k} r{fi}_{k}.y\n"));
        }
        if f.cross {
            if let Some(prev) = names.last() {
                s.push_str(&format!(
                    "  .gate xor cx{fi} q{fi}_0 {prev}.q{}_1\n",
                    fi - 1
                ));
            }
            if fi + 1 < fubs.len() {
                let next = if fubs[fi + 1].same_name {
                    name.clone()
                } else {
                    format!("f{}", fi + 1)
                };
                s.push_str(&format!("  .gate buf cf{fi} {next}.q{}_0\n", fi + 1));
            }
        }
        if fi == at % fubs.len() {
            match fault {
                Fault::None => {}
                Fault::UndefinedInInstance => {
                    s.push_str(&format!("  .subckt reader rz{fi} a=in{fi}\n"));
                }
                Fault::Duplicate => s.push_str(&format!("  .gate buf g{fi}_0 in{fi}\n")),
                Fault::DuplicateAcrossScopes => {
                    s.push_str(&format!("  .subckt leaf lz{fi} d=in{fi} e=in{fi}\n"));
                    s.push_str(&format!("  .gate buf lz{fi}.t in{fi}\n"));
                }
                Fault::SwOutOfRange => {
                    s.push_str(&format!("  .sw st{fi}[{}] in{fi}\n", f.width + 1));
                }
            }
        }
        s.push_str(&format!("  .output out{fi} fw{fi}\n.endfub\n"));
        names.push(name);
    }
    s.push_str(".end\n");
    s
}
