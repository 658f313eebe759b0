//! Reference flattener for the oracle property tests: the name-probing
//! resolver that preceded the dense per-scope tables, kept as a
//! straightforward implementation the optimized `flatten` must match
//! exactly — node ids, symbol ids, edge order and error selection.
//!
//! It uses only the public builder and interner API, and runs the
//! expand/merge/resolve/connect phases sequentially (their output never
//! depended on the thread count). Every fan-in reference walks the formal
//! substitution chain, then probes the interner for `prefix + raw`, then,
//! for a dotted name, for `raw` design-wide.

use std::collections::HashMap;

use seqavf_netlist::error::{BuildError, ExlifError, ExlifErrorKind};
use seqavf_netlist::exlif::{DesignAst, ModelAst, Stmt};
use seqavf_netlist::graph::{
    FubId, GateOp, Netlist, NetlistBuilder, NodeId, NodeKind, SeqKind, StructId,
};
use seqavf_netlist::intern::{Sym, SymbolTable};

struct ScopeRec {
    parent: Option<u32>,
    inst: Option<Sym>,
    subst: Vec<(Sym, Sym)>,
}

enum Event {
    Input {
        scope: u32,
        name: Sym,
    },
    Output {
        scope: u32,
        name: Sym,
        src: Sym,
    },
    Struct {
        scope: u32,
        name: Sym,
        width: u32,
    },
    StructWrite {
        scope: u32,
        structure: Sym,
        bit: u32,
        src: Sym,
    },
    Gate {
        scope: u32,
        op: GateOp,
        out: Sym,
        ins: Vec<Sym>,
    },
    Seq {
        scope: u32,
        kind: SeqKind,
        out: Sym,
        d: Sym,
        en: Option<Sym>,
    },
}

struct FubExpansion {
    scopes: Vec<ScopeRec>,
    events: Vec<Event>,
    err: Option<ExlifError>,
}

struct GlobalScope {
    prefix: Sym,
    parent: Option<usize>,
    subst: Vec<(Sym, Sym)>,
}

struct Ref {
    scope: usize,
    raw: Sym,
}

struct FlatConn {
    node: NodeId,
    ins: Vec<Ref>,
}

fn err0(kind: ExlifErrorKind) -> ExlifError {
    ExlifError { line: 0, kind }
}

/// Flattens `ast` the way the name-probing resolver did.
pub fn build_netlist(ast: &DesignAst) -> Result<Netlist, ExlifError> {
    let models: HashMap<Sym, &ModelAst> = ast.models.iter().map(|m| (m.name, m)).collect();
    let expansions: Vec<FubExpansion> = ast
        .fubs
        .iter()
        .map(|fub| {
            let mut exp = FubExpansion {
                scopes: vec![ScopeRec {
                    parent: None,
                    inst: None,
                    subst: Vec::new(),
                }],
                events: Vec::new(),
                err: None,
            };
            let mut stack = Vec::new();
            if let Err(e) = expand_stmts(&fub.stmts, 0, &models, &ast.symbols, &mut exp, &mut stack)
            {
                exp.err = Some(e);
            }
            exp
        })
        .collect();

    let mut builder = NetlistBuilder::with_symbols(ast.name.clone(), ast.symbols.clone());
    let mut scopes: Vec<GlobalScope> = Vec::new();
    let mut flat: Vec<FlatConn> = Vec::new();
    let mut structs_by_sym: HashMap<Sym, StructId> = HashMap::new();
    for (fub_idx, exp) in expansions.into_iter().enumerate() {
        let fub_ast = &ast.fubs[fub_idx];
        let fub = builder.add_fub_sym(fub_ast.name);
        let base = scopes.len();
        for rec in exp.scopes {
            let (prefix, parent) = match rec.inst {
                None => (
                    builder.symbols_mut().intern_prefix(None, fub_ast.name),
                    None,
                ),
                Some(inst) => {
                    let parent = base + rec.parent.expect("child scope has a parent") as usize;
                    let parent_prefix = scopes[parent].prefix;
                    (
                        builder
                            .symbols_mut()
                            .intern_prefix(Some(parent_prefix), inst),
                        Some(parent),
                    )
                }
            };
            scopes.push(GlobalScope {
                prefix,
                parent,
                subst: rec.subst,
            });
        }
        replay_events(
            exp.events,
            base,
            fub,
            &mut builder,
            &scopes,
            &mut flat,
            &mut structs_by_sym,
        )?;
        if let Some(e) = exp.err {
            return Err(e);
        }
    }

    let mut resolved = Vec::with_capacity(flat.len());
    for conn in &flat {
        let ids: Result<Vec<NodeId>, ExlifError> = conn
            .ins
            .iter()
            .map(|r| resolve_ref(&builder, &scopes, r.scope, r.raw))
            .collect();
        resolved.push(ids);
    }
    for (conn, res) in flat.iter().zip(resolved) {
        for id in res? {
            builder.connect(id, conn.node);
        }
    }
    builder.finish().map_err(|e| err0(e.into()))
}

fn expand_stmts(
    stmts: &[Stmt],
    scope: u32,
    models: &HashMap<Sym, &ModelAst>,
    symbols: &SymbolTable,
    exp: &mut FubExpansion,
    model_stack: &mut Vec<Sym>,
) -> Result<(), ExlifError> {
    for stmt in stmts {
        match stmt {
            Stmt::Input(name) => exp.events.push(Event::Input { scope, name: *name }),
            Stmt::Output { name, src } => exp.events.push(Event::Output {
                scope,
                name: *name,
                src: *src,
            }),
            Stmt::Struct { name, width } => exp.events.push(Event::Struct {
                scope,
                name: *name,
                width: *width,
            }),
            Stmt::StructWrite {
                structure,
                bit,
                src,
            } => exp.events.push(Event::StructWrite {
                scope,
                structure: *structure,
                bit: *bit,
                src: *src,
            }),
            Stmt::Gate { op, out, ins } => exp.events.push(Event::Gate {
                scope,
                op: *op,
                out: *out,
                ins: ins.clone(),
            }),
            Stmt::Seq { kind, out, d, en } => exp.events.push(Event::Seq {
                scope,
                kind: *kind,
                out: *out,
                d: *d,
                en: *en,
            }),
            Stmt::Subckt { model, inst, conns } => {
                let m = models.get(model).ok_or_else(|| {
                    err0(ExlifErrorKind::UnknownModel(
                        symbols.resolve(*model).to_owned(),
                    ))
                })?;
                if model_stack.contains(model) {
                    return Err(err0(ExlifErrorKind::RecursiveModel(
                        symbols.resolve(*model).to_owned(),
                    )));
                }
                let mut subst: Vec<(Sym, Sym)> = Vec::with_capacity(conns.len());
                for &(formal, actual) in conns {
                    if !m.inputs.contains(&formal) {
                        return Err(err0(ExlifErrorKind::UnknownPort {
                            model: symbols.resolve(*model).to_owned(),
                            port: symbols.resolve(formal).to_owned(),
                        }));
                    }
                    match subst.iter_mut().find(|(f, _)| *f == formal) {
                        Some(entry) => entry.1 = actual,
                        None => subst.push((formal, actual)),
                    }
                }
                let child = exp.scopes.len() as u32;
                exp.scopes.push(ScopeRec {
                    parent: Some(scope),
                    inst: Some(*inst),
                    subst,
                });
                model_stack.push(*model);
                expand_stmts(&m.stmts, child, models, symbols, exp, model_stack)?;
                model_stack.pop();
            }
        }
    }
    Ok(())
}

fn replay_events(
    events: Vec<Event>,
    base: usize,
    fub: FubId,
    builder: &mut NetlistBuilder,
    scopes: &[GlobalScope],
    flat: &mut Vec<FlatConn>,
    structs_by_sym: &mut HashMap<Sym, StructId>,
) -> Result<(), ExlifError> {
    for ev in events {
        match ev {
            Event::Input { scope, name } => {
                let prefix = scopes[base + scope as usize].prefix;
                let abs = builder.symbols_mut().intern_join(prefix, name);
                builder.add_node_sym(abs, NodeKind::Input, fub);
            }
            Event::Output { scope, name, src } => {
                let gscope = base + scope as usize;
                let abs = builder
                    .symbols_mut()
                    .intern_join(scopes[gscope].prefix, name);
                let node = builder.add_node_sym(abs, NodeKind::Output, fub);
                flat.push(FlatConn {
                    node,
                    ins: vec![Ref {
                        scope: gscope,
                        raw: src,
                    }],
                });
            }
            Event::Struct { scope, name, width } => {
                let prefix = scopes[base + scope as usize].prefix;
                let abs = builder.symbols_mut().intern_join(prefix, name);
                let sid = builder.add_structure_sym(abs, width, fub);
                structs_by_sym.insert(abs, sid);
            }
            Event::StructWrite {
                scope,
                structure,
                bit,
                src,
            } => {
                let gscope = base + scope as usize;
                let abs = builder
                    .symbols()
                    .lookup_join(scopes[gscope].prefix, structure);
                let sid = abs
                    .and_then(|a| structs_by_sym.get(&a))
                    .or_else(|| structs_by_sym.get(&structure))
                    .copied()
                    .ok_or_else(|| {
                        err0(ExlifErrorKind::UndefinedNet(
                            builder.symbols().resolve(structure).to_owned(),
                        ))
                    })?;
                let width = builder.structure_width(sid);
                if bit >= width {
                    return Err(err0(ExlifErrorKind::Build(
                        BuildError::StructBitOutOfRange {
                            structure: builder.symbols().resolve(structure).to_owned(),
                            bit,
                            width,
                        },
                    )));
                }
                let cell = builder.structure_cell(sid, bit);
                flat.push(FlatConn {
                    node: cell,
                    ins: vec![Ref {
                        scope: gscope,
                        raw: src,
                    }],
                });
            }
            Event::Gate {
                scope,
                op,
                out,
                ins,
            } => {
                let gscope = base + scope as usize;
                let abs = builder
                    .symbols_mut()
                    .intern_join(scopes[gscope].prefix, out);
                let node = builder.add_node_sym(abs, NodeKind::Comb(op), fub);
                flat.push(FlatConn {
                    node,
                    ins: ins
                        .into_iter()
                        .map(|raw| Ref { scope: gscope, raw })
                        .collect(),
                });
            }
            Event::Seq {
                scope,
                kind,
                out,
                d,
                en,
            } => {
                let gscope = base + scope as usize;
                let abs = builder
                    .symbols_mut()
                    .intern_join(scopes[gscope].prefix, out);
                let node = builder.add_node_sym(
                    abs,
                    NodeKind::Seq {
                        kind,
                        has_enable: en.is_some(),
                    },
                    fub,
                );
                let mut ins = vec![Ref {
                    scope: gscope,
                    raw: d,
                }];
                if let Some(en) = en {
                    ins.push(Ref {
                        scope: gscope,
                        raw: en,
                    });
                }
                flat.push(FlatConn { node, ins });
            }
        }
    }
    Ok(())
}

fn resolve_ref(
    builder: &NetlistBuilder,
    scopes: &[GlobalScope],
    mut scope: usize,
    mut raw: Sym,
) -> Result<NodeId, ExlifError> {
    loop {
        let sc = &scopes[scope];
        match sc.subst.iter().find(|(f, _)| *f == raw) {
            Some(&(_, actual)) => {
                scope = sc.parent.expect("substitution implies a parent scope");
                raw = actual;
            }
            None => break,
        }
    }
    let sc = &scopes[scope];
    if let Some(abs) = builder.symbols().lookup_join(sc.prefix, raw) {
        if let Some(id) = builder.lookup_sym(abs) {
            return Ok(id);
        }
    }
    let raw_str = builder.symbols().resolve(raw);
    if raw_str.contains('.') {
        if let Some(id) = builder.lookup_sym(raw) {
            return Ok(id);
        }
    }
    Err(err0(ExlifErrorKind::UndefinedNet(raw_str.to_owned())))
}
