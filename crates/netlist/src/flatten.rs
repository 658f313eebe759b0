//! Hierarchy expansion: turns a parsed [`DesignAst`] into a flat
//! [`Netlist`].
//!
//! The paper's flow compiles RTL into per-FUB EXLIF files and then "fully
//! expands each FUB module by instantiating all sub-circuits within that
//! module … with all hierarchy removed" (§5.1). This module performs that
//! expansion: every `.subckt` instance of a `.model` is inlined, with
//! internal nets renamed `fub.inst.net`, and formal input ports substituted
//! by the actual nets of the instantiating scope.
//!
//! # Pipeline
//!
//! Flattening runs as four phases. Every identifier is interned exactly
//! once, and the output is bit-identical at any thread count:
//!
//! 1. **Expand (parallel, per FUB)** — walk each FUB's AST into its
//!    scopes (the FUB root plus one per instance) and the statements to
//!    create, each tagged with its scope and borrowed from the AST.
//!    Workers only read the parse-time [`SymbolTable`]; they never intern,
//!    so no synchronization is needed.
//! 2. **Merge (sequential, FUB order)** — in document order: intern
//!    hierarchical names, create nodes and structures, and resolve
//!    structure-write targets. Each definition is recorded as (scope,
//!    local name, node) and each fan-in reference, after its
//!    formal-substitution walk, as (scope, local name). All table mutation
//!    happens here, so symbol and node ids are independent of the thread
//!    count.
//! 3. **Resolve (sequential, per scope)** — definitions and references are
//!    grouped by scope, and each scope's references are answered from one
//!    dense table indexed by parse-time [`Sym`] and stamped with the scope;
//!    the first definition of a name in a scope wins. Such a hit is the
//!    node named `prefix + name`. A miss — a dotted name into a child
//!    instance, a structure cell `st[3]`, a cross-FUB `other.net`, a name
//!    another scope spells the same way — probes the interner: first for
//!    `prefix + name`, then, for a dotted name, for `name` design-wide.
//! 4. **Connect (sequential)** — surface the first unresolved reference in
//!    document order, add edges in order, free the resolution scratch, and
//!    validate via [`NetlistBuilder::finish`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::error::{ExlifError, ExlifErrorKind};
use crate::exlif::{self, DesignAst, FubAst, ModelAst, Stmt};
use crate::graph::{FubId, Netlist, NetlistBuilder, NodeId, NodeKind, StructId};
use crate::intern::{Sym, SymbolTable};

/// Maximum worker count [`build_netlist`] picks.
const MAX_DEFAULT_THREADS: usize = 8;

/// Minimum estimated flat-statement count before [`build_netlist`]
/// engages worker threads. Below this the spawn/join overhead of the
/// expand phase exceeds the work it splits — BENCH_5 measured a 0.67×
/// *slowdown* on the ~3k-node reference design — so small ASTs take the
/// sequential path.
const PARALLEL_WORK_THRESHOLD: usize = 20_000;

/// Stamp of a resolution-table slot no scope has written.
const NO_SCOPE: u32 = u32::MAX;

/// A scope recorded during expansion, local to one FUB's expansion.
#[derive(Debug)]
struct ScopeRec<'a> {
    /// Parent scope index within the same expansion (`None` for the FUB
    /// root).
    parent: Option<u32>,
    /// Instance name introducing this scope (`None` for the FUB root,
    /// whose prefix is the FUB name itself).
    inst: Option<Sym>,
    /// The instance's `(formal, actual)` connections, borrowed from the
    /// AST; an actual resolves in `parent`, and a later binding of the
    /// same formal overrides an earlier one.
    conns: &'a [(Sym, Sym)],
}

/// Result of expanding one FUB on a worker.
#[derive(Debug)]
struct FubExpansion<'a> {
    scopes: Vec<ScopeRec<'a>>,
    /// Every statement to create, in document order, with its
    /// expansion-local scope index. Never a `.subckt`.
    stmts: Vec<(u32, &'a Stmt)>,
    /// First eager error (unknown model/port, recursive model). Expansion
    /// stops at the error, so every recorded statement precedes it in
    /// document order — the merge phase replays statements first and
    /// reports whichever failure comes first.
    err: Option<ExlifError>,
}

/// A scope after merging: prefix interned, parent index global.
#[derive(Debug)]
struct GlobalScope<'a> {
    /// Absolute name prefix including trailing dot (e.g. `"f0."`,
    /// `"f0.u0."`).
    prefix: Sym,
    parent: Option<u32>,
    conns: &'a [(Sym, Sym)],
}

/// A name as one scope spells it: a definition's local name, or a fan-in
/// reference after its formal-substitution walk.
#[derive(Debug, Clone, Copy)]
struct Local {
    /// Global scope index.
    scope: u32,
    /// Parse-time symbol of the name.
    raw: Sym,
}

/// Everything the merge records for resolution and connection.
#[derive(Debug, Default)]
struct Merged<'a> {
    scopes: Vec<GlobalScope<'a>>,
    /// Definitions in document order, with the node each created.
    defs: Vec<(Local, NodeId)>,
    /// Fan-in references in document order. Connection `c` drives node
    /// `conn_node[c]` from `refs[conn_off[c]..conn_off[c + 1]]`.
    refs: Vec<Local>,
    conn_off: Vec<u32>,
    conn_node: Vec<NodeId>,
    structs_by_sym: HashMap<Sym, StructId>,
}

fn err0(kind: ExlifErrorKind) -> ExlifError {
    ExlifError { line: 0, kind }
}

/// Expands hierarchy and builds the flattened [`Netlist`] for a design,
/// picking its own worker count: sequential when the estimated flat size
/// falls below the parallel crossover (see [`estimated_flat_stmts`]),
/// else up to [`available_parallelism`](std::thread::available_parallelism)
/// (capped at 8) workers. The result is bit-identical to
/// [`build_netlist_threaded`] at any thread count.
///
/// # Errors
///
/// Reports undefined nets, unknown models/ports, recursive models,
/// out-of-range structure bits, and any graph-validation failure from
/// [`NetlistBuilder::finish`]. Semantic errors carry line number 0 (the AST
/// does not retain source positions) but name the offending entity.
pub fn build_netlist(ast: &DesignAst) -> Result<Netlist, ExlifError> {
    let threads =
        std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_DEFAULT_THREADS));
    let threads = if threads > 1 && estimated_flat_stmts(ast) < PARALLEL_WORK_THRESHOLD {
        1
    } else {
        threads
    };
    build_netlist_threaded(ast, threads)
}

/// [`build_netlist`] with an explicit worker-thread count (`0` and `1`
/// both mean sequential), honoured at any design size (capped only at the
/// number of FUBs). Output is bit-identical for every `threads` value:
/// node ids, symbol ids, edge order, and error selection are all decided
/// in the sequential merge, resolve and connect phases.
pub fn build_netlist_threaded(ast: &DesignAst, threads: usize) -> Result<Netlist, ExlifError> {
    let mut builder = NetlistBuilder::with_symbols(ast.name.clone(), ast.symbols.clone());
    // The scratch of phases 1–4 is freed when `build_into` returns,
    // before validation builds the CSR arrays.
    build_into(ast, threads, &mut builder)?;
    builder.finish().map_err(|e| err0(e.into()))
}

/// Estimates the design's flattened statement count without expanding it:
/// each model's expanded size is computed once (memoized) and then each
/// FUB sums its statements plus the expanded size of every `.subckt` it
/// instantiates. Recursive models are counted shallowly — flattening will
/// reject them anyway.
///
/// This drives [`build_netlist`]'s sequential-fallback decision, and is
/// exported so benchmarks can report which side of the crossover a design
/// landed on.
pub fn estimated_flat_stmts(ast: &DesignAst) -> usize {
    let models: HashMap<Sym, &ModelAst> = ast.models.iter().map(|m| (m.name, m)).collect();
    let mut memo: HashMap<Sym, usize> = HashMap::new();
    let mut visiting: Vec<Sym> = Vec::new();
    ast.fubs
        .iter()
        .map(|f| stmts_work(&f.stmts, &models, &mut memo, &mut visiting))
        .sum()
}

fn stmts_work(
    stmts: &[Stmt],
    models: &HashMap<Sym, &ModelAst>,
    memo: &mut HashMap<Sym, usize>,
    visiting: &mut Vec<Sym>,
) -> usize {
    let mut total = stmts.len();
    for stmt in stmts {
        if let Stmt::Subckt { model, .. } = stmt {
            total += model_work(*model, models, memo, visiting);
        }
    }
    total
}

fn model_work(
    model: Sym,
    models: &HashMap<Sym, &ModelAst>,
    memo: &mut HashMap<Sym, usize>,
    visiting: &mut Vec<Sym>,
) -> usize {
    if let Some(&w) = memo.get(&model) {
        return w;
    }
    let Some(m) = models.get(&model).copied() else {
        return 0;
    };
    if visiting.contains(&model) {
        return 0;
    }
    visiting.push(model);
    let w = stmts_work(&m.stmts, models, memo, visiting);
    visiting.pop();
    memo.insert(model, w);
    w
}

/// Phases 1–4: expands, merges, resolves and connects every FUB into
/// `builder`.
fn build_into(
    ast: &DesignAst,
    threads: usize,
    builder: &mut NetlistBuilder,
) -> Result<(), ExlifError> {
    let expansions = expand_all(ast, threads);

    // Phase 2: merge (sequential). All interning and id assignment lives
    // here, which is what makes the pipeline thread-count-invariant.
    let mut m = Merged {
        conn_off: vec![0],
        ..Merged::default()
    };
    for (fub_ast, exp) in ast.fubs.iter().zip(expansions) {
        let fub = builder.add_fub_sym(fub_ast.name);
        let base = u32::try_from(m.scopes.len()).expect("scope count fits u32");
        for rec in exp.scopes {
            let (prefix, parent) = match rec.inst {
                None => (
                    builder.symbols_mut().intern_prefix(None, fub_ast.name),
                    None,
                ),
                Some(inst) => {
                    let parent = base + rec.parent.expect("child scope has a parent");
                    let parent_prefix = m.scopes[parent as usize].prefix;
                    (
                        builder
                            .symbols_mut()
                            .intern_prefix(Some(parent_prefix), inst),
                        Some(parent),
                    )
                }
            };
            m.scopes.push(GlobalScope {
                prefix,
                parent,
                conns: rec.conns,
            });
        }
        for &(scope, stmt) in &exp.stmts {
            m.replay(base + scope, stmt, fub, builder)?;
        }
        // Worker errors come after every replayed statement in document
        // order.
        if let Some(e) = exp.err {
            return Err(e);
        }
    }

    // Phase 3: resolve every reference.
    let resolved = m.resolve(builder, ast.symbols.len());

    // Phase 4: the first unresolved reference in document order wins;
    // otherwise connect in order.
    if let Some(i) = resolved.iter().position(Option::is_none) {
        let raw = builder.symbols().resolve(m.refs[i].raw).to_owned();
        return Err(err0(ExlifErrorKind::UndefinedNet(raw)));
    }
    for (c, &node) in m.conn_node.iter().enumerate() {
        for from in &resolved[m.conn_off[c] as usize..m.conn_off[c + 1] as usize] {
            builder.connect(from.expect("every reference resolved"), node);
        }
    }
    Ok(())
}

/// Phase 1: expands every FUB, on up to `threads` workers pulling FUBs
/// from a shared cursor. Returns the expansions in FUB order.
fn expand_all(ast: &DesignAst, threads: usize) -> Vec<FubExpansion<'_>> {
    let models: HashMap<Sym, &ModelAst> = ast.models.iter().map(|m| (m.name, m)).collect();
    let n_fubs = ast.fubs.len();
    let workers = threads.max(1).min(n_fubs.max(1));
    if workers <= 1 {
        return ast
            .fubs
            .iter()
            .map(|fub| expand_fub(fub, &models, &ast.symbols))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let (models, next) = (&models, &next);
    let collected: Vec<Vec<(usize, FubExpansion<'_>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n_fubs {
                            break;
                        }
                        local.push((i, expand_fub(&ast.fubs[i], models, &ast.symbols)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("flatten worker panicked"))
            .collect()
    });
    let mut expansions: Vec<Option<FubExpansion<'_>>> = (0..n_fubs).map(|_| None).collect();
    for (i, exp) in collected.into_iter().flatten() {
        expansions[i] = Some(exp);
    }
    expansions
        .into_iter()
        .map(|e| e.expect("every FUB expanded"))
        .collect()
}

/// Phase-1 worker: expands one FUB into scope records and statements
/// without touching the symbol table.
fn expand_fub<'a>(
    fub: &'a FubAst,
    models: &HashMap<Sym, &'a ModelAst>,
    symbols: &SymbolTable,
) -> FubExpansion<'a> {
    let mut exp = FubExpansion {
        scopes: vec![ScopeRec {
            parent: None,
            inst: None,
            conns: &[],
        }],
        stmts: Vec::new(),
        err: None,
    };
    let mut model_stack: Vec<Sym> = Vec::new();
    if let Err(e) = expand_stmts(&fub.stmts, 0, models, symbols, &mut exp, &mut model_stack) {
        exp.err = Some(e);
    }
    exp
}

fn expand_stmts<'a>(
    stmts: &'a [Stmt],
    scope: u32,
    models: &HashMap<Sym, &'a ModelAst>,
    symbols: &SymbolTable,
    exp: &mut FubExpansion<'a>,
    model_stack: &mut Vec<Sym>,
) -> Result<(), ExlifError> {
    for stmt in stmts {
        let Stmt::Subckt { model, inst, conns } = stmt else {
            exp.stmts.push((scope, stmt));
            continue;
        };
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
        if let Some(&(formal, _)) = conns.iter().find(|(f, _)| !m.inputs.contains(f)) {
            return Err(err0(ExlifErrorKind::UnknownPort {
                model: symbols.resolve(*model).to_owned(),
                port: symbols.resolve(formal).to_owned(),
            }));
        }
        let child = u32::try_from(exp.scopes.len()).expect("scope count fits u32");
        exp.scopes.push(ScopeRec {
            parent: Some(scope),
            inst: Some(*inst),
            conns,
        });
        model_stack.push(*model);
        expand_stmts(&m.stmts, child, models, symbols, exp, model_stack)?;
        model_stack.pop();
    }
    Ok(())
}

impl Merged<'_> {
    /// Phase-2 replay of one statement in global scope `scope`: creates
    /// its node (or structure) and records its definition and references.
    fn replay(
        &mut self,
        scope: u32,
        stmt: &Stmt,
        fub: FubId,
        builder: &mut NetlistBuilder,
    ) -> Result<(), ExlifError> {
        let prefix = self.scopes[scope as usize].prefix;
        let mut define = |m: &mut Self, raw: Sym, kind: NodeKind| {
            let abs = builder.symbols_mut().intern_join(prefix, raw);
            let node = builder.add_node_sym(abs, kind, fub);
            m.defs.push((Local { scope, raw }, node));
            node
        };
        match *stmt {
            Stmt::Input(name) => {
                define(self, name, NodeKind::Input);
            }
            Stmt::Output { name, src } => {
                let node = define(self, name, NodeKind::Output);
                self.conn(node, scope, [src]);
            }
            Stmt::Struct { name, width } => {
                let abs = builder.symbols_mut().intern_join(prefix, name);
                let sid = builder.add_structure_sym(abs, width, fub);
                self.structs_by_sym.insert(abs, sid);
            }
            Stmt::StructWrite {
                structure,
                bit,
                src,
            } => {
                let sid = builder
                    .symbols()
                    .lookup_join(prefix, structure)
                    .and_then(|a| self.structs_by_sym.get(&a))
                    .or_else(|| self.structs_by_sym.get(&structure))
                    .copied()
                    .ok_or_else(|| {
                        err0(ExlifErrorKind::UndefinedNet(
                            builder.symbols().resolve(structure).to_owned(),
                        ))
                    })?;
                let width = builder.structure_width(sid);
                if bit >= width {
                    return Err(err0(ExlifErrorKind::Build(
                        crate::error::BuildError::StructBitOutOfRange {
                            structure: builder.symbols().resolve(structure).to_owned(),
                            bit,
                            width,
                        },
                    )));
                }
                self.conn(builder.structure_cell(sid, bit), scope, [src]);
            }
            Stmt::Gate { op, out, ref ins } => {
                let node = define(self, out, NodeKind::Comb(op));
                self.conn(node, scope, ins.iter().copied());
            }
            Stmt::Seq { kind, out, d, en } => {
                let node = define(
                    self,
                    out,
                    NodeKind::Seq {
                        kind,
                        has_enable: en.is_some(),
                    },
                );
                self.conn(node, scope, std::iter::once(d).chain(en));
            }
            Stmt::Subckt { .. } => unreachable!("expansion never emits a .subckt"),
        }
        Ok(())
    }

    /// Records a connection driving `node` from `raws` as spelled in
    /// `scope`, each after its formal-substitution walk: a formal of the
    /// scope's instance becomes its actual, spelled in the parent scope.
    fn conn(&mut self, node: NodeId, scope: u32, raws: impl IntoIterator<Item = Sym>) {
        for mut raw in raws {
            let mut scope = scope;
            loop {
                let sc = &self.scopes[scope as usize];
                match sc.conns.iter().rev().find(|(f, _)| *f == raw) {
                    Some(&(_, actual)) => {
                        scope = sc.parent.expect("substitution implies a parent scope");
                        raw = actual;
                    }
                    None => break,
                }
            }
            self.refs.push(Local { scope, raw });
        }
        self.conn_off
            .push(u32::try_from(self.refs.len()).expect("reference count fits u32"));
        self.conn_node.push(node);
    }

    /// Phase 3: the node each reference names, `None` when it names none.
    /// `parse_syms` bounds the symbols a local name can be: the parse-time
    /// table's length.
    fn resolve(&self, builder: &NetlistBuilder, parse_syms: usize) -> Vec<Option<NodeId>> {
        let n_scopes = self.scopes.len();
        let (def_off, def_idx) = group_by_scope(n_scopes, self.defs.iter().map(|(l, _)| l.scope));
        let (ref_off, ref_idx) = group_by_scope(n_scopes, self.refs.iter().map(|l| l.scope));
        // Slot per parse-time symbol: (scope that wrote it, its node).
        let mut table: Vec<(u32, NodeId)> = vec![(NO_SCOPE, NodeId::from_index(0)); parse_syms];
        let mut resolved = vec![None; self.refs.len()];
        for s in 0..n_scopes {
            let stamp = s as u32;
            for &d in &def_idx[def_off[s] as usize..def_off[s + 1] as usize] {
                let (local, node) = self.defs[d as usize];
                let slot = &mut table[local.raw.index()];
                if slot.0 != stamp {
                    *slot = (stamp, node);
                }
            }
            let prefix = self.scopes[s].prefix;
            for &r in &ref_idx[ref_off[s] as usize..ref_off[s + 1] as usize] {
                let raw = self.refs[r as usize].raw;
                let (written_by, node) = table[raw.index()];
                resolved[r as usize] = if written_by == stamp {
                    Some(node)
                } else {
                    resolve_by_name(builder, prefix, raw)
                };
            }
        }
        resolved
    }
}

/// Groups items by scope with a stable counting sort: the items of scope
/// `s` are `idx[off[s]..off[s + 1]]`, in their original order.
fn group_by_scope(
    n_scopes: usize,
    scopes: impl Iterator<Item = u32> + Clone,
) -> (Vec<u32>, Vec<u32>) {
    let mut off = vec![0u32; n_scopes + 1];
    for s in scopes.clone() {
        off[s as usize + 1] += 1;
    }
    for s in 0..n_scopes {
        off[s + 1] += off[s];
    }
    let mut cursor = off[..n_scopes].to_vec();
    let mut idx = vec![0u32; off[n_scopes] as usize];
    for (i, s) in scopes.enumerate() {
        let c = &mut cursor[s as usize];
        idx[*c as usize] = i as u32;
        *c += 1;
    }
    (off, idx)
}

/// The name path for a reference the scope's table misses: the node
/// named `prefix + raw`, else, for a dotted `raw`, the node named `raw`.
/// Misses never intern.
fn resolve_by_name(builder: &NetlistBuilder, prefix: Sym, raw: Sym) -> Option<NodeId> {
    if let Some(id) = builder
        .symbols()
        .lookup_join(prefix, raw)
        .and_then(|abs| builder.lookup_sym(abs))
    {
        return Some(id);
    }
    if builder.symbols().resolve(raw).contains('.') {
        return builder.lookup_sym(raw);
    }
    None
}

/// Convenience: [`exlif::parse`] followed by [`build_netlist`].
pub fn parse_netlist(text: &str) -> Result<Netlist, ExlifError> {
    parse_netlist_traced(text, &seqavf_obs::Collector::disabled())
}

/// [`parse_netlist`] with observability: records a `frontend.parse` span
/// over the EXLIF parse and a `frontend.flatten` span over hierarchy
/// expansion, with design-size fields.
pub fn parse_netlist_traced(
    text: &str,
    obs: &seqavf_obs::Collector,
) -> Result<Netlist, ExlifError> {
    let ast = {
        let mut span = obs.span("frontend.parse");
        let ast = exlif::parse(text)?;
        span.field_str("frontend", "exlif");
        span.field_u64("models", ast.models.len() as u64);
        span.field_u64("fubs", ast.fubs.len() as u64);
        span.field_u64("symbols", ast.symbols.len() as u64);
        ast
    };
    let mut span = obs.span("frontend.flatten");
    let nl = build_netlist(&ast)?;
    span.field_u64("nodes", nl.node_count() as u64);
    span.field_u64("seq_nodes", nl.seq_count() as u64);
    span.field_u64("structures", nl.structure_count() as u64);
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HIER: &str = r"
.design hier
.model stage
  .minput d
  .moutput q
  .flop q d
.endmodel
.model twostage
  .minput d
  .moutput q
  .subckt stage s0 d=d
  .subckt stage s1 d=s0.q
  .gate buf q s1.q
.endmodel
.fub f0
  .input din
  .subckt twostage u d=din
  .output dout u.q
.endfub
.end
";

    #[test]
    fn nested_models_flatten() {
        let nl = parse_netlist(HIER).unwrap();
        // din, u.s0.q, u.s1.q, u.q (buf), dout
        assert_eq!(nl.node_count(), 5);
        assert_eq!(nl.seq_count(), 2);
        let q0 = nl.lookup("f0.u.s0.q").unwrap();
        let q1 = nl.lookup("f0.u.s1.q").unwrap();
        assert_eq!(nl.fanin(q1), &[q0]);
        let din = nl.lookup("f0.din").unwrap();
        assert_eq!(nl.fanin(q0), &[din]);
        let dout = nl.lookup("f0.dout").unwrap();
        let buf = nl.lookup("f0.u.q").unwrap();
        assert_eq!(nl.fanin(dout), &[buf]);
    }

    #[test]
    fn thread_counts_are_bit_identical() {
        let ast = exlif::parse(HIER).unwrap();
        let n1 = build_netlist_threaded(&ast, 1).unwrap();
        let n2 = build_netlist_threaded(&ast, 2).unwrap();
        let n8 = build_netlist_threaded(&ast, 8).unwrap();
        assert_eq!(n1, n2);
        assert_eq!(n1, n8);
        assert_eq!(n1.content_digest(), n8.content_digest());
        // Node ids, not just content, must match.
        for id in n1.nodes() {
            assert_eq!(n1.name(id), n8.name(id));
        }
    }

    #[test]
    fn work_estimate_counts_model_expansion() {
        let ast = exlif::parse(HIER).unwrap();
        // f0: 3 own statements; twostage expands to 3 + 2×(stage = 1).
        let est = estimated_flat_stmts(&ast);
        assert_eq!(est, 3 + 3 + 2);
        // Well under the crossover, so the self-scheduling entry point
        // must take the sequential path — and still match exactly.
        assert!(est < PARALLEL_WORK_THRESHOLD);
        let clamped = build_netlist(&ast).unwrap();
        let seq = build_netlist_threaded(&ast, 1).unwrap();
        assert_eq!(clamped, seq);
    }

    #[test]
    fn work_estimate_survives_recursive_models() {
        let text = r"
.design x
.model m
  .minput a
  .subckt m u a=a
.endmodel
.fub f
  .input i
  .subckt m u a=i
.endfub
.end
";
        let ast = exlif::parse(text).unwrap();
        // Recursive models count shallowly instead of diverging.
        assert!(estimated_flat_stmts(&ast) < 10);
    }

    #[test]
    fn cross_fub_reference_resolves_globally() {
        let text = r"
.design x
.fub a
  .input i
  .flop q i
.endfub
.fub b
  .gate not g a.q
  .output o g
.endfub
.end
";
        let nl = parse_netlist(text).unwrap();
        let q = nl.lookup("a.q").unwrap();
        let g = nl.lookup("b.g").unwrap();
        assert_eq!(nl.fanin(g), &[q]);
        assert_ne!(nl.fub(q), nl.fub(g));
    }

    #[test]
    fn struct_write_and_read_connect() {
        let text = r"
.design x
.fub f
  .input i
  .struct st 2
  .sw st[0] i
  .gate buf r st[0]
  .output o r
.endfub
.end
";
        let nl = parse_netlist(text).unwrap();
        let sid = nl.lookup_structure("f.st").unwrap();
        let cell0 = nl.structure(sid).cells()[0];
        let i = nl.lookup("f.i").unwrap();
        assert_eq!(nl.fanin(cell0), &[i]);
        let r = nl.lookup("f.r").unwrap();
        assert_eq!(nl.fanin(r), &[cell0]);
    }

    #[test]
    fn undefined_net_reported() {
        let text = ".design x\n.fub f\n.gate not g nosuch\n.endfub\n.end\n";
        let e = parse_netlist(text).unwrap_err();
        assert!(matches!(e.kind, ExlifErrorKind::UndefinedNet(_)));
    }

    #[test]
    fn unknown_model_reported() {
        let text = ".design x\n.fub f\n.subckt nomodel u\n.endfub\n.end\n";
        let e = parse_netlist(text).unwrap_err();
        assert!(matches!(e.kind, ExlifErrorKind::UnknownModel(_)));
    }

    #[test]
    fn unknown_port_reported() {
        let text = r"
.design x
.model m
  .minput a
  .gate buf g a
.endmodel
.fub f
  .input i
  .subckt m u bogus=i
.endfub
.end
";
        let e = parse_netlist(text).unwrap_err();
        assert!(matches!(e.kind, ExlifErrorKind::UnknownPort { .. }));
    }

    #[test]
    fn recursive_model_reported() {
        let text = r"
.design x
.model m
  .minput a
  .subckt m u a=a
.endmodel
.fub f
  .input i
  .subckt m u a=i
.endfub
.end
";
        let e = parse_netlist(text).unwrap_err();
        assert!(matches!(e.kind, ExlifErrorKind::RecursiveModel(_)));
    }

    #[test]
    fn struct_bit_out_of_range_reported() {
        let text = ".design x\n.fub f\n.input i\n.struct s 2\n.sw s[5] i\n.endfub\n.end\n";
        let e = parse_netlist(text).unwrap_err();
        assert!(matches!(
            e.kind,
            ExlifErrorKind::Build(crate::error::BuildError::StructBitOutOfRange { .. })
        ));
    }

    #[test]
    fn writer_roundtrip_preserves_graph() {
        let nl = parse_netlist(HIER).unwrap();
        let text = crate::exlif::write(&nl);
        let nl2 = parse_netlist(&text).unwrap();
        assert_eq!(nl.node_count(), nl2.node_count());
        assert_eq!(nl.edge_count(), nl2.edge_count());
        assert_eq!(nl.seq_count(), nl2.seq_count());
        for id in nl.nodes() {
            let id2 = nl2.lookup(nl.name(id)).expect("name preserved");
            assert_eq!(nl.kind(id), nl2.kind(id2));
            let f1: Vec<_> = nl.fanin(id).iter().map(|&x| nl.name(x)).collect();
            let f2: Vec<_> = nl2.fanin(id2).iter().map(|&x| nl2.name(x)).collect();
            assert_eq!(f1, f2);
        }
    }
}
