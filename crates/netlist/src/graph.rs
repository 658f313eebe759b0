//! The flattened RTL node graph.
//!
//! A [`Netlist`] is a directed graph over typed nodes: primary inputs and
//! outputs (the RTL boundary of §4.1), sequential elements (flops and
//! latches), combinational gates, and *structure bit cells* — the storage
//! bits of ACE-modeled structures (§4). Structure cells are the sources and
//! sinks of port-AVF walks: a forward walk starts at a cell's fan-out (its
//! read port) and a backward walk starts at a cell's fan-in (its write port).
//!
//! The graph is immutable once built; construction goes through
//! [`NetlistBuilder`], which validates arity, name uniqueness, and the
//! absence of combinational cycles, then freezes adjacency into compact CSR
//! arrays suitable for designs with millions of nodes.
//!
//! Node names are interned [`Sym`] handles into a per-design
//! [`SymbolTable`]; the hot paths (adjacency, kinds, FUB labels) carry no
//! owned strings, and [`Netlist::name`] materializes a `&str` view only at
//! report and trace boundaries.

use std::fmt;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::error::BuildError;
use crate::intern::{Fnv1a64, Sym, SymbolTable};
use crate::scc::LoopAnalysis;

/// Identifier of a node in a [`Netlist`]. Dense, 0-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    pub fn from_index(i: usize) -> Self {
        NodeId(u32::try_from(i).expect("node index exceeds u32 range"))
    }

    /// Returns the raw dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a functional block (FUB) in a [`Netlist`].
///
/// Internally `u32`: production-scale designs (many replicated cores, each
/// with hundreds of FUBs) overflow the 65,535-FUB ceiling a `u16` would
/// impose, and the snapshot format (`seqavf-graph/2`) serializes FUB
/// indices as full 32-bit values for the same reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FubId(u32);

impl FubId {
    /// Creates a FUB id from a raw index.
    pub fn from_index(i: usize) -> Self {
        FubId(u32::try_from(i).expect("FUB index exceeds u32 range"))
    }

    /// Returns the raw dense index of this FUB.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FubId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fub{}", self.0)
    }
}

/// Identifier of an ACE-modeled structure declared in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StructId(u32);

impl StructId {
    /// Creates a structure id from a raw index.
    pub fn from_index(i: usize) -> Self {
        StructId(u32::try_from(i).expect("structure index exceeds u32 range"))
    }

    /// Returns the raw dense index of this structure.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StructId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Kind of sequential element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SeqKind {
    /// Edge-triggered flip-flop.
    Flop,
    /// Level-sensitive latch.
    Latch,
}

/// Combinational gate operator.
///
/// The propagation analysis is function-agnostic (§4.1: "the function is not
/// of consequence"), but the gate-level simulator in `seqavf-sfi` evaluates
/// these operators, so the netlist records them faithfully.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GateOp {
    /// Identity buffer (1 input).
    Buf,
    /// Inverter (1 input).
    Not,
    /// Logical AND (2+ inputs).
    And,
    /// Logical OR (2+ inputs).
    Or,
    /// Logical NAND (2+ inputs).
    Nand,
    /// Logical NOR (2+ inputs).
    Nor,
    /// Logical XOR (2+ inputs).
    Xor,
    /// Logical XNOR (2+ inputs).
    Xnor,
    /// 2:1 multiplexer; fan-ins are `(select, if0, if1)` (exactly 3).
    Mux,
    /// Constant logic zero (0 inputs).
    Const0,
    /// Constant logic one (0 inputs).
    Const1,
}

impl GateOp {
    /// Lowercase mnemonic used in the EXLIF format.
    pub fn mnemonic(self) -> &'static str {
        match self {
            GateOp::Buf => "buf",
            GateOp::Not => "not",
            GateOp::And => "and",
            GateOp::Or => "or",
            GateOp::Nand => "nand",
            GateOp::Nor => "nor",
            GateOp::Xor => "xor",
            GateOp::Xnor => "xnor",
            GateOp::Mux => "mux",
            GateOp::Const0 => "const0",
            GateOp::Const1 => "const1",
        }
    }

    /// Parses a mnemonic as produced by [`GateOp::mnemonic`].
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Some(match s {
            "buf" => GateOp::Buf,
            "not" => GateOp::Not,
            "and" => GateOp::And,
            "or" => GateOp::Or,
            "nand" => GateOp::Nand,
            "nor" => GateOp::Nor,
            "xor" => GateOp::Xor,
            "xnor" => GateOp::Xnor,
            "mux" => GateOp::Mux,
            "const0" => GateOp::Const0,
            "const1" => GateOp::Const1,
            _ => return None,
        })
    }

    /// Dense code for binary serialization ([`GateOp::from_code`] inverts).
    pub fn code(self) -> u8 {
        match self {
            GateOp::Buf => 0,
            GateOp::Not => 1,
            GateOp::And => 2,
            GateOp::Or => 3,
            GateOp::Nand => 4,
            GateOp::Nor => 5,
            GateOp::Xor => 6,
            GateOp::Xnor => 7,
            GateOp::Mux => 8,
            GateOp::Const0 => 9,
            GateOp::Const1 => 10,
        }
    }

    /// Inverse of [`GateOp::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => GateOp::Buf,
            1 => GateOp::Not,
            2 => GateOp::And,
            3 => GateOp::Or,
            4 => GateOp::Nand,
            5 => GateOp::Nor,
            6 => GateOp::Xor,
            7 => GateOp::Xnor,
            8 => GateOp::Mux,
            9 => GateOp::Const0,
            10 => GateOp::Const1,
            _ => return None,
        })
    }

    /// Checks whether `n` fan-ins is a legal arity for this operator.
    pub fn arity_ok(self, n: usize) -> bool {
        match self {
            GateOp::Buf | GateOp::Not => n == 1,
            GateOp::Mux => n == 3,
            GateOp::Const0 | GateOp::Const1 => n == 0,
            _ => n >= 2,
        }
    }

    /// Human-readable description of the expected arity.
    pub fn arity_description(self) -> &'static str {
        match self {
            GateOp::Buf | GateOp::Not => "exactly 1",
            GateOp::Mux => "exactly 3",
            GateOp::Const0 | GateOp::Const1 => "exactly 0",
            _ => "2 or more",
        }
    }
}

impl fmt::Display for GateOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// The type of a node in the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// Primary input: a net entering the RTL under analysis. Walks terminate
    /// here (an "RTL boundary", §4.1); pseudo-structure pAVFs may be attached
    /// by the analysis.
    Input,
    /// Primary output: a net leaving the RTL under analysis.
    Output,
    /// A sequential element (flop or latch). When `has_enable` is true the
    /// *last* fan-in is the enable net; the remaining fan-in is data.
    Seq {
        /// Flop or latch.
        kind: SeqKind,
        /// Whether the element has a write-enable input.
        has_enable: bool,
    },
    /// A combinational gate.
    Comb(GateOp),
    /// One storage bit of an ACE-modeled structure. Fan-ins are its write
    /// port(s), fan-outs its read port(s).
    StructCell {
        /// The structure this cell belongs to.
        structure: StructId,
        /// Bit index within the structure.
        bit: u32,
    },
}

impl NodeKind {
    /// Whether this node is a flop or latch (the population whose AVF the
    /// paper computes).
    pub fn is_sequential(self) -> bool {
        matches!(self, NodeKind::Seq { .. })
    }

    /// Whether this node is a storage bit of an ACE structure.
    pub fn is_struct_cell(self) -> bool {
        matches!(self, NodeKind::StructCell { .. })
    }

    /// Whether this node is combinational logic.
    pub fn is_comb(self) -> bool {
        matches!(self, NodeKind::Comb(_))
    }

    /// Whether this node is a boundary (primary input or output).
    pub fn is_boundary(self) -> bool {
        matches!(self, NodeKind::Input | NodeKind::Output)
    }

    /// Appends a stable binary encoding (shared by the snapshot format and
    /// the content digest).
    pub(crate) fn encode(self, out: &mut Vec<u8>) {
        match self {
            NodeKind::Input => out.push(0),
            NodeKind::Output => out.push(1),
            NodeKind::Seq { kind, has_enable } => {
                out.push(2);
                out.push(match kind {
                    SeqKind::Flop => 0,
                    SeqKind::Latch => 1,
                });
                out.push(u8::from(has_enable));
            }
            NodeKind::Comb(op) => {
                out.push(3);
                out.push(op.code());
            }
            NodeKind::StructCell { structure, bit } => {
                out.push(4);
                out.extend_from_slice(&(structure.0).to_le_bytes());
                out.extend_from_slice(&bit.to_le_bytes());
            }
        }
    }
}

/// Declaration of an ACE-modeled structure: a named bank of storage cells.
#[derive(Debug, Clone)]
pub struct StructureDecl {
    name: String,
    sym: Sym,
    width: u32,
    fub: FubId,
    cells: Vec<NodeId>,
}

impl StructureDecl {
    /// The structure's name (e.g. `"rob"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The interned symbol of the structure's name.
    pub fn sym(&self) -> Sym {
        self.sym
    }

    /// Number of bit cells.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// FUB the structure's cells live in.
    pub fn fub(&self) -> FubId {
        self.fub
    }

    /// The node ids of the structure's bit cells, indexed by bit.
    pub fn cells(&self) -> &[NodeId] {
        &self.cells
    }
}

impl PartialEq for StructureDecl {
    /// Compares name, width, FUB and cells. The interned symbol is left
    /// out: its id depends on what else the table interned first.
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.width == other.width
            && self.fub == other.fub
            && self.cells == other.cells
    }
}

impl Eq for StructureDecl {}

const NO_NODE: u32 = u32::MAX;

/// Incremental builder for a [`Netlist`].
///
/// All mutation happens here; [`NetlistBuilder::finish`] validates the graph
/// and freezes it.
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    design: String,
    symbols: SymbolTable,
    syms: Vec<Sym>,
    /// `Sym` index → node id (`NO_NODE` when the symbol names no node).
    node_of_sym: Vec<u32>,
    kinds: Vec<NodeKind>,
    fub_of: Vec<FubId>,
    /// Edges as `(to, from)` pairs in [`NetlistBuilder::connect`] order;
    /// [`NetlistBuilder::finish`] sorts them into the fan-in CSR.
    edges: Vec<(NodeId, NodeId)>,
    fubs: Vec<Sym>,
    structures: Vec<StructureDecl>,
    duplicate: Option<Sym>,
}

impl NetlistBuilder {
    /// Starts a new empty design with the given name.
    pub fn new(design: impl Into<String>) -> Self {
        Self::with_symbols(design, SymbolTable::new())
    }

    /// Starts a design seeded with an existing symbol table (the frontend
    /// hands over the table it interned the source identifiers into, so
    /// flattening never re-copies strings).
    pub fn with_symbols(design: impl Into<String>, symbols: SymbolTable) -> Self {
        NetlistBuilder {
            design: design.into(),
            symbols,
            syms: Vec::new(),
            node_of_sym: Vec::new(),
            kinds: Vec::new(),
            fub_of: Vec::new(),
            edges: Vec::new(),
            fubs: Vec::new(),
            structures: Vec::new(),
            duplicate: None,
        }
    }

    /// The builder's symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Mutable access to the symbol table (for interning compound names
    /// during flattening).
    pub fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.symbols
    }

    /// Declares a functional block. Nodes reference FUBs by the returned id.
    pub fn add_fub(&mut self, name: impl AsRef<str>) -> FubId {
        let sym = self.symbols.intern(name.as_ref());
        self.add_fub_sym(sym)
    }

    /// [`NetlistBuilder::add_fub`] with a pre-interned name.
    pub fn add_fub_sym(&mut self, sym: Sym) -> FubId {
        let id = FubId::from_index(self.fubs.len());
        self.fubs.push(sym);
        id
    }

    /// Adds a node of the given kind. Names must be unique design-wide;
    /// a duplicate is recorded and reported by [`NetlistBuilder::finish`].
    pub fn add_node(&mut self, name: impl AsRef<str>, kind: NodeKind, fub: FubId) -> NodeId {
        let sym = self.symbols.intern(name.as_ref());
        self.add_node_sym(sym, kind, fub)
    }

    /// [`NetlistBuilder::add_node`] with a pre-interned name.
    pub fn add_node_sym(&mut self, sym: Sym, kind: NodeKind, fub: FubId) -> NodeId {
        let id = NodeId::from_index(self.kinds.len());
        if self.node_of_sym.len() <= sym.index() {
            self.node_of_sym
                .resize(self.symbols.len().max(sym.index() + 1), NO_NODE);
        }
        let slot = &mut self.node_of_sym[sym.index()];
        if *slot != NO_NODE {
            if self.duplicate.is_none() {
                self.duplicate = Some(sym);
            }
        } else {
            *slot = id.0;
        }
        self.syms.push(sym);
        self.kinds.push(kind);
        self.fub_of.push(fub);
        id
    }

    /// Declares an ACE structure of `width` bits; creates cell nodes named
    /// `name[0]` … `name[width-1]`.
    pub fn add_structure(&mut self, name: impl AsRef<str>, width: u32, fub: FubId) -> StructId {
        let sym = self.symbols.intern(name.as_ref());
        self.add_structure_sym(sym, width, fub)
    }

    /// [`NetlistBuilder::add_structure`] with a pre-interned name.
    pub fn add_structure_sym(&mut self, sym: Sym, width: u32, fub: FubId) -> StructId {
        let sid = StructId::from_index(self.structures.len());
        let cells = (0..width)
            .map(|bit| {
                let cell = self.symbols.intern_bit(sym, bit);
                self.add_node_sym(
                    cell,
                    NodeKind::StructCell {
                        structure: sid,
                        bit,
                    },
                    fub,
                )
            })
            .collect();
        self.structures.push(StructureDecl {
            name: self.symbols.resolve(sym).to_owned(),
            sym,
            width,
            fub,
            cells,
        });
        sid
    }

    /// Returns the cell node for `structure[bit]`.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range for the structure.
    pub fn structure_cell(&self, structure: StructId, bit: u32) -> NodeId {
        self.structures[structure.index()].cells[bit as usize]
    }

    /// Declared width of a structure.
    pub fn structure_width(&self, structure: StructId) -> u32 {
        self.structures[structure.index()].width
    }

    /// Adds a directed edge `from -> to` (i.e. `from` becomes a fan-in of
    /// `to`). For [`NodeKind::Seq`] nodes with an enable, connect the data
    /// net first and the enable net last.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a node of this builder. An unknown `from` is
    /// reported by [`NetlistBuilder::finish`].
    pub fn connect(&mut self, from: NodeId, to: NodeId) {
        assert!(to.index() < self.kinds.len(), "edge into unknown node {to}");
        self.edges.push((to, from));
    }

    /// Looks up a node by name.
    pub fn lookup(&self, name: &str) -> Option<NodeId> {
        self.symbols
            .lookup(name)
            .and_then(|sym| self.lookup_sym(sym))
    }

    /// Looks up a node by interned name.
    pub fn lookup_sym(&self, sym: Sym) -> Option<NodeId> {
        match self.node_of_sym.get(sym.index()) {
            Some(&id) if id != NO_NODE => Some(NodeId(id)),
            _ => None,
        }
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    fn node_name(&self, i: usize) -> String {
        self.symbols.resolve(self.syms[i]).to_owned()
    }

    /// Validates and freezes the graph.
    ///
    /// # Errors
    ///
    /// Returns the first violation found among: duplicate names, dangling
    /// edge endpoints, gate/sequential arity, inputs with fan-in, and
    /// combinational cycles.
    pub fn finish(mut self) -> Result<Netlist, BuildError> {
        if let Some(sym) = self.duplicate {
            return Err(BuildError::DuplicateName(
                self.symbols.resolve(sym).to_owned(),
            ));
        }
        let n = self.kinds.len();
        // The edge list is dropped as soon as the CSR holds its edges.
        let (fanin_off, fanin_dat) = fanin_csr(n, &std::mem::take(&mut self.edges));
        // Arity and endpoint validation.
        for i in 0..n {
            let ins = &fanin_dat[fanin_off[i] as usize..fanin_off[i + 1] as usize];
            for from in ins {
                if from.index() >= n {
                    return Err(BuildError::UnknownNode(from.index() as u32));
                }
            }
            let found = ins.len();
            match self.kinds[i] {
                NodeKind::Input => {
                    if found != 0 {
                        return Err(BuildError::InputHasFanin(self.node_name(i)));
                    }
                }
                NodeKind::Output => {
                    if found != 1 {
                        return Err(BuildError::BadArity {
                            node: self.node_name(i),
                            found,
                            expected: "exactly 1",
                        });
                    }
                }
                NodeKind::Seq { has_enable, .. } => {
                    let want = if has_enable { 2 } else { 1 };
                    if found != want {
                        return Err(BuildError::BadArity {
                            node: self.node_name(i),
                            found,
                            expected: if has_enable { "exactly 2" } else { "exactly 1" },
                        });
                    }
                }
                NodeKind::Comb(op) => {
                    if !op.arity_ok(found) {
                        return Err(BuildError::BadArity {
                            node: self.node_name(i),
                            found,
                            expected: op.arity_description(),
                        });
                    }
                }
                // Structure cells may have any number of write ports,
                // including zero (read-only architectural state).
                NodeKind::StructCell { .. } => {}
            }
        }
        self.check_comb_cycles(&fanin_off, &fanin_dat)?;
        let (fanout_off, fanout_dat) = transpose_csr(n, &fanin_off, &fanin_dat);

        let seq_count = self.kinds.iter().filter(|k| k.is_sequential()).count();
        let mut node_of_sym = self.node_of_sym;
        node_of_sym.resize(self.symbols.len(), NO_NODE);
        Ok(Netlist {
            design: self.design,
            symbols: self.symbols,
            syms: self.syms,
            node_of_sym,
            kinds: self.kinds,
            fub_of: self.fub_of,
            fubs: self.fubs,
            structures: self.structures,
            fanin_off,
            fanin_dat,
            fanout_off,
            fanout_dat,
            seq_count,
            digest: OnceLock::new(),
        })
    }

    /// Detects cycles that pass through combinational nodes only.
    fn check_comb_cycles(&self, fanin_off: &[u32], fanin_dat: &[NodeId]) -> Result<(), BuildError> {
        // Iterative three-color DFS over comb-only edges.
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let n = self.kinds.len();
        let mut color = vec![WHITE; n];
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for start in 0..n {
            if color[start] != WHITE || !self.kinds[start].is_comb() {
                continue;
            }
            color[start] = GRAY;
            stack.push((start, 0));
            while let Some(top) = stack.last_mut() {
                let v = top.0;
                let ins = &fanin_dat[fanin_off[v] as usize..fanin_off[v + 1] as usize];
                if top.1 < ins.len() {
                    let u = ins[top.1].index();
                    top.1 += 1;
                    if !self.kinds[u].is_comb() {
                        continue;
                    }
                    match color[u] {
                        WHITE => {
                            color[u] = GRAY;
                            stack.push((u, 0));
                        }
                        GRAY => {
                            return Err(BuildError::CombinationalCycle {
                                witness: self.node_name(u),
                            });
                        }
                        _ => {}
                    }
                } else {
                    color[v] = BLACK;
                    stack.pop();
                }
            }
        }
        Ok(())
    }
}

/// Sorts `(to, from)` edges into a fan-in CSR with a stable counting sort:
/// each node's fan-ins keep their order in `edges`.
fn fanin_csr(n: usize, edges: &[(NodeId, NodeId)]) -> (Vec<u32>, Vec<NodeId>) {
    let mut fanin_off = vec![0u32; n + 1];
    for (to, _) in edges {
        fanin_off[to.index() + 1] += 1;
    }
    for i in 0..n {
        fanin_off[i + 1] += fanin_off[i];
    }
    let mut cursor: Vec<u32> = fanin_off[..n].to_vec();
    let mut fanin_dat = vec![NodeId(0); edges.len()];
    for &(to, from) in edges {
        let c = &mut cursor[to.index()];
        fanin_dat[*c as usize] = from;
        *c += 1;
    }
    (fanin_off, fanin_dat)
}

/// Transposes a CSR fan-in adjacency into fan-out form (shared by the
/// builder and the snapshot loader).
pub(crate) fn transpose_csr(
    n: usize,
    fanin_off: &[u32],
    fanin_dat: &[NodeId],
) -> (Vec<u32>, Vec<NodeId>) {
    let mut fanout_cnt = vec![0u32; n];
    for from in fanin_dat {
        fanout_cnt[from.index()] += 1;
    }
    let mut fanout_off = Vec::with_capacity(n + 1);
    fanout_off.push(0u32);
    for c in &fanout_cnt {
        let last = *fanout_off.last().expect("non-empty offsets");
        fanout_off.push(last + c);
    }
    let mut fanout_dat = vec![NodeId(0); fanin_dat.len()];
    let mut cursor: Vec<u32> = fanout_off[..n].to_vec();
    for to in 0..n {
        let ins = &fanin_dat[fanin_off[to] as usize..fanin_off[to + 1] as usize];
        for from in ins {
            let c = &mut cursor[from.index()];
            fanout_dat[*c as usize] = NodeId::from_index(to);
            *c += 1;
        }
    }
    (fanout_off, fanout_dat)
}

/// An immutable, flattened RTL node graph.
///
/// See the [module documentation](self) for the data model.
#[derive(Debug, Clone)]
pub struct Netlist {
    design: String,
    symbols: SymbolTable,
    syms: Vec<Sym>,
    node_of_sym: Vec<u32>,
    kinds: Vec<NodeKind>,
    fub_of: Vec<FubId>,
    fubs: Vec<Sym>,
    structures: Vec<StructureDecl>,
    fanin_off: Vec<u32>,
    fanin_dat: Vec<NodeId>,
    fanout_off: Vec<u32>,
    fanout_dat: Vec<NodeId>,
    seq_count: usize,
    /// [`Netlist::content_digest`], computed on first use.
    digest: OnceLock<u64>,
}

impl Netlist {
    /// The design name.
    pub fn design_name(&self) -> &str {
        &self.design
    }

    /// The design's symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Number of sequential (flop/latch) nodes.
    pub fn seq_count(&self) -> usize {
        self.seq_count
    }

    /// Iterates over all node ids in dense order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.kinds.len()).map(NodeId::from_index)
    }

    /// Iterates over the ids of all sequential nodes.
    pub fn seq_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|&id| self.kind(id).is_sequential())
    }

    /// The kind of a node.
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.kinds[id.index()]
    }

    /// The hierarchical name of a node.
    pub fn name(&self, id: NodeId) -> &str {
        self.symbols.resolve(self.syms[id.index()])
    }

    /// The interned name symbol of a node.
    pub fn node_sym(&self, id: NodeId) -> Sym {
        self.syms[id.index()]
    }

    /// The FUB a node belongs to.
    pub fn fub(&self, id: NodeId) -> FubId {
        self.fub_of[id.index()]
    }

    /// Number of declared FUBs.
    pub fn fub_count(&self) -> usize {
        self.fubs.len()
    }

    /// The name of a FUB.
    pub fn fub_name(&self, id: FubId) -> &str {
        self.symbols.resolve(self.fubs[id.index()])
    }

    /// Iterates over all FUB ids.
    pub fn fub_ids(&self) -> impl Iterator<Item = FubId> {
        (0..self.fubs.len()).map(FubId::from_index)
    }

    /// Looks up a node by its hierarchical name.
    pub fn lookup(&self, name: &str) -> Option<NodeId> {
        self.symbols
            .lookup(name)
            .and_then(|sym| self.lookup_sym(sym))
    }

    /// Looks up a node by interned name.
    pub fn lookup_sym(&self, sym: Sym) -> Option<NodeId> {
        match self.node_of_sym.get(sym.index()) {
            Some(&id) if id != NO_NODE => Some(NodeId(id)),
            _ => None,
        }
    }

    /// The fan-in (driver) nodes of `id`, in connection order.
    pub fn fanin(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.fanin_dat[self.fanin_off[i] as usize..self.fanin_off[i + 1] as usize]
    }

    /// The fan-out (consumer) nodes of `id`.
    pub fn fanout(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.fanout_dat[self.fanout_off[i] as usize..self.fanout_off[i + 1] as usize]
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.fanin_dat.len()
    }

    /// Number of declared ACE structures.
    pub fn structure_count(&self) -> usize {
        self.structures.len()
    }

    /// The declaration of a structure.
    pub fn structure(&self, id: StructId) -> &StructureDecl {
        &self.structures[id.index()]
    }

    /// Iterates over all structure ids.
    pub fn structure_ids(&self) -> impl Iterator<Item = StructId> {
        (0..self.structures.len()).map(StructId::from_index)
    }

    /// Looks up a structure by name.
    pub fn lookup_structure(&self, name: &str) -> Option<StructId> {
        self.structures
            .iter()
            .position(|s| s.name == name)
            .map(StructId::from_index)
    }

    /// FNV-1a 64-bit digest of the graph's *semantic* content: design name,
    /// per-node names/kinds/FUBs, FUB names, structure declarations, and
    /// the fan-in adjacency. Two graphs compare [`PartialEq`]-equal exactly
    /// when their digests agree (modulo hash collisions); interner state
    /// that names no node (e.g. raw source tokens) does not contribute.
    ///
    /// The sweep-artifact cache keys on this digest, and the binary
    /// snapshot embeds it for integrity checking. The graph is immutable,
    /// so the digest is computed on first use and kept.
    pub fn content_digest(&self) -> u64 {
        *self.digest.get_or_init(|| self.compute_content_digest())
    }

    fn compute_content_digest(&self) -> u64 {
        let mut h = Fnv1a64::new();
        let mut scratch = Vec::with_capacity(16);
        h.update(self.design.as_bytes());
        h.update(&[0xFF]);
        h.update(&(self.kinds.len() as u64).to_le_bytes());
        for i in 0..self.kinds.len() {
            h.update(self.symbols.resolve(self.syms[i]).as_bytes());
            h.update(&[0]);
            scratch.clear();
            self.kinds[i].encode(&mut scratch);
            h.update(&scratch);
            h.update(&(self.fub_of[i].0).to_le_bytes());
        }
        h.update(&(self.fubs.len() as u64).to_le_bytes());
        for &f in &self.fubs {
            h.update(self.symbols.resolve(f).as_bytes());
            h.update(&[0]);
        }
        h.update(&(self.structures.len() as u64).to_le_bytes());
        for s in &self.structures {
            h.update(s.name.as_bytes());
            h.update(&[0]);
            h.update(&s.width.to_le_bytes());
            h.update(&(s.fub.0).to_le_bytes());
        }
        for off in &self.fanin_off {
            h.update(&off.to_le_bytes());
        }
        for from in &self.fanin_dat {
            h.update(&(from.0).to_le_bytes());
        }
        h.finish()
    }

    /// Per-FUB content digests for cross-run change detection (the
    /// `seqavf-fixpoint/2` warm-start artifact). Each FUB's digest covers
    /// everything that can change the walk behavior of *its* nodes:
    ///
    /// - the FUB name and, per node in dense-id order: the node name, its
    ///   kind (structure cells by structure *name*, width and bit — never
    ///   by index, which shifts under unrelated edits),
    /// - the node's loop membership (an edit elsewhere can thread a new
    ///   sequential feedback loop through an untouched FUB, changing its
    ///   nodes' roles — the flag makes that visible as a digest change),
    /// - the full fan-in *and* fan-out lists by node name, each with its
    ///   length. Fan-out names matter because the backward walk reads
    ///   fan-out annotations: a removed cross-FUB consumer edge changes
    ///   this FUB's backward values while leaving its fan-ins untouched.
    ///
    /// Names, not ids, identify neighbours: node ids shift when unrelated
    /// FUBs grow or shrink, but an untouched FUB keeps its names, local
    /// order, and wiring — and therefore its digest. Each name enters as
    /// the [`Fnv1a64`] hash its symbol table stored when interning it
    /// ([`SymbolTable::name_hash`]), so no name is hashed twice.
    pub fn fub_digests(&self, loops: &LoopAnalysis) -> Vec<u64> {
        let name = |sym: Sym| self.symbols.name_hash(sym).to_le_bytes();
        let mut hs: Vec<Fnv1a64> = self
            .fubs
            .iter()
            .map(|&f| {
                let mut h = Fnv1a64::new();
                h.update(&name(f));
                h.update(&[0xFE]);
                h
            })
            .collect();
        for i in 0..self.kinds.len() {
            let id = NodeId::from_index(i);
            let h = &mut hs[self.fub_of[i].index()];
            h.update(&name(self.syms[i]));
            match self.kinds[i] {
                NodeKind::Input => h.update(&[1]),
                NodeKind::Output => h.update(&[2]),
                NodeKind::Seq { kind, has_enable } => {
                    h.update(&[
                        3,
                        match kind {
                            SeqKind::Flop => 0,
                            SeqKind::Latch => 1,
                        },
                        u8::from(has_enable),
                    ]);
                }
                NodeKind::Comb(op) => h.update(&[4, op.code()]),
                NodeKind::StructCell { structure, bit } => {
                    let decl = &self.structures[structure.index()];
                    h.update(&[5]);
                    h.update(&name(decl.sym));
                    h.update(&bit.to_le_bytes());
                    h.update(&decl.width.to_le_bytes());
                }
            }
            h.update(&[0x10 | u8::from(loops.is_loop_node(id))]);
            for adj in [self.fanin(id), self.fanout(id)] {
                h.update(&(adj.len() as u32).to_le_bytes());
                for &n in adj {
                    h.update(&name(self.syms[n.index()]));
                }
            }
        }
        hs.into_iter().map(|h| h.finish()).collect()
    }

    // Raw accessors used by the snapshot serializer (crate-private).
    #[allow(clippy::type_complexity)]
    pub(crate) fn raw_parts(
        &self,
    ) -> (
        &SymbolTable,
        &[Sym],
        &[NodeKind],
        &[FubId],
        &[Sym],
        &[StructureDecl],
        &[u32],
        &[NodeId],
    ) {
        (
            &self.symbols,
            &self.syms,
            &self.kinds,
            &self.fub_of,
            &self.fubs,
            &self.structures,
            &self.fanin_off,
            &self.fanin_dat,
        )
    }

    /// Reassembles a netlist from validated parts (snapshot load). The
    /// caller guarantees index validity; derived state (fan-out transpose,
    /// name index, sequential census, structure name strings) is rebuilt
    /// here.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_raw_parts(
        design: String,
        symbols: SymbolTable,
        syms: Vec<Sym>,
        kinds: Vec<NodeKind>,
        fub_of: Vec<FubId>,
        fubs: Vec<Sym>,
        structures: Vec<(Sym, u32, FubId, Vec<NodeId>)>,
        fanin_off: Vec<u32>,
        fanin_dat: Vec<NodeId>,
    ) -> Netlist {
        let n = kinds.len();
        let mut node_of_sym = vec![NO_NODE; symbols.len()];
        for (i, sym) in syms.iter().enumerate() {
            node_of_sym[sym.index()] = i as u32;
        }
        let (fanout_off, fanout_dat) = transpose_csr(n, &fanin_off, &fanin_dat);
        let seq_count = kinds.iter().filter(|k| k.is_sequential()).count();
        let structures = structures
            .into_iter()
            .map(|(sym, width, fub, cells)| StructureDecl {
                name: symbols.resolve(sym).to_owned(),
                sym,
                width,
                fub,
                cells,
            })
            .collect();
        Netlist {
            design,
            symbols,
            syms,
            node_of_sym,
            kinds,
            fub_of,
            fubs,
            structures,
            fanin_off,
            fanin_dat,
            fanout_off,
            fanout_dat,
            seq_count,
            digest: OnceLock::new(),
        }
    }
}

impl PartialEq for Netlist {
    /// Semantic graph equality: same design name, same nodes (name, kind,
    /// FUB) in the same order, same FUB and structure declarations, same
    /// fan-in adjacency. Interner bookkeeping (extra interned strings that
    /// name no node) is ignored.
    fn eq(&self, other: &Self) -> bool {
        self.design == other.design
            && self.kinds == other.kinds
            && self.fub_of == other.fub_of
            && self.fanin_off == other.fanin_off
            && self.fanin_dat == other.fanin_dat
            && self.structures == other.structures
            && self.syms.len() == other.syms.len()
            && self
                .syms
                .iter()
                .zip(&other.syms)
                .all(|(&a, &b)| self.symbols.resolve(a) == other.symbols.resolve(b))
            && self.fubs.len() == other.fubs.len()
            && self
                .fubs
                .iter()
                .zip(&other.fubs)
                .all(|(&a, &b)| self.symbols.resolve(a) == other.symbols.resolve(b))
    }
}

impl Eq for Netlist {}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> NetlistBuilder {
        let mut b = NetlistBuilder::new("t");
        let fub = b.add_fub("f0");
        let i = b.add_node("in", NodeKind::Input, fub);
        let g = b.add_node("g", NodeKind::Comb(GateOp::Not), fub);
        let q = b.add_node(
            "q",
            NodeKind::Seq {
                kind: SeqKind::Flop,
                has_enable: false,
            },
            fub,
        );
        let o = b.add_node("out", NodeKind::Output, fub);
        b.connect(i, g);
        b.connect(g, q);
        b.connect(q, o);
        b
    }

    #[test]
    fn build_and_query_roundtrip() {
        let nl = simple().finish().unwrap();
        assert_eq!(nl.node_count(), 4);
        assert_eq!(nl.seq_count(), 1);
        assert_eq!(nl.edge_count(), 3);
        let g = nl.lookup("g").unwrap();
        let q = nl.lookup("q").unwrap();
        assert_eq!(nl.fanin(q), &[g]);
        assert_eq!(nl.fanout(g), &[q]);
        assert_eq!(nl.name(q), "q");
        assert!(nl.kind(q).is_sequential());
        assert_eq!(nl.fub_name(nl.fub(q)), "f0");
        // Symbol round trip.
        assert_eq!(nl.lookup_sym(nl.node_sym(q)), Some(q));
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut b = NetlistBuilder::new("t");
        let fub = b.add_fub("f0");
        b.add_node("x", NodeKind::Input, fub);
        b.add_node("x", NodeKind::Input, fub);
        assert_eq!(
            b.finish().unwrap_err(),
            BuildError::DuplicateName("x".into())
        );
    }

    #[test]
    fn bad_gate_arity_rejected() {
        let mut b = NetlistBuilder::new("t");
        let fub = b.add_fub("f0");
        let i = b.add_node("i", NodeKind::Input, fub);
        let g = b.add_node("g", NodeKind::Comb(GateOp::And), fub);
        b.connect(i, g);
        assert!(matches!(
            b.finish().unwrap_err(),
            BuildError::BadArity { .. }
        ));
    }

    #[test]
    fn input_with_fanin_rejected() {
        let mut b = NetlistBuilder::new("t");
        let fub = b.add_fub("f0");
        let a = b.add_node("a", NodeKind::Input, fub);
        let c = b.add_node("c", NodeKind::Input, fub);
        b.connect(a, c);
        assert_eq!(
            b.finish().unwrap_err(),
            BuildError::InputHasFanin("c".into())
        );
    }

    #[test]
    fn comb_cycle_rejected() {
        let mut b = NetlistBuilder::new("t");
        let fub = b.add_fub("f0");
        let i = b.add_node("i", NodeKind::Input, fub);
        let g1 = b.add_node("g1", NodeKind::Comb(GateOp::And), fub);
        let g2 = b.add_node("g2", NodeKind::Comb(GateOp::Not), fub);
        b.connect(i, g1);
        b.connect(g2, g1);
        b.connect(g1, g2);
        assert!(matches!(
            b.finish().unwrap_err(),
            BuildError::CombinationalCycle { .. }
        ));
    }

    #[test]
    fn seq_cycle_allowed() {
        let mut b = NetlistBuilder::new("t");
        let fub = b.add_fub("f0");
        let q = b.add_node(
            "q",
            NodeKind::Seq {
                kind: SeqKind::Flop,
                has_enable: false,
            },
            fub,
        );
        let g = b.add_node("g", NodeKind::Comb(GateOp::Not), fub);
        b.connect(q, g);
        b.connect(g, q);
        assert!(b.finish().is_ok());
    }

    #[test]
    fn structure_cells_created_and_named() {
        let mut b = NetlistBuilder::new("t");
        let fub = b.add_fub("f0");
        let s = b.add_structure("rob", 4, fub);
        let nl = simple_with_struct(b, s);
        let decl = nl.structure(s);
        assert_eq!(decl.name(), "rob");
        assert_eq!(decl.width(), 4);
        assert_eq!(decl.cells().len(), 4);
        assert_eq!(nl.name(decl.cells()[2]), "rob[2]");
        assert_eq!(nl.lookup_structure("rob"), Some(s));
        assert!(nl.kind(decl.cells()[0]).is_struct_cell());
    }

    fn simple_with_struct(b: NetlistBuilder, _s: StructId) -> Netlist {
        b.finish().unwrap()
    }

    #[test]
    fn enabled_flop_requires_two_fanins() {
        let mut b = NetlistBuilder::new("t");
        let fub = b.add_fub("f0");
        let i = b.add_node("i", NodeKind::Input, fub);
        let q = b.add_node(
            "q",
            NodeKind::Seq {
                kind: SeqKind::Flop,
                has_enable: true,
            },
            fub,
        );
        b.connect(i, q);
        assert!(matches!(
            b.finish().unwrap_err(),
            BuildError::BadArity { .. }
        ));
    }

    #[test]
    fn gate_op_mnemonic_roundtrip() {
        for op in [
            GateOp::Buf,
            GateOp::Not,
            GateOp::And,
            GateOp::Or,
            GateOp::Nand,
            GateOp::Nor,
            GateOp::Xor,
            GateOp::Xnor,
            GateOp::Mux,
            GateOp::Const0,
            GateOp::Const1,
        ] {
            assert_eq!(GateOp::from_mnemonic(op.mnemonic()), Some(op));
            assert_eq!(GateOp::from_code(op.code()), Some(op));
        }
        assert_eq!(GateOp::from_mnemonic("zzz"), None);
        assert_eq!(GateOp::from_code(200), None);
    }

    #[test]
    fn fanout_matches_fanin_transpose() {
        let nl = simple().finish().unwrap();
        for id in nl.nodes() {
            for &to in nl.fanout(id) {
                assert!(nl.fanin(to).contains(&id));
            }
            for &from in nl.fanin(id) {
                assert!(nl.fanout(from).contains(&id));
            }
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId::from_index(7).to_string(), "n7");
        assert_eq!(FubId::from_index(2).to_string(), "fub2");
        assert_eq!(StructId::from_index(1).to_string(), "s1");
    }

    /// [`simple`] plus a two-cell structure written by `q` and read by
    /// a gate, built into `b`.
    fn with_structure(mut b: NetlistBuilder) -> Netlist {
        let fub = b.add_fub("f0");
        let i = b.add_node("in", NodeKind::Input, fub);
        let g = b.add_node("g", NodeKind::Comb(GateOp::Not), fub);
        let q = b.add_node(
            "q",
            NodeKind::Seq {
                kind: SeqKind::Flop,
                has_enable: false,
            },
            fub,
        );
        let o = b.add_node("out", NodeKind::Output, fub);
        let st = b.add_structure("st", 2, fub);
        let r = b.add_node("r", NodeKind::Comb(GateOp::Buf), fub);
        b.connect(i, g);
        b.connect(g, q);
        b.connect(q, o);
        b.connect(q, b.structure_cell(st, 1));
        b.connect(b.structure_cell(st, 0), r);
        b.finish().unwrap()
    }

    #[test]
    fn content_digest_tracks_semantics_not_interner_state() {
        let nl1 = with_structure(NetlistBuilder::new("t"));
        // Same graph built with extra junk interned first: every symbol
        // id, the structure's included, differs from `nl1`'s.
        let mut b = NetlistBuilder::new("t");
        b.symbols_mut().intern("unused_token");
        b.symbols_mut().intern("another_one");
        let nl2 = with_structure(b);
        let st = nl1.lookup_structure("st").unwrap();
        assert_ne!(nl1.structure(st).sym(), nl2.structure(st).sym());
        assert_eq!(nl1, nl2);
        assert_eq!(nl1.content_digest(), nl2.content_digest());

        // A one-gate change moves the digest.
        let nl1 = simple().finish().unwrap();
        let mut b = simple();
        let fub = FubId::from_index(0);
        let extra = b.add_node("extra", NodeKind::Comb(GateOp::Not), fub);
        let q = b.lookup("q").unwrap();
        b.connect(q, extra);
        let nl3 = b.finish().unwrap();
        assert_ne!(nl1, nl3);
        assert_ne!(nl1.content_digest(), nl3.content_digest());
    }

    #[test]
    fn fanins_keep_connect_order_across_interleaved_edges() {
        let mut b = NetlistBuilder::new("t");
        let fub = b.add_fub("f0");
        let a = b.add_node("a", NodeKind::Input, fub);
        let c = b.add_node("c", NodeKind::Input, fub);
        let m = b.add_node("m", NodeKind::Comb(GateOp::Mux), fub);
        let x = b.add_node("x", NodeKind::Comb(GateOp::Xor), fub);
        b.connect(c, m);
        b.connect(a, x);
        b.connect(a, m);
        b.connect(m, x);
        b.connect(c, m);
        let nl = b.finish().unwrap();
        assert_eq!(nl.fanin(m), &[c, a, c]);
        assert_eq!(nl.fanin(x), &[a, m]);
        assert_eq!(nl.fanout(a), &[m, x]);
        assert_eq!(nl.fanout(c), &[m, m]);
    }

    #[test]
    fn unknown_fanin_is_reported_by_finish() {
        let mut b = simple();
        let g = b.lookup("g").unwrap();
        b.connect(NodeId::from_index(99), g);
        assert_eq!(b.finish().unwrap_err(), BuildError::UnknownNode(99));
    }

    #[test]
    #[should_panic(expected = "edge into unknown node")]
    fn edge_into_unknown_node_panics() {
        let mut b = simple();
        let g = b.lookup("g").unwrap();
        b.connect(g, NodeId::from_index(99));
    }

    #[test]
    fn content_digest_is_kept_across_clones() {
        let nl = simple().finish().unwrap();
        let d = nl.content_digest();
        assert_eq!(nl.clone().content_digest(), d);
        assert_eq!(nl.compute_content_digest(), d);
    }
}
