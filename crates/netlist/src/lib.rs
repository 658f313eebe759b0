//! RTL node-graph substrate for sequential-AVF analysis.
//!
//! This crate provides everything the SART stage (in `seqavf-core`) needs to
//! know about a design's *structure*, without modelling its logic values:
//!
//! - [`graph`] — the flattened node graph ([`Netlist`], [`NodeId`],
//!   [`NodeKind`]) with CSR fan-in/fan-out adjacency, functional-block (FUB)
//!   labels, and ACE-structure bit cells.
//! - [`exlif`] — a textual structural netlist format modelled on the
//!   intermediate "EXLIF" files the paper's tool flow consumes, with a parser
//!   and writer.
//! - [`flatten`] — hierarchy expansion: `.subckt` instances of `.model`
//!   blocks are inlined so that each FUB becomes a single flat model,
//!   mirroring the paper's post-compilation expansion step (§5.1).
//! - [`intern`] — the global symbol interner ([`Sym`], [`SymbolTable`])
//!   that keeps owned strings off the graph's hot paths.
//! - [`scc`] — Tarjan strongly-connected-component detection used to find
//!   state-machine feedback loops (§4.3).
//! - [`snapshot`] — the `seqavf-graph/2` versioned binary format for
//!   caching flattened graphs (plus their loop analysis) on disk.
//! - [`source`] — the one loader from a design file (EXLIF or Verilog,
//!   by extension) to its graph, through an optional snapshot directory.
//! - [`synth`] — a seeded generator of processor-shaped synthetic designs
//!   (pipelines, logical joins, distribution splits, FSM loops, control
//!   registers) standing in for the proprietary Intel Xeon RTL.
//! - [`stats`] — node censuses used by the paper's reporting (§6.1).
//!
//! # Quick tour
//!
//! ```
//! use seqavf_netlist::graph::{NetlistBuilder, NodeKind, GateOp, SeqKind};
//!
//! let mut b = NetlistBuilder::new("demo");
//! let fub = b.add_fub("exec");
//! let s1 = b.add_structure("rs", 1, fub);
//! let rd = b.structure_cell(s1, 0);
//! let q = b.add_node("q1", NodeKind::Seq { kind: SeqKind::Flop, has_enable: false }, fub);
//! let g = b.add_node("g1", NodeKind::Comb(GateOp::Not), fub);
//! b.connect(rd, q);
//! b.connect(q, g);
//! let netlist = b.finish().unwrap();
//! assert_eq!(netlist.node_count(), 3);
//! ```

pub mod error;
pub mod exlif;
pub mod flatten;
pub mod graph;
pub mod intern;
pub mod scc;
pub mod snapshot;
pub mod source;
pub mod stats;
pub mod synth;
pub mod verilog;

pub use error::{BuildError, ExlifError};
pub use graph::{FubId, GateOp, Netlist, NetlistBuilder, NodeId, NodeKind, SeqKind, StructId};
pub use intern::{Fnv1a64, Sym, SymbolTable, WideFnv64};
pub use snapshot::SnapshotError;
pub use source::DesignSource;
