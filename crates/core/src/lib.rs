//! SART — the Sequential AVF Resolution Tool (the paper's primary
//! contribution, §4–§5).
//!
//! SART computes an AVF for **every sequential node** in an RTL netlist
//! without simulating the RTL. It consumes:
//!
//! 1. a flattened node graph (`seqavf-netlist`),
//! 2. a table of **port AVFs** per ACE-modeled structure, produced by the
//!    ACE-instrumented performance model (`seqavf-perf`), and
//! 3. a mapping from netlist structures to performance-model structure
//!    names (§5.1 step 4).
//!
//! and propagates the port AVFs through the node graph:
//!
//! - **Forward** from structure read ports (§4.1.1): pipelines copy the
//!   value, logical joins take the set-union of their inputs (a capped sum
//!   over distinct pAVF terms), distribution splits copy to each branch.
//! - **Backward** from structure write ports (§4.1.2): pipelines copy,
//!   joins give each input the output's value, splits give the stem the
//!   union of its branches.
//! - Every node resolves to `MIN(forward, backward)` (Table 1).
//!
//! Loops are detected and broken: sequential nodes on cycles are treated as
//! structures with an injected static pAVF (0.3 by default, §4.3).
//! Configuration control registers are identified by naming convention and
//! treated as structures with `pAVF_R = 1` whose write-port walks are
//! omitted (§5.1). The design is analyzed per functional block with a
//! relaxation loop that merges boundary (FUBIO) values after every
//! iteration (§5.2), and the whole propagation is *symbolic*: every node
//! ends up with a closed-form expression over structure pAVF terms that can
//! be re-evaluated instantly for new workloads (§5.2).
//!
//! # Quick start
//!
//! See [`engine::SartEngine`] and `examples/quickstart.rs` in the
//! repository root, which reproduces the paper's Figure 7 worked example.

pub mod arena;
pub mod classify;
pub mod compile;
pub mod due;
pub mod engine;
pub mod fixpoint;
pub mod mapping;
pub mod numeric;
pub mod pavf;
pub mod relax;
pub mod report;
pub mod sweep;
pub mod walk;

pub use arena::{SetId, TermId, TermKind, TermTable, UnionArena};
pub use classify::{NodeRole, RoleMap};
pub use compile::{CompileStats, CompiledSweep, PatchStats};
pub use due::{AvfSplit, DueAnalysis};
pub use engine::{SartConfig, SartEngine, SartResult, WarmStatus};
pub use fixpoint::{SeedPlan, StoredFixpoint};
pub use mapping::{PavfInputs, PortPavf, StructureMapping};
pub use numeric::{solve_parallel, NumericOutcome};
pub use pavf::Pavf;
pub use report::{FubAvfRow, SartSummary};
pub use sweep::{
    cache_key_parts, obtain_compiled_traced, solve_fresh_traced, CacheStatus, FreshSolve, KeyParts,
    PatchStatus, SweepCache, SweepOptions, SweepOutcome,
};
