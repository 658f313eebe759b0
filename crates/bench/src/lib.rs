//! Experiment harnesses reproducing every table and figure of the paper's
//! evaluation (§6), plus validation and ablation studies.
//!
//! Each module implements one experiment from the index in `DESIGN.md` and
//! exposes a `run(...)` function returning a serializable report plus a
//! plain-text rendering; the binaries in `src/bin/` are thin wrappers, and
//! the Criterion benches in `benches/` time the same code paths.
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`fig8`] | Figure 8 — average sequential AVF vs loop-boundary pAVF |
//! | [`fig9`] | Figure 9 — per-FUB average sequential/node AVF |
//! | [`convergence`] | §6.1 — per-FUB mean pAVF vs relaxation iteration |
//! | [`fig10`] | Figure 10 — modeled vs measured SER (Lattice, MD5Sum) |
//! | [`headline`] | §1/§6 headline numbers (14% seq AVF, ~10% SDC cut, censuses) |
//! | [`speed`] | §3.1 vs §5 — SART vs SFI cost per statistically-significant AVF |
//! | [`accuracy`] | §3.1 — SART conservatism vs SFI ground truth |
//! | [`symbolic`] | §5.2 — closed-form re-evaluation vs full re-run |
//! | [`ablations`] | §4/§5.1 design-choice ablations |
//! | [`scaling`] | §1/§5.2 — SART cost vs design size |
//! | [`threads`] | parallel relaxation wall time vs worker-thread count |
//! | [`incremental`] | incremental dirty-FUB sweeps vs full sweeps |
//! | [`frontend`] | zero-copy frontend vs binary graph-snapshot load |
//! | [`production`] | thread-scaling curves and peak RSS at 100k+-node scale |
//! | [`service`] | AVF-as-a-service cold/warm latency and warm throughput |
//! | [`validate`] | fault-injection campaign trials/sec, kernel fast path, importance sampling |

pub mod ablations;
pub mod accuracy;
pub mod common;
pub mod convergence;
pub mod dagpatch;
pub mod fig10;
pub mod fig8;
pub mod fig9;
pub mod frontend;
pub mod headline;
pub mod incremental;
pub mod production;
pub mod scaling;
pub mod service;
pub mod speed;
pub mod symbolic;
pub mod threads;
pub mod validate;
pub mod warmstart;
