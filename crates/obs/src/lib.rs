//! # seqavf-obs
//!
//! Zero-dependency structured observability for the seqavf pipeline.
//!
//! The paper's headline claim is *speed* — analytical pAVF propagation
//! instead of fault injection — so every pipeline phase must be able to
//! account for its wall time in a machine-readable way. This crate
//! provides the substrate: a [`Collector`] handle that records **spans**
//! (named wall-time intervals with typed fields), **monotonic counters**,
//! and derives **log2 wall-time histograms** per span name, all without
//! globals, macros, or external dependencies.
//!
//! ## Design constraints
//!
//! - **Handle, not global.** A [`Collector`] is an explicit, cloneable
//!   handle threaded through the pipeline. Library entry points take
//!   `&Collector`; callers that don't care pass [`Collector::disabled`]
//!   (the untraced wrappers do this for them).
//! - **Cheap enough to leave on.** A disabled collector is a `None` — a
//!   span on a disabled collector performs no clock read, no allocation,
//!   and no locking. An enabled span costs one clock read at open and one
//!   at close, plus one short mutex acquisition at close. Instrumentation
//!   is placed at *phase* granularity (a parse, an SCC pass, a relaxation
//!   sweep, a campaign), never per node or per gate-evaluation.
//! - **No perturbation.** The collector only observes; computation never
//!   reads it, so results — including the bit-identity contract of the
//!   parallel relaxation engine — are independent of whether collection is
//!   enabled.
//!
//! ## Output
//!
//! [`Collector::write_ndjson`] serializes everything as newline-delimited
//! JSON under the `seqavf-trace/1` schema (see [`ndjson`] for the exact
//! grammar and [`ndjson::validate_trace`] for the validator used by the
//! `trace-validate` binary and CI). [`Collector::report`] aggregates the
//! same data into a human-readable per-phase table for `--metrics`.

pub mod collector;
pub mod ndjson;
pub mod report;

pub use collector::{Collector, FieldValue, Span, SpanEvent};
pub use ndjson::{validate_line, validate_trace, TraceStats, SCHEMA};
pub use report::MetricsReport;
