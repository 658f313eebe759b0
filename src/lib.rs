//! # seqavf
//!
//! A reproduction of *"A Fast and Accurate Analytical Technique to Compute
//! the AVF of Sequential Bits in a Processor"* (Raasch, Biswas, Stephan,
//! Racunas, Emer — MICRO-48, 2015) as a Rust workspace.
//!
//! The paper computes the architectural vulnerability factor (AVF) of
//! every flop and latch in a processor by combining **port AVFs** measured
//! with ACE analysis on a performance model with a node graph extracted
//! from RTL, propagating the values through the graph with set-theoretic
//! rules and an iterative relaxation (SART).
//!
//! This umbrella crate re-exports the workspace members and provides
//! [`flow`], the end-to-end four-step tool flow of §5:
//!
//! 1. run the ACE-instrumented performance model over a workload suite
//!    ([`perf`], [`workloads`]),
//! 2. collect port-AVF data,
//! 3. take the compiled/flattened RTL ([`netlist`]),
//! 4. map ACE structure bits to RTL bits and walk the pAVF values through
//!    the node graph ([`core`]).
//!
//! Baselines and validation live in [`sfi`] (statistical fault injection)
//! and [`beam`] (accelerated-measurement simulation).
//!
//! ```
//! use seqavf::flow::{run_flow, FlowConfig};
//!
//! let mut cfg = FlowConfig::small(7);
//! cfg.suite.workloads = 4; // keep the doctest quick
//! let out = run_flow(&cfg);
//! assert!(out.summary.weighted_seq_avf > 0.0);
//! assert!(out.summary.weighted_seq_avf < 1.0);
//! ```

pub use seqavf_beam as beam;
pub use seqavf_core as core;
pub use seqavf_netlist as netlist;
pub use seqavf_obs as obs;
pub use seqavf_perf as perf;
pub use seqavf_sfi as sfi;
pub use seqavf_workloads as workloads;

pub mod flow {
    //! The end-to-end tool flow (§5.1): performance model → port AVFs →
    //! structure mapping → SART.

    use std::path::PathBuf;

    use seqavf_core::engine::{SartConfig, SartEngine, SartResult};
    use seqavf_core::mapping::{PavfInputs, StructureMapping};
    use seqavf_core::report::SartSummary;
    use seqavf_netlist::graph::{Netlist, StructId};
    use seqavf_netlist::scc::{find_loops_traced, LoopAnalysis};
    use seqavf_netlist::snapshot;
    use seqavf_netlist::synth::{generate, SynthConfig, SynthDesign, SynthMeta};
    use seqavf_netlist::Fnv1a64;
    use seqavf_obs::Collector;
    use seqavf_perf::pipeline::{run_ace_traced, PerfConfig};
    use seqavf_perf::report::{AceReport, SuiteReport};
    use seqavf_workloads::suite::{standard_suite, SuiteConfig};
    use seqavf_workloads::trace::Trace;

    /// Configuration of a full flow run.
    #[derive(Debug, Clone)]
    pub struct FlowConfig {
        /// Synthetic design to generate (stands in for the compiled RTL).
        pub design: SynthConfig,
        /// Workload suite for the performance model.
        pub suite: SuiteConfig,
        /// Performance-model parameters.
        pub perf: PerfConfig,
        /// SART parameters.
        pub sart: SartConfig,
        /// Graph-snapshot cache directory. When set, the generated design
        /// (netlist + loop analysis + ground-truth metadata) is persisted
        /// as a `seqavf-graph/2` snapshot keyed by the design
        /// configuration, so repeat runs skip synthesis, flattening and
        /// the SCC pass. `None` disables the cache.
        pub graph_cache: Option<PathBuf>,
    }

    impl FlowConfig {
        /// A full-scale configuration: the Xeon-like design and the
        /// 547-workload suite.
        ///
        /// The RTL-boundary pseudo-structures (§5.1: "circuits that lie
        /// outside of the RTL being analyzed are grouped together into one
        /// or more pseudo-structures, with its own pAVF_R and pAVF_W
        /// values") are given calibrated uncore-traffic values rather than
        /// the fully conservative 1.0 defaults.
        pub fn xeon_like(seed: u64) -> Self {
            FlowConfig {
                design: SynthConfig::xeon_like(seed),
                suite: SuiteConfig::default(),
                perf: PerfConfig::default(),
                sart: SartConfig {
                    boundary_in_pavf: 0.35,
                    boundary_out_pavf: 0.35,
                    ..SartConfig::default()
                },
                graph_cache: None,
            }
        }

        /// A scaled-down configuration for tests and quick studies.
        pub fn small(seed: u64) -> Self {
            FlowConfig {
                design: SynthConfig::xeon_like(seed).scaled(0.4),
                suite: SuiteConfig {
                    workloads: 8,
                    len: 2_000,
                    ..SuiteConfig::default()
                },
                perf: PerfConfig::default(),
                sart: SartConfig {
                    boundary_in_pavf: 0.35,
                    boundary_out_pavf: 0.35,
                    ..SartConfig::default()
                },
                graph_cache: None,
            }
        }
    }

    /// Everything a flow run produces.
    #[derive(Debug, Clone)]
    pub struct FlowOutput {
        /// The generated design and its ground-truth metadata.
        pub design: SynthDesign,
        /// Per-workload ACE reports.
        pub suite_report: SuiteReport,
        /// The measured pAVF table fed to SART.
        pub inputs: PavfInputs,
        /// The structure mapping used (from generator ground truth).
        pub mapping: StructureMapping,
        /// SART's full result (closed forms + AVFs).
        pub result: SartResult,
        /// Per-FUB summary (Figure 9 data).
        pub summary: SartSummary,
    }

    /// Converts a suite's mean ACE measurements into SART inputs.
    pub fn inputs_from_suite(report: &SuiteReport) -> PavfInputs {
        let mut inputs = PavfInputs::new();
        for (name, pavf) in report.mean_port_avfs() {
            inputs.set_port(name, pavf.read, pavf.write);
        }
        for (name, avf) in report.mean_structure_avfs() {
            inputs.set_structure_avf(name, avf);
        }
        inputs
    }

    /// Converts a single workload's ACE report into SART inputs.
    pub fn inputs_from_report(report: &AceReport) -> PavfInputs {
        let mut inputs = PavfInputs::new();
        for (name, pavf) in report.port_avfs() {
            inputs.set_port(name, pavf.read, pavf.write);
        }
        for (name, s) in &report.structures {
            inputs.set_structure_avf(name.clone(), s.avf);
        }
        inputs
    }

    /// Runs the performance model over every trace.
    pub fn run_suite(traces: &[Trace], perf: &PerfConfig) -> SuiteReport {
        run_suite_traced(traces, perf, &Collector::disabled())
    }

    /// [`run_suite`] with observability: an `ace.suite` span wraps the
    /// whole sweep, and every workload records its own `ace.workload`
    /// span.
    pub fn run_suite_traced(traces: &[Trace], perf: &PerfConfig, obs: &Collector) -> SuiteReport {
        let mut span = obs.span("ace.suite");
        span.field_u64("workloads", traces.len() as u64);
        SuiteReport::new(
            traces
                .iter()
                .map(|t| run_ace_traced(t, perf, obs))
                .collect(),
        )
    }

    /// Runs the complete flow: generate the design, simulate the suite,
    /// extract pAVFs, map structures, and resolve sequential AVFs.
    pub fn run_flow(config: &FlowConfig) -> FlowOutput {
        run_flow_traced(config, &Collector::disabled())
    }

    /// Header line of the synthesis-metadata sidecar stored next to a flow
    /// graph snapshot.
    const SYNTHMETA_MAGIC: &str = "seqavf-synthmeta/1";

    /// Renders the generator's ground-truth metadata as the text sidecar.
    fn meta_to_text(meta: &SynthMeta) -> String {
        let mut out = String::from(SYNTHMETA_MAGIC);
        out.push('\n');
        for (sid, perf) in &meta.structure_map {
            out.push_str(&format!("struct {} {perf}\n", sid.index()));
        }
        for name in &meta.control_reg_names {
            out.push_str(&format!("creg {name}\n"));
        }
        out
    }

    /// Parses the sidecar back, validating every structure id against the
    /// restored netlist. Any malformed line means `None` (→ regenerate).
    fn meta_from_text(text: &str, nl: &Netlist) -> Option<SynthMeta> {
        let mut lines = text.lines();
        if lines.next()? != SYNTHMETA_MAGIC {
            return None;
        }
        let mut structure_map = Vec::new();
        let mut control_reg_names = Vec::new();
        for line in lines {
            let mut it = line.split_whitespace();
            match it.next() {
                None => continue,
                Some("struct") => {
                    let sid: usize = it.next()?.parse().ok()?;
                    let perf = it.next()?.to_owned();
                    if it.next().is_some() || sid >= nl.structure_count() {
                        return None;
                    }
                    structure_map.push((StructId::from_index(sid), perf));
                }
                Some("creg") => {
                    let name = it.next()?.to_owned();
                    if it.next().is_some() {
                        return None;
                    }
                    control_reg_names.push(name);
                }
                Some(_) => return None,
            }
        }
        Some(SynthMeta {
            structure_map,
            control_reg_names,
        })
    }

    /// Obtains the flow's design: from the graph-snapshot cache when
    /// configured and intact (returning the restored loop analysis too),
    /// otherwise by running the generator (and, with a cache directory,
    /// storing the snapshot plus metadata sidecar for next time). Any
    /// cache damage — missing files, corrupt snapshot, malformed sidecar —
    /// degrades to a regenerate-and-rewrite, never an error.
    fn obtain_design(config: &FlowConfig, obs: &Collector) -> (SynthDesign, Option<LoopAnalysis>) {
        let generate_traced = || {
            let mut span = obs.span("flow.generate");
            let design = generate(&config.design);
            span.field_u64("nodes", design.netlist.node_count() as u64);
            span.field_u64("fubs", design.netlist.fub_count() as u64);
            design
        };
        let Some(dir) = &config.graph_cache else {
            return (generate_traced(), None);
        };
        let key = {
            let mut h = Fnv1a64::new();
            h.update(format!("{:?}", config.design).as_bytes());
            h.finish()
        };
        let snap_path = dir.join(format!("graph-{key:016x}.bin"));
        let meta_path = dir.join(format!("graph-{key:016x}.meta"));
        let cached = std::fs::read(&snap_path).ok().and_then(|bytes| {
            let (netlist, loops) = snapshot::load(&bytes).ok()?;
            let meta_text = std::fs::read_to_string(&meta_path).ok()?;
            let meta = meta_from_text(&meta_text, &netlist)?;
            Some((SynthDesign { netlist, meta }, loops))
        });
        if let Some((design, loops)) = cached {
            obs.count("frontend.snapshot.hit", 1);
            return (design, Some(loops));
        }
        obs.count("frontend.snapshot.miss", 1);
        let design = generate_traced();
        let loops = find_loops_traced(&design.netlist, obs);
        let _ = snapshot::write_atomic(&snap_path, &snapshot::save(&design.netlist, &loops));
        let _ = snapshot::write_atomic(&meta_path, meta_to_text(&design.meta).as_bytes());
        (design, Some(loops))
    }

    /// [`run_flow`] with observability: every stage reports through the
    /// collector — `flow.generate` (design synthesis), `ace.suite` /
    /// `ace.workload` (performance model), `netlist.scc` / `sart.prepare`
    /// (engine preparation), `relax.sweep` (each relaxation sweep) and
    /// `sart.resolve` (closed-form resolution). With a `graph_cache`
    /// directory configured, snapshot consultations additionally bump
    /// `frontend.snapshot.hit` / `frontend.snapshot.miss`.
    pub fn run_flow_traced(config: &FlowConfig, obs: &Collector) -> FlowOutput {
        let (design, loops) = obtain_design(config, obs);
        let traces = standard_suite(&config.suite);
        let suite_report = run_suite_traced(&traces, &config.perf, obs);
        let inputs = inputs_from_suite(&suite_report);
        let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
        let engine = SartEngine::new_traced(
            &design.netlist,
            &mapping,
            config.sart.clone(),
            loops.as_ref(),
            obs,
        );
        let result = engine.run_traced(&inputs, obs);
        let summary = SartSummary::new(&design.netlist, &result);
        FlowOutput {
            design,
            suite_report,
            inputs,
            mapping,
            result,
            summary,
        }
    }
}
