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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::OnceLock;

    use seqavf_core::engine::{SartConfig, SartEngine, SartResult};
    use seqavf_core::mapping::{PavfInputs, StructureMapping};
    use seqavf_core::report::SartSummary;
    use seqavf_netlist::graph::{Netlist, StructId};
    use seqavf_netlist::scc::{find_loops_traced, LoopAnalysis};
    use seqavf_netlist::snapshot::{
        self, open_sealed, put_section, put_str, put_u64, put_varint, seal, Cursor, SnapshotError,
    };
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
        /// is persisted keyed by the design configuration: netlist and
        /// loop analysis as a `seqavf-graph/2` snapshot, ground-truth
        /// metadata as a `seqavf-synthmeta/2` sidecar, both sealed. Repeat
        /// runs skip synthesis, flattening and the SCC pass. `None`
        /// disables the cache.
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

    /// Most workers a suite runs on: past this, a host's cores are
    /// better left to whatever runs beside the suite.
    const MAX_SUITE_WORKERS: usize = 8;

    /// [`run_suite`] with observability: an `ace.suite` span wraps the
    /// whole sweep, and every workload records its own `ace.workload`
    /// span.
    ///
    /// The traces are independent, so they run on one worker per core, at
    /// most eight and one per trace; the calling thread is one of them,
    /// so one worker spawns no thread. The report is the same at any
    /// worker count. The `ace.suite` span's `threads` field records the
    /// workers engaged.
    pub fn run_suite_traced(traces: &[Trace], perf: &PerfConfig, obs: &Collector) -> SuiteReport {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        run_suite_on(traces, perf, obs, cores.min(MAX_SUITE_WORKERS))
    }

    /// [`run_suite_traced`] on up to `workers` workers. Each pulls the
    /// next trace index from a shared cursor and writes its report into
    /// that trace's slot, so the suite keeps its order.
    fn run_suite_on(
        traces: &[Trace],
        perf: &PerfConfig,
        obs: &Collector,
        workers: usize,
    ) -> SuiteReport {
        let workers = workers.max(1).min(traces.len().max(1));
        let mut span = obs.span("ace.suite");
        span.field_u64("workloads", traces.len() as u64);
        span.field_u64("threads", workers as u64);
        let slots: Vec<OnceLock<AceReport>> = traces.iter().map(|_| OnceLock::new()).collect();
        // The cursor publishes nothing but indices (`Relaxed`); each
        // report reaches the caller through its slot and the scope's join.
        let next = AtomicUsize::new(0);
        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(trace) = traces.get(i) else {
                break;
            };
            let fresh = slots[i].set(run_ace_traced(trace, perf, obs)).is_ok();
            assert!(fresh, "the cursor hands out each trace once");
        };
        std::thread::scope(|s| {
            for _ in 1..workers {
                s.spawn(work);
            }
            work();
        });
        SuiteReport::new(
            slots
                .into_iter()
                .map(|slot| slot.into_inner().expect("every trace ran"))
                .collect(),
        )
    }

    /// Runs the complete flow: generate the design, simulate the suite,
    /// extract pAVFs, map structures, and resolve sequential AVFs.
    pub fn run_flow(config: &FlowConfig) -> FlowOutput {
        run_flow_traced(config, &Collector::disabled())
    }

    /// Format magic of the synthesis-metadata sidecar stored next to a
    /// flow graph snapshot. `/2` moved the `/1` text lines into the sealed
    /// container, so a damaged sidecar fails its checksum.
    const SYNTHMETA_MAGIC: &[u8] = b"seqavf-synthmeta/2\n";

    /// Version-family prefix of [`SYNTHMETA_MAGIC`].
    const SYNTHMETA_FAMILY: &[u8] = b"seqavf-synthmeta/";

    const SEC_GRAPH: u8 = 1;
    const SEC_STRUCTS: u8 = 2;
    const SEC_CREGS: u8 = 3;

    /// Encodes the generator's ground-truth metadata for the graph `nl`
    /// as the sealed sidecar: the graph's content digest, then the
    /// structure map and the control-register names.
    fn encode_meta(meta: &SynthMeta, nl: &Netlist) -> Vec<u8> {
        let mut out = SYNTHMETA_MAGIC.to_vec();
        let mut graph = Vec::new();
        put_u64(&mut graph, nl.content_digest());
        put_section(&mut out, SEC_GRAPH, &graph);
        let mut structs = Vec::new();
        put_varint(&mut structs, meta.structure_map.len() as u64);
        for (sid, perf) in &meta.structure_map {
            put_varint(&mut structs, sid.index() as u64);
            put_str(&mut structs, perf);
        }
        put_section(&mut out, SEC_STRUCTS, &structs);
        let mut cregs = Vec::new();
        put_varint(&mut cregs, meta.control_reg_names.len() as u64);
        for name in &meta.control_reg_names {
            put_str(&mut cregs, name);
        }
        put_section(&mut out, SEC_CREGS, &cregs);
        seal(&mut out);
        out
    }

    /// Decodes a sidecar written by [`encode_meta`] for the restored graph
    /// `nl`. Any damage, an older version, a sidecar of another graph or a
    /// structure id `nl` does not have is an `Err` (→ regenerate).
    fn decode_meta(bytes: &[u8], nl: &Netlist) -> Result<SynthMeta, SnapshotError> {
        let body = open_sealed(bytes, SYNTHMETA_MAGIC, SYNTHMETA_FAMILY)?;
        let mut top = Cursor::new(body);
        let mut graph = top.section(SEC_GRAPH)?;
        if graph.u64()? != nl.content_digest() {
            return Err(SnapshotError::DigestMismatch);
        }
        graph.end()?;
        let mut structs = top.section(SEC_STRUCTS)?;
        let count = structs.count()?;
        let mut structure_map = Vec::with_capacity(count);
        for _ in 0..count {
            let sid = usize::try_from(structs.varint()?).map_err(|_| SnapshotError::BadIndex)?;
            if sid >= nl.structure_count() {
                return Err(SnapshotError::BadIndex);
            }
            structure_map.push((StructId::from_index(sid), structs.string()?));
        }
        structs.end()?;
        let mut cregs = top.section(SEC_CREGS)?;
        let count = cregs.count()?;
        let mut control_reg_names = Vec::with_capacity(count);
        for _ in 0..count {
            control_reg_names.push(cregs.string()?);
        }
        cregs.end()?;
        top.end()?;
        Ok(SynthMeta {
            structure_map,
            control_reg_names,
        })
    }

    /// Obtains the flow's design: from the graph-snapshot cache when
    /// configured and intact (returning the restored loop analysis too),
    /// otherwise by running the generator (and, with a cache directory,
    /// storing the snapshot plus metadata sidecar for next time). Any
    /// cache damage — missing files, corrupt snapshot, damaged or old
    /// sidecar — degrades to a regenerate-and-rewrite, never an error.
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
            let meta = decode_meta(&std::fs::read(&meta_path).ok()?, &netlist).ok()?;
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
        let _ = snapshot::write_atomic(&meta_path, &encode_meta(&design.meta, &design.netlist));
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

    #[cfg(test)]
    mod tests {
        use super::*;
        use seqavf_obs::FieldValue;
        use seqavf_perf::pipeline::run_ace;

        /// Both kernels, then five mixes cut to five different lengths.
        fn uneven_suite() -> Vec<Trace> {
            let config = SuiteConfig {
                workloads: 7,
                len: 1_000,
                seed: 11,
                include_kernels: true,
            };
            let mut traces = standard_suite(&config);
            for (k, t) in traces.iter_mut().enumerate().skip(2) {
                *t = Trace::new(t.name(), t.instrs()[..200 * (k - 1)].to_vec());
            }
            traces
        }

        #[test]
        fn suite_workers_are_invisible() {
            let traces = uneven_suite();
            let perf = PerfConfig::default();
            let sequential: Vec<AceReport> = traces.iter().map(|t| run_ace(t, &perf)).collect();
            let instructions = sequential.iter().map(|r| r.instructions).sum();
            let cycles = sequential.iter().map(|r| r.cycles).sum();
            let mut names: Vec<&str> = traces.iter().map(Trace::name).collect();
            names.sort_unstable();
            for workers in [1, 2, 3, traces.len() + 2] {
                let untraced = run_suite_on(&traces, &perf, &Collector::disabled(), workers);
                assert!(untraced.runs == sequential, "{workers} workers, untraced");
                let obs = Collector::new();
                let traced = run_suite_on(&traces, &perf, &obs, workers);
                assert!(traced.runs == sequential, "{workers} workers, traced");

                let spans = obs.spans();
                let mut ran: Vec<&str> = spans
                    .iter()
                    .filter(|s| s.name == "ace.workload")
                    .map(|s| match s.fields.iter().find(|(k, _)| *k == "workload") {
                        Some((_, FieldValue::Str(name))) => name.as_str(),
                        other => panic!("ace.workload names its workload, got {other:?}"),
                    })
                    .collect();
                ran.sort_unstable();
                assert_eq!(ran, names, "one ace.workload span per trace");
                assert_eq!(
                    obs.counters(),
                    [("ace.cycles", cycles), ("ace.instructions", instructions)]
                );
                let suite: Vec<_> = spans.iter().filter(|s| s.name == "ace.suite").collect();
                assert_eq!(suite.len(), 1);
                assert_eq!(
                    suite[0].fields,
                    [
                        ("workloads", FieldValue::U64(traces.len() as u64)),
                        ("threads", FieldValue::U64(workers.min(traces.len()) as u64)),
                    ]
                );
            }
        }

        #[test]
        fn the_sidecar_decoder_rejects_every_single_bit_flip() {
            let design = generate(&SynthConfig::xeon_like(3).scaled(0.3));
            let nl = &design.netlist;
            let bytes = encode_meta(&design.meta, nl);
            let back = decode_meta(&bytes, nl).expect("a sealed sidecar decodes");
            assert_eq!(back.structure_map, design.meta.structure_map);
            assert_eq!(back.control_reg_names, design.meta.control_reg_names);
            for bit in 0..bytes.len() * 8 {
                let mut bad = bytes.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    decode_meta(&bad, nl).is_err(),
                    "bit {bit} of {}",
                    bytes.len()
                );
            }
            // The `/1` text sidecar and another graph's sidecar are refused.
            let old = format!(
                "seqavf-synthmeta/1\nstruct 0 {}\n",
                design.meta.structure_map[0].1
            );
            assert_eq!(
                decode_meta(old.as_bytes(), nl).err(),
                Some(SnapshotError::UnsupportedVersion)
            );
            let other = generate(&SynthConfig::xeon_like(4).scaled(0.3));
            assert_eq!(
                decode_meta(&bytes, &other.netlist).err(),
                Some(SnapshotError::DigestMismatch)
            );
        }
    }
}
