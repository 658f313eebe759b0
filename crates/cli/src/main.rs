//! `seqavf` — command-line driver for the sequential-AVF tool flow.
//!
//! ```text
//! seqavf gen   --out design.exlif [--map design.map] [--seed 42] [--scale 1.0]
//!              [--cores N]
//! seqavf ace   --out pavf.json [--workloads 32] [--len 5000] [--conservative]
//! seqavf sart  --design design.exlif --map design.map --pavf pavf.json
//!              [--out avf.json] [--loop-pavf 0.3] [--iterations 20] [--global]
//!              [--threads 4]
//! seqavf sfi   --design design.exlif [--sample 100] [--injections 16]
//! seqavf sweep --design design.exlif --map design.map --pavf pavf.json
//!              [--workloads 8] [--len 5000] [--seed N] [--threads 4]
//!              [--cache-dir .seqavf-cache] [--out sweep.json]
//! seqavf validate --design design.exlif --map design.map [--pavf pavf.json]
//!              [--trials 1000000] [--sampling importance] [--kernel exact]
//!              [--burst 1] [--no-derate] [--assert-corr 0.9]
//!              [--out validate.json]
//! seqavf flow  [--seed 42] [--workloads 32] [--len 5000] [--scale 1.0]
//!              [--cores N] [--threads 4]
//! seqavf serve [--port 7171] [--workers 2] [--max-resident 4]
//!              [--graph-cache dir] [--cache-dir dir]
//! seqavf query --design design.exlif --map design.map [--addr host:port]
//!              [--out rows.json]
//! ```
//!
//! `gen` emits the synthetic design in EXLIF plus the structure-mapping
//! file; `ace` runs the workload suite through the ACE-instrumented
//! performance model and writes the port-AVF table; `sart` resolves every
//! node's AVF; `sfi` runs the fault-injection baseline; `flow` chains the
//! whole pipeline in memory.
//!
//! Every subcommand accepts `--trace-out <path>` (write a
//! `seqavf-trace/1` NDJSON trace of all pipeline phases) and `--metrics`
//! (print a per-phase wall-time/counter table after the run).

mod args;

use std::path::Path;
use std::process::ExitCode;

use args::Args;
use seqavf_core::engine::{SartConfig, SartEngine, WarmStatus};
use seqavf_core::fixpoint;
use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_core::report::SartSummary;
use seqavf_core::sweep::KeyParts;
use seqavf_netlist::exlif;
use seqavf_netlist::graph::Netlist;
use seqavf_netlist::scc::LoopAnalysis;
use seqavf_netlist::synth::{generate, SynthConfig};
use seqavf_netlist::DesignSource;
use seqavf_obs::Collector;
use seqavf_perf::pipeline::PerfConfig;
use seqavf_workloads::suite::{standard_suite, SuiteConfig};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("seqavf: {e}\nrun `seqavf help` for usage");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_str() {
        "gen" => cmd_gen(&args),
        "ace" => cmd_ace(&args),
        "sart" => cmd_sart(&args),
        "sfi" => cmd_sfi(&args),
        "sweep" => cmd_sweep(&args),
        "validate" => cmd_validate(&args),
        "flow" => cmd_flow(&args),
        "serve" => cmd_serve(&args),
        "query" => cmd_query(&args),
        "" | "help" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("seqavf: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
seqavf — sequential AVF via port-AVF propagation (MICRO-48 2015)

commands:
  gen   --out <design.exlif> [--map <file>] [--seed N] [--scale F] [--cores N]
        generate a processor-shaped synthetic design; --scale widens and
        deepens every FUB, --cores replicates the core N times behind a
        shared uncore (production-size designs need both)
  ace   --out <pavf.json> [--workloads N] [--len N] [--seed N] [--conservative]
        run the ACE performance model over a workload suite
  sart  --design <exlif|.v> --map <file> --pavf <json> [--out <json>]
        [--loop-pavf F] [--iterations N] [--global] [--threads N]
        [--no-incremental] [--protected a,b] [--equations node1,node2]
        [--graph-cache <dir>] [--warm-start <dir>]
        resolve sequential AVFs for every node (designs may be EXLIF or
        structural Verilog, chosen by file extension); --global relaxes
        the whole design as one partition instead of one per FUB (the
        same AVFs, reached in one sweep); --no-incremental
        re-walks every FUB every relaxation sweep instead of only the
        boundary-dirty ones (bit-identical results, more work);
        --warm-start persists the converged fixpoint in <dir> and seeds
        the next run of the same design from it, relaxing only the FUBs
        whose content changed (bit-identical to a cold solve)
  sfi   --design <exlif> [--sample N] [--injections N] [--seed N]
        [--graph-cache <dir>]
        statistical fault-injection baseline
  sweep --design <exlif|.v> --map <file> --pavf <json> [--out <json>]
        [--workloads N] [--len N] [--seed N] [--threads N]
        [--cache-dir <dir>] [--graph-cache <dir>] [--warm-start <dir>]
        [--loop-pavf F] [--iterations N] [--global] [--no-incremental]
        [--conservative]
        compile the closed forms once and evaluate a whole workload suite;
        --cache-dir reuses the compiled artifact across runs (keyed by
        netlist content + configuration), skipping relaxation entirely;
        --warm-start seeds a fresh relaxation from the stored fixpoint
        of the previous run of this design (see sart); with --cache-dir
        too, an edit patches the previous revision's compiled DAG in
        place of a full recompile (only the dirty cone is re-lowered)
  validate --design <exlif|.v> --map <file> [--pavf <json>] [--out <json>]
        [--trials N] [--seed N] [--threads N] [--sampling uniform|importance]
        [--floor F] [--kernel exact|propagation] [--burst N] [--warmup N]
        [--horizon N] [--no-derate] [--assert-corr F] [--cache-dir <dir>]
        [--graph-cache <dir>] [--loop-pavf F] [--iterations N] [--global]
        [--no-incremental]
        close the validation triangle: run a trial-indexed fault-injection
        campaign against the design and statistically compare the per-FUB
        injection AVFs with the analytical prediction (Pearson and
        Spearman correlation, Wilson-interval overlap, Horvitz–Thompson
        population mean). The prediction is SART's per-bit AVF derated by
        the propagation-probability model, because a random-stimulus
        campaign measures structural reachability times logical masking;
        --no-derate compares against the raw SART values instead, and
        omitting --pavf (the default for validation) runs SART under
        conservative all-1.0 inputs — supplying a measured table instead
        validates workload-derated AVFs, which random stimulus cannot
        observe, so expect low correlation there. --sampling importance
        weights target selection by the predicted AVF (floored at --floor
        so every bit stays reachable), --kernel propagation swaps the
        exact paired simulation for the propagation-probability fast
        path, --burst flips N bits per trial, --assert-corr fails the run
        when the Pearson correlation lands below the threshold, and
        --cache-dir shares the sweep's compiled-DAG artifacts for the
        analytical side
  flow  [--seed N] [--workloads N] [--len N] [--scale F] [--cores N]
        [--threads N] [--no-incremental] [--graph-cache <dir>]
        run the whole pipeline in memory and print the per-FUB report
  serve [--port N] [--host ADDR] [--workers N] [--queue N] [--threads N]
        [--max-resident N] [--graph-cache <dir>] [--cache-dir <dir>]
        [--idle-secs N]
        run the resident AVF service: loaded graphs and compiled sweep
        DAGs stay in memory behind an LRU, so repeat queries skip the
        whole frontend+relaxation pipeline; POST /v1/avf evaluates a
        batch of workload pAVF tables, GET /metrics exposes counters,
        POST /v1/shutdown (or SIGTERM, or --idle-secs) exits cleanly
  query --design <exlif|.v> --map <file> [--addr host:port] [--out <json>]
        [--workloads N] [--len N] [--seed N] [--conservative]
        [--loop-pavf F] [--iterations N] [--global] [--design-ref HEX]
        run the workload suite through the ACE model locally, send the
        pAVF tables to a `serve` instance, and print/write the same
        rows `sweep` would (bit-identical); --design-ref skips the
        design file entirely when the server already has it resident

every command also accepts:
        [--trace-out <file.ndjson>]  write a seqavf-trace/1 phase trace
        [--metrics]                  print the per-phase metrics table

--graph-cache stores the flattened node graph (plus its loop analysis) as
a versioned binary seqavf-graph/2 snapshot keyed by the design source, so
repeat runs skip parsing, flattening and SCC detection; corrupt or stale
snapshots silently fall back to a fresh parse.
";

fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("writing {path}: {e}"))
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

/// The CLI's observability handle: a collector that is enabled only when
/// `--trace-out` or `--metrics` was given, so untraced runs pay nothing.
struct Obs {
    collector: Collector,
    trace_out: Option<String>,
    metrics: bool,
}

impl Obs {
    fn from_args(args: &Args) -> Obs {
        let trace_out = args.get("trace-out").map(str::to_owned);
        let metrics = args.has("metrics");
        let collector = if trace_out.is_some() || metrics {
            Collector::new()
        } else {
            Collector::disabled()
        };
        Obs {
            collector,
            trace_out,
            metrics,
        }
    }

    /// Writes the NDJSON trace and/or prints the metrics table, as asked.
    fn finish(&self, command: &str) -> Result<(), String> {
        if let Some(path) = &self.trace_out {
            let mut buf = Vec::new();
            self.collector
                .write_ndjson(&mut buf, &[("cmd", command)])
                .map_err(|e| format!("serializing trace: {e}"))?;
            std::fs::write(path, &buf).map_err(|e| format!("writing {path}: {e}"))?;
            println!(
                "wrote {path}: {} trace events",
                self.collector.spans().len()
            );
        }
        if self.metrics {
            print!("{}", self.collector.report().to_table());
        }
        Ok(())
    }
}

/// Loads `--design` through the shared graph tier
/// ([`DesignSource::load`]), with `--graph-cache` as its snapshot
/// directory: a repeat run of the same source skips parse, flatten and
/// SCC entirely.
fn load_design(args: &Args, obs: &Collector) -> Result<(Netlist, Option<LoopAnalysis>), String> {
    let path = args.require("design")?;
    DesignSource::read(path)
        .map_err(|e| format!("reading {path}: {e}"))?
        .load(args.get("graph-cache").map(Path::new), obs)
        .map_err(|e| format!("parsing {path}: {e}"))
}

/// Reads a `--pavf` table.
fn read_pavf(path: &str) -> Result<PavfInputs, String> {
    serde_json::from_str(&read_file(path)?).map_err(|e| format!("parsing pAVF table: {e}"))
}

/// The [`SartConfig`] of `--loop-pavf`, `--iterations`, `--global`,
/// `--no-incremental` and `--threads` (at least 1, `default_threads` when
/// absent), shared by `sart`, `sweep` and `validate`.
fn sart_config(args: &Args, default_threads: usize) -> Result<SartConfig, String> {
    Ok(SartConfig {
        loop_pavf: args.unit_f64("loop-pavf", 0.3)?,
        max_iterations: args.num("iterations", 20usize)?,
        partitioned: !args.has("global"),
        incremental: !args.has("no-incremental"),
        threads: args.num("threads", default_threads)?.max(1),
        ..SartConfig::default()
    })
}

/// Prints which path a warm-start request took.
fn print_warm(status: WarmStatus) {
    match status {
        WarmStatus::Warm {
            seeded_fubs,
            dirty_fubs,
        } => println!(
            "warm start: seeded {seeded_fubs} FUBs from stored fixpoint, {dirty_fubs} dirty"
        ),
        WarmStatus::Cold(reason) => println!("warm start: cold solve ({reason})"),
    }
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    args.validate(
        &["out", "map", "seed", "scale", "cores", "trace-out"],
        &["metrics"],
    )?;
    let obs = Obs::from_args(args);
    let out = args.require("out")?;
    let seed = args.num("seed", 42u64)?;
    let scale = args.pos_f64("scale", 1.0)?;
    let cores = args.pos_usize("cores", 1)?;
    let design = {
        let mut span = obs.collector.span("flow.generate");
        let design = generate(&SynthConfig::xeon_like(seed).scaled(scale).with_cores(cores));
        span.field_u64("nodes", design.netlist.node_count() as u64);
        span.field_u64("fubs", design.netlist.fub_count() as u64);
        design
    };
    write_file(out, &exlif::write(&design.netlist))?;
    println!(
        "wrote {out}: {} nodes, {} sequentials, {} structures",
        design.netlist.node_count(),
        design.netlist.seq_count(),
        design.netlist.structure_count()
    );
    if let Some(map_path) = args.get("map") {
        let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
        write_file(map_path, &mapping.to_text(&design.netlist))?;
        println!("wrote {map_path}: {} structure mappings", mapping.len());
    }
    obs.finish("gen")
}

fn cmd_ace(args: &Args) -> Result<(), String> {
    args.validate(
        &["out", "workloads", "len", "seed", "trace-out"],
        &["conservative", "metrics"],
    )?;
    let obs = Obs::from_args(args);
    let out = args.require("out")?;
    let suite_cfg = SuiteConfig {
        workloads: args.num("workloads", 32usize)?,
        len: args.num("len", 5_000usize)?,
        seed: args.num("seed", 0xace_5eedu64)?,
        include_kernels: true,
    };
    let perf = PerfConfig {
        conservative_residency: args.has("conservative"),
        ..PerfConfig::default()
    };
    let traces = standard_suite(&suite_cfg);
    println!("running {} workloads through the ACE model…", traces.len());
    let suite = seqavf::flow::run_suite_traced(&traces, &perf, &obs.collector);
    let inputs = seqavf::flow::inputs_from_suite(&suite);
    let json = serde_json::to_string_pretty(&inputs).map_err(|e| e.to_string())?;
    write_file(out, &json)?;
    println!("wrote {out}: {} structures", inputs.ports.len());
    obs.finish("ace")
}

fn cmd_sart(args: &Args) -> Result<(), String> {
    args.validate(
        &[
            "design",
            "map",
            "pavf",
            "out",
            "loop-pavf",
            "iterations",
            "threads",
            "protected",
            "equations",
            "graph-cache",
            "warm-start",
            "trace-out",
        ],
        &["global", "no-incremental", "metrics"],
    )?;
    let obs = Obs::from_args(args);
    let (netlist, loops) = load_design(args, &obs.collector)?;
    let mapping = StructureMapping::from_text(&netlist, &read_file(args.require("map")?)?)?;
    let inputs = read_pavf(args.require("pavf")?)?;
    let config = sart_config(args, 1)?;
    let engine = SartEngine::new_traced(&netlist, &mapping, config, loops.as_ref(), &obs.collector);
    let result = match args.get("warm-start") {
        None => engine.run_traced(&inputs, &obs.collector),
        Some(dir) => {
            let keys = KeyParts::new(&netlist, &mapping, engine.config());
            let path =
                fixpoint::artifact_path(Path::new(dir), keys.fixpoint_key(netlist.design_name()));
            let stored = fixpoint::load(&path).unwrap_or_default();
            let prev = stored.as_ref().ok_or("no usable fixpoint artifact");
            let (result, status, _, captured) =
                engine.run_warm_start_traced(&inputs, prev, &obs.collector);
            print_warm(status);
            // Refresh the artifact so the next edit of this design
            // re-solves warm against today's fixpoint.
            if let Some(captured) = captured {
                match fixpoint::store(&path, &captured) {
                    Ok(()) => println!("stored fixpoint artifact {}", path.display()),
                    Err(e) => eprintln!("seqavf: cannot store fixpoint artifact: {e}"),
                }
            }
            result
        }
    };
    let summary = SartSummary::new(&netlist, &result);
    print!("{}", summary.to_table());
    println!(
        "iterations: {}   visited: {:.1}%   control regs: {}   loop bits: {}",
        result.iterations(),
        summary.visited_fraction * 100.0,
        summary.control_reg_bits,
        summary.loop_seq_bits
    );
    println!(
        "relaxation wall time: {:.3} ms total over {} sweeps ({:.3} ms/sweep, {} threads, {} node-walks{})",
        result.outcome.total_wall_seconds() * 1e3,
        result.outcome.trace.len(),
        result.outcome.mean_iteration_seconds() * 1e3,
        result.config.threads,
        result.outcome.total_walked_nodes(),
        if result.config.incremental {
            ", incremental"
        } else {
            ", full sweeps"
        }
    );
    // SDC/DUE split when protected structures are named.
    if let Some(protected) = args.get("protected") {
        let set: std::collections::BTreeSet<String> =
            protected.split(',').map(|s| s.trim().to_owned()).collect();
        let due = seqavf_core::due::DueAnalysis::compute(&result, &netlist, &inputs, &set);
        println!(
            "SDC/DUE split ({} protected structures): mean seq SDC = {:.4}, DUE = {:.4} ({:.1}% detected)",
            set.len(),
            due.mean_seq_sdc,
            due.mean_seq_due,
            due.due_share() * 100.0
        );
    }
    // Closed-form equations for named nodes.
    if let Some(nodes) = args.get("equations") {
        for name in nodes.split(',') {
            match netlist.lookup(name.trim()) {
                Some(id) => println!("{} = {}", name.trim(), result.closed_form(id)),
                None => eprintln!("seqavf: no node named `{}`", name.trim()),
            }
        }
    }
    if let Some(out) = args.get("out") {
        #[derive(serde::Serialize)]
        struct NodeAvf<'a> {
            node: &'a str,
            avf: f64,
        }
        let dump: Vec<NodeAvf<'_>> = netlist
            .seq_nodes()
            .map(|id| NodeAvf {
                node: netlist.name(id),
                avf: result.avf(id),
            })
            .collect();
        write_file(
            out,
            &serde_json::to_string_pretty(&dump).map_err(|e| e.to_string())?,
        )?;
        println!("wrote {out}: {} sequential AVFs", dump.len());
    }
    obs.finish("sart")
}

fn cmd_sfi(args: &Args) -> Result<(), String> {
    use seqavf_sfi::campaign::{run_campaign_traced, CampaignConfig};
    args.validate(
        &[
            "design",
            "sample",
            "injections",
            "seed",
            "threads",
            "show",
            "graph-cache",
            "trace-out",
        ],
        &["metrics"],
    )?;
    let obs = Obs::from_args(args);
    let (netlist, _loops) = load_design(args, &obs.collector)?;
    let sample_n = args.num("sample", 100usize)?;
    let seqs: Vec<_> = netlist.seq_nodes().collect();
    let stride = (seqs.len() / sample_n.max(1)).max(1);
    let sample: Vec<_> = seqs.iter().step_by(stride).copied().collect();
    let cfg = CampaignConfig {
        injections_per_node: args.num("injections", 16usize)?,
        seed: args.num("seed", 0xfau64)?,
        threads: args.num("threads", 8usize)?,
        ..CampaignConfig::default()
    };
    println!(
        "injecting {} faults ({} nodes × {})…",
        sample.len() * cfg.injections_per_node,
        sample.len(),
        cfg.injections_per_node
    );
    let camp = run_campaign_traced(&netlist, &sample, &cfg, &obs.collector);
    println!("mean SFI AVF = {:.4}", camp.mean_avf());
    for est in camp.nodes.iter().take(args.num("show", 10usize)?) {
        println!(
            "  {:<40} avf={:.3} [{:.3},{:.3}] errors={} unknown={}",
            netlist.name(est.node),
            est.avf,
            est.ci.0,
            est.ci.1,
            est.errors,
            est.unknowns
        );
    }
    obs.finish("sfi")
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    use seqavf_core::sweep::{run_sweep_with_loops_traced, CacheStatus, PatchStatus, SweepOptions};
    args.validate(
        &[
            "design",
            "map",
            "pavf",
            "out",
            "workloads",
            "len",
            "seed",
            "threads",
            "cache-dir",
            "graph-cache",
            "warm-start",
            "loop-pavf",
            "iterations",
            "trace-out",
        ],
        &["global", "no-incremental", "conservative", "metrics"],
    )?;
    let obs = Obs::from_args(args);
    let (netlist, loops) = load_design(args, &obs.collector)?;
    let mapping = StructureMapping::from_text(&netlist, &read_file(args.require("map")?)?)?;
    let base_inputs = read_pavf(args.require("pavf")?)?;
    let config = sart_config(args, 1)?;
    // Per-workload pAVF tables from the ACE model, one per suite trace.
    let suite_cfg = SuiteConfig {
        workloads: args.num("workloads", 8usize)?,
        len: args.num("len", 5_000usize)?,
        seed: args.num("seed", 0xace_5eedu64)?,
        include_kernels: true,
    };
    let perf = PerfConfig {
        conservative_residency: args.has("conservative"),
        ..PerfConfig::default()
    };
    let traces = standard_suite(&suite_cfg);
    println!("running {} workloads through the ACE model…", traces.len());
    let suite = seqavf::flow::run_suite_traced(&traces, &perf, &obs.collector);
    let workloads: Vec<(String, PavfInputs)> = suite
        .runs
        .iter()
        .map(|r| (r.workload.clone(), seqavf::flow::inputs_from_report(r)))
        .collect();
    let opts = SweepOptions {
        threads: config.threads,
        cache_dir: args.get("cache-dir").map(Into::into),
        warm_start: args.get("warm-start").map(Into::into),
    };
    let t0 = std::time::Instant::now();
    let outcome = run_sweep_with_loops_traced(
        &netlist,
        &mapping,
        &config,
        &base_inputs,
        &workloads,
        &opts,
        loops.as_ref(),
        &obs.collector,
    )?;
    let cache_word = match outcome.cache {
        CacheStatus::Disabled => "cache disabled",
        CacheStatus::Miss => "cache miss (relaxed fresh, artifact stored)",
        CacheStatus::Hit => "cache hit (relaxation skipped)",
    };
    if let Some(status) = outcome.warm {
        print_warm(status);
    }
    match outcome.patch {
        Some(PatchStatus::Patched(st)) => println!(
            "DAG patch: {} ops patched, {} retained, {} orphaned (previous revision's DAG reused)",
            st.nodes_patched(),
            st.ops_retained,
            st.ops_orphaned
        ),
        Some(PatchStatus::Rebuilt(reason)) => println!("DAG patch: full rebuild ({reason})"),
        None => {}
    }
    println!(
        "compiled DAG: {} nodes, {} sum ops, {} min ops ({} arena sets, {} terms) — {cache_word}",
        outcome.stats.nodes,
        outcome.stats.sum_ops,
        outcome.stats.min_ops,
        outcome.stats.arena_sets,
        outcome.stats.terms
    );
    println!(
        "{:<28} {:>10} {:>10} {:>10}",
        "workload", "mean", "min", "max"
    );
    for row in &outcome.rows {
        println!(
            "{:<28} {:>10.4} {:>10.4} {:>10.4}",
            row.workload, row.mean_seq_avf, row.min_seq_avf, row.max_seq_avf
        );
    }
    println!(
        "swept {} workloads over {} sequential bits in {:?}",
        outcome.rows.len(),
        netlist.seq_count(),
        t0.elapsed()
    );
    if let Some(out) = args.get("out") {
        #[derive(serde::Serialize)]
        struct Row<'a> {
            workload: &'a str,
            mean_seq_avf: f64,
            min_seq_avf: f64,
            max_seq_avf: f64,
        }
        let dump: Vec<Row<'_>> = outcome
            .rows
            .iter()
            .map(|r| Row {
                workload: &r.workload,
                mean_seq_avf: r.mean_seq_avf,
                min_seq_avf: r.min_seq_avf,
                max_seq_avf: r.max_seq_avf,
            })
            .collect();
        write_file(
            out,
            &serde_json::to_string_pretty(&dump).map_err(|e| e.to_string())?,
        )?;
        println!("wrote {out}: {} workload rows", dump.len());
    }
    obs.finish("sweep")
}

fn cmd_validate(args: &Args) -> Result<(), String> {
    use seqavf_beam::validate::{run_validate_traced, Sampling, ValidateConfig};
    use seqavf_core::sweep::{obtain_compiled_traced, CacheStatus};
    use seqavf_sfi::campaign::{Kernel, TrialConfig};
    args.validate(
        &[
            "design",
            "map",
            "pavf",
            "out",
            "trials",
            "seed",
            "threads",
            "sampling",
            "floor",
            "kernel",
            "burst",
            "warmup",
            "horizon",
            "assert-corr",
            "cache-dir",
            "graph-cache",
            "loop-pavf",
            "iterations",
            "trace-out",
        ],
        &["global", "no-incremental", "no-derate", "metrics"],
    )?;
    let obs = Obs::from_args(args);
    let (netlist, loops) = load_design(args, &obs.collector)?;
    let mapping = StructureMapping::from_text(&netlist, &read_file(args.require("map")?)?)?;
    // Without --pavf the analytical side runs under conservative inputs
    // (every boundary and port pAVF 1.0): structural vulnerability, which
    // is the quantity a random-stimulus injection campaign measures. A
    // measured table validates the workload-derated AVFs instead — expect
    // weak correlation there, since ACE derating is invisible to random
    // stimulus by construction.
    let inputs = match args.get("pavf") {
        Some(path) => read_pavf(path)?,
        None => PavfInputs::new(),
    };
    let config = sart_config(args, 8)?;

    // Analytical side: the per-bit SART AVFs, via the same compiled-DAG
    // artifact cache the sweep uses (a prior `sweep --cache-dir` run makes
    // this a pure cache hit).
    let (compiled, cache) = obtain_compiled_traced(
        &netlist,
        &mapping,
        &config,
        &inputs,
        args.get("cache-dir").map(Path::new),
        loops.as_ref(),
        &obs.collector,
    )?;
    let node_avfs = compiled.evaluate_traced(&inputs, &obs.collector);
    let targets: Vec<_> = netlist.seq_nodes().collect();
    // The prediction of what injection measures: the SART AVF derated by
    // the propagation-probability model (logical masking under random
    // stimulus), unless --no-derate asks for the raw SART values.
    let derate = !args.has("no-derate");
    let sart_avfs: Vec<f64> = if derate {
        let model = {
            let mut span = obs.collector.span("validate.prop_model");
            span.field_u64("nodes", netlist.node_count() as u64);
            seqavf_sfi::logic::PropModel::build(
                &netlist,
                &seqavf_sfi::inject::observation_points(&netlist),
            )
        };
        targets
            .iter()
            .map(|&id| node_avfs[id.index()].clamp(0.0, 1.0) * model.propagation(id))
            .collect()
    } else {
        targets.iter().map(|&id| node_avfs[id.index()]).collect()
    };
    let cache_word = match cache {
        CacheStatus::Disabled => "compiled fresh",
        CacheStatus::Miss => "cache miss (artifact stored)",
        CacheStatus::Hit => "cache hit (relaxation skipped)",
    };
    println!(
        "analytical side: {} sequential bits, SART under {} inputs{} ({cache_word})",
        targets.len(),
        if args.get("pavf").is_some() {
            "measured"
        } else {
            "conservative"
        },
        if derate {
            " × propagation derating"
        } else {
            ""
        },
    );

    // Injection side + comparison.
    let sampling = match args.get("sampling").unwrap_or("uniform") {
        "uniform" => Sampling::Uniform,
        "importance" => Sampling::Importance {
            floor: args.unit_f64("floor", 0.01)?,
        },
        other => {
            return Err(format!(
                "--sampling must be uniform|importance, got `{other}`"
            ))
        }
    };
    let kernel = match args.get("kernel").unwrap_or("exact") {
        "exact" => Kernel::Exact,
        "propagation" => Kernel::Propagation,
        other => return Err(format!("--kernel must be exact|propagation, got `{other}`")),
    };
    let vcfg = ValidateConfig {
        trial: TrialConfig {
            trials: args.num("trials", 1_000_000usize)?,
            seed: args.num("seed", 0xace_5eedu64)?,
            max_warmup: args.num("warmup", 32u64)?,
            horizon: args.num("horizon", 150u64)?,
            threads: config.threads,
            burst: args.pos_usize("burst", 1)?,
            kernel,
        },
        sampling,
    };
    println!(
        "injecting {} trials across {} bits…",
        vcfg.trial.trials,
        targets.len()
    );
    let t0 = std::time::Instant::now();
    let report = run_validate_traced(
        &netlist,
        netlist.design_name(),
        &targets,
        &sart_avfs,
        &vcfg,
        &obs.collector,
    );
    print!("{}", report.to_table());
    println!(
        "validated {} trials in {:?} ({} threads)",
        report.trials,
        t0.elapsed(),
        config.threads
    );
    if let Some(out) = args.get("out") {
        write_file(out, &report.to_json())?;
        println!(
            "wrote {out}: seqavf-validate/1 artifact, {} FUBs",
            report.fubs.len()
        );
    }
    obs.finish("validate")?;
    if args.get("assert-corr").is_some() {
        let threshold = args.unit_f64("assert-corr", 0.0)?;
        if report.pearson < threshold {
            return Err(format!(
                "model/injection Pearson correlation {:.4} below required {:.4}",
                report.pearson, threshold
            ));
        }
        println!(
            "correlation check passed: pearson {:.4} >= {:.4}",
            report.pearson, threshold
        );
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    use seqavf_serve::resident::ResidentConfig;
    use seqavf_serve::server::{spawn, ServeConfig};
    args.validate(
        &[
            "port",
            "host",
            "workers",
            "queue",
            "threads",
            "max-resident",
            "graph-cache",
            "cache-dir",
            "idle-secs",
            "trace-out",
        ],
        &["metrics"],
    )?;
    let obs = Obs::from_args(args);
    let host = args.get("host").unwrap_or("127.0.0.1");
    let port: u16 = args.num("port", 7171u16)?;
    let cfg = ServeConfig {
        addr: format!("{host}:{port}"),
        workers: args.pos_usize("workers", 2)?,
        queue_cap: args.pos_usize("queue", 32)?,
        resident: ResidentConfig {
            max_resident: args.pos_usize("max-resident", 4)?,
            threads: args.pos_usize("threads", 1)?,
            graph_cache: args.get("graph-cache").map(Into::into),
            sweep_cache: args.get("cache-dir").map(Into::into),
        },
        idle_timeout: match args.get("idle-secs") {
            None => None,
            Some(_) => Some(std::time::Duration::from_secs_f64(
                args.pos_f64("idle-secs", 60.0)?,
            )),
        },
        signal_handlers: true,
        ..ServeConfig::default()
    };
    let handle = spawn(cfg, obs.collector.clone())?;
    println!(
        "seqavf serve: listening on http://{} (POST /v1/avf, GET /metrics, GET /healthz)",
        handle.addr()
    );
    handle.join();
    println!("seqavf serve: shut down cleanly");
    obs.finish("serve")
}

fn cmd_query(args: &Args) -> Result<(), String> {
    use seqavf_serve::api::{AvfRequest, AvfResponse, NamedTable, RequestConfig};
    use seqavf_serve::client;
    use std::net::ToSocketAddrs;
    args.validate(
        &[
            "addr",
            "design",
            "design-ref",
            "map",
            "pavf",
            "out",
            "workloads",
            "len",
            "seed",
            "loop-pavf",
            "iterations",
            "trace-out",
        ],
        &["global", "conservative", "metrics"],
    )?;
    let obs = Obs::from_args(args);
    let addr_text = args.get("addr").unwrap_or("127.0.0.1:7171");
    let addr = addr_text
        .to_socket_addrs()
        .map_err(|e| format!("resolving --addr {addr_text}: {e}"))?
        .next()
        .ok_or_else(|| format!("--addr {addr_text} resolved to no addresses"))?;
    // The workload tables come from the same client-side ACE run the
    // `sweep` command does, so a server answer can be compared to a
    // `sweep` answer byte for byte.
    let suite_cfg = SuiteConfig {
        workloads: args.num("workloads", 8usize)?,
        len: args.num("len", 5_000usize)?,
        seed: args.num("seed", 0xace_5eedu64)?,
        include_kernels: true,
    };
    let perf = PerfConfig {
        conservative_residency: args.has("conservative"),
        ..PerfConfig::default()
    };
    let traces = standard_suite(&suite_cfg);
    println!("running {} workloads through the ACE model…", traces.len());
    let suite = seqavf::flow::run_suite_traced(&traces, &perf, &obs.collector);
    let tables: Vec<NamedTable> = suite
        .runs
        .iter()
        .map(|r| NamedTable {
            workload: r.workload.clone(),
            inputs: seqavf::flow::inputs_from_report(r),
        })
        .collect();
    let base_inputs = args.get("pavf").map(read_pavf).transpose()?;
    let request = AvfRequest {
        design_path: args.get("design").map(str::to_owned),
        design_ref: args.get("design-ref").map(str::to_owned),
        map_path: args.get("map").map(str::to_owned),
        config: Some(RequestConfig {
            loop_pavf: Some(args.unit_f64("loop-pavf", 0.3)?),
            iterations: Some(args.num("iterations", 20u64)?),
            global: Some(args.has("global")),
        }),
        base_inputs,
        tables,
        include_nodes: None,
        include_fubs: None,
    };
    let body = serde_json::to_string(&request).map_err(|e| e.to_string())?;
    let t0 = std::time::Instant::now();
    let (status, text) = client::post_json(addr, "/v1/avf", &body)?;
    if status != 200 {
        return Err(format!("server answered {status}: {text}"));
    }
    let response: AvfResponse =
        serde_json::from_str(&text).map_err(|e| format!("parsing server response: {e}"))?;
    println!(
        "design_ref {} — graph {}, compiled DAG {} ({:?} round trip)",
        response.design_ref,
        response.graph_cache,
        response.sweep_cache,
        t0.elapsed()
    );
    println!(
        "{:<28} {:>10} {:>10} {:>10}",
        "workload", "mean", "min", "max"
    );
    for row in &response.rows {
        println!(
            "{:<28} {:>10.4} {:>10.4} {:>10.4}",
            row.workload, row.mean_seq_avf, row.min_seq_avf, row.max_seq_avf
        );
    }
    if let Some(out) = args.get("out") {
        // Exactly the `sweep --out` shape, so the two files can be
        // compared byte for byte.
        #[derive(serde::Serialize)]
        struct Row<'a> {
            workload: &'a str,
            mean_seq_avf: f64,
            min_seq_avf: f64,
            max_seq_avf: f64,
        }
        let dump: Vec<Row<'_>> = response
            .rows
            .iter()
            .map(|r| Row {
                workload: &r.workload,
                mean_seq_avf: r.mean_seq_avf,
                min_seq_avf: r.min_seq_avf,
                max_seq_avf: r.max_seq_avf,
            })
            .collect();
        write_file(
            out,
            &serde_json::to_string_pretty(&dump).map_err(|e| e.to_string())?,
        )?;
        println!("wrote {out}: {} workload rows", dump.len());
    }
    obs.finish("query")
}

fn cmd_flow(args: &Args) -> Result<(), String> {
    args.validate(
        &[
            "seed",
            "workloads",
            "len",
            "scale",
            "cores",
            "threads",
            "graph-cache",
            "trace-out",
        ],
        &["no-incremental", "metrics"],
    )?;
    let obs = Obs::from_args(args);
    let mut cfg = seqavf::flow::FlowConfig::xeon_like(args.num("seed", 42u64)?);
    cfg.graph_cache = args.get("graph-cache").map(Into::into);
    cfg.design = cfg
        .design
        .scaled(args.pos_f64("scale", 1.0)?)
        .with_cores(args.pos_usize("cores", 1)?);
    cfg.suite.workloads = args.num("workloads", 32usize)?;
    cfg.suite.len = args.num("len", 5_000usize)?;
    cfg.sart.threads = args.num("threads", 1usize)?.max(1);
    cfg.sart.incremental = !args.has("no-incremental");
    let t0 = std::time::Instant::now();
    let out = seqavf::flow::run_flow_traced(&cfg, &obs.collector);
    print!("{}", out.summary.to_table());
    println!(
        "\naverage sequential AVF = {:.1}%   ({} iterations, {:.1}% visited, {:?})",
        out.summary.weighted_seq_avf * 100.0,
        out.summary.iterations,
        out.summary.visited_fraction * 100.0,
        t0.elapsed()
    );
    println!(
        "relaxation wall time: {:.3} ms over {} sweeps ({} threads)",
        out.result.outcome.total_wall_seconds() * 1e3,
        out.result.outcome.trace.len(),
        cfg.sart.threads
    );
    obs.finish("flow")
}
