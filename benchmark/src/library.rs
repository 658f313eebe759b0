//! The library workloads, closed loop with one client: `cold-sweep` and
//! `edit-loop`.

use std::path::Path;
use std::time::Instant;

use seqavf_core::engine::{SartConfig, WarmStatus};
use seqavf_core::fixpoint;
use seqavf_core::mapping::StructureMapping;
use seqavf_core::sweep::{
    cache_key, run_sweep_with_loops_traced, PatchStatus, SweepCache, SweepOptions, SweepOutcome,
    WorkloadAvf,
};
use seqavf_netlist::flatten::parse_netlist_traced;
use seqavf_netlist::graph::Netlist;
use seqavf_netlist::scc::find_loops_traced;
use seqavf_obs::Collector;
use seqavf_perf::pipeline::PerfConfig;
use seqavf_workloads::suite::{standard_suite, SuiteConfig};

use crate::attrib::{self, Layers, Traced};
use crate::inputs::{self, Editor, Table};
use crate::report::{Measured, Outcome};
use crate::{stats, sys, Ctx, LIBRARY_THREADS, SETUP_REPS};

/// Where a sweep's pAVF tables come from.
pub enum Tables<'a> {
    /// Run the ACE model over this suite as part of the op.
    Ace(&'a SuiteConfig),
    /// Fixed before the op.
    Fixed(&'a [Table]),
}

/// Everything one sweep produced.
pub struct Swept {
    /// What `run_sweep_with_loops_traced` returned.
    pub outcome: SweepOutcome,
    /// The flattened design.
    pub netlist: Netlist,
    /// The structure mapping, resolved against `netlist`.
    pub mapping: StructureMapping,
    /// Instructions the ACE model retired (0 for fixed tables).
    pub instructions: u64,
}

/// What `seqavf sweep` does: (ACE model →) parse and flatten → SCC →
/// relax or warm-start → compile or patch → evaluate every table.
pub fn sweep(
    text: &str,
    mapping_text: &str,
    tables: Tables,
    config: &SartConfig,
    opts: &SweepOptions,
    obs: &Collector,
) -> Result<Swept, String> {
    let ace: Vec<Table>;
    let (tables, instructions) = match tables {
        Tables::Fixed(t) => (t, 0),
        Tables::Ace(suite) => {
            let traces = {
                let _span = obs.span("workloads.suite");
                standard_suite(suite)
            };
            let _span = obs.span("perf.ace");
            let report = seqavf::flow::run_suite_traced(&traces, &PerfConfig::default(), obs);
            ace = report
                .runs
                .iter()
                .map(|r| (r.workload.clone(), seqavf::flow::inputs_from_report(r)))
                .collect();
            (
                ace.as_slice(),
                report.runs.iter().map(|r| r.instructions).sum(),
            )
        }
    };
    let netlist = parse_netlist_traced(text, obs).map_err(|e| format!("parsing design: {e}"))?;
    let mapping = StructureMapping::from_text(&netlist, mapping_text)?;
    let loops = find_loops_traced(&netlist, obs);
    let outcome = {
        let _span = obs.span("core.sweep");
        run_sweep_with_loops_traced(
            &netlist,
            &mapping,
            config,
            &tables[0].1,
            tables,
            opts,
            Some(&loops),
            obs,
        )?
    };
    Ok(Swept {
        outcome,
        netlist,
        mapping,
        instructions,
    })
}

/// A summary row as compared: workload name and the bits of mean, min
/// and max.
pub type RowBits = (String, [u64; 3]);

/// The bits of every summary row.
pub fn row_bits(rows: &[WorkloadAvf]) -> Vec<RowBits> {
    rows.iter()
        .map(|r| {
            (
                r.workload.clone(),
                [
                    r.mean_seq_avf.to_bits(),
                    r.min_seq_avf.to_bits(),
                    r.max_seq_avf.to_bits(),
                ],
            )
        })
        .collect()
}

/// The reference answer: a cold, single-threaded sweep with no cache and
/// no warm start.
pub fn reference(text: &str, mapping_text: &str, tables: &[Table]) -> Result<Vec<RowBits>, String> {
    let config = SartConfig::default();
    let run = sweep(
        text,
        mapping_text,
        Tables::Fixed(tables),
        &config,
        &SweepOptions::default(),
        &Collector::disabled(),
    )?;
    Ok(row_bits(&run.outcome.rows))
}

/// The configuration of the timed sweeps.
fn library_config() -> SartConfig {
    SartConfig {
        threads: LIBRARY_THREADS,
        ..SartConfig::default()
    }
}

/// Whether a closed loop runs another op: until the timed phase has
/// lasted `seconds` and the median has enough samples.
fn keep_going(ctx: &Ctx, start: Instant, done: usize) -> bool {
    done < stats::min_samples(0.5) || start.elapsed().as_secs_f64() < ctx.seconds
}

/// Runs one op of a closed loop — traced on every other op of the traced
/// run, so the untraced ops measure what tracing costs — and returns its
/// result, wall time, and (when traced) what the trace recorded.
fn timed_op<T>(
    ctx: &Ctx,
    workload: &str,
    i: usize,
    op: impl FnOnce(&Collector) -> T,
) -> (T, f64, Option<Traced>) {
    if ctx.traced() && i.is_multiple_of(2) {
        let (value, trace) = attrib::traced(&ctx.obs, "bench.op", (workload, i), || op(&ctx.obs));
        (value, trace.wall_ms(), Some(trace))
    } else {
        let t = Instant::now();
        let value = op(&Collector::disabled());
        (value, t.elapsed().as_secs_f64() * 1e3, None)
    }
}

/// Records one traced sweep's per-layer numbers.
fn record_sweep(layers: &mut Layers, run: &Swept, trace: &Traced) {
    layers.add_partition(&trace.part);
    let st = run.outcome.stats;
    let dag_ops = (st.sum_ops + st.min_ops) as f64;
    layers.add("netlist.nodes", run.netlist.node_count() as f64);
    layers.add("core.dag_ops", dag_ops);
    layers.add("core.relax.iterations", trace.count("relax.iterations"));
    layers.add("core.relax.walked_nodes", trace.count("relax.walked_nodes"));
    let eval_ms = trace.part.get("core.eval_ms").copied().unwrap_or(0.0);
    let tables = run.outcome.rows.len() as f64;
    layers.add(
        "core.eval.ns_per_op_table",
        eval_ms * 1e6 / (dag_ops * tables).max(1.0),
    );
    if run.instructions > 0 {
        layers.add("perf.instructions", run.instructions as f64);
    }
    match run.outcome.warm {
        Some(WarmStatus::Warm { dirty_fubs, .. }) => {
            layers.add("core.warm.hit_ratio", 1.0);
            layers.add("core.warm.dirty_fubs", dirty_fubs as f64);
        }
        Some(WarmStatus::Cold(_)) => layers.add("core.warm.hit_ratio", 0.0),
        None => {}
    }
    match run.outcome.patch {
        Some(PatchStatus::Patched(st)) => {
            layers.add("core.patch.hit_ratio", 1.0);
            layers.add("core.patch.ops_patched", st.nodes_patched() as f64);
        }
        Some(PatchStatus::Rebuilt(_)) => layers.add("core.patch.hit_ratio", 0.0),
        None => {}
    }
}

/// Finishes a closed-loop workload's outcome.
fn finish(
    ctx: &Ctx,
    workload: &'static str,
    mut m: Measured,
    failed: u64,
    mut layers: Layers,
    (traced_ms, plain_ms): (&[f64], &[f64]),
    provenance: Vec<(String, String)>,
) -> Outcome {
    m.wall_s = m.latencies_ms.iter().sum::<f64>() / 1e3;
    let metrics = if ctx.traced() {
        if let Some(pct) = attrib::overhead_pct(traced_ms, plain_ms) {
            layers.add("trace_overhead_pct", pct);
        }
        layers.metrics()
    } else {
        m.metrics()
    };
    Outcome {
        workload,
        attempted: m.latencies_ms.len() as u64,
        failed,
        metrics,
        provenance,
    }
}

/// `cold-sweep`: the whole `seqavf sweep` with no caches, repeated.
///
/// Every op runs the ACE model over 16 traces, parses and flattens the
/// 102k-node design, and relaxes and compiles it cold: the paper's core
/// operation (design → AVF per workload), and the only workload where
/// ACE, relaxation and compilation all do real work.
pub fn cold_sweep(ctx: &Ctx) -> Result<Outcome, String> {
    sys::reset_peak_rss();
    let mut m = Measured::default();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        built = Some(inputs::build_design(ctx.big()));
        m.setup_s.push(t.elapsed().as_secs_f64());
    }
    let design = built.expect("at least one set-up");
    let suite = inputs::suite_config(ctx.seed, 16, ctx.trace_len());
    let expected = reference(
        &design.text,
        &design.mapping_text,
        &inputs::suite_tables(&suite),
    )?;

    let config = library_config();
    let opts = SweepOptions {
        threads: LIBRARY_THREADS,
        ..SweepOptions::default()
    };
    let mut layers = Layers::default();
    let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
    let mut failed = 0;
    let start = Instant::now();
    let mut i = 0;
    while keep_going(ctx, start, i) {
        let (run, ms, traced) = timed_op(ctx, "cold-sweep", i, |obs| {
            sweep(
                &design.text,
                &design.mapping_text,
                Tables::Ace(&suite),
                &config,
                &opts,
                obs,
            )
        });
        let run = run?;
        m.latencies_ms.push(ms);
        if row_bits(&run.outcome.rows) != expected {
            failed += 1;
        }
        match traced {
            Some(trace) => {
                traced_ms.push(ms);
                record_sweep(&mut layers, &run, &trace);
            }
            None => plain_ms.push(ms),
        }
        i += 1;
    }
    m.peak_mem_mb = sys::peak_rss_mib();
    let provenance = ctx.provenance(
        &[&design],
        &[
            ("relax_threads", LIBRARY_THREADS.to_string()),
            ("eval_threads", LIBRARY_THREADS.to_string()),
            ("tables", "16 ACE traces per op".to_owned()),
        ],
    );
    Ok(finish(
        ctx,
        "cold-sweep",
        m,
        failed,
        layers,
        (&traced_ms, &plain_ms),
        provenance,
    ))
}

/// Times the artifact codecs on the op's real artifacts: fixpoint load
/// and store, the sweep cache key, and the sweep artifact load and store.
fn codec_probes(
    layers: &mut Layers,
    run: &Swept,
    config: &SartConfig,
    opts: &SweepOptions,
    probe_dir: &Path,
) -> Result<(), String> {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let size = |p: &Path| std::fs::metadata(p).map(|m| m.len() as f64).unwrap_or(0.0);
    let (nl, mapping) = (&run.netlist, &run.mapping);
    let warm_dir = opts.warm_start.as_deref().expect("edit-loop warm-starts");
    let fp_path = fixpoint::artifact_path(
        warm_dir,
        fixpoint::artifact_key(nl.design_name(), &mapping.to_text(nl), &config.result_key()),
    );
    let t = Instant::now();
    let stored = fixpoint::load(&fp_path)
        .ok()
        .flatten()
        .ok_or("the op left no fixpoint artifact")?;
    layers.add("core.fixpoint.load_ms", ms(t));
    layers.add("core.fixpoint.bytes", size(&fp_path));
    let t = Instant::now();
    fixpoint::store(&probe_dir.join("fixpoint.bin"), &stored)
        .map_err(|e| format!("storing a fixpoint: {e}"))?;
    layers.add("core.fixpoint.store_ms", ms(t));

    let t = Instant::now();
    let key = cache_key(nl, mapping, config);
    layers.add("core.sweep.cache_key_ms", ms(t));
    let cache = SweepCache::open(opts.cache_dir.as_deref().expect("edit-loop caches"))?;
    let t = Instant::now();
    let compiled = cache
        .load(key, config, nl.node_count())
        .ok_or("the op left no sweep artifact")?;
    layers.add("core.sweep.artifact_load_ms", ms(t));
    layers.add("core.sweep.artifact_bytes", size(&cache.artifact_path(key)));
    let probe_cache = SweepCache::open(probe_dir)?;
    let t = Instant::now();
    probe_cache.store(key, &compiled)?;
    layers.add("core.sweep.artifact_store_ms", ms(t));
    Ok(())
}

/// `edit-loop`: chained one-gate edits, each re-solved warm.
///
/// Every op is `seqavf sweep --cache-dir --warm-start` on a new revision
/// with 16 pAVF tables fixed at set-up: warm relaxation and DAG patching
/// do the work, compilation and ACE do none, and the per-edit floor
/// (parse, flatten, prepare, artifact codecs) shows.
pub fn edit_loop(ctx: &Ctx) -> Result<Outcome, String> {
    sys::reset_peak_rss();
    let mut m = Measured::default();
    let suite = inputs::suite_config(ctx.seed, 16, ctx.trace_len());
    let config = library_config();
    let dir = ctx.workdir.join("edit-loop");
    let opts = SweepOptions {
        threads: LIBRARY_THREADS,
        cache_dir: Some(dir.join("cache")),
        warm_start: Some(dir.join("warm")),
    };
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        let design = inputs::build_design(ctx.big());
        let tables = inputs::suite_tables(&suite);
        // The base revision: a cold solve that leaves the fixpoint and
        // compiled DAG the first edit warm-starts from.
        sweep(
            &design.text,
            &design.mapping_text,
            Tables::Fixed(&tables),
            &config,
            &opts,
            &Collector::disabled(),
        )?;
        m.setup_s.push(t.elapsed().as_secs_f64());
        built = Some((design, tables));
    }
    let (base, tables) = built.expect("at least one set-up");
    let probe_dir = ctx.workdir.join("edit-loop-probe");
    std::fs::create_dir_all(&probe_dir).map_err(|e| format!("creating a probe dir: {e}"))?;

    let mut editor = Editor::new(&base.text, ctx.seed);
    // Revisions re-solved cold after the timed phase: every 10th, and
    // the last.
    let mut kept: Vec<(String, Vec<RowBits>)> = Vec::new();
    let mut last: Option<(usize, String, Vec<RowBits>)> = None;
    let mut layers = Layers::default();
    let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut i = 0;
    while keep_going(ctx, start, i) && editor.peek().is_some() {
        let revision = editor.next_revision();
        let (run, ms, traced) = timed_op(ctx, "edit-loop", i, |obs| {
            sweep(
                &revision,
                &base.mapping_text,
                Tables::Fixed(&tables),
                &config,
                &opts,
                obs,
            )
        });
        let run = run?;
        m.latencies_ms.push(ms);
        let rows = row_bits(&run.outcome.rows);
        match traced {
            Some(trace) => {
                traced_ms.push(ms);
                record_sweep(&mut layers, &run, &trace);
                codec_probes(&mut layers, &run, &config, &opts, &probe_dir)?;
            }
            None => plain_ms.push(ms),
        }
        if i.is_multiple_of(10) {
            kept.push((revision.clone(), rows.clone()));
        }
        last = Some((i, revision, rows));
        i += 1;
    }
    m.peak_mem_mb = sys::peak_rss_mib();
    if let Some((n, revision, rows)) = last {
        if !n.is_multiple_of(10) {
            kept.push((revision, rows));
        }
    }
    let mut failed = 0;
    for (revision, rows) in &kept {
        if reference(revision, &base.mapping_text, &tables)? != *rows {
            failed += 1;
        }
    }
    let provenance = ctx.provenance(
        &[&base],
        &[
            ("relax_threads", LIBRARY_THREADS.to_string()),
            ("eval_threads", LIBRARY_THREADS.to_string()),
            ("tables", "16 ACE tables fixed at set-up".to_owned()),
            ("verified_revisions", kept.len().to_string()),
        ],
    );
    Ok(finish(
        ctx,
        "edit-loop",
        m,
        failed,
        layers,
        (&traced_ms, &plain_ms),
        provenance,
    ))
}
