//! Criterion benchmarks for the core analysis paths: SART end-to-end,
//! symbolic re-evaluation, SFI per injection, the performance model, and
//! the loop-pAVF sweep — the machine-measured counterparts of experiments
//! E2/E5/E7/E9.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use seqavf::flow::{inputs_from_suite, run_suite};
use seqavf_core::compile::CompiledSweep;
use seqavf_core::engine::{SartConfig, SartEngine};
use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_netlist::graph::NodeId;
use seqavf_netlist::synth::{generate, SynthConfig};
use seqavf_obs::Collector;
use seqavf_perf::pipeline::{run_ace, PerfConfig};
use seqavf_sfi::campaign::{run_campaign, CampaignConfig};
use seqavf_sfi::inject::{observation_points, run_injection, InjectConfig};
use seqavf_workloads::suite::{standard_suite, MixFamily, SuiteConfig};

fn bench_sart_full_run(c: &mut Criterion) {
    let design = generate(&SynthConfig::xeon_like(42));
    let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
    let inputs = PavfInputs::new();
    c.bench_function("sart_full_run", |b| {
        b.iter(|| {
            let engine = SartEngine::new(&design.netlist, &mapping, SartConfig::default());
            std::hint::black_box(engine.run(&inputs))
        })
    });
}

fn bench_symbolic_reeval(c: &mut Criterion) {
    let design = generate(&SynthConfig::xeon_like(42));
    let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
    let suite = run_suite(
        &standard_suite(&SuiteConfig {
            workloads: 4,
            len: 2_000,
            ..SuiteConfig::default()
        }),
        &PerfConfig::default(),
    );
    let inputs = inputs_from_suite(&suite);
    let engine = SartEngine::new(&design.netlist, &mapping, SartConfig::default());
    let result = engine.run(&inputs);
    c.bench_function("symbolic_reeval", |b| {
        b.iter(|| std::hint::black_box(result.reevaluate(&design.netlist, &inputs)))
    });
}

fn bench_sfi_injection(c: &mut Criterion) {
    let design = generate(&SynthConfig::xeon_like(42).scaled(0.3));
    let nl = &design.netlist;
    let obs = observation_points(nl);
    let target = nl.seq_nodes().next().expect("has sequentials");
    c.bench_function("sfi_single_injection", |b| {
        b.iter(|| {
            std::hint::black_box(run_injection(
                nl,
                target,
                &InjectConfig {
                    warmup: 8,
                    horizon: 100,
                    seed: 7,
                },
                &obs,
            ))
        })
    });
}

fn bench_sart_vs_sfi(c: &mut Criterion) {
    // E7: the per-node-AVF cost of the two techniques on the same design.
    let design = generate(&SynthConfig::xeon_like(42).scaled(0.3));
    let nl = &design.netlist;
    let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
    let inputs = PavfInputs::new();
    let mut group = c.benchmark_group("sart_vs_sfi");
    group.bench_function("sart_all_nodes", |b| {
        b.iter(|| {
            let engine = SartEngine::new(nl, &mapping, SartConfig::default());
            std::hint::black_box(engine.run(&inputs))
        })
    });
    let one_node: Vec<NodeId> = nl.seq_nodes().take(1).collect();
    group.bench_function("sfi_one_node_10_injections", |b| {
        b.iter(|| {
            std::hint::black_box(run_campaign(
                nl,
                &one_node,
                &CampaignConfig {
                    injections_per_node: 10,
                    threads: 1,
                    ..CampaignConfig::default()
                },
            ))
        })
    });
    group.finish();
}

fn bench_perf_model(c: &mut Criterion) {
    let trace = MixFamily::builtin()[0].generate(0, 10_000, 42);
    c.bench_function("perf_model_10k_instructions", |b| {
        b.iter(|| std::hint::black_box(run_ace(&trace, &PerfConfig::default())))
    });
}

fn bench_loop_sweep_point(c: &mut Criterion) {
    // E2's inner loop: one closed-form sweep point.
    let design = generate(&SynthConfig::xeon_like(42));
    let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
    let inputs = PavfInputs::new();
    let engine = SartEngine::new(&design.netlist, &mapping, SartConfig::default());
    let result = engine.run(&inputs);
    c.bench_function("loop_sweep_point", |b| {
        b.iter_batched(
            || {
                let mut r = result.clone();
                r.config.loop_pavf = 0.7;
                r
            },
            |r| std::hint::black_box(r.reevaluate(&design.netlist, &inputs)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_netlist_generation(c: &mut Criterion) {
    c.bench_function("synth_xeon_like", |b| {
        b.iter(|| std::hint::black_box(generate(&SynthConfig::xeon_like(42))))
    });
}

fn bench_relax_thread_scaling(c: &mut Criterion) {
    // The tentpole scaling curve: one full SART solve (dominated by the
    // parallel relaxation) at 1/2/4/8 worker threads over the same design.
    // On a multi-core host expect ≥2× at 4 threads; every point produces
    // bit-identical annotations (checked in tests and by the
    // `thread_scaling` harness binary).
    let design = generate(&SynthConfig::xeon_like(42).scaled(2.0));
    let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
    let inputs = PavfInputs::new();
    let mut group = c.benchmark_group("relax_threads");
    for threads in [1usize, 2, 4, 8] {
        let engine = SartEngine::new(
            &design.netlist,
            &mapping,
            SartConfig {
                threads,
                ..SartConfig::default()
            },
        );
        group.bench_function(&format!("{threads}"), |b| {
            b.iter(|| std::hint::black_box(engine.run(&inputs)))
        });
    }
    // The observability budget check: the same 4-thread solve with a live
    // collector (one span + one counter update per sweep). The acceptance
    // bar is <5% regression against the untraced `4` point above.
    {
        let engine = SartEngine::new(
            &design.netlist,
            &mapping,
            SartConfig {
                threads: 4,
                ..SartConfig::default()
            },
        );
        group.bench_function("4_traced", |b| {
            b.iter(|| {
                let obs = Collector::new();
                std::hint::black_box(engine.run_traced(&inputs, &obs))
            })
        });
    }
    group.finish();
}

fn bench_relax_incremental(c: &mut Criterion) {
    // E13: full sweeps vs incremental dirty-FUB sweeps at 1 and 8
    // threads on the thread-scaling design. The incremental points must
    // not be slower than their full counterparts; the node-walk
    // reduction itself is deterministic and checked by the
    // `relax_incremental` harness binary and the property suite.
    let design = generate(&SynthConfig::xeon_like(42).scaled(2.0));
    let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
    let inputs = PavfInputs::new();
    let mut group = c.benchmark_group("relax_incremental");
    for threads in [1usize, 8] {
        for incremental in [false, true] {
            let engine = SartEngine::new(
                &design.netlist,
                &mapping,
                SartConfig {
                    threads,
                    incremental,
                    ..SartConfig::default()
                },
            );
            let label = format!(
                "{}/{threads}",
                if incremental { "incremental" } else { "full" }
            );
            group.bench_function(&label, |b| {
                b.iter(|| std::hint::black_box(engine.run(&inputs)))
            });
        }
    }
    group.finish();
}

fn bench_reevaluate_many(c: &mut Criterion) {
    // Batch closed-form re-evaluation across workloads, the fan-out
    // companion of `symbolic_reeval`.
    let design = generate(&SynthConfig::xeon_like(42));
    let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
    let engine = SartEngine::new(&design.netlist, &mapping, SartConfig::default());
    let result = engine.run(&PavfInputs::new());
    let tables: Vec<PavfInputs> = (0..16).map(|_| PavfInputs::new()).collect();
    let mut group = c.benchmark_group("reevaluate_many_16_workloads");
    for threads in [1usize, 4] {
        group.bench_function(&format!("{threads}"), |b| {
            b.iter(|| {
                std::hint::black_box(result.reevaluate_many(&design.netlist, &tables, threads))
            })
        });
    }
    group.finish();
}

fn bench_sweep_compiled(c: &mut Criterion) {
    // The compiled term DAG against the interpreted baseline on the same
    // 16-workload batch: `compiled/*` must beat `interpreted/*` at equal
    // thread counts (the sweep subsystem's acceptance bar).
    let design = generate(&SynthConfig::xeon_like(42));
    let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
    let engine = SartEngine::new(&design.netlist, &mapping, SartConfig::default());
    let result = engine.run(&PavfInputs::new());
    let compiled = CompiledSweep::compile(&result, &design.netlist);
    let tables: Vec<PavfInputs> = (0..16)
        .map(|k| {
            let mut p = PavfInputs::new();
            for (_, name) in design.meta.structure_map.iter().take(8) {
                p.set_port(name.as_str(), 0.05 * k as f64 % 1.0, 0.5);
            }
            p
        })
        .collect();
    let mut group = c.benchmark_group("sweep_compiled_16_workloads");
    for threads in [1usize, 4] {
        group.bench_function(&format!("interpreted/{threads}"), |b| {
            b.iter(|| {
                std::hint::black_box(result.reevaluate_many(&design.netlist, &tables, threads))
            })
        });
        group.bench_function(&format!("compiled/{threads}"), |b| {
            b.iter(|| std::hint::black_box(compiled.evaluate_many(&tables, threads)))
        });
    }
    group.bench_function("compile_once", |b| {
        b.iter(|| std::hint::black_box(CompiledSweep::compile(&result, &design.netlist)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sart_full_run,
    bench_symbolic_reeval,
    bench_sfi_injection,
    bench_sart_vs_sfi,
    bench_perf_model,
    bench_loop_sweep_point,
    bench_netlist_generation,
    bench_relax_thread_scaling,
    bench_relax_incremental,
    bench_reevaluate_many,
    bench_sweep_compiled,
);
criterion_main!(benches);
