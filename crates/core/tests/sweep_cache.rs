//! Artifact-cache correctness: the sweep cache must be keyed by netlist
//! *content*, structure mapping, and the result-affecting configuration
//! fields — a single-gate mutation invalidates it, a byte-identical
//! netlist parsed from a differently named file reuses it, and execution
//! strategy knobs (`threads`, `incremental`) never invalidate it — and
//! cache hits must reproduce bit-identical node AVFs. A damaged artifact
//! must read as a miss, never as an answer.

mod common;

use std::path::{Path, PathBuf};

use seqavf_core::compile::{CompiledSweep, SWEEP_MAGIC};
use seqavf_core::engine::{SartConfig, SartEngine};
use seqavf_core::fixpoint::{artifact_key, mapping_digest};
use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_core::sweep::{
    cache_key, cache_key_parts, run_sweep_traced, CacheStatus, SweepCache, SweepOptions,
};
use seqavf_netlist::flatten::parse_netlist;
use seqavf_netlist::graph::Netlist;
use seqavf_netlist::snapshot::{open_sealed, seal, Cursor};
use seqavf_obs::Collector;

use common::{cached_dag, fresh_dag, node_bits};

const DESIGN: &str = r"
.design cachetest
.fub f
  .struct s1 1
  .struct s2 1
  .flop q1 s1[0]
  .flop q2 s2[0]
  .gate nor g1 q1 q2
  .flop q3 g1
  .sw s2[0] q3
.endfub
.end
";

/// The same circuit with one gate changed (`nor` → `and`).
const DESIGN_MUTATED: &str = r"
.design cachetest
.fub f
  .struct s1 1
  .struct s2 1
  .flop q1 s1[0]
  .flop q2 s2[0]
  .gate and g1 q1 q2
  .flop q3 g1
  .sw s2[0] q3
.endfub
.end
";

fn temp_cache(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("seqavf-sweep-cache-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn workloads() -> Vec<(String, PavfInputs)> {
    (0..3)
        .map(|k| {
            let mut p = PavfInputs::new();
            p.set_port("f.s1", 0.1 + 0.2 * k as f64, 0.5);
            p.set_port("f.s2", 0.4, 0.3 + 0.1 * k as f64);
            (format!("w{k}"), p)
        })
        .collect()
}

fn sweep(
    nl: &Netlist,
    config: &SartConfig,
    dir: &Path,
    obs: &Collector,
) -> seqavf_core::sweep::SweepOutcome {
    run_sweep_traced(
        nl,
        &StructureMapping::new(),
        config,
        &PavfInputs::new(),
        &workloads(),
        &SweepOptions {
            threads: 2,
            cache_dir: Some(dir.to_path_buf()),
            warm_start: None,
        },
        obs,
    )
    .expect("sweep succeeds")
}

#[test]
fn second_run_hits_and_reproduces_avfs_bitwise() {
    let dir = temp_cache("hit");
    let nl = parse_netlist(DESIGN).unwrap();
    let config = SartConfig::default();
    let obs = Collector::new();
    let first = sweep(&nl, &config, &dir, &obs);
    assert_eq!(first.cache, CacheStatus::Miss);
    let second = sweep(&nl, &config, &dir, &obs);
    assert_eq!(second.cache, CacheStatus::Hit);
    // The hit's artifact reproduces the freshly compiled DAG node by node.
    let map = StructureMapping::new();
    assert_eq!(
        node_bits(
            &first,
            &fresh_dag(&nl, &map, &config, &PavfInputs::new()),
            &nl,
            &workloads()
        ),
        node_bits(
            &second,
            &cached_dag(&dir, &nl, &map, &config),
            &nl,
            &workloads()
        )
    );
    // One miss, one hit, observable through the counters.
    let counters = obs.counters();
    assert!(counters.contains(&("sweep.cache.miss", 1)), "{counters:?}");
    assert!(counters.contains(&("sweep.cache.hit", 1)), "{counters:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_gate_mutation_is_a_cache_miss() {
    let dir = temp_cache("mutate");
    let nl = parse_netlist(DESIGN).unwrap();
    let mutated = parse_netlist(DESIGN_MUTATED).unwrap();
    assert_ne!(
        cache_key(&nl, &StructureMapping::new(), &SartConfig::default()),
        cache_key(&mutated, &StructureMapping::new(), &SartConfig::default()),
        "a single-gate edit must change the cache key"
    );
    let config = SartConfig::default();
    let obs = Collector::new();
    assert_eq!(sweep(&nl, &config, &dir, &obs).cache, CacheStatus::Miss);
    // The mutated netlist must not reuse the original's artifact.
    assert_eq!(
        sweep(&mutated, &config, &dir, &obs).cache,
        CacheStatus::Miss
    );
    assert!(obs.counters().contains(&("sweep.cache.miss", 2)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn renamed_but_identical_netlist_is_a_cache_hit() {
    let dir = temp_cache("rename");
    // Simulate "same design, different file name": write the same bytes
    // to two files and parse each — the key must depend on content only.
    let file_a = dir.join("design-a.exlif");
    let file_b = dir.join("copy-of-design.exlif");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(&file_a, DESIGN).unwrap();
    std::fs::write(&file_b, DESIGN).unwrap();
    let nl_a = parse_netlist(&std::fs::read_to_string(&file_a).unwrap()).unwrap();
    let nl_b = parse_netlist(&std::fs::read_to_string(&file_b).unwrap()).unwrap();
    let config = SartConfig::default();
    let obs = Collector::new();
    let first = sweep(&nl_a, &config, &dir, &obs);
    assert_eq!(first.cache, CacheStatus::Miss);
    let second = sweep(&nl_b, &config, &dir, &obs);
    assert_eq!(
        second.cache,
        CacheStatus::Hit,
        "content key must ignore file names"
    );
    let map = StructureMapping::new();
    assert_eq!(
        node_bits(
            &first,
            &fresh_dag(&nl_a, &map, &config, &PavfInputs::new()),
            &nl_a,
            &workloads()
        ),
        node_bits(
            &second,
            &cached_dag(&dir, &nl_b, &map, &config),
            &nl_b,
            &workloads()
        )
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn config_change_is_a_cache_miss() {
    let dir = temp_cache("config");
    let nl = parse_netlist(DESIGN).unwrap();
    let obs = Collector::disabled();
    assert_eq!(
        sweep(&nl, &SartConfig::default(), &dir, &obs).cache,
        CacheStatus::Miss
    );
    let other = SartConfig {
        loop_pavf: 0.7,
        ..SartConfig::default()
    };
    assert_eq!(sweep(&nl, &other, &dir, &obs).cache, CacheStatus::Miss);
    // And the original still hits.
    assert_eq!(
        sweep(&nl, &SartConfig::default(), &dir, &obs).cache,
        CacheStatus::Hit
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_artifact_degrades_to_a_miss() {
    let dir = temp_cache("corrupt");
    let nl = parse_netlist(DESIGN).unwrap();
    let config = SartConfig::default();
    let obs = Collector::disabled();
    assert_eq!(sweep(&nl, &config, &dir, &obs).cache, CacheStatus::Miss);
    // Clobber the stored artifact; the next run must recompute (and
    // overwrite it with a good copy), never error or return garbage.
    let artifact = stored_artifact(&dir);
    std::fs::write(&artifact, "seqavf-sweep/3\ngarbage\n").unwrap();
    assert_eq!(sweep(&nl, &config, &dir, &obs).cache, CacheStatus::Miss);
    // A stale artifact of the retired text format is likewise just a miss.
    std::fs::write(&artifact, "seqavf-sweep/2\nconfig loop=0.3\n").unwrap();
    assert_eq!(sweep(&nl, &config, &dir, &obs).cache, CacheStatus::Miss);
    assert_eq!(sweep(&nl, &config, &dir, &obs).cache, CacheStatus::Hit);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The single sealed artifact a one-key sweep leaves in `dir`.
fn stored_artifact(dir: &Path) -> PathBuf {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.to_string_lossy().ends_with(".bin"))
        .collect();
    assert_eq!(found.len(), 1, "expected one artifact, found {found:?}");
    found.pop().unwrap()
}

/// Byte range of the slot section's payload. Slots are the last of the
/// six sections, so skip the first five and the slot section's own tag
/// byte and `u64` length; the payload ends at the 8-byte trailer.
fn slot_section(bytes: &[u8]) -> std::ops::Range<usize> {
    let mut c = Cursor::new(open_sealed(bytes, SWEEP_MAGIC, SWEEP_MAGIC).unwrap());
    for tag in 1..=5 {
        c.section(tag).unwrap();
    }
    let end = bytes.len() - 8;
    end - (c.remaining() - 9)..end
}

/// Regression: the retired text codec had no checksum, so editing one
/// slot line of a stored artifact loaded as a cache *hit* and changed the
/// answer. A flipped bit in the slot section must now be a miss, and the
/// recomputed rows must equal the first run's bit for bit.
#[test]
fn flipped_slot_bit_is_a_miss_not_a_wrong_answer() {
    let dir = temp_cache("bitflip");
    let nl = parse_netlist(DESIGN).unwrap();
    let config = SartConfig::default();
    let obs = Collector::disabled();
    let first = sweep(&nl, &config, &dir, &obs);
    assert_eq!(first.cache, CacheStatus::Miss);
    let artifact = stored_artifact(&dir);
    let mut bytes = std::fs::read(&artifact).unwrap();
    // Pick a flip that, re-sealed, still decodes to a DAG with different
    // AVFs: only the checksum stands between it and a wrong answer.
    let tables: Vec<PavfInputs> = workloads().into_iter().map(|(_, t)| t).collect();
    let stored = CompiledSweep::decode(&bytes, &config).unwrap();
    let (pos, bit) = slot_section(&bytes)
        .flat_map(|pos| (0..8).map(move |bit| (pos, bit)))
        .find(|&(pos, bit)| {
            let mut forged = bytes[..bytes.len() - 8].to_vec();
            forged[pos] ^= 1 << bit;
            seal(&mut forged);
            CompiledSweep::decode(&forged, &config)
                .is_ok_and(|dag| dag.evaluate_many(&tables, 1) != stored.evaluate_many(&tables, 1))
        })
        .expect("some slot bit flip decodes to different AVFs once re-sealed");
    bytes[pos] ^= 1 << bit;
    std::fs::write(&artifact, &bytes).unwrap();
    let second = sweep(&nl, &config, &dir, &obs);
    assert_eq!(second.cache, CacheStatus::Miss);
    // The recompute, stored back over the damaged file, equals the first
    // run's DAG node by node.
    assert_eq!(
        node_bits(&first, &stored, &nl, &workloads()),
        node_bits(
            &second,
            &cached_dag(&dir, &nl, &StructureMapping::new(), &config),
            &nl,
            &workloads()
        )
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writers racing on one key never tear the artifact: every concurrent
/// load is a miss or exactly one of the artifacts stored, and no temp
/// file outlives its write.
#[test]
fn concurrent_stores_and_loads_see_whole_artifacts() {
    let dir = temp_cache("race");
    let cache = SweepCache::open(&dir).unwrap();
    let config = SartConfig::default();
    // Same node count and result key, different closed forms: each
    // variant writes a different structure cell from `q3`.
    let artifacts: Vec<CompiledSweep> = ["s2[0]", "s1[0]", "s3[0]"]
        .iter()
        .map(|cell| {
            let text = DESIGN
                .replace(".struct s2 1", ".struct s2 1\n  .struct s3 1")
                .replace(".sw s2[0] q3", &format!(".sw {cell} q3"));
            let nl = parse_netlist(&text).unwrap();
            let result = SartEngine::new(&nl, &StructureMapping::new(), config.clone())
                .run(&PavfInputs::new());
            CompiledSweep::compile(&result, &nl)
        })
        .collect();
    for (i, a) in artifacts.iter().enumerate() {
        for b in &artifacts[i + 1..] {
            assert_ne!(a.encode(), b.encode(), "variants must differ");
        }
    }
    let node_count = artifacts[0].node_count();
    let key = 0x5eed;
    // Every thread starts its loop at once, so writes and reads overlap.
    let start = std::sync::Barrier::new(artifacts.len() + 2);
    std::thread::scope(|s| {
        for a in &artifacts {
            let (cache, start) = (&cache, &start);
            s.spawn(move || {
                start.wait();
                for _ in 0..40 {
                    cache.store(key, a).unwrap();
                }
            });
        }
        for _ in 0..2 {
            s.spawn(|| {
                start.wait();
                for _ in 0..120 {
                    if let Some(got) = cache.load(key, &config, node_count) {
                        assert!(artifacts.contains(&got), "a load saw a torn artifact");
                    }
                }
            });
        }
    });
    let last = cache
        .load(key, &config, node_count)
        .expect("an artifact survives");
    assert!(artifacts.contains(&last));
    let left: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(left, vec![format!("sweep-{key:016x}.bin")]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The key functions' values, recorded before they moved onto the shared
/// `Fnv1a64`: existing fixpoint artifacts and cache entries keep their
/// file names.
#[test]
fn key_functions_are_pinned() {
    let nl = parse_netlist(DESIGN).unwrap();
    let mut mapped = StructureMapping::new();
    mapped.insert(nl.structure_ids().next().unwrap(), "uops_executed");
    let map_text = "f.s1 uops_executed\n";
    assert_eq!(mapped.to_text(&nl), map_text);
    assert_eq!(
        cache_key_parts(0x0123_4567_89ab_cdef, map_text, "loop=0.3"),
        0xebb3_6821_7a93_e6de
    );
    assert_eq!(cache_key_parts(0, "", ""), 0x69d3_07cc_20f6_ef8d);
    assert_eq!(
        artifact_key("cachetest", map_text, "loop=0.3"),
        0xf380_a331_b07d_4b4e
    );
    assert_eq!(artifact_key("", "", ""), 0x0832_8807_b4eb_6fed);
    assert_eq!(mapping_digest(&nl, &mapped), 0xbfc9_87d4_4f9b_9128);
    assert_eq!(
        mapping_digest(&nl, &StructureMapping::new()),
        0xcbf2_9ce4_8422_2325
    );
}

#[test]
fn execution_strategy_fields_do_not_poison_the_key() {
    // `threads` and `incremental` pick how the fixpoint is computed, not
    // which fixpoint — results are bit-identical by design, so every
    // combination must map to the same cache key.
    let nl = parse_netlist(DESIGN).unwrap();
    let map = StructureMapping::new();
    let base_key = cache_key(&nl, &map, &SartConfig::default());
    for threads in [0, 1, 2, 8, 32] {
        for incremental in [false, true] {
            let cfg = SartConfig {
                threads,
                incremental,
                ..SartConfig::default()
            };
            assert_eq!(
                cache_key(&nl, &map, &cfg),
                base_key,
                "threads={threads} incremental={incremental} must not change the key"
            );
        }
    }
    // Result-affecting fields still must.
    let other = SartConfig {
        max_iterations: 3,
        ..SartConfig::default()
    };
    assert_ne!(cache_key(&nl, &map, &other), base_key);
}

#[test]
fn thread_count_and_incremental_changes_hit_the_same_artifact() {
    // Regression for the key poisoning bug: a `--threads 8` sweep must
    // reuse (and bitwise reproduce) the artifact a `--threads 1` sweep
    // wrote, with `--no-incremental` thrown in for good measure.
    let dir = temp_cache("exec-fields");
    let nl = parse_netlist(DESIGN).unwrap();
    let obs = Collector::new();
    let one_thread = SartConfig {
        threads: 1,
        incremental: true,
        ..SartConfig::default()
    };
    let first = sweep(&nl, &one_thread, &dir, &obs);
    assert_eq!(first.cache, CacheStatus::Miss);
    let eight_threads = SartConfig {
        threads: 8,
        incremental: false,
        ..SartConfig::default()
    };
    let second = sweep(&nl, &eight_threads, &dir, &obs);
    assert_eq!(
        second.cache,
        CacheStatus::Hit,
        "execution-strategy fields must not invalidate the cache"
    );
    let map = StructureMapping::new();
    assert_eq!(
        node_bits(
            &first,
            &fresh_dag(&nl, &map, &one_thread, &PavfInputs::new()),
            &nl,
            &workloads()
        ),
        node_bits(
            &second,
            &cached_dag(&dir, &nl, &map, &eight_threads),
            &nl,
            &workloads()
        )
    );
    let counters = obs.counters();
    assert!(counters.contains(&("sweep.cache.miss", 1)), "{counters:?}");
    assert!(counters.contains(&("sweep.cache.hit", 1)), "{counters:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mapping_change_is_a_cache_miss() {
    // The structure mapping decides which structures carry perf-counter
    // names, which changes the compiled DAG's Struct slots — two sweeps
    // differing only in mapping must not share an artifact.
    let dir = temp_cache("mapping");
    let nl = parse_netlist(DESIGN).unwrap();
    let config = SartConfig::default();
    let obs = Collector::disabled();
    let empty = StructureMapping::new();
    let mut mapped = StructureMapping::new();
    let sid = nl
        .structure_ids()
        .next()
        .expect("test design has structures");
    mapped.insert(sid, "uops_executed");
    assert_ne!(
        cache_key(&nl, &empty, &config),
        cache_key(&nl, &mapped, &config),
        "mapping must be part of the cache key"
    );
    let opts = SweepOptions {
        threads: 2,
        cache_dir: Some(dir.clone()),
        warm_start: None,
    };
    let run = |mapping: &StructureMapping| {
        run_sweep_traced(
            &nl,
            mapping,
            &config,
            &PavfInputs::new(),
            &workloads(),
            &opts,
            &obs,
        )
        .expect("sweep succeeds")
    };
    assert_eq!(run(&empty).cache, CacheStatus::Miss);
    assert_eq!(
        run(&mapped).cache,
        CacheStatus::Miss,
        "a different mapping must not reuse the empty mapping's artifact"
    );
    assert_eq!(run(&empty).cache, CacheStatus::Hit);
    assert_eq!(run(&mapped).cache, CacheStatus::Hit);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_trace_validates_against_the_schema() {
    let dir = temp_cache("trace");
    let nl = parse_netlist(DESIGN).unwrap();
    let config = SartConfig::default();
    let obs = Collector::new();
    sweep(&nl, &config, &dir, &obs);
    let mut buf = Vec::new();
    obs.write_ndjson(&mut buf, &[("cmd", "sweep")]).unwrap();
    let text = String::from_utf8(buf).unwrap();
    seqavf_obs::validate_trace(&text).expect("sweep trace validates");
    assert!(text.contains("sweep.compile"));
    assert!(text.contains("sweep.eval"));
    assert!(text.contains("sweep.cache.miss"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Warm sweep after an edit *patches* the previous revision's cached DAG
/// — `sweep.patch.hit`, ops mostly retained — and still reproduces an
/// independent cold sweep bit for bit; re-sweeping the edited design is
/// then a plain cache hit with nothing to patch.
#[test]
fn warm_sweep_patches_the_cached_dag_after_an_edit() {
    use seqavf_core::sweep::PatchStatus;
    use seqavf_netlist::exlif;
    use seqavf_netlist::synth::{generate, SynthConfig};

    let dir = temp_cache("dagpatch");
    let design = generate(&SynthConfig::xeon_like(21));
    let base_text = exlif::write(&design.netlist);
    let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
    let config = SartConfig::default();
    let mut inputs = PavfInputs::new();
    inputs.set_port("uops_executed", 0.21, 0.34);
    let wl = vec![("w0".to_owned(), inputs.clone())];
    let opts = SweepOptions {
        threads: 2,
        cache_dir: Some(dir.clone()),
        warm_start: Some(dir.join("fixpoints")),
    };
    let obs = Collector::new();

    let nl0 = parse_netlist(&base_text).unwrap();
    let first = run_sweep_traced(&nl0, &mapping, &config, &inputs, &wl, &opts, &obs).unwrap();
    assert_eq!(first.cache, CacheStatus::Miss);
    assert!(first.patch.is_none(), "first sweep has nothing to patch");

    let edited_text = base_text.replacen(".gate and ", ".gate or ", 1);
    assert_ne!(
        edited_text, base_text,
        "synthetic design must have an and-gate"
    );
    let nl1 = parse_netlist(&edited_text).unwrap();
    let second = run_sweep_traced(&nl1, &mapping, &config, &inputs, &wl, &opts, &obs).unwrap();
    assert_eq!(second.cache, CacheStatus::Miss);
    let patched = cached_dag(&dir, &nl1, &mapping, &config);
    let st = match second.patch {
        Some(PatchStatus::Patched(st)) => st,
        other => panic!("expected a DAG patch after a one-gate edit, got {other:?}"),
    };
    let total_ops = second.stats.sum_ops + second.stats.min_ops;
    assert!(st.ops_retained > 0, "a one-gate edit must retain ops");
    assert!(
        st.nodes_patched() < total_ops,
        "patched {} of {total_ops} ops — not proportional to the edit",
        st.nodes_patched()
    );
    let report = obs.report();
    assert_eq!(report.counter("sweep.patch.hit"), Some(1));
    assert_eq!(report.counter("sweep.patch.full_rebuild"), None);
    assert!(report.counter("sweep.patch.nodes_patched").is_some());

    // The patched DAG's rows match an independent, cache-less cold sweep.
    let cold = run_sweep_traced(
        &nl1,
        &mapping,
        &config,
        &inputs,
        &wl,
        &SweepOptions {
            threads: 2,
            cache_dir: None,
            warm_start: None,
        },
        &Collector::disabled(),
    )
    .unwrap();
    assert_eq!(
        node_bits(&second, &patched, &nl1, &wl),
        node_bits(
            &cold,
            &fresh_dag(&nl1, &mapping, &config, &inputs),
            &nl1,
            &wl
        )
    );

    // Idempotent re-sweep: plain artifact hit, no patch involved.
    let third = run_sweep_traced(&nl1, &mapping, &config, &inputs, &wl, &opts, &obs).unwrap();
    assert_eq!(third.cache, CacheStatus::Hit);
    assert!(third.patch.is_none());

    // The patch telemetry rides the NDJSON trace schema: the span and
    // both volume counters validate and appear by name.
    let mut buf = Vec::new();
    obs.write_ndjson(&mut buf, &[("cmd", "sweep")]).unwrap();
    let text = String::from_utf8(buf).unwrap();
    seqavf_obs::validate_trace(&text).expect("patch trace validates");
    assert!(text.contains("sweep.patch"), "span missing from trace");
    assert!(text.contains("sweep.patch.hit"));
    assert!(text.contains("sweep.patch.nodes_patched"));
    assert!(text.contains("sweep.patch.nodes_orphaned"));
    let _ = std::fs::remove_dir_all(&dir);
}
