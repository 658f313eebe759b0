//! Seeded inputs: designs, pAVF tables, edit sequences, arrival schedules
//! and table picks.
//!
//! Everything the program under test receives is a pure function of the
//! benchmark seed, so two runs with one seed feed the program identical
//! inputs. The designs are the exception: they are fixed (seed
//! [`DESIGN_SEED`]) so that run-to-run spread measures the program rather
//! than design size, which varies by a few percent with the generator seed.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_netlist::synth::{generate, SynthConfig};
use seqavf_netlist::{exlif, Fnv1a64};
use seqavf_perf::pipeline::PerfConfig;
use seqavf_workloads::suite::{standard_suite, SuiteConfig};

/// Generator seed of every benchmark design.
pub const DESIGN_SEED: u64 = 42;

/// Which benchmark design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// `xeon_like(42).scaled(2.0).with_cores(8)`: 101,897 nodes.
    Big,
    /// `xeon_like(42)`: 2,973 nodes.
    Small,
    /// `xeon_like(42).with_cores(2)`: the big design's stand-in in smoke
    /// runs, distinct from the small one.
    Smoke,
}

impl Size {
    /// The synthesis configuration.
    pub fn config(self) -> SynthConfig {
        match self {
            Size::Big => SynthConfig::xeon_like(DESIGN_SEED)
                .scaled(2.0)
                .with_cores(8),
            Size::Small => SynthConfig::xeon_like(DESIGN_SEED),
            Size::Smoke => SynthConfig::xeon_like(DESIGN_SEED).with_cores(2),
        }
    }

    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Size::Big => "102k",
            Size::Small => "3k",
            Size::Smoke => "smoke",
        }
    }
}

/// A generated design as the tools consume it: EXLIF text plus mapping
/// text.
#[derive(Debug, Clone)]
pub struct Design {
    /// Which design.
    pub size: Size,
    /// EXLIF source.
    pub text: String,
    /// Structure-mapping file contents.
    pub mapping_text: String,
    /// Flattened node count.
    pub nodes: usize,
    /// `Netlist::content_digest` of the generated graph.
    pub digest: u64,
}

/// Generates a design and renders its EXLIF and mapping text.
pub fn build_design(size: Size) -> Design {
    let d = generate(&size.config());
    let mapping = StructureMapping::from_pairs(d.meta.structure_map.clone());
    Design {
        size,
        text: exlif::write(&d.netlist),
        mapping_text: mapping.to_text(&d.netlist),
        nodes: d.netlist.node_count(),
        digest: d.netlist.content_digest(),
    }
}

/// Derives an independent seed for one input stream.
pub fn sub_seed(seed: u64, stream: &str) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(stream.as_bytes());
    h.update(&[0]);
    h.update(&seed.to_le_bytes());
    h.finish()
}

/// The ACE workload suite: `workloads` traces of `len` instructions.
pub fn suite_config(seed: u64, workloads: usize, len: usize) -> SuiteConfig {
    SuiteConfig {
        workloads,
        len,
        seed: sub_seed(seed, "suite"),
        include_kernels: true,
    }
}

/// A pAVF table named by its workload.
pub type Table = (String, PavfInputs);

/// Per-workload pAVF tables from the ACE model.
pub fn suite_tables(suite: &SuiteConfig) -> Vec<Table> {
    let report = seqavf::flow::run_suite(&standard_suite(suite), &PerfConfig::default());
    report
        .runs
        .iter()
        .map(|r| (r.workload.clone(), seqavf::flow::inputs_from_report(r)))
        .collect()
}

/// Indices of the `.gate and` / `.gate or` lines of an EXLIF text.
fn gate_lines(text: &str) -> Vec<usize> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| {
            let t = l.trim_start();
            t.starts_with(".gate and ") || t.starts_with(".gate or ")
        })
        .map(|(i, _)| i)
        .collect()
}

/// Flips one gate line between `and` and `or`.
fn flip(line: &str) -> String {
    if line.trim_start().starts_with(".gate and ") {
        line.replacen(".gate and ", ".gate or ", 1)
    } else {
        line.replacen(".gate or ", ".gate and ", 1)
    }
}

/// A uniformly shuffled permutation of `0..n`.
fn permutation(rng: &mut ChaCha8Rng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

/// Chained one-gate edits of a design. Every edit flips a gate no earlier
/// edit touched, so every revision is new to every cache.
#[derive(Debug, Clone)]
pub struct Editor {
    lines: Vec<String>,
    order: Vec<usize>,
    next: usize,
}

impl Editor {
    /// Edits of `text` in a seeded order of its gate lines.
    pub fn new(text: &str, seed: u64) -> Editor {
        let gates = gate_lines(text);
        let mut rng = ChaCha8Rng::seed_from_u64(sub_seed(seed, "edits"));
        let order = permutation(&mut rng, gates.len())
            .into_iter()
            .map(|k| gates[k])
            .collect();
        Editor {
            lines: text.lines().map(str::to_owned).collect(),
            order,
            next: 0,
        }
    }

    /// The line index the next edit flips.
    pub fn peek(&self) -> Option<usize> {
        self.order.get(self.next).copied()
    }

    /// Applies the next edit and returns the new revision's text.
    ///
    /// # Panics
    /// When every gate has been flipped once.
    pub fn next_revision(&mut self) -> String {
        let i = self.peek().expect("edit sequence exhausted");
        self.next += 1;
        self.lines[i] = flip(&self.lines[i]);
        self.lines.join("\n") + "\n"
    }
}

/// Open-loop arrival times in seconds: `count` arrivals of a Poisson
/// process at `rate` per second, conditioned on the count (sorted uniform
/// points over `count / rate` seconds), so every seed offers the same load.
pub fn arrivals(seed: u64, stream: &str, rate: f64, count: usize) -> Vec<f64> {
    let span = count as f64 / rate;
    let mut rng = ChaCha8Rng::seed_from_u64(sub_seed(seed, stream));
    let mut t: Vec<f64> = (0..count).map(|_| rng.gen::<f64>() * span).collect();
    t.sort_by(f64::total_cmp);
    t
}

/// For each of `count` requests, `k` distinct indices into a pool of
/// `pool` tables.
pub fn picks(seed: u64, stream: &str, pool: usize, k: usize, count: usize) -> Vec<Vec<usize>> {
    let mut rng = ChaCha8Rng::seed_from_u64(sub_seed(seed, stream));
    (0..count)
        .map(|_| {
            let mut p = permutation(&mut rng, pool);
            p.truncate(k);
            p
        })
        .collect()
}
