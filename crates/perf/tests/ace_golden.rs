//! Golden bit-identity test for the ACE performance model.
//!
//! Hashes every field of every [`AceReport`] that `run_ace` produces over a
//! fixed suite (both beam-test kernels plus six 2,000-instruction mix
//! workloads) under five model configurations. Any change to the model's
//! bookkeeping must leave every digest unchanged: counters are hashed as
//! integers and every `f64` by its bit pattern, so a one-ulp drift fails.

use seqavf_perf::pipeline::{run_ace, PerfConfig};
use seqavf_perf::report::{AceReport, PortAvf};
use seqavf_workloads::suite::{standard_suite, SuiteConfig};
use seqavf_workloads::trace::Trace;

/// FNV-1a over a stream of typed fields.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn port(&mut self, p: &PortAvf) {
        self.f64(p.read);
        self.f64(p.write);
    }

    fn report(&mut self, r: &AceReport) {
        self.str(&r.workload);
        self.u64(r.cycles);
        self.u64(r.instructions);
        self.u64(r.structures.len() as u64);
        for (key, s) in &r.structures {
            self.str(key);
            self.str(&s.name);
            self.u64(s.entries as u64);
            self.u64(u64::from(s.bits_per_entry));
            self.u64(s.reads);
            self.u64(s.writes);
            self.u64(s.ace_reads);
            self.u64(s.ace_writes);
            self.u64(s.ace_bit_cycles);
            self.u64(s.unknown_bit_cycles);
            self.u64(s.occupied_bit_cycles);
            self.f64(s.avf);
            self.port(&s.port);
            self.u64(s.fields.len() as u64);
            for f in &s.fields {
                self.str(&f.name);
                self.u64(u64::from(f.bits));
                self.f64(f.avf);
                self.port(&f.port);
            }
            self.u64(s.windows.len() as u64);
            for &w in &s.windows {
                self.f64(w);
            }
        }
    }
}

fn suite() -> Vec<Trace> {
    standard_suite(&SuiteConfig {
        workloads: 8,
        len: 2_000,
        seed: 0x601d,
        include_kernels: true,
    })
}

fn digest(traces: &[Trace], config: &PerfConfig) -> u64 {
    let mut d = Digest::new();
    for t in traces {
        d.report(&run_ace(t, config));
    }
    d.0
}

/// Digests recorded from the model before its bookkeeping was rewritten
/// around catalog-indexed trackers, dense HD-1 tags and the single-pass
/// liveness analysis.
const GOLDEN: [(&str, u64); 5] = [
    ("default", 0xc554_3315_8bbf_3beb),
    ("conservative_residency", 0xbd67_8eb7_722b_71b4),
    ("bitfield_off", 0x40fd_ff5a_b227_af1e),
    ("hd1_off", 0x406f_b68f_cee2_b602),
    ("quantize_256", 0x9488_d623_bf90_4f1a),
];

fn config(label: &str) -> PerfConfig {
    let base = PerfConfig::default();
    match label {
        "default" => base,
        "conservative_residency" => PerfConfig {
            conservative_residency: true,
            ..base
        },
        "bitfield_off" => PerfConfig {
            bitfield: false,
            ..base
        },
        "hd1_off" => PerfConfig { hd1: false, ..base },
        "quantize_256" => PerfConfig {
            quantize_window: Some(256),
            ..base
        },
        _ => unreachable!("unknown configuration {label}"),
    }
}

#[test]
fn ace_reports_match_golden_digests() {
    let traces = suite();
    assert_eq!(traces.len(), 8);
    let got: Vec<(&str, u64)> = GOLDEN
        .iter()
        .map(|&(label, _)| (label, digest(&traces, &config(label))))
        .collect();
    assert_eq!(
        got,
        GOLDEN,
        "ACE report digests changed: {:#x?}",
        got.iter().map(|(_, d)| d).collect::<Vec<_>>()
    );
}
