//! Property tests for the performance model's ACE accounting
//! (DESIGN.md §6, invariant 7).

mod reference;

use proptest::prelude::*;

use seqavf_perf::ace::{analyze_trace, Aceness};
use seqavf_perf::bitfield::BitFieldAnalyzer;
use seqavf_perf::hd1::Hd1Tracker;
use seqavf_perf::pipeline::{run_ace, PerfConfig};
use seqavf_workloads::trace::{Instr, OpClass, Reg, Trace};

/// Arbitrary instruction from raw bytes.
fn instr_from(bytes: (u8, u8, u8, u8)) -> Instr {
    let (k, a, b, c) = bytes;
    match k % 8 {
        0 | 1 => Instr::alu(OpClass::IntAlu, Reg::new(a), Reg::new(b), Some(Reg::new(c))),
        2 => Instr::alu(OpClass::FpMul, Reg::new(a), Reg::new(b), None),
        3 => Instr::load(Reg::new(a), Some(Reg::new(b)), u64::from(c) << 4),
        4 => Instr::store(Reg::new(a), Some(Reg::new(b)), u64::from(c) << 4),
        5 => Instr::branch(Reg::new(a), b % 2 == 0),
        6 => Instr::alu(OpClass::IntMul, Reg::new(a), Reg::new(b), Some(Reg::new(c))),
        _ => Instr::nop(),
    }
}

fn trace_strategy() -> impl Strategy<Value = Trace> {
    prop::collection::vec(any::<(u8, u8, u8, u8)>(), 1..400)
        .prop_map(|v| Trace::new("prop", v.into_iter().map(instr_from).collect()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn model_retires_everything_and_stats_are_sane(trace in trace_strategy()) {
        let r = run_ace(&trace, &PerfConfig::default());
        prop_assert_eq!(r.instructions as usize, trace.len());
        prop_assert!(r.cycles > 0);
        for (name, s) in &r.structures {
            prop_assert!((0.0..=1.0).contains(&s.avf), "{} avf {}", name, s.avf);
            prop_assert!((0.0..=1.0).contains(&s.port.read));
            prop_assert!((0.0..=1.0).contains(&s.port.write));
            prop_assert!(s.ace_reads <= s.reads, "{name}");
            prop_assert!(s.ace_writes <= s.writes, "{name}");
            prop_assert!(
                s.ace_bit_cycles + s.unknown_bit_cycles
                    <= s.total_bits() * r.cycles,
                "{name}: residency exceeds bit-cycles"
            );
            prop_assert!(s.resident_avf() <= 1.0);
            for f in &s.fields {
                prop_assert!((0.0..=1.0).contains(&f.avf));
            }
        }
    }

    #[test]
    fn ace_classification_is_consistent(trace in trace_strategy()) {
        let a = analyze_trace(&trace);
        prop_assert_eq!(a.all().len(), trace.len());
        // NOPs are never ACE; stores and branches always are.
        for (i, ins) in trace.instrs().iter().enumerate() {
            match ins.op {
                OpClass::Nop => prop_assert!(!a.of(i).counts_as_ace()),
                OpClass::Store | OpClass::Branch => {
                    prop_assert!(a.of(i).counts_as_ace())
                }
                _ => {}
            }
        }
        prop_assert!((0.0..=1.0).contains(&a.ace_fraction()));
        prop_assert!(a.unknown_fraction() <= a.ace_fraction() + 1e-12);
    }

    #[test]
    fn conservative_residency_dominates_precise(trace in trace_strategy()) {
        let precise = run_ace(&trace, &PerfConfig::default());
        let cons = run_ace(
            &trace,
            &PerfConfig {
                conservative_residency: true,
                ..PerfConfig::default()
            },
        );
        for (name, p) in &precise.structures {
            let c = &cons.structures[name];
            prop_assert!(
                c.avf + 1e-12 >= p.avf,
                "{name}: conservative {} < precise {}",
                c.avf,
                p.avf
            );
            // Port rates are residency-independent.
            prop_assert!((c.port.read - p.port.read).abs() < 1e-12);
            prop_assert!((c.port.write - p.port.write).abs() < 1e-12);
        }
    }

    #[test]
    fn hd1_factor_bounded(tags in prop::collection::vec(any::<u16>(), 1..20),
                          lookups in prop::collection::vec(any::<u16>(), 1..40)) {
        let mut t = Hd1Tracker::new(16);
        for (i, &tag) in tags.iter().enumerate() {
            t.insert(i, u64::from(tag));
        }
        for &l in &lookups {
            t.lookup(u64::from(l), Aceness::Ace);
        }
        let f = t.factor();
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert_eq!(t.lookups(), lookups.len() as u64);
    }
}

/// One operation on an HD-1 tracker.
#[derive(Debug, Clone, Copy)]
enum Hd1Op {
    Insert(usize, u64),
    Remove(usize),
    Lookup(u64, Aceness),
}

/// Operation sequences over ten entries. Tags come from a small pool
/// (including all-ones, which every mask keeps at full width) with
/// single-bit flips anywhere in 64 bits, so inserts often take a tag
/// another entry holds, lookups often land at hamming distance 0 or 1, and
/// tags are often wider than the tracker's mask; removes often hit an
/// entry that holds nothing.
fn hd1_ops() -> impl Strategy<Value = Vec<Hd1Op>> {
    let op = (0u8..8, 0usize..10, 0u8..16, 0u32..80, any::<u64>());
    prop::collection::vec(op, 1..200).prop_map(|ops| {
        ops.into_iter()
            .map(|(kind, entry, small, flip, wide)| {
                let mut tag = match small {
                    0..=11 => u64::from(small % 6),
                    12 | 13 => u64::MAX,
                    _ => wide,
                };
                if flip < 64 {
                    tag ^= 1u64 << flip;
                }
                match kind {
                    0..=2 => Hd1Op::Insert(entry, tag),
                    3 => Hd1Op::Remove(entry),
                    4 => Hd1Op::Lookup(tag, Aceness::UnAce),
                    5 => Hd1Op::Lookup(tag, Aceness::Unknown),
                    _ => Hd1Op::Lookup(tag, Aceness::Ace),
                }
            })
            .collect()
    })
}

/// One event on a bit-field analyzer.
#[derive(Debug, Clone, Copy)]
enum FieldOp {
    Write(usize, Instr, Aceness),
    Read(usize, Aceness),
    Dealloc(usize),
}

fn aceness(k: u8) -> Aceness {
    match k % 3 {
        0 => Aceness::Ace,
        1 => Aceness::UnAce,
        _ => Aceness::Unknown,
    }
}

/// Event streams over up to eight entries, each event `0..3` cycles after
/// the previous one (so several often share a cycle): writes of random
/// instruction classes and ACE-ness, often over a live entry, reads by
/// random readers, often of an empty entry, and evictions, often of an
/// empty entry.
fn field_ops() -> impl Strategy<Value = Vec<(u64, FieldOp)>> {
    let op = (
        0u8..7,
        0usize..8,
        any::<(u8, u8, u8, u8)>(),
        any::<u8>(),
        0u64..3,
    );
    prop::collection::vec(op, 0..160).prop_map(|ops| {
        ops.into_iter()
            .map(|(kind, entry, bytes, ace, step)| {
                let op = match kind {
                    0..=2 => FieldOp::Write(entry, instr_from(bytes), aceness(ace)),
                    3..=5 => FieldOp::Read(entry, aceness(ace)),
                    _ => FieldOp::Dealloc(entry),
                };
                (step, op)
            })
            .collect()
    })
}

/// Marks the loads whose position bit is set in `mask` as hints: results
/// that are un-ACE but still redefine their destination register.
fn with_hint_loads(trace: &Trace, mask: u64) -> Trace {
    let instrs = trace
        .instrs()
        .iter()
        .enumerate()
        .map(|(i, ins)| {
            let mut ins = *ins;
            if ins.op == OpClass::Load && mask >> (i % 64) & 1 == 1 {
                ins.hint = true;
            }
            ins
        })
        .collect();
    Trace::new(trace.name(), instrs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hd1_tracker_matches_hash_map_oracle(tag_bits in 1u32..66, ops in hd1_ops()) {
        let mut fast = Hd1Tracker::new(tag_bits);
        let mut oracle = reference::HashHd1::new(tag_bits);
        for (k, &op) in ops.iter().enumerate() {
            match op {
                Hd1Op::Insert(entry, tag) => {
                    fast.insert(entry, tag);
                    oracle.insert(entry, tag);
                }
                Hd1Op::Remove(entry) => {
                    fast.remove(entry);
                    oracle.remove(entry);
                }
                Hd1Op::Lookup(tag, reader) => {
                    prop_assert_eq!(
                        fast.lookup(tag, reader),
                        oracle.lookup(tag, reader),
                        "op {}: {:?}",
                        k,
                        op
                    );
                }
            }
            prop_assert_eq!(fast.factor().to_bits(), oracle.factor().to_bits(), "op {}", k);
        }
        prop_assert_eq!(fast.lookups(), oracle.lookups());
    }

    #[test]
    fn bitfield_analyzer_matches_per_field_trackers(
        structure in prop::sample::select(vec!["rob", "issue_queue", "csr_bank"]),
        entries in 1usize..9,
        ops in field_ops(),
        end in (0u64..4, 1u64..300),
        ports in (0u32..3, 0u32..3),
    ) {
        let mut fast = BitFieldAnalyzer::for_structure(structure, entries).unwrap();
        let mut oracle = reference::PerFieldTrackers::for_structure(structure, entries).unwrap();
        let mut cycle = 0;
        for &(step, op) in &ops {
            cycle += step;
            match op {
                FieldOp::Write(e, instr, a) => {
                    fast.write(e % entries, cycle, &instr, a);
                    oracle.write(e % entries, cycle, &instr, a);
                }
                FieldOp::Read(e, reader) => {
                    fast.read(e % entries, cycle, reader);
                    oracle.read(e % entries, cycle, reader);
                }
                FieldOp::Dealloc(e) => {
                    fast.dealloc(e % entries);
                    oracle.dealloc(e % entries, cycle);
                }
            }
        }
        // The run ends at or after the last event; `cycles` is drawn on
        // its own so that the rate clamps at 1 are reached too.
        let (end_cycle, cycles) = (cycle + end.0, end.1);
        let got = fast.finish(end_cycle, cycles, ports.0, ports.1);
        let want = oracle.finish(end_cycle, cycles, ports.0, ports.1);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(&g.name, &w.name);
            prop_assert_eq!(g.bits, w.bits);
            prop_assert_eq!(g.avf.to_bits(), w.avf.to_bits(), "{} avf", w.name);
            prop_assert_eq!(g.port.read.to_bits(), w.port.read.to_bits(), "{} read", w.name);
            prop_assert_eq!(g.port.write.to_bits(), w.port.write.to_bits(), "{} write", w.name);
        }
    }

    #[test]
    fn liveness_matches_def_use_oracle(trace in trace_strategy(), hints in any::<u64>()) {
        let trace = with_hint_loads(&trace, hints);
        prop_assert_eq!(analyze_trace(&trace).all(), &reference::def_use_liveness(&trace)[..]);
    }
}
