//! Reference models for the oracle property tests: straightforward
//! implementations of HD-1 tracking, trace liveness and bit-field
//! analysis that the optimized versions in `seqavf-perf` must match
//! exactly.

use std::collections::HashMap;

use seqavf_perf::ace::Aceness;
use seqavf_perf::bitfield::{layout, FieldSpec};
use seqavf_perf::lifetime::LifetimeTracker;
use seqavf_perf::report::FieldStats;
use seqavf_workloads::trace::{Instr, OpClass, Trace, NUM_REGS};

/// HD-1 tracker over a `tag → entry` hash map, probing every
/// hamming-distance-1 neighbour of a looked-up tag.
#[derive(Debug, Clone)]
pub struct HashHd1 {
    tag_bits: u32,
    resident: HashMap<u64, usize>,
    ace_bit_events: u64,
    total_bit_events: u64,
    lookups: u64,
}

impl HashHd1 {
    pub fn new(tag_bits: u32) -> Self {
        HashHd1 {
            tag_bits: tag_bits.min(63),
            resident: HashMap::new(),
            ace_bit_events: 0,
            total_bit_events: 0,
            lookups: 0,
        }
    }

    /// Gives `entry` the tag; an entry already holding the same tag loses it.
    pub fn insert(&mut self, entry: usize, tag: u64) {
        self.resident.retain(|_, e| *e != entry);
        self.resident.insert(self.mask(tag), entry);
    }

    pub fn remove(&mut self, entry: usize) {
        self.resident.retain(|_, e| *e != entry);
    }

    pub fn lookup(&mut self, tag: u64, reader: Aceness) -> bool {
        let tag = self.mask(tag);
        self.lookups += 1;
        let bits = u64::from(self.tag_bits);
        self.total_bit_events += bits * self.resident.len() as u64;
        if !reader.counts_as_ace() {
            return self.resident.contains_key(&tag);
        }
        let mut hit = false;
        if self.resident.contains_key(&tag) {
            self.ace_bit_events += bits;
            hit = true;
        }
        for b in 0..self.tag_bits {
            if self.resident.contains_key(&(tag ^ (1u64 << b))) {
                self.ace_bit_events += 1;
            }
        }
        hit
    }

    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    pub fn factor(&self) -> f64 {
        if self.total_bit_events == 0 {
            1.0
        } else {
            (self.ace_bit_events as f64 / self.total_bit_events as f64).min(1.0)
        }
    }

    fn mask(&self, tag: u64) -> u64 {
        tag & ((1u64 << self.tag_bits) - 1)
    }
}

/// Dead-code ACE classification from explicit def-use chains: a forward
/// pass records every consumer of each definition, then a backward pass
/// marks a producer live when any of its consumers is.
pub fn def_use_liveness(trace: &Trace) -> Vec<Aceness> {
    let instrs = trace.instrs();
    let n = instrs.len();
    let mut ace = vec![Aceness::UnAce; n];
    let mut consumers: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut open = vec![false; n];
    let mut last_def: [Option<u32>; NUM_REGS as usize] = [None; NUM_REGS as usize];

    for (i, ins) in instrs.iter().enumerate() {
        for src in ins.sources() {
            if let Some(def) = last_def[src.index()] {
                consumers[def as usize].push(i as u32);
            }
        }
        if let Some(dst) = ins.dst {
            last_def[dst.index()] = Some(i as u32);
        }
    }
    for def in last_def.into_iter().flatten() {
        open[def as usize] = true;
    }

    for i in (0..n).rev() {
        let ins = &instrs[i];
        ace[i] = if ins.hint || ins.op == OpClass::Nop {
            Aceness::UnAce
        } else if matches!(ins.op, OpClass::Store | OpClass::Branch) {
            Aceness::Ace
        } else if ins.dst.is_none() {
            Aceness::UnAce
        } else if consumers[i]
            .iter()
            .any(|&c| ace[c as usize].counts_as_ace())
        {
            Aceness::Ace
        } else if open[i] {
            Aceness::Unknown
        } else {
            Aceness::UnAce
        };
    }
    ace
}

/// Bit-field analysis as one [`LifetimeTracker`] per field, each fed
/// every write, read and eviction of the structure: §5.1's "each bit
/// field of these structures as a separate ACE structure", literally.
#[derive(Debug, Clone)]
pub struct PerFieldTrackers {
    fields: Vec<(FieldSpec, LifetimeTracker)>,
}

impl PerFieldTrackers {
    pub fn for_structure(structure: &str, entries: usize) -> Option<Self> {
        let fields = layout(structure)?
            .into_iter()
            .map(|spec| {
                let t =
                    LifetimeTracker::new(format!("{structure}.{}", spec.name), entries, spec.bits);
                (spec, t)
            })
            .collect();
        Some(PerFieldTrackers { fields })
    }

    /// Fields the instruction does not use are written un-ACE.
    pub fn write(&mut self, entry: usize, cycle: u64, instr: &Instr, aceness: Aceness) {
        for (spec, t) in &mut self.fields {
            let a = if spec.used.applies(instr) {
                aceness
            } else {
                Aceness::UnAce
            };
            t.write(entry, cycle, a);
        }
    }

    pub fn read(&mut self, entry: usize, cycle: u64, reader: Aceness) {
        for (_, t) in &mut self.fields {
            t.read(entry, cycle, reader);
        }
    }

    pub fn dealloc(&mut self, entry: usize, cycle: u64) {
        for (_, t) in &mut self.fields {
            t.dealloc(entry, cycle);
        }
    }

    pub fn finish(
        mut self,
        end_cycle: u64,
        cycles: u64,
        read_ports: u32,
        write_ports: u32,
    ) -> Vec<FieldStats> {
        self.fields
            .iter_mut()
            .map(|(spec, t)| {
                t.finish(end_cycle);
                let s = t.stats(cycles, read_ports, write_ports);
                FieldStats {
                    name: spec.name.to_owned(),
                    bits: spec.bits,
                    avf: s.avf,
                    port: s.port,
                }
            })
            .collect()
    }
}
