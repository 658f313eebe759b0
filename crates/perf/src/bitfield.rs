//! Bit-field analysis (§5.1).
//!
//! "Many structures, especially control structures, tended to hold bits
//! that were used in different ways … an entry being broken into various
//! bit fields representing different pre-coded information. Not all the bit
//! fields were ACE simultaneously, but rather depended on the instruction,
//! data type, or other micro-architectural details. As a result, we modeled
//! each bit field of these structures as a separate ACE structure."
//!
//! This module defines per-structure field layouts keyed on instruction
//! class: when an entry is written for an instruction that does not use a
//! field, that field's write is un-ACE, yielding strictly less conservative
//! per-field port AVFs.

use crate::ace::Aceness;
use crate::lifetime::avf_and_ports;
use crate::report::FieldStats;
use seqavf_workloads::trace::{Instr, OpClass};

/// Which instruction classes make a field ACE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldUse {
    /// Always carries live information.
    Always,
    /// Only when the instruction produces a register result.
    HasDest,
    /// Only when the instruction reads registers.
    HasSources,
    /// Only for loads and stores.
    Memory,
    /// Only for floating-point operations.
    FloatingPoint,
    /// Only for branches.
    Branch,
}

impl FieldUse {
    /// Whether the field is live for `instr`.
    pub fn applies(self, instr: &Instr) -> bool {
        match self {
            FieldUse::Always => true,
            FieldUse::HasDest => instr.dst.is_some(),
            FieldUse::HasSources => instr.sources().next().is_some(),
            FieldUse::Memory => instr.op.is_mem(),
            FieldUse::FloatingPoint => instr.op.is_fp(),
            FieldUse::Branch => instr.op == OpClass::Branch,
        }
    }
}

/// One field of a control structure's entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldSpec {
    /// Field name.
    pub name: &'static str,
    /// Field width in bits.
    pub bits: u32,
    /// Liveness condition.
    pub used: FieldUse,
}

/// The field layout for a control structure, or `None` if the structure has
/// no defined layout (bit-field analysis then leaves it unrefined).
pub fn layout(structure: &str) -> Option<Vec<FieldSpec>> {
    let f = |name, bits, used| FieldSpec { name, bits, used };
    match structure {
        "rob" => Some(vec![
            f("opcode", 10, FieldUse::Always),
            f("seqnum", 8, FieldUse::Always),
            f("dest_tag", 8, FieldUse::HasDest),
            f("src_tags", 16, FieldUse::HasSources),
            f("mem_info", 18, FieldUse::Memory),
            f("fp_flags", 8, FieldUse::FloatingPoint),
            f("branch_ctl", 8, FieldUse::Branch),
        ]),
        "issue_queue" => Some(vec![
            f("opcode", 10, FieldUse::Always),
            f("dest_tag", 8, FieldUse::HasDest),
            f("src_tags", 16, FieldUse::HasSources),
            f("mem_info", 12, FieldUse::Memory),
            f("imm", 14, FieldUse::Always),
        ]),
        "csr_bank" => Some(vec![
            f("value", 24, FieldUse::Always),
            f("dirty_flags", 8, FieldUse::HasDest),
        ]),
        _ => None,
    }
}

/// One entry's live fill: its write cycle, the fields that write made
/// ACE (bit `f` is field `f` of the layout), and its last ACE read.
#[derive(Debug, Clone, Copy)]
struct Fill {
    cycle: u64,
    mask: usize,
    last_ace_read: Option<u64>,
}

/// The events of every fill whose ACE fields are one mask.
#[derive(Debug, Clone, Copy, Default)]
struct MaskRow {
    ace_writes: u64,
    ace_reads: u64,
    /// Cycles from fill to last ACE read, summed over evicted fills.
    residency: u64,
}

/// Per-field ACE accounting for one control structure.
///
/// The fields of an entry share its fill, its reads and its eviction;
/// only their ACE-ness differs, and [`FieldUse::applies`] fixes it at the
/// write. So each entry keeps one live record with a mask of its ACE
/// fields, and the events are counted per mask, in a table of
/// `1 << fields` rows that [`BitFieldAnalyzer::finish`] expands per
/// field. A read or an eviction updates one record and one row; a write
/// tests each field's [`FieldUse`] once to form its mask. The per-field
/// results are those of one precise, unwindowed
/// [`LifetimeTracker`](crate::lifetime::LifetimeTracker) per field fed
/// every event, to the bit.
#[derive(Debug, Clone)]
pub struct BitFieldAnalyzer {
    fields: Vec<FieldSpec>,
    live: Vec<Option<Fill>>,
    rows: Vec<MaskRow>,
}

impl BitFieldAnalyzer {
    /// Creates an analyzer for `structure` with `entries` entries, or
    /// `None` when no layout is defined.
    pub fn for_structure(structure: &str, entries: usize) -> Option<Self> {
        let fields = layout(structure)?;
        let rows = vec![MaskRow::default(); 1 << fields.len()];
        Some(BitFieldAnalyzer {
            fields,
            live: vec![None; entries],
            rows,
        })
    }

    /// Records a write of `entry` for `instr`: fields the instruction does
    /// not use are written un-ACE. A live entry is evicted first.
    pub fn write(&mut self, entry: usize, cycle: u64, instr: &Instr, aceness: Aceness) {
        self.dealloc(entry);
        let mut mask = 0;
        if aceness.counts_as_ace() {
            for (f, spec) in self.fields.iter().enumerate() {
                if spec.used.applies(instr) {
                    mask |= 1 << f;
                }
            }
        }
        self.rows[mask].ace_writes += 1;
        self.live[entry] = Some(Fill {
            cycle,
            mask,
            last_ace_read: None,
        });
    }

    /// Records a read of `entry`; per-field ACE-ness was fixed at write
    /// time, so the read is ACE for exactly the fields of the fill's mask
    /// when `reader` is.
    pub fn read(&mut self, entry: usize, cycle: u64, reader: Aceness) {
        if let Some(fill) = self.live[entry].as_mut() {
            if reader.counts_as_ace() {
                self.rows[fill.mask].ace_reads += 1;
                fill.last_ace_read = Some(cycle);
            }
        }
    }

    /// Evicts `entry`: its fields' ACE residency ends at the last ACE
    /// read, so the eviction cycle does not enter it.
    pub fn dealloc(&mut self, entry: usize) {
        if let Some(fill) = self.live[entry].take() {
            if let Some(end) = fill.last_ace_read {
                self.rows[fill.mask].residency += end.saturating_sub(fill.cycle);
            }
        }
    }

    /// Ends the run at `end_cycle` and produces per-field statistics,
    /// spreading event rates over the structure's port counts. A fill
    /// still live has an unknowable future: its cycles to `end_cycle`
    /// count as unknown residency of every field, ACE or not.
    pub fn finish(
        self,
        end_cycle: u64,
        cycles: u64,
        read_ports: u32,
        write_ports: u32,
    ) -> Vec<FieldStats> {
        let open: u64 = self
            .live
            .iter()
            .flatten()
            .map(|fill| end_cycle.saturating_sub(fill.cycle))
            .sum();
        let entries = self.live.len() as u64;
        self.fields
            .iter()
            .enumerate()
            .map(|(f, spec)| {
                let (mut ace_reads, mut ace_writes, mut residency) = (0, 0, open);
                for (mask, row) in self.rows.iter().enumerate() {
                    if mask >> f & 1 == 1 {
                        ace_reads += row.ace_reads;
                        ace_writes += row.ace_writes;
                        residency += row.residency;
                    }
                }
                let bits = u64::from(spec.bits);
                let (avf, port) = avf_and_ports(
                    residency * bits,
                    entries * bits,
                    (ace_reads, ace_writes),
                    cycles,
                    read_ports,
                    write_ports,
                );
                FieldStats {
                    name: spec.name.to_owned(),
                    bits: spec.bits,
                    avf,
                    port,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifetime::LifetimeTracker;
    use seqavf_workloads::trace::Reg;

    fn int_alu() -> Instr {
        Instr::alu(OpClass::IntAlu, Reg::new(1), Reg::new(2), None)
    }

    fn fp_op() -> Instr {
        Instr::alu(OpClass::FpMul, Reg::new(1), Reg::new(2), Some(Reg::new(3)))
    }

    #[test]
    fn layouts_cover_entry_width_reasonably() {
        for name in ["rob", "issue_queue", "csr_bank"] {
            let fields = layout(name).unwrap();
            let total: u32 = fields.iter().map(|f| f.bits).sum();
            assert!(total > 0);
            let spec = crate::structures::spec(name).unwrap();
            assert!(
                total <= spec.bits_per_entry,
                "{name}: fields {total} > entry {}",
                spec.bits_per_entry
            );
        }
        assert!(layout("prf").is_none());
    }

    #[test]
    fn field_use_predicates() {
        assert!(FieldUse::Always.applies(&int_alu()));
        assert!(FieldUse::HasDest.applies(&int_alu()));
        assert!(!FieldUse::Memory.applies(&int_alu()));
        assert!(FieldUse::FloatingPoint.applies(&fp_op()));
        assert!(!FieldUse::FloatingPoint.applies(&int_alu()));
        assert!(FieldUse::Branch.applies(&Instr::branch(Reg::new(0), true)));
        assert!(!FieldUse::HasDest.applies(&Instr::nop()));
    }

    #[test]
    fn unused_fields_get_unace_writes() {
        let mut a = BitFieldAnalyzer::for_structure("rob", 4).unwrap();
        // An integer ALU op: fp_flags / mem_info / branch_ctl fields unused.
        a.write(0, 0, &int_alu(), Aceness::Ace);
        a.read(0, 5, Aceness::Ace);
        a.dealloc(0);
        let fields = a.finish(10, 10, 1, 1);
        let by_name = |n: &str| fields.iter().find(|f| f.name == n).unwrap();
        assert!(by_name("opcode").avf > 0.0);
        assert!(by_name("dest_tag").avf > 0.0);
        assert_eq!(by_name("fp_flags").avf, 0.0);
        assert_eq!(by_name("mem_info").avf, 0.0);
        assert_eq!(by_name("branch_ctl").avf, 0.0);
    }

    #[test]
    fn refinement_is_less_conservative_than_aggregate() {
        // Aggregate tracker: everything ACE. Bit-field: only live fields.
        let mut agg = LifetimeTracker::new("rob", 4, 76);
        let mut bf = BitFieldAnalyzer::for_structure("rob", 4).unwrap();
        for c in 0..20u64 {
            let i = int_alu();
            agg.write((c % 4) as usize, c, Aceness::Ace);
            agg.read((c % 4) as usize, c, Aceness::Ace);
            bf.write((c % 4) as usize, c, &i, Aceness::Ace);
            bf.read((c % 4) as usize, c, Aceness::Ace);
        }
        agg.finish(20);
        let agg_stats = agg.stats(40, 1, 1);
        let fields = bf.finish(20, 40, 1, 1);
        let total_bits: f64 = fields.iter().map(|f| f64::from(f.bits)).sum();
        let weighted_read: f64 = fields
            .iter()
            .map(|f| f.port.read * f64::from(f.bits))
            .sum::<f64>()
            / total_bits;
        assert!(
            weighted_read < agg_stats.port.read,
            "bit-field read pAVF {weighted_read} should refine aggregate {}",
            agg_stats.port.read
        );
    }

    #[test]
    fn unknown_structure_has_no_analyzer() {
        assert!(BitFieldAnalyzer::for_structure("prf", 8).is_none());
    }
}
