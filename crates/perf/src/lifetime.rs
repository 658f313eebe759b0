//! ACE lifetime tracking for one storage structure (Mukherjee et al. \[1\]).
//!
//! The tracker observes write / read / deallocate events on a structure's
//! entries and accumulates *ACE residency*: the bit-cycles during which a
//! bit held state that was necessary for architecturally correct execution.
//! Structure AVF follows Equation 3:
//!
//! ```text
//!            Σ residence time of all ACE+unknown bits
//! AVF = ─────────────────────────────────────────────────
//!        (# bits in structure) × (total simulation cycles)
//! ```
//!
//! The same event stream yields the **port AVFs** that drive SART (§4): the
//! rate of ACE reads (`pAVF_R`) and ACE writes (`pAVF_W`) per cycle.

use crate::ace::Aceness;
use crate::report::{PortAvf, StructureStats};
use crate::window::Quantizer;

/// Per-entry live state.
#[derive(Debug, Clone, Copy)]
struct Live {
    write_cycle: u64,
    aceness: Aceness,
    last_ace_read: Option<u64>,
}

/// Event-driven ACE lifetime tracker for one structure.
#[derive(Debug, Clone)]
pub struct LifetimeTracker {
    name: String,
    bits_per_entry: u32,
    live: Vec<Option<Live>>,
    reads: u64,
    writes: u64,
    ace_reads: u64,
    ace_writes: u64,
    ace_bit_cycles: u64,
    unknown_bit_cycles: u64,
    occupied_bit_cycles: u64,
    conservative: bool,
    quantizer: Option<Quantizer>,
}

impl LifetimeTracker {
    /// Creates a tracker for a structure with `entries` entries of
    /// `bits_per_entry` bits each.
    pub fn new(name: impl Into<String>, entries: usize, bits_per_entry: u32) -> Self {
        LifetimeTracker {
            name: name.into(),
            bits_per_entry,
            live: vec![None; entries],
            reads: 0,
            writes: 0,
            ace_reads: 0,
            ace_writes: 0,
            ace_bit_cycles: 0,
            unknown_bit_cycles: 0,
            occupied_bit_cycles: 0,
            conservative: false,
            quantizer: None,
        }
    }

    /// Switches residency accounting to the *conservative* variant: an
    /// entry filled with ACE data accrues residency from fill to eviction
    /// even past its last read. This matches the "conservative structure
    /// AVF" values industrial flows carry before refinement (§6.2:
    /// "we were conservatively using structure AVFs as a proxy"); the
    /// default precise mode ends ACE residency at the last ACE read
    /// (Mukherjee et al. \[1\]).
    pub fn with_conservative_residency(mut self, conservative: bool) -> Self {
        self.conservative = conservative;
        self
    }

    /// Enables quantized (time-windowed) AVF tracking with the given
    /// window size in cycles (see [`crate::window`]).
    pub fn with_quantizer(mut self, window: Option<u64>) -> Self {
        self.quantizer = window.map(Quantizer::new);
        self
    }

    /// Structure name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of entries.
    pub fn entries(&self) -> usize {
        self.live.len()
    }

    /// Records a write that fills `entry` at `cycle` with data of the given
    /// ACE classification. An entry already live is implicitly deallocated
    /// first (overwrite).
    pub fn write(&mut self, entry: usize, cycle: u64, aceness: Aceness) {
        if self.live[entry].is_some() {
            self.dealloc(entry, cycle);
        }
        self.writes += 1;
        if aceness.counts_as_ace() {
            self.ace_writes += 1;
        }
        self.live[entry] = Some(Live {
            write_cycle: cycle,
            aceness,
            last_ace_read: None,
        });
    }

    /// Records a read of `entry` at `cycle` by a consumer with ACE
    /// classification `reader`. The read event is ACE when both the stored
    /// value and the consumer are ACE.
    pub fn read(&mut self, entry: usize, cycle: u64, reader: Aceness) {
        self.reads += 1;
        if let Some(l) = self.live[entry].as_mut() {
            if l.aceness.counts_as_ace() && reader.counts_as_ace() {
                self.ace_reads += 1;
                l.last_ace_read = Some(cycle);
            }
        }
    }

    /// Deallocates `entry` at `cycle`, accumulating its ACE residency: the
    /// interval from fill to the last ACE read is ACE residency; the
    /// remainder of the lifetime (last read to eviction) is un-ACE.
    pub fn dealloc(&mut self, entry: usize, cycle: u64) {
        let Some(l) = self.live[entry].take() else {
            return;
        };
        self.occupied_bit_cycles +=
            cycle.saturating_sub(l.write_cycle) * u64::from(self.bits_per_entry);
        let end = if self.conservative {
            // Conservative variant: ACE fills are vulnerable until evicted.
            if l.aceness.counts_as_ace() {
                Some(cycle)
            } else {
                None
            }
        } else {
            l.last_ace_read
        };
        if let Some(end) = end {
            let span = end.saturating_sub(l.write_cycle) * u64::from(self.bits_per_entry);
            match l.aceness {
                Aceness::Unknown => self.unknown_bit_cycles += span,
                _ => self.ace_bit_cycles += span,
            }
            if let Some(q) = self.quantizer.as_mut() {
                q.record_span(l.write_cycle, end, self.bits_per_entry);
            }
        }
    }

    /// Ends the simulation at `end_cycle`: every still-live entry has an
    /// unknowable future and is conservatively accounted as unknown
    /// residency from its fill to the end of simulation.
    pub fn finish(&mut self, end_cycle: u64) {
        for e in 0..self.live.len() {
            if let Some(l) = self.live[e].take() {
                let span = end_cycle.saturating_sub(l.write_cycle) * u64::from(self.bits_per_entry);
                self.unknown_bit_cycles += span;
                self.occupied_bit_cycles += span;
                if let Some(q) = self.quantizer.as_mut() {
                    q.record_span(l.write_cycle, end_cycle, self.bits_per_entry);
                }
            }
        }
    }

    /// The quantized per-window AVF series, if quantization was enabled.
    pub fn window_series(&self, cycles: u64) -> Vec<f64> {
        let total_bits = self.live.len() as u64 * u64::from(self.bits_per_entry);
        self.quantizer
            .as_ref()
            .map(|q| q.series(total_bits, cycles))
            .unwrap_or_default()
    }

    /// Produces final statistics for a run of `cycles` total cycles, with
    /// ACE event rates spread over the structure's read/write port counts
    /// (the pAVF of a single port bit, §4).
    pub fn stats(&self, cycles: u64, read_ports: u32, write_ports: u32) -> StructureStats {
        let total_bits = self.live.len() as u64 * u64::from(self.bits_per_entry);
        let (avf, port) = avf_and_ports(
            self.ace_bit_cycles + self.unknown_bit_cycles,
            total_bits,
            (self.ace_reads, self.ace_writes),
            cycles,
            read_ports,
            write_ports,
        );
        StructureStats {
            name: self.name.clone(),
            entries: self.live.len(),
            bits_per_entry: self.bits_per_entry,
            reads: self.reads,
            writes: self.writes,
            ace_reads: self.ace_reads,
            ace_writes: self.ace_writes,
            ace_bit_cycles: self.ace_bit_cycles,
            unknown_bit_cycles: self.unknown_bit_cycles,
            occupied_bit_cycles: self.occupied_bit_cycles,
            avf,
            port,
            fields: Vec::new(),
            windows: self.window_series(cycles),
        }
    }
}

/// Equation 3 and the port rates of §4, shared by the structure trackers
/// and the bit-field analyzer: `vulnerable` ACE-plus-unknown bit-cycles
/// over `total_bits × cycles`, and the `(ace_reads, ace_writes)` events
/// per cycle spread over the port counts, each clamped to 1.
pub(crate) fn avf_and_ports(
    vulnerable: u64,
    total_bits: u64,
    (ace_reads, ace_writes): (u64, u64),
    cycles: u64,
    read_ports: u32,
    write_ports: u32,
) -> (f64, PortAvf) {
    let denom = (total_bits * cycles).max(1) as f64;
    let avf = (vulnerable as f64 / denom).min(1.0);
    let c = cycles.max(1) as f64 * f64::from(read_ports.max(1));
    let cw = cycles.max(1) as f64 * f64::from(write_ports.max(1));
    let port = PortAvf {
        read: (ace_reads as f64 / c).min(1.0),
        write: (ace_writes as f64 / cw).min(1.0),
    };
    (avf, port)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ace_residency_spans_fill_to_last_ace_read() {
        let mut t = LifetimeTracker::new("s", 2, 8);
        t.write(0, 10, Aceness::Ace);
        t.read(0, 14, Aceness::Ace);
        t.read(0, 20, Aceness::Ace);
        t.dealloc(0, 30);
        let s = t.stats(100, 1, 1);
        // (20 - 10) * 8 bits
        assert_eq!(s.ace_bit_cycles, 80);
        assert_eq!(s.unknown_bit_cycles, 0);
        // AVF = 80 / (16 bits * 100 cycles)
        assert!((s.avf - 80.0 / 1600.0).abs() < 1e-12);
    }

    #[test]
    fn unace_data_contributes_nothing() {
        let mut t = LifetimeTracker::new("s", 1, 4);
        t.write(0, 0, Aceness::UnAce);
        t.read(0, 5, Aceness::Ace);
        t.dealloc(0, 10);
        let s = t.stats(10, 1, 1);
        assert_eq!(s.ace_bit_cycles, 0);
        assert_eq!(s.ace_reads, 0);
        assert_eq!(s.reads, 1);
    }

    #[test]
    fn dead_reader_does_not_extend_residency() {
        let mut t = LifetimeTracker::new("s", 1, 4);
        t.write(0, 0, Aceness::Ace);
        t.read(0, 4, Aceness::Ace);
        t.read(0, 9, Aceness::UnAce); // dead consumer
        t.dealloc(0, 12);
        let s = t.stats(12, 1, 1);
        assert_eq!(s.ace_bit_cycles, 16, "span ends at cycle 4, not 9");
        assert_eq!(s.ace_reads, 1);
    }

    #[test]
    fn never_read_entry_has_zero_residency() {
        let mut t = LifetimeTracker::new("s", 1, 4);
        t.write(0, 0, Aceness::Ace);
        t.dealloc(0, 50);
        let s = t.stats(50, 1, 1);
        assert_eq!(s.ace_bit_cycles, 0);
    }

    #[test]
    fn overwrite_implicitly_deallocates() {
        let mut t = LifetimeTracker::new("s", 1, 2);
        t.write(0, 0, Aceness::Ace);
        t.read(0, 6, Aceness::Ace);
        t.write(0, 8, Aceness::Ace); // implicit dealloc of the first fill
        t.read(0, 9, Aceness::Ace);
        t.dealloc(0, 10);
        let s = t.stats(10, 1, 1);
        // First: (6-0)*2 = 12; second: (9-8)*2 = 2.
        assert_eq!(s.ace_bit_cycles, 14);
        assert_eq!(s.writes, 2);
    }

    #[test]
    fn unknown_data_accumulates_unknown_cycles() {
        let mut t = LifetimeTracker::new("s", 1, 2);
        t.write(0, 0, Aceness::Unknown);
        t.read(0, 10, Aceness::Ace);
        t.dealloc(0, 12);
        let s = t.stats(12, 1, 1);
        assert_eq!(s.unknown_bit_cycles, 20);
        assert_eq!(s.ace_bit_cycles, 0);
        assert!(s.avf > 0.0, "unknown residency is conservative ACE");
    }

    #[test]
    fn finish_closes_live_entries_as_unknown() {
        let mut t = LifetimeTracker::new("s", 2, 1);
        t.write(0, 5, Aceness::Ace);
        t.write(1, 7, Aceness::UnAce);
        t.finish(10);
        let s = t.stats(10, 1, 1);
        assert_eq!(s.unknown_bit_cycles, 5 + 3);
    }

    #[test]
    fn port_avf_rates() {
        let mut t = LifetimeTracker::new("s", 4, 8);
        for c in 0..10 {
            t.write((c % 4) as usize, c, Aceness::Ace);
            t.read((c % 4) as usize, c, Aceness::Ace);
        }
        let s = t.stats(20, 1, 1);
        assert!((s.port.read - 0.5).abs() < 1e-12);
        assert!((s.port.write - 0.5).abs() < 1e-12);
    }

    #[test]
    fn port_avf_clamped_to_one() {
        let mut t = LifetimeTracker::new("s", 4, 8);
        for c in 0..100 {
            t.write((c % 4) as usize, c, Aceness::Ace);
            t.read((c % 4) as usize, c, Aceness::Ace);
        }
        let s = t.stats(10, 1, 1);
        assert_eq!(s.port.read, 1.0);
        assert_eq!(s.port.write, 1.0);
    }

    #[test]
    fn avf_never_exceeds_one() {
        let mut t = LifetimeTracker::new("s", 1, 1);
        t.write(0, 0, Aceness::Ace);
        t.read(0, 1000, Aceness::Ace);
        t.dealloc(0, 1000);
        let s = t.stats(10, 1, 1); // inconsistent cycle count on purpose
        assert!(s.avf <= 1.0);
    }
}
