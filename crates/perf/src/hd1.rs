//! Hamming-distance-1 analysis for address-based structures.
//!
//! Following Biswas et al. \[2\], the ACE-ness of a *tag* bit in a CAM-style
//! structure (TLB, BTB, load/store queue match logic) is not determined by
//! data lifetime but by whether flipping that single bit would change a
//! match outcome:
//!
//! - **False match** — flipping bit *b* of a resident tag makes it equal to
//!   a looked-up address (the resident tag is at hamming distance 1 from
//!   the lookup): bit *b* of that entry is ACE for the lookup.
//! - **False mismatch** — flipping any bit of the tag that *should* match a
//!   lookup causes a miss: every tag bit of the matching entry is ACE for
//!   an ACE lookup.
//!
//! The tracker aggregates these per-lookup bit events into an *HD-1 factor*
//! in `[0, 1]`: the fraction of tag-bit observations that were actually
//! ACE. Without this analysis every tag bit would be conservatively ACE
//! (factor 1.0).
//!
//! Resident tags live in a dense per-entry array, so a lookup is one scan of
//! at most `entries` tags: a tag at hamming distance 0 is a hit, one at
//! distance exactly 1 (`count_ones() == 1` of the XOR) is a false-match
//! neighbour. Resident tags are kept distinct — inserting a tag that
//! another entry holds takes it from that entry — so the scan counts each
//! neighbour once, exactly as probing a `tag → entry` map for each of the
//! `tag_bits` one-bit flips would.

use crate::ace::Aceness;

/// Marks an entry holding no tag. Masked tags are at most 63 bits wide, so
/// no tag equals it.
const EMPTY: u64 = u64::MAX;

/// Hamming-distance-1 tracker for one CAM structure.
#[derive(Debug, Clone)]
pub struct Hd1Tracker {
    tag_bits: u32,
    /// Masked tag held by each entry, or [`EMPTY`]. Grows on demand to the
    /// highest entry inserted.
    tags: Vec<u64>,
    /// Number of entries holding a tag.
    resident: usize,
    /// Tag-bit events that were ACE under HD-1 reasoning.
    ace_bit_events: u64,
    /// Total tag-bit observations (lookups × resident tag bits examined).
    total_bit_events: u64,
    lookups: u64,
}

impl Hd1Tracker {
    /// Creates a tracker for tags of `tag_bits` bits (at most 63).
    pub fn new(tag_bits: u32) -> Self {
        Hd1Tracker {
            tag_bits: tag_bits.min(63),
            tags: Vec::new(),
            resident: 0,
            ace_bit_events: 0,
            total_bit_events: 0,
            lookups: 0,
        }
    }

    /// Inserts (or replaces) a resident tag for `entry`. Another entry
    /// holding the same (masked) tag loses it.
    pub fn insert(&mut self, entry: usize, tag: u64) {
        let tag = self.mask(tag);
        if entry >= self.tags.len() {
            self.tags.resize(entry + 1, EMPTY);
        }
        if let Some(holder) = self.tags.iter().position(|&t| t == tag) {
            self.tags[holder] = EMPTY;
            self.resident -= 1;
        }
        if self.tags[entry] == EMPTY {
            self.resident += 1;
        }
        self.tags[entry] = tag;
    }

    /// Removes the tag held by `entry`, if any.
    pub fn remove(&mut self, entry: usize) {
        if let Some(t) = self.tags.get_mut(entry) {
            if *t != EMPTY {
                *t = EMPTY;
                self.resident -= 1;
            }
        }
    }

    /// Performs a lookup of `tag` by a consumer with classification
    /// `reader`, accumulating HD-1 ACE bit events.
    ///
    /// Returns whether the lookup hit.
    pub fn lookup(&mut self, tag: u64, reader: Aceness) -> bool {
        let tag = self.mask(tag);
        self.lookups += 1;
        let bits = u64::from(self.tag_bits);
        // Every resident entry's tag bits are observed by the match.
        self.total_bit_events += bits * self.resident as u64;
        if !reader.counts_as_ace() {
            return self.tags.contains(&tag);
        }
        let mut hit = false;
        let mut neighbours = 0u64;
        for &t in &self.tags {
            let distance = (t ^ tag).count_ones();
            hit |= distance == 0;
            // `EMPTY` is at distance 1 from the all-ones 63-bit tag.
            neighbours += u64::from(distance == 1 && t != EMPTY);
        }
        // False-mismatch: all bits of the matching tag are ACE.
        if hit {
            self.ace_bit_events += bits;
        }
        // False-match: one ACE bit per resident tag at hamming distance 1.
        self.ace_bit_events += neighbours;
        hit
    }

    /// Number of lookups observed.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// The HD-1 factor: fraction of observed tag-bit events that were ACE.
    /// Returns 1.0 (fully conservative) when nothing was observed.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tracker_is_conservative() {
        let t = Hd1Tracker::new(16);
        assert_eq!(t.factor(), 1.0);
    }

    #[test]
    fn exact_hit_marks_all_bits_ace() {
        let mut t = Hd1Tracker::new(8);
        t.insert(0, 0xAB);
        assert!(t.lookup(0xAB, Aceness::Ace));
        // 8 ACE bits out of 8 observed.
        assert_eq!(t.factor(), 1.0);
    }

    #[test]
    fn miss_far_away_contributes_no_ace_bits() {
        let mut t = Hd1Tracker::new(8);
        t.insert(0, 0b0000_0000);
        assert!(!t.lookup(0b0000_1111, Aceness::Ace)); // HD = 4
        assert_eq!(t.factor(), 0.0);
    }

    #[test]
    fn hd1_neighbour_contributes_one_bit() {
        let mut t = Hd1Tracker::new(8);
        t.insert(0, 0b0000_0001);
        assert!(!t.lookup(0b0000_0000, Aceness::Ace)); // HD = 1
        assert!((t.factor() - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn dead_lookup_counts_observation_but_no_ace() {
        let mut t = Hd1Tracker::new(8);
        t.insert(0, 0x10);
        t.lookup(0x10, Aceness::UnAce);
        assert_eq!(t.factor(), 0.0);
    }

    #[test]
    fn replacement_and_removal() {
        let mut t = Hd1Tracker::new(8);
        t.insert(0, 0x10);
        t.insert(0, 0x20); // replaces entry 0's tag
        assert!(!t.lookup(0x10, Aceness::Ace));
        assert!(t.lookup(0x20, Aceness::Ace));
        t.remove(0);
        assert!(!t.lookup(0x20, Aceness::Ace));
    }

    #[test]
    fn factor_between_zero_and_one() {
        let mut t = Hd1Tracker::new(12);
        for i in 0..10u64 {
            t.insert(i as usize, i * 17);
        }
        for i in 0..50u64 {
            t.lookup(i * 13, Aceness::Ace);
        }
        let f = t.factor();
        assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn tags_are_masked_to_width() {
        let mut t = Hd1Tracker::new(4);
        t.insert(0, 0xF3); // masked to 0x3
        assert!(t.lookup(0x3, Aceness::Ace));
        // Widths of 63 and above track the low 63 bits: tags that differ
        // only in bit 63 match.
        for width in [63, 64] {
            let mut t = Hd1Tracker::new(width);
            t.insert(0, (1 << 63) | 0x5);
            assert!(t.lookup(0x5, Aceness::Ace), "width {width}");
            // A distance-1 neighbour within the tracked bits still counts.
            assert!(!t.lookup((1 << 62) | 0x5, Aceness::Ace), "width {width}");
            assert_eq!(t.factor(), (63.0 + 1.0) / (2.0 * 63.0), "width {width}");
        }
    }
}
