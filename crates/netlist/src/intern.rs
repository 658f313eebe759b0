//! Global symbol interning for netlist identifiers.
//!
//! The frontend lexes EXLIF and Verilog as zero-copy slices over the input
//! buffer and interns every identifier exactly once into a [`SymbolTable`].
//! A [`Sym`] is a dense `u32` handle; the flattened graph stores only
//! handles on its hot paths, and names materialize back into `&str` at
//! report and trace boundaries via [`SymbolTable::resolve`].
//!
//! The table is a single byte buffer plus a span per symbol and an
//! open-addressed FNV-1a hash index, so cloning it is three `memcpy`s and
//! interning never allocates per string beyond buffer growth. Compound
//! names produced during hierarchy expansion (`fub.inst.net`, `name[bit]`)
//! are interned from their parts without building a temporary `String`
//! ([`SymbolTable::intern_join`], [`SymbolTable::intern_prefix`],
//! [`SymbolTable::intern_bit`]).

use std::fmt;

/// Interned symbol handle. Dense, 0-based, valid only for the table that
/// produced it (or a clone of that table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(u32);

impl Sym {
    /// Creates a symbol from a raw index.
    pub fn from_index(i: usize) -> Self {
        Sym(u32::try_from(i).expect("symbol index exceeds u32 range"))
    }

    /// Raw dense index of this symbol.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym{}", self.0)
    }
}

/// Streaming FNV-1a 64-bit hasher (also used for snapshot digests).
#[derive(Debug, Clone)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Starts a new hash at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a64(Self::OFFSET)
    }

    /// Feeds bytes into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64::new()
    }
}

/// Word-striding FNV variant: hashes the byte stream as little-endian
/// 64-bit blocks (zero-padded tail plus a trailing length fold), so eight
/// bytes cost one multiply instead of eight. A small pending buffer makes
/// the result depend only on the concatenated byte stream, never on how
/// it was split across `update` calls.
///
/// Used where megabytes flow through a hash in large contiguous slices —
/// the snapshot whole-file checksum — and only determinism and dispersion
/// matter, not the published byte-serial FNV vectors. For short inputs
/// (identifier interning) the byte-serial [`Fnv1a64`] is faster: the
/// pending-buffer bookkeeping here costs more than the multiplies it
/// saves. Every single-byte change alters the digest: each block step
/// `h ← (h ⊕ w)·p` is a bijection in both `h` and `w`.
#[derive(Debug, Clone)]
pub struct WideFnv64 {
    state: u64,
    pending: [u8; 8],
    pending_len: u8,
    total_len: u64,
}

impl WideFnv64 {
    /// Starts a new hash at the FNV offset basis.
    pub fn new() -> Self {
        WideFnv64 {
            state: Fnv1a64::OFFSET,
            pending: [0; 8],
            pending_len: 0,
            total_len: 0,
        }
    }

    #[inline]
    fn step(h: u64, w: u64) -> u64 {
        (h ^ w).wrapping_mul(Fnv1a64::PRIME)
    }

    /// Feeds bytes into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        self.total_len += bytes.len() as u64;
        let mut bytes = bytes;
        if self.pending_len > 0 {
            let need = 8 - self.pending_len as usize;
            let take = need.min(bytes.len());
            self.pending[self.pending_len as usize..self.pending_len as usize + take]
                .copy_from_slice(&bytes[..take]);
            self.pending_len += take as u8;
            bytes = &bytes[take..];
            if self.pending_len < 8 {
                // Not enough input to complete the block; `bytes` is empty.
                return;
            }
            self.state = Self::step(self.state, u64::from_le_bytes(self.pending));
            self.pending_len = 0;
        }
        let mut chunks = bytes.chunks_exact(8);
        let mut h = self.state;
        for c in &mut chunks {
            h = Self::step(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        self.state = h;
        let rem = chunks.remainder();
        self.pending[..rem.len()].copy_from_slice(rem);
        self.pending_len = rem.len() as u8;
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        let mut h = self.state;
        if self.pending_len > 0 {
            let mut last = [0u8; 8];
            last[..self.pending_len as usize]
                .copy_from_slice(&self.pending[..self.pending_len as usize]);
            h = Self::step(h, u64::from_le_bytes(last));
        }
        Self::step(h, self.total_len)
    }
}

impl Default for WideFnv64 {
    fn default() -> Self {
        WideFnv64::new()
    }
}

/// One part of a compound name: an already-interned symbol or literal
/// bytes. Private — the public surface is the typed `intern_*`/`lookup_*`
/// methods.
#[derive(Clone, Copy)]
enum Part<'a> {
    Sym(Sym),
    Bytes(&'a [u8]),
}

const EMPTY_SLOT: u32 = u32::MAX;

/// Append-only string interner with open-addressed FNV hashing.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    /// Concatenated bytes of every distinct interned string.
    buf: Vec<u8>,
    /// `(start, len)` into `buf`, indexed by `Sym`.
    spans: Vec<(u32, u32)>,
    /// Cached hash per symbol (used for rehash, fast rejection, and
    /// [`SymbolTable::name_hash`]).
    hashes: Vec<u64>,
    /// Open-addressed slot table holding `Sym` indices; power-of-two size.
    slots: Vec<u32>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Number of distinct interned symbols.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no symbols have been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total interned bytes (the size of the string heap).
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// The string a symbol denotes.
    pub fn resolve(&self, sym: Sym) -> &str {
        let (start, len) = self.spans[sym.index()];
        std::str::from_utf8(&self.buf[start as usize..(start + len) as usize])
            .expect("interned bytes are valid UTF-8")
    }

    /// The [`Fnv1a64`] hash of a symbol's string, stored when it was
    /// interned: digests over names fold this instead of hashing the
    /// bytes again.
    pub fn name_hash(&self, sym: Sym) -> u64 {
        self.hashes[sym.index()]
    }

    fn span_bytes(&self, sym: Sym) -> &[u8] {
        let (start, len) = self.spans[sym.index()];
        &self.buf[start as usize..(start + len) as usize]
    }

    fn part_len(&self, p: Part<'_>) -> usize {
        match p {
            Part::Sym(s) => self.spans[s.index()].1 as usize,
            Part::Bytes(b) => b.len(),
        }
    }

    fn hash_parts(&self, parts: &[Part<'_>]) -> u64 {
        // Byte-serial FNV: identifier parts average ~10 bytes, where the
        // word-striding variant's buffer management costs more than the
        // multiplies it saves. Streaming part-by-part matches hashing the
        // concatenated string as one slice.
        let mut h = Fnv1a64::new();
        for &p in parts {
            match p {
                Part::Sym(s) => h.update(self.span_bytes(s)),
                Part::Bytes(b) => h.update(b),
            }
        }
        h.finish()
    }

    /// Compares the candidate symbol's bytes against the concatenation of
    /// `parts` without materializing it.
    fn eq_parts(&self, sym: Sym, parts: &[Part<'_>]) -> bool {
        let cand = self.span_bytes(sym);
        if cand.len() != parts.iter().map(|&p| self.part_len(p)).sum::<usize>() {
            return false;
        }
        let mut off = 0usize;
        for &p in parts {
            let bytes = match p {
                Part::Sym(s) => self.span_bytes(s),
                Part::Bytes(b) => b,
            };
            if &cand[off..off + bytes.len()] != bytes {
                return false;
            }
            off += bytes.len();
        }
        true
    }

    fn find_parts(&self, hash: u64, parts: &[Part<'_>]) -> Option<Sym> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let slot = self.slots[i];
            if slot == EMPTY_SLOT {
                return None;
            }
            let sym = Sym(slot);
            if self.hashes[slot as usize] == hash && self.eq_parts(sym, parts) {
                return Some(sym);
            }
            i = (i + 1) & mask;
        }
    }

    fn grow_slots(&mut self) {
        let new_len = (self.slots.len() * 2).max(16);
        let mask = new_len - 1;
        let mut slots = vec![EMPTY_SLOT; new_len];
        for (idx, &h) in self.hashes.iter().enumerate() {
            let mut i = (h as usize) & mask;
            while slots[i] != EMPTY_SLOT {
                i = (i + 1) & mask;
            }
            slots[i] = idx as u32;
        }
        self.slots = slots;
    }

    fn insert_parts(&mut self, hash: u64, parts: &[Part<'_>]) -> Sym {
        // Keep load factor under 7/8.
        if (self.spans.len() + 1) * 8 > self.slots.len() * 7 {
            self.grow_slots();
        }
        let start = self.buf.len();
        for &p in parts {
            match p {
                Part::Sym(s) => {
                    let (ps, pl) = self.spans[s.index()];
                    // The source span lies before `start`, so copying from
                    // within the buffer is always in bounds.
                    self.buf.extend_from_within(ps as usize..(ps + pl) as usize);
                }
                Part::Bytes(b) => self.buf.extend_from_slice(b),
            }
        }
        let len = self.buf.len() - start;
        let sym = Sym(u32::try_from(self.spans.len()).expect("symbol count fits u32"));
        assert!(
            u32::try_from(self.buf.len()).is_ok(),
            "symbol heap exceeds u32 range"
        );
        self.spans.push((start as u32, len as u32));
        self.hashes.push(hash);
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        while self.slots[i] != EMPTY_SLOT {
            i = (i + 1) & mask;
        }
        self.slots[i] = sym.0;
        sym
    }

    fn intern_parts(&mut self, parts: &[Part<'_>]) -> Sym {
        let hash = self.hash_parts(parts);
        match self.find_parts(hash, parts) {
            Some(sym) => sym,
            None => self.insert_parts(hash, parts),
        }
    }

    /// Interns a string, returning its (possibly pre-existing) symbol.
    pub fn intern(&mut self, s: &str) -> Sym {
        self.intern_parts(&[Part::Bytes(s.as_bytes())])
    }

    /// Looks up a string without interning.
    pub fn lookup(&self, s: &str) -> Option<Sym> {
        let parts = [Part::Bytes(s.as_bytes())];
        self.find_parts(self.hash_parts(&parts), &parts)
    }

    /// Interns the concatenation `prefix + name` (hierarchical name
    /// construction during flattening).
    pub fn intern_join(&mut self, prefix: Sym, name: Sym) -> Sym {
        self.intern_parts(&[Part::Sym(prefix), Part::Sym(name)])
    }

    /// Looks up the concatenation `prefix + name` without interning —
    /// reference resolution probes names that may not exist, and a miss
    /// must not grow the table.
    pub fn lookup_join(&self, prefix: Sym, name: Sym) -> Option<Sym> {
        let parts = [Part::Sym(prefix), Part::Sym(name)];
        self.find_parts(self.hash_parts(&parts), &parts)
    }

    /// Interns a scope prefix: `parent_prefix + inst + "."`, or
    /// `inst + "."` at a hierarchy root.
    pub fn intern_prefix(&mut self, parent: Option<Sym>, inst: Sym) -> Sym {
        match parent {
            Some(p) => self.intern_parts(&[Part::Sym(p), Part::Sym(inst), Part::Bytes(b".")]),
            None => self.intern_parts(&[Part::Sym(inst), Part::Bytes(b".")]),
        }
    }

    /// Interns a structure-cell name `base[bit]`.
    pub fn intern_bit(&mut self, base: Sym, bit: u32) -> Sym {
        let mut digits = [0u8; 10];
        let mut i = digits.len();
        let mut v = bit;
        loop {
            i -= 1;
            digits[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.intern_parts(&[
            Part::Sym(base),
            Part::Bytes(b"["),
            Part::Bytes(&digits[i..]),
            Part::Bytes(b"]"),
        ])
    }

    /// Raw storage, for snapshot serialization: the byte heap and the
    /// per-symbol `(start, len)` spans.
    pub fn raw(&self) -> (&[u8], &[(u32, u32)]) {
        (&self.buf, &self.spans)
    }

    /// Rebuilds a table from raw storage (snapshot load). Returns `None`
    /// if any span is out of bounds, not valid UTF-8, or a duplicate of an
    /// earlier span — the interning invariant every consumer relies on.
    pub fn from_raw(buf: Vec<u8>, spans: Vec<(u32, u32)>) -> Option<Self> {
        // Size the hash index once for the final symbol count (under the
        // 7/8 load factor) so the insert loop below never rehashes — at
        // production scale the incremental doubling re-inserted every
        // symbol ~log n times during snapshot load.
        let mut slot_len = 16usize;
        while spans.len() * 8 > slot_len * 7 {
            slot_len *= 2;
        }
        let mut table = SymbolTable {
            buf,
            spans: Vec::with_capacity(spans.len()),
            hashes: Vec::with_capacity(spans.len()),
            slots: vec![EMPTY_SLOT; slot_len],
        };
        for (start, len) in spans {
            let end = (start as usize).checked_add(len as usize)?;
            let bytes = table.buf.get(start as usize..end)?;
            std::str::from_utf8(bytes).ok()?;
            let mut h = Fnv1a64::new();
            h.update(bytes);
            let hash = h.finish();
            // Temporarily register the span so find/insert helpers see it.
            let parts = [Part::Bytes(&table.buf[start as usize..end])];
            // Safety dance around the borrow: compute the duplicate check
            // against already-registered spans only.
            let dup = {
                let probe: &SymbolTable = &table;
                probe.find_parts(hash, &parts).is_some()
            };
            if dup {
                return None;
            }
            if (table.spans.len() + 1) * 8 > table.slots.len() * 7 {
                table.grow_slots();
            }
            let sym = table.spans.len() as u32;
            table.spans.push((start, len));
            table.hashes.push(hash);
            let mask = table.slots.len() - 1;
            let mut i = (hash as usize) & mask;
            while table.slots[i] != EMPTY_SLOT {
                i = (i + 1) & mask;
            }
            table.slots[i] = sym;
        }
        Some(table)
    }
}

impl PartialEq for SymbolTable {
    /// Two tables are equal when they intern the same strings in the same
    /// order (the hash index layout is irrelevant).
    fn eq(&self, other: &Self) -> bool {
        self.spans.len() == other.spans.len()
            && (0..self.spans.len())
                .all(|i| self.span_bytes(Sym(i as u32)) == other.span_bytes(Sym(i as u32)))
    }
}

impl Eq for SymbolTable {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("alpha");
        let b = t.intern("beta");
        assert_ne!(a, b);
        assert_eq!(t.intern("alpha"), a);
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(a), "alpha");
        assert_eq!(t.resolve(b), "beta");
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut t = SymbolTable::new();
        t.intern("x");
        assert_eq!(t.lookup("y"), None);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup("x"), Some(Sym(0)));
    }

    #[test]
    fn join_and_prefix_compose_without_strings() {
        let mut t = SymbolTable::new();
        let fub = t.intern("f0");
        let inst = t.intern("u1");
        let net = t.intern("q");
        let root = t.intern_prefix(None, fub);
        assert_eq!(t.resolve(root), "f0.");
        let child = t.intern_prefix(Some(root), inst);
        assert_eq!(t.resolve(child), "f0.u1.");
        let abs = t.intern_join(child, net);
        assert_eq!(t.resolve(abs), "f0.u1.q");
        // Lookup of the same composition hits the same symbol and does not
        // grow the table.
        let n = t.len();
        assert_eq!(t.lookup_join(child, net), Some(abs));
        assert_eq!(t.lookup("f0.u1.q"), Some(abs));
        assert_eq!(t.len(), n);
    }

    #[test]
    fn name_hash_is_the_fnv_of_the_string() {
        let mut t = SymbolTable::new();
        let fub = t.intern("f0");
        let root = t.intern_prefix(None, fub);
        let cell = t.intern_bit(root, 12);
        for sym in [fub, root, cell] {
            let mut h = Fnv1a64::new();
            h.update(t.resolve(sym).as_bytes());
            assert_eq!(t.name_hash(sym), h.finish());
        }
        // A table rebuilt from raw storage stores the same hashes.
        let (buf, spans) = t.raw();
        let t2 = SymbolTable::from_raw(buf.to_vec(), spans.to_vec()).unwrap();
        assert_eq!(t2.name_hash(cell), t.name_hash(cell));
    }

    #[test]
    fn bit_names_match_formatting() {
        let mut t = SymbolTable::new();
        let base = t.intern("rob");
        for bit in [0u32, 7, 10, 123, 4096] {
            let sym = t.intern_bit(base, bit);
            assert_eq!(t.resolve(sym), format!("rob[{bit}]"));
        }
    }

    #[test]
    fn survives_growth_and_collisions() {
        let mut t = SymbolTable::new();
        let syms: Vec<Sym> = (0..2000).map(|i| t.intern(&format!("net_{i}"))).collect();
        for (i, &s) in syms.iter().enumerate() {
            assert_eq!(t.resolve(s), format!("net_{i}"));
            assert_eq!(t.lookup(&format!("net_{i}")), Some(s));
        }
        assert_eq!(t.len(), 2000);
    }

    #[test]
    fn raw_roundtrip_preserves_table() {
        let mut t = SymbolTable::new();
        for s in ["a", "bb", "a.b", "a.b[3]"] {
            t.intern(s);
        }
        let (buf, spans) = t.raw();
        let t2 = SymbolTable::from_raw(buf.to_vec(), spans.to_vec()).unwrap();
        assert_eq!(t, t2);
        assert_eq!(t2.lookup("a.b[3]"), t.lookup("a.b[3]"));
    }

    #[test]
    fn from_raw_rejects_bad_spans() {
        // Out of bounds.
        assert!(SymbolTable::from_raw(vec![b'a'], vec![(0, 2)]).is_none());
        // Invalid UTF-8.
        assert!(SymbolTable::from_raw(vec![0xFF], vec![(0, 1)]).is_none());
        // Duplicate string.
        assert!(SymbolTable::from_raw(vec![b'a', b'a'], vec![(0, 1), (1, 1)]).is_none());
        // Overflowing span arithmetic.
        assert!(SymbolTable::from_raw(vec![b'a'], vec![(u32::MAX, 2)]).is_none());
    }

    #[test]
    fn fnv_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        let mut h = Fnv1a64::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h2 = Fnv1a64::new();
        h2.update(b"foobar");
        assert_eq!(h2.finish(), 0x85944171f73967e8);
        // The hash depends only on the concatenated stream, however it is
        // split across `update` calls.
        let mut split = Fnv1a64::new();
        split.update(b"hello ");
        split.update(b"world");
        let mut whole = Fnv1a64::new();
        whole.update(b"hello world");
        assert_eq!(split.finish(), whole.finish());
    }

    #[test]
    fn wide_fnv_is_split_invariant() {
        // The hash must depend only on the concatenated stream, however
        // the bytes arrive — that is what lets compound names hash
        // part-by-part.
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut one = WideFnv64::new();
        one.update(data);
        for split in [0usize, 1, 3, 7, 8, 9, 16, data.len()] {
            let mut h = WideFnv64::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), one.finish(), "split at {split}");
        }
        // Zero-padding must not collide a string with its NUL-extension.
        let mut a = WideFnv64::new();
        a.update(b"abc");
        let mut b = WideFnv64::new();
        b.update(b"abc\0");
        assert_ne!(a.finish(), b.finish());
        // Single-byte perturbations perturb the hash.
        let mut c = WideFnv64::new();
        c.update(b"abd");
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn clone_is_independent() {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let mut t2 = t.clone();
        let b2 = t2.intern("b");
        assert_eq!(t2.resolve(a), "a");
        assert_eq!(t2.resolve(b2), "b");
        assert_eq!(t.len(), 1);
    }
}
