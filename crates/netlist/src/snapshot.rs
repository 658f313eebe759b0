//! `seqavf-graph/2` — a versioned binary snapshot of a flattened graph.
//!
//! Parsing, flattening, synthesis and SCC detection are pure functions of
//! the source text; the snapshot caches their combined result so repeated
//! analyses of the same design skip the frontend entirely. The format is:
//!
//! ```text
//! magic    b"seqavf-graph/2\n"
//! digest   u64 LE   — semantic content digest (Netlist::content_digest)
//! sections tag u8, len u64 LE, payload — in fixed order:
//!            8 HEADER  varint node/edge/FUB/structure/symbol/loop counts
//!            1 DESIGN  design name bytes
//!            2 SYMS    symbol heap (one contiguous slice) + varint spans
//!            3 NODES   per-node name syms, FUB ids, kinds (varint/delta)
//!            4 FUBS    FUB name syms (varint/delta)
//!            5 STRUCTS structure decls + cell node ids (varint/delta)
//!            6 EDGES   fan-in CSR (delta-varint offsets, local-delta ids)
//!            7 LOOPS   SCC component node lists (varint/delta)
//! trailer  u64 LE   — WideFnv64 over every preceding byte
//! ```
//!
//! Version 2 replaces v1's fixed-width arrays with LEB128 varints and
//! delta coding chosen for the data's shape: CSR offsets are monotone (the
//! per-node fan-in degree is a tiny varint), fan-in ids are mostly local
//! (zigzag of `from - to` is one byte for neighbours), node name symbols
//! are interned in near-ascending order, and FUB labels arrive in long
//! runs. Together these make the snapshot *smaller* than the EXLIF source
//! it caches (v1 was 1.7× larger). FUB indices are serialized at full
//! `u32` width — v1's `u16` fields silently truncated designs with more
//! than 65,535 FUBs, which production-scale multi-core designs exceed.
//!
//! The leading HEADER section carries every section's element count, so
//! the loader allocates each vector — and the symbol table's hash index —
//! exactly once before touching any payload; the symbol heap is restored
//! with a single bulk copy.
//!
//! Loading is defensive end to end: every length and index is bounds
//! checked, header counts are sanity-bounded by the file size before any
//! allocation, the trailer checksum is verified before any section is
//! parsed, and the content digest is recomputed from the rebuilt graph
//! and compared against the header. Any mismatch yields a
//! [`SnapshotError`] — never a panic — so callers degrade to a recompute
//! exactly like a sweep-cache miss. Old `seqavf-graph/1` files are
//! rejected up front with [`SnapshotError::UnsupportedVersion`].
//!
//! The envelope is the container of every on-disk artifact, not just the
//! graph's: `seqavf-core`'s fixpoint and compiled-sweep artifacts are
//! written with [`put_section`], [`put_varint`] and [`seal`], read with
//! [`open_sealed`] and [`Cursor`], and fail with [`SnapshotError`]. Every
//! cache file goes to disk through [`write_atomic`].

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::graph::{FubId, GateOp, Netlist, NodeId, NodeKind, SeqKind, StructId};
use crate::intern::{Sym, SymbolTable, WideFnv64};
use crate::scc::LoopAnalysis;

/// Format magic, bumped whenever the layout changes.
pub const MAGIC: &[u8] = b"seqavf-graph/2\n";

/// Shared prefix of every snapshot version's magic; anything carrying it
/// but not [`MAGIC`] is a snapshot from another format version.
const MAGIC_FAMILY: &[u8] = b"seqavf-graph/";

const TAG_DESIGN: u8 = 1;
const TAG_SYMS: u8 = 2;
const TAG_NODES: u8 = 3;
const TAG_FUBS: u8 = 4;
const TAG_STRUCTS: u8 = 5;
const TAG_EDGES: u8 = 6;
const TAG_LOOPS: u8 = 7;
const TAG_HEADER: u8 = 8;

/// Why an artifact could not be loaded. All variants are recoverable —
/// the caller recomputes from source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with the artifact's magic family (wrong
    /// file entirely).
    BadMagic,
    /// The file is an artifact of the right family, but of a different
    /// format version (e.g. a stale `seqavf-graph/1` cache entry). Rebuild
    /// and re-save.
    UnsupportedVersion,
    /// The whole-file checksum trailer does not match (truncation or
    /// corruption).
    ChecksumMismatch,
    /// A section or field extends past the end of the file.
    Truncated,
    /// A section appeared with an unexpected tag.
    BadSection(u8),
    /// The symbol table failed validation (bad span, UTF-8, or duplicate).
    BadSymbolTable,
    /// A node/FUB/structure/edge index is out of range or inconsistent.
    BadIndex,
    /// The rebuilt graph's content digest differs from the header.
    DigestMismatch,
    /// The artifact was computed under a different result-affecting
    /// configuration than the one requested.
    ResultKeyMismatch,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not an artifact of the expected kind"),
            SnapshotError::UnsupportedVersion => write!(f, "unsupported artifact version"),
            SnapshotError::ChecksumMismatch => write!(f, "artifact checksum mismatch"),
            SnapshotError::Truncated => write!(f, "artifact truncated"),
            SnapshotError::BadSection(t) => write!(f, "unexpected artifact section tag {t}"),
            SnapshotError::BadSymbolTable => write!(f, "artifact string or symbol table invalid"),
            SnapshotError::BadIndex => write!(f, "artifact index out of range"),
            SnapshotError::DigestMismatch => write!(f, "snapshot content digest mismatch"),
            SnapshotError::ResultKeyMismatch => write!(f, "artifact result key mismatch"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Appends a fixed-width little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// LEB128: 7 value bits per byte, high bit = continuation.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Zigzag-maps a signed delta onto the varint-friendly unsigned range.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `zigzag(cur - prev)` — the workhorse of the delta-coded
/// sections (symbol ids, FUB runs, cell and loop member lists).
pub fn put_delta(out: &mut Vec<u8>, prev: usize, cur: usize) {
    put_varint(out, zigzag(cur as i64 - prev as i64));
}

/// Appends a length-prefixed string (read back by [`Cursor::string`]).
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a tagged, length-prefixed section.
pub fn put_section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    put_u64(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

/// Appends the whole-file [`WideFnv64`] checksum trailer. The final step
/// of writing any artifact in the snapshot family.
pub fn seal(out: &mut Vec<u8>) {
    let mut h = WideFnv64::new();
    h.update(out);
    put_u64(out, h.finish());
}

/// Validates the envelope of a sealed artifact — exact magic, version
/// family, and the whole-file checksum trailer — and returns the body
/// between magic and trailer. Shared by every artifact family so
/// corruption degrades to the same recoverable errors everywhere.
pub fn open_sealed<'a>(
    bytes: &'a [u8],
    magic: &[u8],
    family: &[u8],
) -> Result<&'a [u8], SnapshotError> {
    if bytes.len() < magic.len() + 8 {
        return Err(if bytes.starts_with(magic) || magic.starts_with(bytes) {
            SnapshotError::Truncated
        } else if bytes.starts_with(family) {
            SnapshotError::UnsupportedVersion
        } else {
            SnapshotError::BadMagic
        });
    }
    if &bytes[..magic.len()] != magic {
        return Err(if bytes.starts_with(family) {
            SnapshotError::UnsupportedVersion
        } else {
            SnapshotError::BadMagic
        });
    }
    let body = &bytes[..bytes.len() - 8];
    let mut h = WideFnv64::new();
    h.update(body);
    let trailer_bytes: [u8; 8] = match bytes[bytes.len() - 8..].try_into() {
        Ok(b) => b,
        Err(_) => return Err(SnapshotError::Truncated),
    };
    if h.finish() != u64::from_le_bytes(trailer_bytes) {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok(&body[magic.len()..])
}

/// Writes a cache file atomically: the bytes go to a temp sibling unique
/// to this process and call, which is then renamed over `path`, so
/// concurrent writers never interleave and readers see either the old
/// file or the new one. Creates the parent directory first and removes
/// the temp file on error. There is no fsync: a sealed artifact torn by
/// a crash fails its checksum and reads as a miss.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    let written = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Every section's element count, written first so the loader can size
/// every allocation before decoding any payload.
struct Header {
    nodes: usize,
    edges: usize,
    fubs: usize,
    structs: usize,
    syms: usize,
    sym_bytes: usize,
    loop_components: usize,
}

/// Serializes a graph and its loop analysis into snapshot bytes.
pub fn save(nl: &Netlist, loops: &LoopAnalysis) -> Vec<u8> {
    let (symbols, syms, kinds, fub_of, fubs, structures, fanin_off, fanin_dat) = nl.raw_parts();
    let (buf, spans) = symbols.raw();
    let mut out = Vec::with_capacity(buf.len() + fanin_dat.len() * 2 + kinds.len() * 4 + 256);
    out.extend_from_slice(MAGIC);
    put_u64(&mut out, nl.content_digest());

    let mut p = Vec::new();
    for count in [
        kinds.len(),
        fanin_dat.len(),
        fubs.len(),
        structures.len(),
        spans.len(),
        buf.len(),
        loops.components().len(),
    ] {
        put_varint(&mut p, count as u64);
    }
    put_section(&mut out, TAG_HEADER, &p);

    put_section(&mut out, TAG_DESIGN, nl.design_name().as_bytes());

    // SYMS: the heap in one contiguous slice, then per-symbol spans as
    // (start delta from the end of the previous span, length). Freshly
    // interned tables are densely packed, so the start delta is almost
    // always zero — one byte.
    let mut p = Vec::with_capacity(buf.len() + spans.len() * 2);
    p.extend_from_slice(buf);
    let mut expected_start = 0u64;
    for &(start, len) in spans {
        put_varint(&mut p, zigzag(i64::from(start) - expected_start as i64));
        put_varint(&mut p, u64::from(len));
        expected_start = u64::from(start) + u64::from(len);
    }
    put_section(&mut out, TAG_SYMS, &p);

    // NODES: name symbols delta-coded (interning order tracks node order),
    // FUB ids delta-coded (long runs of the same FUB), then kinds with
    // varint structure/bit fields.
    let mut p = Vec::with_capacity(kinds.len() * 3);
    let mut prev = 0usize;
    for s in syms {
        put_delta(&mut p, prev, s.index());
        prev = s.index();
    }
    let mut prev = 0usize;
    for f in fub_of {
        put_delta(&mut p, prev, f.index());
        prev = f.index();
    }
    for k in kinds {
        encode_kind(&mut p, *k);
    }
    put_section(&mut out, TAG_NODES, &p);

    let mut p = Vec::new();
    let mut prev = 0usize;
    for f in fubs {
        put_delta(&mut p, prev, f.index());
        prev = f.index();
    }
    put_section(&mut out, TAG_FUBS, &p);

    // STRUCTS: cell lists are consecutive node-id runs, so the cell delta
    // is one byte per cell. The cell count is the width — not repeated.
    let mut p = Vec::new();
    for s in structures {
        put_varint(&mut p, s.sym().index() as u64);
        put_varint(&mut p, u64::from(s.width()));
        put_varint(&mut p, s.fub().index() as u64);
        let mut prev = 0usize;
        for c in s.cells() {
            put_delta(&mut p, prev, c.index());
            prev = c.index();
        }
    }
    put_section(&mut out, TAG_STRUCTS, &p);

    // EDGES: the monotone CSR offsets become per-node degrees (tiny
    // varints); fan-in ids become zigzag deltas against the consuming
    // node — mostly-local wiring compresses to a byte per edge.
    let mut p = Vec::with_capacity(fanin_dat.len() + fanin_off.len());
    for w in fanin_off.windows(2) {
        put_varint(&mut p, u64::from(w[1] - w[0]));
    }
    for (to, w) in fanin_off.windows(2).enumerate() {
        for from in &fanin_dat[w[0] as usize..w[1] as usize] {
            put_varint(&mut p, zigzag(from.index() as i64 - to as i64));
        }
    }
    put_section(&mut out, TAG_EDGES, &p);

    let mut p = Vec::new();
    for c in loops.components() {
        put_varint(&mut p, c.len() as u64);
        let mut prev = 0usize;
        for m in c {
            put_delta(&mut p, prev, m.index());
            prev = m.index();
        }
    }
    put_section(&mut out, TAG_LOOPS, &p);

    seal(&mut out);
    out
}

fn encode_kind(out: &mut Vec<u8>, kind: NodeKind) {
    match kind {
        NodeKind::Input => out.push(0),
        NodeKind::Output => out.push(1),
        NodeKind::Seq { kind, has_enable } => {
            out.push(2);
            out.push(match kind {
                SeqKind::Flop => 0,
                SeqKind::Latch => 1,
            });
            out.push(u8::from(has_enable));
        }
        NodeKind::Comb(op) => {
            out.push(3);
            out.push(op.code());
        }
        NodeKind::StructCell { structure, bit } => {
            out.push(4);
            put_varint(out, structure.index() as u64);
            put_varint(out, u64::from(bit));
        }
    }
}

/// Bounds-checked reader over one section (or the whole body). Every
/// accessor returns a recoverable [`SnapshotError`] instead of panicking,
/// so artifact loaders can stay defensive end to end.
pub struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wraps a byte slice.
    pub fn new(b: &'a [u8]) -> Self {
        Cursor { b, pos: 0 }
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        let s = self.b.get(self.pos..end).ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a fixed-width little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a LEB128 varint, rejecting non-canonical overlong encodings.
    pub fn varint(&mut self) -> Result<u64, SnapshotError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 63 && b > 1 {
                // A canonical u64 never needs more than 9 full bytes and a
                // one-bit tail; anything longer is corruption.
                return Err(SnapshotError::BadIndex);
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a varint element count, rejecting any count the remaining
    /// bytes could not back (every element takes at least one byte), so a
    /// corrupt count never drives a huge allocation.
    pub fn count(&mut self) -> Result<usize, SnapshotError> {
        let n = usize::try_from(self.varint()?).map_err(|_| SnapshotError::BadIndex)?;
        if n > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, SnapshotError> {
        let len = self.count()?;
        std::str::from_utf8(self.take(len)?)
            .map(str::to_owned)
            .map_err(|_| SnapshotError::BadSymbolTable)
    }

    /// A zigzag varint delta applied to `prev`, bounds-checked into
    /// `0..limit`.
    pub fn delta_index(&mut self, prev: usize, limit: usize) -> Result<usize, SnapshotError> {
        let d = unzigzag(self.varint()?);
        let v = (prev as i64)
            .checked_add(d)
            .ok_or(SnapshotError::BadIndex)?;
        if v < 0 || v as usize >= limit {
            return Err(SnapshotError::BadIndex);
        }
        Ok(v as usize)
    }

    /// Enters the next tagged, length-prefixed section.
    pub fn section(&mut self, tag: u8) -> Result<Cursor<'a>, SnapshotError> {
        let t = self.u8()?;
        if t != tag {
            return Err(SnapshotError::BadSection(t));
        }
        let len = self.u64()?;
        let len = usize::try_from(len).map_err(|_| SnapshotError::Truncated)?;
        Ok(Cursor::new(self.take(len)?))
    }

    /// Succeeds only when every byte has been consumed: bytes left after
    /// a section's last field are corruption.
    pub fn end(&self) -> Result<(), SnapshotError> {
        if self.pos == self.b.len() {
            Ok(())
        } else {
            Err(SnapshotError::BadIndex)
        }
    }
}

fn decode_kind(c: &mut Cursor<'_>, struct_count: usize) -> Result<NodeKind, SnapshotError> {
    Ok(match c.u8()? {
        0 => NodeKind::Input,
        1 => NodeKind::Output,
        2 => {
            let kind = match c.u8()? {
                0 => SeqKind::Flop,
                1 => SeqKind::Latch,
                _ => return Err(SnapshotError::BadIndex),
            };
            let has_enable = match c.u8()? {
                0 => false,
                1 => true,
                _ => return Err(SnapshotError::BadIndex),
            };
            NodeKind::Seq { kind, has_enable }
        }
        3 => NodeKind::Comb(GateOp::from_code(c.u8()?).ok_or(SnapshotError::BadIndex)?),
        4 => {
            let structure = usize::try_from(c.varint()?).map_err(|_| SnapshotError::BadIndex)?;
            let bit = u32::try_from(c.varint()?).map_err(|_| SnapshotError::BadIndex)?;
            if structure >= struct_count {
                return Err(SnapshotError::BadIndex);
            }
            NodeKind::StructCell {
                structure: StructId::from_index(structure),
                bit,
            }
        }
        _ => return Err(SnapshotError::BadIndex),
    })
}

impl Header {
    /// Decodes the HEADER section and sanity-bounds every count against
    /// the file size — each element costs at least one payload byte, so a
    /// count exceeding the byte budget is corruption, caught *before* any
    /// `with_capacity` allocation could amplify it.
    fn decode(s: &mut Cursor<'_>, budget: usize) -> Result<Header, SnapshotError> {
        let mut counts = [0usize; 7];
        for c in &mut counts {
            let v = usize::try_from(s.varint()?).map_err(|_| SnapshotError::Truncated)?;
            if v > budget {
                return Err(SnapshotError::Truncated);
            }
            *c = v;
        }
        s.end()?;
        let [nodes, edges, fubs, structs, syms, sym_bytes, loop_components] = counts;
        Ok(Header {
            nodes,
            edges,
            fubs,
            structs,
            syms,
            sym_bytes,
            loop_components,
        })
    }
}

/// Deserializes snapshot bytes back into a graph and its loop analysis.
///
/// # Errors
///
/// Returns a [`SnapshotError`] for any malformed input — wrong magic or
/// version, failed checksum, truncation, invalid indices, or a digest that
/// does not match the rebuilt graph. Corruption never panics.
pub fn load(bytes: &[u8]) -> Result<(Netlist, LoopAnalysis), SnapshotError> {
    // Verify the whole-file checksum before trusting any section length.
    let mut c = Cursor::new(open_sealed(bytes, MAGIC, MAGIC_FAMILY)?);
    let header_digest = c.u64()?;

    let mut s = c.section(TAG_HEADER)?;
    let hdr = Header::decode(&mut s, bytes.len())?;

    let mut s = c.section(TAG_DESIGN)?;
    let design = std::str::from_utf8(s.take(s.b.len())?)
        .map_err(|_| SnapshotError::BadSymbolTable)?
        .to_owned();

    // SYMS: the heap restores with one bulk copy; the span vector and the
    // table's hash index are sized once from the header.
    let mut s = c.section(TAG_SYMS)?;
    let buf = s.take(hdr.sym_bytes)?.to_vec();
    let mut spans = Vec::with_capacity(hdr.syms);
    let mut expected_start = 0i64;
    for _ in 0..hdr.syms {
        let start = expected_start
            .checked_add(unzigzag(s.varint()?))
            .ok_or(SnapshotError::BadIndex)?;
        let len = s.varint()?;
        let start = u32::try_from(start).map_err(|_| SnapshotError::BadSymbolTable)?;
        let len = u32::try_from(len).map_err(|_| SnapshotError::BadSymbolTable)?;
        spans.push((start, len));
        expected_start = i64::from(start) + i64::from(len);
    }
    s.end()?;
    let symbols = SymbolTable::from_raw(buf, spans).ok_or(SnapshotError::BadSymbolTable)?;

    let mut s = c.section(TAG_NODES)?;
    let mut node_syms = Vec::with_capacity(hdr.nodes);
    let mut sym_seen = vec![false; symbols.len()];
    let mut prev = 0usize;
    for _ in 0..hdr.nodes {
        let i = s.delta_index(prev, symbols.len())?;
        if sym_seen[i] {
            // Two nodes sharing a name.
            return Err(SnapshotError::BadIndex);
        }
        sym_seen[i] = true;
        node_syms.push(Sym::from_index(i));
        prev = i;
    }
    let mut fub_of = Vec::with_capacity(hdr.nodes);
    let mut prev = 0usize;
    for _ in 0..hdr.nodes {
        let i = s.delta_index(prev, hdr.fubs)?;
        fub_of.push(FubId::from_index(i));
        prev = i;
    }
    let mut kinds = Vec::with_capacity(hdr.nodes);
    for _ in 0..hdr.nodes {
        kinds.push(decode_kind(&mut s, hdr.structs)?);
    }
    s.end()?;

    let mut s = c.section(TAG_FUBS)?;
    let mut fubs = Vec::with_capacity(hdr.fubs);
    let mut prev = 0usize;
    for _ in 0..hdr.fubs {
        let i = s.delta_index(prev, symbols.len())?;
        fubs.push(Sym::from_index(i));
        prev = i;
    }
    s.end()?;

    let mut s = c.section(TAG_STRUCTS)?;
    let mut structures = Vec::with_capacity(hdr.structs);
    for _ in 0..hdr.structs {
        let sym_i = usize::try_from(s.varint()?).map_err(|_| SnapshotError::BadIndex)?;
        let width = u32::try_from(s.varint()?).map_err(|_| SnapshotError::BadIndex)?;
        let fub_i = usize::try_from(s.varint()?).map_err(|_| SnapshotError::BadIndex)?;
        if sym_i >= symbols.len() || fub_i >= hdr.fubs {
            return Err(SnapshotError::BadIndex);
        }
        if width as usize > hdr.nodes {
            return Err(SnapshotError::BadIndex);
        }
        let mut cells = Vec::with_capacity(width as usize);
        let mut prev = 0usize;
        for _ in 0..width {
            let i = s.delta_index(prev, hdr.nodes)?;
            cells.push(NodeId::from_index(i));
            prev = i;
        }
        structures.push((
            Sym::from_index(sym_i),
            width,
            FubId::from_index(fub_i),
            cells,
        ));
    }
    s.end()?;

    let mut s = c.section(TAG_EDGES)?;
    let mut fanin_off = Vec::with_capacity(hdr.nodes + 1);
    fanin_off.push(0u32);
    let mut total = 0u64;
    for _ in 0..hdr.nodes {
        total += s.varint()?;
        if total > hdr.edges as u64 {
            return Err(SnapshotError::BadIndex);
        }
        fanin_off.push(total as u32);
    }
    if total != hdr.edges as u64 {
        return Err(SnapshotError::BadIndex);
    }
    let mut fanin_dat = Vec::with_capacity(hdr.edges);
    for (to, w) in fanin_off.windows(2).enumerate() {
        for _ in w[0]..w[1] {
            let i = s.delta_index(to, hdr.nodes)?;
            fanin_dat.push(NodeId::from_index(i));
        }
    }
    s.end()?;

    let mut s = c.section(TAG_LOOPS)?;
    let mut components = Vec::with_capacity(hdr.loop_components);
    for _ in 0..hdr.loop_components {
        let len = usize::try_from(s.varint()?).map_err(|_| SnapshotError::BadIndex)?;
        if len > hdr.nodes {
            return Err(SnapshotError::BadIndex);
        }
        let mut comp = Vec::with_capacity(len);
        let mut prev = 0usize;
        for _ in 0..len {
            let i = s.delta_index(prev, hdr.nodes)?;
            comp.push(NodeId::from_index(i));
            prev = i;
        }
        components.push(comp);
    }
    s.end()?;
    c.end()?;

    let nl = Netlist::from_raw_parts(
        design, symbols, node_syms, kinds, fub_of, fubs, structures, fanin_off, fanin_dat,
    );
    if nl.content_digest() != header_digest {
        return Err(SnapshotError::DigestMismatch);
    }
    let loops = LoopAnalysis::from_parts(&nl, components).ok_or(SnapshotError::BadIndex)?;
    Ok((nl, loops))
}

impl Netlist {
    /// [`save`] as a method.
    pub fn to_snapshot(&self, loops: &LoopAnalysis) -> Vec<u8> {
        save(self, loops)
    }

    /// [`load`] as an associated function.
    pub fn from_snapshot(bytes: &[u8]) -> Result<(Netlist, LoopAnalysis), SnapshotError> {
        load(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flatten::parse_netlist;
    use crate::scc::find_loops;

    const DESIGN: &str = r"
.design snap
.model stage
  .minput d
  .moutput q
  .flop q d
.endmodel
.fub f0
  .input din
  .struct st 3
  .gate and g1 din st[0]
  .flop q1 g1
  .gate not fb q1
  .flop q2 fb
  .gate buf loopg q2
  .sw st[1] q1
  .subckt stage u0 d=q1
  .output dout u0.q
.endfub
.fub f1
  .gate xor g2 f0.q1 f0.din
  .flop q3 g2 g2
  .output o g2
.endfub
.end
";

    fn build() -> (Netlist, LoopAnalysis) {
        let nl = parse_netlist(DESIGN).unwrap();
        let loops = find_loops(&nl);
        (nl, loops)
    }

    #[test]
    fn roundtrip_is_equal() {
        let (nl, loops) = build();
        let bytes = save(&nl, &loops);
        let (nl2, loops2) = load(&bytes).unwrap();
        assert_eq!(nl, nl2);
        assert_eq!(nl.content_digest(), nl2.content_digest());
        assert_eq!(nl.design_name(), nl2.design_name());
        assert_eq!(nl.edge_count(), nl2.edge_count());
        assert_eq!(nl.seq_count(), nl2.seq_count());
        for id in nl.nodes() {
            assert_eq!(nl.name(id), nl2.name(id));
            assert_eq!(nl.kind(id), nl2.kind(id));
            assert_eq!(nl.fanin(id), nl2.fanin(id));
            assert_eq!(nl.fanout(id), nl2.fanout(id));
            assert_eq!(loops.is_loop_node(id), loops2.is_loop_node(id));
        }
        assert_eq!(loops.components().len(), loops2.components().len());
        assert_eq!(loops.loop_seq_count(), loops2.loop_seq_count());
        // Lookups work on the rebuilt graph.
        for id in nl.nodes() {
            assert_eq!(nl2.lookup(nl.name(id)), Some(id));
        }
    }

    #[test]
    fn save_is_deterministic() {
        let (nl, loops) = build();
        assert_eq!(save(&nl, &loops), save(&nl, &loops));
    }

    #[test]
    fn varint_roundtrip() {
        let vals = [
            0u64,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u64::from(u32::MAX),
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &vals {
            put_varint(&mut buf, v);
        }
        let mut c = Cursor::new(&buf);
        for &v in &vals {
            assert_eq!(c.varint().unwrap(), v);
        }
        assert_eq!(c.end(), Ok(()));
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn overlong_varint_rejected() {
        // 11 continuation bytes cannot be a canonical u64.
        let buf = [0xFFu8; 11];
        let mut c = Cursor::new(&buf);
        assert_eq!(c.varint(), Err(SnapshotError::BadIndex));
    }

    #[test]
    fn wrong_magic_rejected() {
        let (nl, loops) = build();
        let mut bytes = save(&nl, &loops);
        bytes[0] = b'X';
        assert_eq!(load(&bytes), Err(SnapshotError::BadMagic));
    }

    #[test]
    fn other_versions_rejected() {
        let (nl, loops) = build();
        let v = MAGIC.len() - 2;
        // Both the retired v1 and any future version must be refused up
        // front, before the checksum has a chance to reject them as mere
        // corruption.
        for digit in [b'1', b'3', b'9'] {
            let mut bytes = save(&nl, &loops);
            bytes[v] = digit;
            assert_eq!(load(&bytes), Err(SnapshotError::UnsupportedVersion));
        }
    }

    #[test]
    fn truncation_never_panics() {
        let (nl, loops) = build();
        let bytes = save(&nl, &loops);
        for len in 0..bytes.len() {
            assert!(load(&bytes[..len]).is_err(), "truncated to {len} bytes");
        }
    }

    #[test]
    fn bit_flips_never_panic() {
        let (nl, loops) = build();
        let bytes = save(&nl, &loops);
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x40;
            // Either detected as an error or (for a flip inside an unused
            // padding-free format there is none) rejected — but never a
            // panic and never a silently different graph.
            if let Ok((nl2, _)) = load(&corrupt) {
                assert_eq!(nl2, nl, "flip at {pos} silently changed the graph");
            }
        }
    }

    #[test]
    fn digest_header_guards_payload() {
        let (nl, loops) = build();
        let mut bytes = save(&nl, &loops);
        // Flip a digest byte, then re-seal the trailer so only the digest
        // check can catch it.
        bytes[MAGIC.len()] ^= 0xFF;
        let body_len = bytes.len() - 8;
        let mut h = WideFnv64::new();
        h.update(&bytes[..body_len]);
        let t = h.finish().to_le_bytes();
        bytes[body_len..].copy_from_slice(&t);
        assert_eq!(load(&bytes), Err(SnapshotError::DigestMismatch));
    }

    #[test]
    fn oversized_header_counts_rejected_before_allocation() {
        let (nl, loops) = build();
        let bytes = save(&nl, &loops);
        // Re-author the header with an absurd node count and re-seal the
        // checksum: the budget check must refuse it (as Truncated) without
        // attempting a giant allocation.
        let mut forged = Vec::new();
        forged.extend_from_slice(MAGIC);
        forged.extend_from_slice(&bytes[MAGIC.len()..MAGIC.len() + 8]);
        let mut p = Vec::new();
        for _ in 0..7 {
            put_varint(&mut p, u64::MAX / 2);
        }
        put_section(&mut forged, TAG_HEADER, &p);
        let body_len = forged.len();
        let mut h = WideFnv64::new();
        h.update(&forged[..body_len]);
        forged.extend_from_slice(&h.finish().to_le_bytes());
        assert_eq!(load(&forged), Err(SnapshotError::Truncated));
    }
}
