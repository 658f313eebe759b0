//! The `seqavf-fixpoint/2` artifact: a converged relaxation state
//! persisted across runs so an edited design re-solves at the cost of its
//! change cone instead of a cold flood.
//!
//! The artifact stores everything needed to re-seed [`crate::relax`]:
//! the canonical term table and [`UnionArena`](crate::arena::UnionArena)
//! set contents, the per-node forward/backward annotations grouped per
//! FUB, the [`BoundaryDeps`] CSR of the run that produced them, and one
//! content digest per FUB
//! ([`seqavf_netlist::graph::Netlist::fub_digests`]). A warm start
//! diffs the edited netlist's FUB digests against the stored ones:
//! matching FUBs have their annotations translated into the
//! new run's arena (by term *content*, never by raw id), mismatching
//! FUBs stay at the conservative `{TOP}` default and are flagged dirty
//! so the first sweep force-walks exactly them.
//!
//! Everything about the format is defensive: decoding is bounds-checked
//! end to end (reusing [`Cursor`]), the envelope is the sealed container
//! shared through [`seqavf_netlist::snapshot`], and *any* validation
//! failure — version, checksum, config `result_key`, mapping digest,
//! shape — is a recoverable fallback to a cold solve, never an error the
//! caller must handle beyond logging a miss.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

use seqavf_netlist::graph::{Netlist, NodeId};
use seqavf_netlist::snapshot::{
    open_sealed, put_section, put_str, put_u64, put_varint, seal, write_atomic, Cursor,
    SnapshotError,
};
use seqavf_netlist::Fnv1a64;

use crate::arena::{SetId, TermId, TermKind};
use crate::engine::SartResult;
use crate::walk::{BoundaryDeps, Propagator};

/// Format magic of the fixpoint artifact, bumped whenever the layout or
/// the meaning of a stored value changes. `/2`: per-FUB digests fold the
/// interner's name hashes ([`Netlist::fub_digests`]), so a `/1` file's
/// digests would match no FUB.
const FIXPOINT_MAGIC: &[u8] = b"seqavf-fixpoint/2\n";

/// Version-family prefix of [`FIXPOINT_MAGIC`].
const FIXPOINT_MAGIC_FAMILY: &[u8] = b"seqavf-fixpoint/";

const SEC_META: u8 = 1;
const SEC_TERMS: u8 = 2;
const SEC_SETS: u8 = 3;
const SEC_FUBS: u8 = 4;
const SEC_BOUNDARY: u8 = 5;

/// One FUB's slice of the stored fixpoint: its content digest plus the
/// converged annotations of its nodes in dense-id order. Positional
/// alignment against the new netlist is safe exactly when the digest
/// matches — the digest covers node names in that same order.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredFub {
    /// Hierarchical FUB name (edit-stable identity).
    pub name: String,
    /// [`Netlist::fub_digests`] entry at capture time.
    pub digest: u64,
    /// Forward annotation per FUB-local node, as raw stored set ids.
    pub fwd: Vec<u32>,
    /// Backward annotation per FUB-local node, as raw stored set ids.
    pub bwd: Vec<u32>,
}

/// The [`BoundaryDeps`] CSR of the captured run, stored as raw indices.
/// Warm starts rebuild boundary deps from the edited netlist (they are a
/// pure function of it), so this section exists for artifact
/// introspection and shape validation, not for seeding.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoredBoundary {
    /// Forward boundary-read node ids, ascending.
    pub fwd_reads: Vec<u32>,
    /// CSR offsets into `fwd_consumers`.
    pub fwd_offsets: Vec<u32>,
    /// Consumer FUB ids per forward read.
    pub fwd_consumers: Vec<u32>,
    /// Backward boundary-read node ids, ascending.
    pub bwd_reads: Vec<u32>,
    /// CSR offsets into `bwd_consumers`.
    pub bwd_offsets: Vec<u32>,
    /// Consumer FUB ids per backward read.
    pub bwd_consumers: Vec<u32>,
}

/// A decoded (or about-to-be-encoded) `seqavf-fixpoint/2` artifact.
///
/// Stored set ids use the arena's canonical numbering: `0` is the empty
/// set, `1` is `{TOP}` (both implicit), and id `s >= 2` indexes
/// `sets[s - 2]`, a sorted list of indices into `terms`.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredFixpoint {
    /// Design name at capture time.
    pub design: String,
    /// Whole-netlist content digest at capture time. Informational: an
    /// edited design *will* mismatch — that is the expected warm case.
    pub content_digest: u64,
    /// Digest of the structure mapping text ([`mapping_digest`]). A
    /// mismatch changes term identity, so it forces a cold solve.
    pub mapping_digest: u64,
    /// [`crate::engine::SartConfig::result_key`] of the captured run.
    pub result_key: String,
    /// Whether the captured relaxation converged. Non-converged states
    /// are never written by [`capture`], but a decoder must not trust
    /// the file.
    pub converged: bool,
    /// Total node count at capture time.
    pub node_count: usize,
    /// Term kinds in term-id order (index 0 is [`TermKind::Top`]).
    pub terms: Vec<TermKind>,
    /// Set contents for ids `2..`, each a sorted `Vec` of term indices.
    pub sets: Vec<Vec<u32>>,
    /// Per-FUB digests and annotations, in FUB-id order.
    pub fubs: Vec<StoredFub>,
    /// The captured run's boundary-dependency CSR.
    pub boundary: StoredBoundary,
}

/// What [`seed`] did: how many FUBs took stored annotations and how many
/// start dirty (edited, unknown, or untranslatable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedPlan {
    /// FUBs that adopted stored annotations.
    pub seeded_fubs: usize,
    /// FUBs flagged for the first force-walk.
    pub dirty_fubs: usize,
}

impl StoredFixpoint {
    /// Serializes to the sealed `seqavf-fixpoint/2` wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            64 + self.design.len()
                + self.result_key.len()
                + self.terms.len() * 16
                + self.sets.iter().map(|s| s.len() + 2).sum::<usize>()
                + self
                    .fubs
                    .iter()
                    .map(|f| f.name.len() + 16 + 4 * (f.fwd.len() + f.bwd.len()))
                    .sum::<usize>(),
        );
        out.extend_from_slice(FIXPOINT_MAGIC);

        let mut meta = Vec::new();
        put_str(&mut meta, &self.design);
        put_u64(&mut meta, self.content_digest);
        put_u64(&mut meta, self.mapping_digest);
        put_str(&mut meta, &self.result_key);
        meta.push(u8::from(self.converged));
        put_varint(&mut meta, self.node_count as u64);
        put_section(&mut out, SEC_META, &meta);

        let mut terms = Vec::new();
        put_terms(&mut terms, self.terms.iter());
        put_section(&mut out, SEC_TERMS, &terms);

        let mut sets = Vec::new();
        put_varint(&mut sets, self.sets.len() as u64);
        for set in &self.sets {
            put_varint(&mut sets, set.len() as u64);
            // Term indices are sorted ascending (arena sets are), so the
            // gaps delta-code tightly.
            let mut prev = 0u32;
            for &t in set {
                put_varint(&mut sets, u64::from(t.wrapping_sub(prev)));
                prev = t;
            }
        }
        put_section(&mut out, SEC_SETS, &sets);

        let mut fubs = Vec::new();
        put_varint(&mut fubs, self.fubs.len() as u64);
        for fub in &self.fubs {
            put_str(&mut fubs, &fub.name);
            put_u64(&mut fubs, fub.digest);
            put_varint(&mut fubs, fub.fwd.len() as u64);
            for &s in fub.fwd.iter().chain(&fub.bwd) {
                put_varint(&mut fubs, u64::from(s));
            }
        }
        put_section(&mut out, SEC_FUBS, &fubs);

        let mut boundary = Vec::new();
        for arr in [
            &self.boundary.fwd_reads,
            &self.boundary.fwd_offsets,
            &self.boundary.fwd_consumers,
            &self.boundary.bwd_reads,
            &self.boundary.bwd_offsets,
            &self.boundary.bwd_consumers,
        ] {
            put_varint(&mut boundary, arr.len() as u64);
            for &v in arr.iter() {
                put_varint(&mut boundary, u64::from(v));
            }
        }
        put_section(&mut out, SEC_BOUNDARY, &boundary);

        seal(&mut out);
        out
    }

    /// Parses and validates a sealed artifact. Every failure is a
    /// recoverable [`SnapshotError`] — corrupt or truncated bytes never
    /// panic, and callers fall back to a cold solve.
    pub fn decode(bytes: &[u8]) -> Result<StoredFixpoint, SnapshotError> {
        let body = open_sealed(bytes, FIXPOINT_MAGIC, FIXPOINT_MAGIC_FAMILY)?;
        let mut top = Cursor::new(body);

        let mut meta = top.section(SEC_META)?;
        let design = meta.string()?;
        let content_digest = meta.u64()?;
        let mapping_digest = meta.u64()?;
        let result_key = meta.string()?;
        let converged = match meta.u8()? {
            0 => false,
            1 => true,
            _ => return Err(SnapshotError::BadIndex),
        };
        let node_count = usize::try_from(meta.varint()?).map_err(|_| SnapshotError::BadIndex)?;
        meta.end()?;

        let mut tc = top.section(SEC_TERMS)?;
        let terms = read_terms(&mut tc)?;
        tc.end()?;

        let mut sc = top.section(SEC_SETS)?;
        let set_count = sc.count()?;
        let mut sets = Vec::with_capacity(set_count);
        for _ in 0..set_count {
            let len = sc.count()?;
            let mut set = Vec::with_capacity(len);
            let mut prev = 0u32;
            for _ in 0..len {
                let gap = u32::try_from(sc.varint()?).map_err(|_| SnapshotError::BadIndex)?;
                let t = prev.checked_add(gap).ok_or(SnapshotError::BadIndex)?;
                if t as usize >= terms.len() {
                    return Err(SnapshotError::BadIndex);
                }
                set.push(t);
                prev = t;
            }
            sets.push(set);
        }
        sc.end()?;

        let mut fc = top.section(SEC_FUBS)?;
        let fub_count = fc.count()?;
        let mut fubs = Vec::with_capacity(fub_count);
        let mut total_nodes = 0usize;
        let set_limit = sets.len() + 2;
        for _ in 0..fub_count {
            let name = fc.string()?;
            let digest = fc.u64()?;
            let nodes = fc.count()?;
            total_nodes = total_nodes
                .checked_add(nodes)
                .ok_or(SnapshotError::BadIndex)?;
            let read_ids = |fc: &mut Cursor<'_>| -> Result<Vec<u32>, SnapshotError> {
                let mut v = Vec::with_capacity(nodes);
                for _ in 0..nodes {
                    let s = u32::try_from(fc.varint()?).map_err(|_| SnapshotError::BadIndex)?;
                    if s as usize >= set_limit {
                        return Err(SnapshotError::BadIndex);
                    }
                    v.push(s);
                }
                Ok(v)
            };
            let fwd = read_ids(&mut fc)?;
            let bwd = read_ids(&mut fc)?;
            fubs.push(StoredFub {
                name,
                digest,
                fwd,
                bwd,
            });
        }
        fc.end()?;
        if total_nodes != node_count {
            return Err(SnapshotError::BadIndex);
        }

        let mut bc = top.section(SEC_BOUNDARY)?;
        let read_arr = |bc: &mut Cursor<'_>| -> Result<Vec<u32>, SnapshotError> {
            let n = bc.count()?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(u32::try_from(bc.varint()?).map_err(|_| SnapshotError::BadIndex)?);
            }
            Ok(v)
        };
        let boundary = StoredBoundary {
            fwd_reads: read_arr(&mut bc)?,
            fwd_offsets: read_arr(&mut bc)?,
            fwd_consumers: read_arr(&mut bc)?,
            bwd_reads: read_arr(&mut bc)?,
            bwd_offsets: read_arr(&mut bc)?,
            bwd_consumers: read_arr(&mut bc)?,
        };
        bc.end()?;
        for (reads, offsets, consumers) in [
            (
                &boundary.fwd_reads,
                &boundary.fwd_offsets,
                &boundary.fwd_consumers,
            ),
            (
                &boundary.bwd_reads,
                &boundary.bwd_offsets,
                &boundary.bwd_consumers,
            ),
        ] {
            if !reads.is_empty() {
                if offsets.len() != reads.len() + 1 {
                    return Err(SnapshotError::BadIndex);
                }
                if offsets.windows(2).any(|w| w[0] > w[1])
                    || offsets.last().copied().unwrap_or(0) as usize != consumers.len()
                {
                    return Err(SnapshotError::BadIndex);
                }
                if reads.iter().any(|&n| n as usize >= node_count)
                    || consumers.iter().any(|&f| f as usize >= fubs.len())
                {
                    return Err(SnapshotError::BadIndex);
                }
            }
        }

        top.end()?;
        Ok(StoredFixpoint {
            design,
            content_digest,
            mapping_digest,
            result_key,
            converged,
            node_count,
            terms,
            sets,
            fubs,
            boundary,
        })
    }
}

/// Appends a term table: its count, then each term as a kind tag and
/// its structure name. Shared with the compiled-sweep artifact.
pub(crate) fn put_terms<'a>(out: &mut Vec<u8>, terms: impl ExactSizeIterator<Item = &'a TermKind>) {
    put_varint(out, terms.len() as u64);
    for kind in terms {
        let (tag, name) = match kind {
            TermKind::Top => (0u8, ""),
            TermKind::ReadPort(s) => (1, s.as_str()),
            TermKind::WritePort(s) => (2, s.as_str()),
            TermKind::Injected(s) => (3, s.as_str()),
        };
        out.push(tag);
        put_str(out, name);
    }
}

/// Reads a term table written by [`put_terms`].
pub(crate) fn read_terms(c: &mut Cursor<'_>) -> Result<Vec<TermKind>, SnapshotError> {
    let count = c.count()?;
    let mut terms = Vec::with_capacity(count);
    for _ in 0..count {
        let tag = c.u8()?;
        let name = c.string()?;
        terms.push(match tag {
            0 => TermKind::Top,
            1 => TermKind::ReadPort(name),
            2 => TermKind::WritePort(name),
            3 => TermKind::Injected(name),
            _ => return Err(SnapshotError::BadIndex),
        });
    }
    Ok(terms)
}

/// Digest of the structure-mapping text for `nl` — part of the artifact's
/// validity key, since the mapping decides term identity.
pub fn mapping_digest(nl: &Netlist, mapping: &crate::mapping::StructureMapping) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(mapping.to_text(nl).as_bytes());
    h.finish()
}

/// Cache key of a fixpoint artifact. Deliberately built from the design
/// *name*, mapping text, and config `result_key` — not the netlist
/// content digest — so an edited design resolves to the same file and
/// finds its predecessor's fixpoint there.
pub fn artifact_key(design_name: &str, mapping_text: &str, result_key: &str) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(design_name.as_bytes());
    h.update(&[0]);
    h.update(mapping_text.as_bytes());
    h.update(&[0]);
    h.update(result_key.as_bytes());
    h.finish()
}

/// The artifact path for a key inside a warm-start directory.
pub fn artifact_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("fixpoint-{key:016x}.bin"))
}

/// Loads and decodes an artifact. `Ok(None)` means "no artifact yet"
/// (a cold first run); `Err` is any validation failure worth reporting.
pub fn load(path: &Path) -> Result<Option<StoredFixpoint>, SnapshotError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(_) => return Err(SnapshotError::Truncated),
    };
    StoredFixpoint::decode(&bytes).map(Some)
}

/// Writes an artifact with [`write_atomic`], so neither a concurrent
/// writer nor a crashed one leaves a torn file for a later warm start.
pub fn store(path: &Path, stored: &StoredFixpoint) -> io::Result<()> {
    write_atomic(path, &stored.encode())
}

/// Captures the converged state of a run as a fixpoint artifact.
/// Returns `None` when the relaxation did not converge — a truncated
/// relaxation is not a fixpoint, and seeding from it would poison every
/// later warm solve.
pub fn capture(
    nl: &Netlist,
    fub_digests: &[u64],
    boundary: &BoundaryDeps,
    mapping_digest: u64,
    result: &SartResult,
) -> Option<StoredFixpoint> {
    if !result.outcome.converged {
        return None;
    }
    let terms: Vec<TermKind> = result.terms.iter().map(|(_, k)| k.clone()).collect();
    let sets: Vec<Vec<u32>> = (2..result.arena.len())
        .map(|i| {
            result
                .arena
                .terms(SetId::from_index(i))
                .iter()
                .map(|t| t.index() as u32)
                .collect()
        })
        .collect();
    let fub_nodes = nodes_by_fub(nl);
    let fubs = nl
        .fub_ids()
        .map(|f| {
            let nodes = &fub_nodes[f.index()];
            StoredFub {
                name: nl.fub_name(f).to_owned(),
                digest: fub_digests[f.index()],
                fwd: nodes
                    .iter()
                    .map(|n| result.fwd[n.index()].index() as u32)
                    .collect(),
                bwd: nodes
                    .iter()
                    .map(|n| result.bwd[n.index()].index() as u32)
                    .collect(),
            }
        })
        .collect();
    Some(StoredFixpoint {
        design: nl.design_name().to_owned(),
        content_digest: nl.content_digest(),
        mapping_digest,
        result_key: result.config.result_key(),
        converged: true,
        node_count: nl.node_count(),
        terms,
        sets,
        fubs,
        boundary: StoredBoundary {
            fwd_reads: boundary
                .fwd_reads
                .iter()
                .map(|n| n.index() as u32)
                .collect(),
            fwd_offsets: boundary.fwd_offsets.clone(),
            fwd_consumers: boundary
                .fwd_consumers
                .iter()
                .map(|f| f.index() as u32)
                .collect(),
            bwd_reads: boundary
                .bwd_reads
                .iter()
                .map(|n| n.index() as u32)
                .collect(),
            bwd_offsets: boundary.bwd_offsets.clone(),
            bwd_consumers: boundary
                .bwd_consumers
                .iter()
                .map(|f| f.index() as u32)
                .collect(),
        },
    })
}

/// Seeds a fresh propagator from a stored fixpoint.
///
/// Global guards (`Err` means "fall back to cold", with the propagator
/// untouched): the stored state must be converged and must match the
/// new run's config `result_key` and mapping digest. Per-FUB, the
/// stored annotations are adopted only when the FUB's name, digest, and
/// node count all match the edited netlist *and* every stored set
/// translates into the new term table; any shortfall leaves that FUB at
/// the conservative default and marks it dirty. The returned dirty
/// vector is exactly the `warm_dirty` that
/// [`crate::relax::relax_partitioned`] expects.
pub fn seed(
    stored: &StoredFixpoint,
    nl: &Netlist,
    fub_digests: &[u64],
    mapping_digest: u64,
    result_key: &str,
    prop: &mut Propagator<'_>,
) -> Result<(Vec<bool>, SeedPlan), &'static str> {
    if !stored.converged {
        return Err("stored fixpoint did not converge");
    }
    if stored.result_key != result_key {
        return Err("config result_key mismatch");
    }
    if stored.mapping_digest != mapping_digest {
        return Err("structure mapping mismatch");
    }

    // Term translation by content: stored term index -> new TermId, or
    // None when the edited design no longer interns that term (e.g. a
    // deleted structure's ports).
    let tmap: Vec<Option<TermId>> = stored
        .terms
        .iter()
        .map(|k| prop.prep.terms.get(k))
        .collect();
    // Stored set id -> new SetId, translated lazily and memoized. Ids 0
    // and 1 are pinned by the arena invariant.
    let mut smap: Vec<Option<Option<SetId>>> = vec![None; stored.sets.len() + 2];
    smap[0] = Some(Some(prop.arena.empty()));
    smap[1] = Some(Some(prop.arena.top()));
    let mut scratch: Vec<TermId> = Vec::new();
    let mut translate = |s: u32, prop: &mut Propagator<'_>| -> Option<SetId> {
        let s = s as usize;
        if let Some(cached) = smap[s] {
            return cached;
        }
        scratch.clear();
        for &t in &stored.sets[s - 2] {
            match tmap[t as usize] {
                Some(id) => scratch.push(id),
                None => {
                    smap[s] = Some(None);
                    return None;
                }
            }
        }
        let id = prop.arena.intern_terms(&scratch);
        smap[s] = Some(Some(id));
        Some(id)
    };

    let by_name: HashMap<&str, &StoredFub> =
        stored.fubs.iter().map(|f| (f.name.as_str(), f)).collect();
    let fub_nodes = nodes_by_fub(nl);
    let mut dirty = vec![true; nl.fub_count()];
    let mut seeded_fubs = 0usize;
    for f in nl.fub_ids() {
        let nodes = &fub_nodes[f.index()];
        let Some(sf) = by_name.get(nl.fub_name(f)) else {
            continue;
        };
        if sf.digest != fub_digests[f.index()]
            || sf.fwd.len() != nodes.len()
            || sf.bwd.len() != nodes.len()
        {
            continue;
        }
        // Translate into a staging buffer first: a FUB is adopted all or
        // nothing, so an untranslatable set halfway through must not
        // leave the FUB half-seeded.
        let mut staged: Vec<(usize, SetId, SetId)> = Vec::with_capacity(nodes.len());
        let mut ok = true;
        for (k, n) in nodes.iter().enumerate() {
            let (Some(fs), Some(bs)) = (translate(sf.fwd[k], prop), translate(sf.bwd[k], prop))
            else {
                ok = false;
                break;
            };
            staged.push((n.index(), fs, bs));
        }
        if !ok {
            continue;
        }
        for (i, fs, bs) in staged {
            prop.fwd[i] = fs;
            prop.bwd[i] = bs;
        }
        dirty[f.index()] = false;
        seeded_fubs += 1;
    }
    let dirty_fubs = nl.fub_count() - seeded_fubs;
    Ok((
        dirty,
        SeedPlan {
            seeded_fubs,
            dirty_fubs,
        },
    ))
}

/// Nodes grouped by owning FUB, in dense node-id order within each group.
/// Shared with the sweep-DAG patcher ([`crate::compile`]), which relies on
/// the same grouping to relocate clean FUBs' slots.
pub(crate) fn nodes_by_fub(nl: &Netlist) -> Vec<Vec<NodeId>> {
    let mut fub_nodes: Vec<Vec<NodeId>> = vec![Vec::new(); nl.fub_count()];
    for id in nl.nodes() {
        fub_nodes[nl.fub(id).index()].push(id);
    }
    fub_nodes
}
