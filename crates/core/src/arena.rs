//! The symbolic pAVF expression engine.
//!
//! §5.2: "Another optimization … involved propagating the pAVF values
//! *symbolically* through the RTL node graph. … a closed form equation is
//! generated for each visited node … with the terms of the equations being
//! the structure pAVFs of the ACE model plus any injected state (such as
//! from control registers or loop boundaries)."
//!
//! The paper's propagation rules use only *set union* over pAVF terms
//! (evaluated as a capped sum under the no-overlap assumption) and a final
//! `MIN` of the forward and backward estimates. The closed form for a node
//! is therefore `MIN(Σ forward-terms, Σ backward-terms)` where each side is
//! a **set** of distinct terms — the set semantics give the paper's
//! `pAVF₁ ∪ (pAVF₁ ∪ pAVF₂) = pAVF₁ ∪ pAVF₂` simplification for free.
//!
//! Term sets are hash-consed in a [`UnionArena`]: every distinct set is
//! stored once and identified by a compact [`SetId`], so annotating
//! millions of nodes costs one `u32` per direction per node, and
//! re-evaluating the whole design for a new workload's pAVF vector is a
//! single pass over the arena (§5.2: "any subsequent sequential AVF
//! computations … simply plug new pAVFs into the closed form equations").

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a pAVF term (a source of injected probability).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TermId(u32);

impl TermId {
    /// Raw dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Inverse of [`TermId::index`], for the relaxation's term bitmasks.
    pub(crate) fn from_index(i: usize) -> TermId {
        TermId(u32::try_from(i).expect("term index fits u32"))
    }
}

/// What a term denotes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TermKind {
    /// `pAVF_R` of a performance-model structure (by name).
    ReadPort(String),
    /// `pAVF_W` of a performance-model structure (by name).
    WritePort(String),
    /// Injected state: loop boundaries, control registers, RTL-boundary
    /// pseudo-structures (§4.3, §5.1). The name selects the injected value.
    Injected(String),
    /// The saturated conservative term — always evaluates to 1.0. Sets
    /// containing it collapse to `{TOP}`.
    Top,
}

impl fmt::Display for TermKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TermKind::ReadPort(s) => write!(f, "pAVF_R({s})"),
            TermKind::WritePort(s) => write!(f, "pAVF_W({s})"),
            TermKind::Injected(s) => write!(f, "inj({s})"),
            TermKind::Top => write!(f, "TOP"),
        }
    }
}

/// Interning table for terms.
///
/// Each [`TermKind`] (and therefore each structure-name `String`) is stored
/// exactly once, in `terms`; the lookup index maps a 64-bit content hash to
/// the bucket of term ids sharing it, so interning never clones the kind.
#[derive(Debug, Clone, Default)]
pub struct TermTable {
    terms: Vec<TermKind>,
    index: HashMap<u64, Vec<TermId>>,
}

/// Equality is determined by the interned terms alone: the hash index is a
/// deterministic function of them.
impl PartialEq for TermTable {
    fn eq(&self, other: &Self) -> bool {
        self.terms == other.terms
    }
}

fn term_hash(kind: &TermKind) -> u64 {
    let mut h = seqavf_netlist::Fnv1a64::new();
    match kind {
        TermKind::ReadPort(s) => {
            h.update(&[0]);
            h.update(s.as_bytes());
        }
        TermKind::WritePort(s) => {
            h.update(&[1]);
            h.update(s.as_bytes());
        }
        TermKind::Injected(s) => {
            h.update(&[2]);
            h.update(s.as_bytes());
        }
        TermKind::Top => h.update(&[3]),
    }
    h.finish()
}

impl TermTable {
    /// Creates an empty table with the [`TermKind::Top`] term pre-interned
    /// as term 0.
    pub fn new() -> Self {
        let mut t = TermTable::default();
        let top = t.intern(TermKind::Top);
        debug_assert_eq!(top.index(), 0);
        t
    }

    /// [`TermTable::new`] with storage reserved for `terms` entries, so a
    /// caller that knows the design's structure count (2 port terms per
    /// structure plus a few injected ones) interns without rehashing.
    pub fn with_capacity(terms: usize) -> Self {
        let mut t = TermTable {
            terms: Vec::with_capacity(terms.max(1)),
            index: HashMap::with_capacity(terms.max(1)),
        };
        let top = t.intern(TermKind::Top);
        debug_assert_eq!(top.index(), 0);
        t
    }

    /// The saturated term.
    pub fn top(&self) -> TermId {
        TermId(0)
    }

    /// Interns a term, returning its id. The kind is moved into the table;
    /// a hit compares against the single stored copy instead of cloning.
    pub fn intern(&mut self, kind: TermKind) -> TermId {
        let bucket = self.index.entry(term_hash(&kind)).or_default();
        for &id in bucket.iter() {
            if self.terms[id.index()] == kind {
                return id;
            }
        }
        let id = TermId(u32::try_from(self.terms.len()).expect("term count fits u32"));
        bucket.push(id);
        self.terms.push(kind);
        id
    }

    /// Looks up a term without interning.
    pub fn get(&self, kind: &TermKind) -> Option<TermId> {
        let bucket = self.index.get(&term_hash(kind))?;
        bucket
            .iter()
            .copied()
            .find(|id| &self.terms[id.index()] == kind)
    }

    /// The kind of a term.
    pub fn kind(&self, id: TermId) -> &TermKind {
        &self.terms[id.index()]
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether only the TOP term exists.
    pub fn is_empty(&self) -> bool {
        self.terms.len() <= 1
    }

    /// Iterates over `(id, kind)` pairs.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (TermId, &TermKind)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, k)| (TermId(i as u32), k))
    }

    /// Builds a value vector for evaluation: read/write ports are looked up
    /// in `port_avfs` (falling back to `default_port` when missing),
    /// injected terms in `injected` (falling back to `default_injected`),
    /// and TOP is pinned to 1.0.
    pub fn values(
        &self,
        port_avfs: &dyn Fn(&str) -> Option<(f64, f64)>,
        injected: &dyn Fn(&str) -> Option<f64>,
        default_port: f64,
        default_injected: f64,
    ) -> Vec<f64> {
        self.terms
            .iter()
            .map(|k| match k {
                TermKind::Top => 1.0,
                TermKind::ReadPort(s) => port_avfs(s).map_or(default_port, |(r, _)| r),
                TermKind::WritePort(s) => port_avfs(s).map_or(default_port, |(_, w)| w),
                TermKind::Injected(s) => injected(s).unwrap_or(default_injected),
            })
            .map(|v| v.clamp(0.0, 1.0))
            .collect()
    }
}

/// Identifier of an interned term set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SetId(u32);

impl SetId {
    /// Raw dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Inverse of [`SetId::index`], for code that walks an arena's sets
    /// positionally (e.g. the fixpoint snapshot encoder).
    pub fn from_index(i: usize) -> SetId {
        SetId(u32::try_from(i).expect("set index fits u32"))
    }
}

/// Hash-consing arena for term sets (symbolic unions). Unions are formed
/// by the relaxation's term masks (OR with TOP absorbing, see
/// [`crate::relax`]); the arena stores each distinct result once.
#[derive(Debug, Clone)]
pub struct UnionArena {
    sets: Vec<Box<[TermId]>>,
    index: HashMap<Box<[TermId]>, SetId>,
}

impl UnionArena {
    /// Creates an arena with the empty set at id 0 and `{TOP}` at id 1.
    ///
    /// No capacity is reserved: relaxation interns only the distinct sets
    /// its converged masks take (3,596 on the 102k-node reference design),
    /// not a set per node.
    pub fn new() -> Self {
        let mut a = UnionArena {
            sets: Vec::new(),
            index: HashMap::new(),
        };
        let empty = a.intern(Vec::new());
        debug_assert_eq!(empty.index(), 0);
        let top = a.intern(vec![TermId(0)]);
        debug_assert_eq!(top.index(), 1);
        a
    }

    /// The empty set (evaluates to 0: no ACE data).
    pub fn empty(&self) -> SetId {
        SetId(0)
    }

    /// The saturated set `{TOP}` (evaluates to 1: the conservative initial
    /// annotation of Equation 7).
    pub fn top(&self) -> SetId {
        SetId(1)
    }

    fn intern(&mut self, mut terms: Vec<TermId>) -> SetId {
        terms.sort_unstable();
        terms.dedup();
        // TOP absorbs everything: {TOP, x, …} ≡ {TOP} since TOP is pinned
        // to 1.0 and the union evaluation caps at 1.0.
        if terms.len() > 1 && terms[0] == TermId(0) {
            terms = vec![TermId(0)];
        }
        let boxed: Box<[TermId]> = terms.into_boxed_slice();
        if let Some(&id) = self.index.get(&boxed) {
            return id;
        }
        let id = SetId(u32::try_from(self.sets.len()).expect("set count fits u32"));
        self.sets.push(boxed.clone());
        self.index.insert(boxed, id);
        id
    }

    /// A one-term set.
    pub fn singleton(&mut self, t: TermId) -> SetId {
        self.intern(vec![t])
    }

    /// Interns an explicit term list, normalizing it like any union
    /// (sorted, deduplicated, TOP-absorbed). The relaxation's iteration
    /// barrier interns each new term bitmask through it, and a warm start
    /// each stored set; normalization depends only on the term *content*,
    /// so the resulting [`SetId`] does too.
    pub fn intern_terms(&mut self, terms: &[TermId]) -> SetId {
        self.intern(terms.to_vec())
    }

    /// The terms of a set, sorted.
    pub fn terms(&self, s: SetId) -> &[TermId] {
        &self.sets[s.index()]
    }

    /// Number of distinct sets interned.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether only the empty and TOP sets exist.
    pub fn is_empty(&self) -> bool {
        self.sets.len() <= 2
    }

    /// Evaluates one set against a term-value vector: capped sum over
    /// distinct terms (the no-overlap union of Equations 5 and 10).
    pub fn eval(&self, s: SetId, values: &[f64]) -> f64 {
        let sum: f64 = self.sets[s.index()].iter().map(|t| values[t.index()]).sum();
        sum.min(1.0)
    }

    /// Evaluates every interned set at once; index the result by
    /// [`SetId::index`]. This is the fast re-evaluation path of §5.2.
    pub fn eval_all(&self, values: &[f64]) -> Vec<f64> {
        self.sets
            .iter()
            .map(|set| {
                let sum: f64 = set.iter().map(|t| values[t.index()]).sum();
                sum.min(1.0)
            })
            .collect()
    }

    /// Renders a set as a human-readable union expression.
    pub fn display(&self, s: SetId, terms: &TermTable) -> String {
        let set = &self.sets[s.index()];
        if set.is_empty() {
            return "∅".to_owned();
        }
        set.iter()
            .map(|&t| terms.kind(t).to_string())
            .collect::<Vec<_>>()
            .join(" ∪ ")
    }
}

impl Default for UnionArena {
    fn default() -> Self {
        UnionArena::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> (TermTable, TermId, TermId, TermId) {
        let mut t = TermTable::new();
        let a = t.intern(TermKind::ReadPort("s1".into()));
        let b = t.intern(TermKind::ReadPort("s2".into()));
        let c = t.intern(TermKind::WritePort("s3".into()));
        (t, a, b, c)
    }

    #[test]
    fn interning_dedupes_terms() {
        let (mut t, a, _, _) = table();
        assert_eq!(t.intern(TermKind::ReadPort("s1".into())), a);
        assert_eq!(t.len(), 4); // TOP + 3
        assert_eq!(t.get(&TermKind::ReadPort("s1".into())), Some(a));
        assert_eq!(t.get(&TermKind::ReadPort("zz".into())), None);
    }

    #[test]
    fn interning_stores_each_kind_exactly_once() {
        // Regression guard for the old index layout, which kept a second
        // owned copy of every TermKind (and its String) as a HashMap key.
        // The hash-bucket index must preserve the interning semantics while
        // `terms` remains the only owner.
        let mut t = TermTable::new();
        let a = t.intern(TermKind::ReadPort("rob".into()));
        let b = t.intern(TermKind::WritePort("rob".into()));
        let c = t.intern(TermKind::Injected("rob".into()));
        assert!(a != b && b != c && a != c);
        // Re-interning and lookups resolve against the stored copies.
        assert_eq!(t.intern(TermKind::ReadPort("rob".into())), a);
        assert_eq!(t.intern(TermKind::Top), t.top());
        assert_eq!(t.get(&TermKind::Injected("rob".into())), Some(c));
        assert_eq!(t.get(&TermKind::Injected("nope".into())), None);
        assert_eq!(t.len(), 4); // TOP + 3 distinct kinds, no duplicates.
        let distinct: std::collections::HashSet<&TermKind> = t.iter().map(|(_, k)| k).collect();
        assert_eq!(distinct.len(), t.len());
        // Equality (and thus snapshot comparisons) still sees through the
        // index representation.
        let clone = t.clone();
        assert_eq!(clone, t);
    }

    #[test]
    fn interning_has_set_semantics() {
        let (_, a, b, _) = table();
        let mut ar = UnionArena::new();
        let sab = ar.intern_terms(&[a, b]);
        // pAVF_1 ∪ (pAVF_1 ∪ pAVF_2) = pAVF_1 ∪ pAVF_2 — the Figure 7
        // simplification: order and repeats do not change the set.
        assert_eq!(ar.intern_terms(&[b, a, a]), sab);
        assert_eq!(ar.terms(sab).len(), 2);
        assert_eq!(ar.intern_terms(&[]), ar.empty());
        assert_eq!(ar.singleton(a), ar.intern_terms(&[a, a]));
    }

    #[test]
    fn top_absorbs() {
        let (t, a, _, _) = table();
        let mut ar = UnionArena::new();
        let explicit = ar.intern_terms(&[a, t.top()]);
        assert_eq!(explicit, ar.top());
    }

    #[test]
    fn eval_is_capped_sum() {
        let (t, a, b, c) = table();
        let mut ar = UnionArena::new();
        let sab = ar.intern_terms(&[a, b]);
        let values = t.values(
            &|name| match name {
                "s1" => Some((0.10, 0.0)),
                "s2" => Some((0.02, 0.0)),
                "s3" => Some((0.0, 0.95)),
                _ => None,
            },
            &|_| None,
            1.0,
            1.0,
        );
        assert!((ar.eval(sab, &values) - 0.12).abs() < 1e-12);
        assert_eq!(ar.eval(ar.empty(), &values), 0.0);
        assert_eq!(ar.eval(ar.top(), &values), 1.0);
        // 0.10 + 0.02 + 0.95 caps at 1.0.
        let full = ar.intern_terms(&[a, b, c]);
        assert_eq!(ar.eval(full, &values), 1.0);
        // eval_all agrees with eval.
        let all = ar.eval_all(&values);
        for (i, v) in all.iter().enumerate() {
            assert!((v - ar.eval(SetId(i as u32), &values)).abs() < 1e-15);
        }
    }

    #[test]
    fn values_fall_back_to_defaults() {
        let (t, _, _, _) = table();
        let values = t.values(&|_| None, &|_| None, 0.7, 0.3);
        // TOP pinned to 1.0 regardless.
        assert_eq!(values[0], 1.0);
        for v in &values[1..] {
            assert_eq!(*v, 0.7);
        }
    }

    #[test]
    fn display_renders_union() {
        let (t, a, b, _) = table();
        let mut ar = UnionArena::new();
        let sab = ar.intern_terms(&[a, b]);
        let s = ar.display(sab, &t);
        assert!(s.contains("pAVF_R(s1)"));
        assert!(s.contains("∪"));
        assert_eq!(ar.display(ar.empty(), &t), "∅");
    }
}
