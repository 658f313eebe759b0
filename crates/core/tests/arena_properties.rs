//! Property tests for the symbolic term-set engine: the algebraic laws the
//! propagation rules rely on (DESIGN.md §6, invariant 1). The relaxation
//! forms a union as the OR of two term masks and interns the result, so
//! here a union is the interning of both operands' terms together.

use proptest::prelude::*;

use seqavf_core::arena::{SetId, TermId, TermKind, TermTable, UnionArena};
use seqavf_core::pavf::Pavf;

fn table_with_terms(n: usize) -> (TermTable, Vec<TermId>) {
    let mut t = TermTable::new();
    let ids = (0..n)
        .map(|i| t.intern(TermKind::ReadPort(format!("s{i}"))))
        .collect();
    (t, ids)
}

/// Builds an arbitrary set from term-index choices.
fn build_set(arena: &mut UnionArena, ids: &[TermId], picks: &[u8]) -> SetId {
    let terms: Vec<TermId> = picks.iter().map(|&p| ids[p as usize % ids.len()]).collect();
    arena.intern_terms(&terms)
}

/// `a ∪ b`: both operands' terms, interned as one set.
fn union(arena: &mut UnionArena, a: SetId, b: SetId) -> SetId {
    let terms = [arena.terms(a), arena.terms(b)].concat();
    arena.intern_terms(&terms)
}

proptest! {
    #[test]
    fn union_laws(a in prop::collection::vec(any::<u8>(), 0..8),
                  b in prop::collection::vec(any::<u8>(), 0..8),
                  c in prop::collection::vec(any::<u8>(), 0..8)) {
        let (_, ids) = table_with_terms(6);
        let mut ar = UnionArena::new();
        let sa = build_set(&mut ar, &ids, &a);
        let sb = build_set(&mut ar, &ids, &b);
        let sc = build_set(&mut ar, &ids, &c);
        // Commutativity, associativity, idempotence — as interned ids,
        // which is stronger than value equality.
        prop_assert_eq!(union(&mut ar, sa, sb), union(&mut ar, sb, sa));
        let ab_c = {
            let ab = union(&mut ar, sa, sb);
            union(&mut ar, ab, sc)
        };
        let a_bc = {
            let bc = union(&mut ar, sb, sc);
            union(&mut ar, sa, bc)
        };
        prop_assert_eq!(ab_c, a_bc);
        prop_assert_eq!(union(&mut ar, sa, sa), sa);
        // Identity and absorption.
        let (empty, top) = (ar.empty(), ar.top());
        prop_assert_eq!(union(&mut ar, sa, empty), sa);
        prop_assert_eq!(union(&mut ar, sa, top), top);
    }

    #[test]
    fn eval_is_monotone_and_bounded(a in prop::collection::vec(any::<u8>(), 0..8),
                                    b in prop::collection::vec(any::<u8>(), 0..8),
                                    vals in prop::collection::vec(0.0f64..1.0, 6)) {
        let (t, ids) = table_with_terms(6);
        let mut ar = UnionArena::new();
        let sa = build_set(&mut ar, &ids, &a);
        let sb = build_set(&mut ar, &ids, &b);
        let values = t.values(
            &|name| {
                let i: usize = name[1..].parse().unwrap();
                Some((vals[i], 0.0))
            },
            &|_| None,
            1.0,
            1.0,
        );
        let va = ar.eval(sa, &values);
        let vb = ar.eval(sb, &values);
        prop_assert!((0.0..=1.0).contains(&va));
        // A union never evaluates below either operand and never above
        // their capped sum.
        let vu = {
            let u = union(&mut ar, sa, sb);
            ar.eval(u, &values)
        };
        prop_assert!(vu + 1e-12 >= va.max(vb));
        prop_assert!(vu <= (va + vb).min(1.0) + 1e-12);
    }

    #[test]
    fn hash_consing_canonicalizes(picks in prop::collection::vec(any::<u8>(), 1..10),
                                  seed in any::<u64>()) {
        // Building the same set of terms in any order yields the same id.
        let (_, ids) = table_with_terms(5);
        let mut ar = UnionArena::new();
        let s1 = build_set(&mut ar, &ids, &picks);
        let mut shuffled = picks.clone();
        // Deterministic pseudo-shuffle.
        let n = shuffled.len();
        for i in 0..n {
            let j = ((seed >> (i % 56)) as usize).wrapping_add(i) % n;
            shuffled.swap(i, j);
        }
        let s2 = build_set(&mut ar, &ids, &shuffled);
        prop_assert_eq!(s1, s2);
    }

    #[test]
    fn pavf_algebra(a in 0.0f64..1.0, b in 0.0f64..1.0, c in 0.0f64..1.0) {
        let (pa, pb, pc) = (Pavf::new(a), Pavf::new(b), Pavf::new(c));
        prop_assert_eq!(pa.union(pb), pb.union(pa));
        // Associativity up to floating-point rounding.
        let l = pa.union(pb).union(pc).value();
        let r = pa.union(pb.union(pc)).value();
        prop_assert!((l - r).abs() < 1e-12);
        prop_assert_eq!(pa.union(Pavf::ZERO), pa);
        prop_assert!(pa.union(pb).value() <= 1.0);
        prop_assert!(pa.min(pb).value() <= pa.value());
        prop_assert!(pa.min(pb) == pa || pa.min(pb) == pb);
    }
}
