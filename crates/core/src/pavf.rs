//! The port-AVF probability type.
//!
//! A pAVF is "essentially a signal probability (the probability of an ACE
//! bit instead of the probability of a one or zero)" (§4.1.2). The
//! propagation rules need exactly three operations on it: **union** (a
//! capped sum, for logical joins and distribution splits under the paper's
//! no-overlap assumption), **min** (the node-update rule, Equation 7, and
//! the final resolution, Table 1), and comparison.

use std::fmt;

use serde::{de_error, DeError, Deserialize, Serialize, Value};

/// A probability in `[0, 1]` that a bit carries ACE data.
///
/// Construction clamps into range; `NaN` clamps to zero (the least
/// conservative direction is never taken silently — `NaN` arises only from
/// programming errors upstream and zero makes them visible in results).
/// Decoding does not clamp: see the [`Deserialize`] impl.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize)]
pub struct Pavf(f64);

impl Pavf {
    /// The zero probability (no ACE data ever).
    pub const ZERO: Pavf = Pavf(0.0);
    /// The saturated probability (conservative initial annotation, Eq. 7).
    pub const ONE: Pavf = Pavf(1.0);

    /// Creates a pAVF, clamping into `[0, 1]`.
    pub fn new(v: f64) -> Self {
        if v.is_nan() {
            Pavf(0.0)
        } else {
            Pavf(v.clamp(0.0, 1.0))
        }
    }

    /// The raw probability.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Set-union under the no-overlap assumption: a sum capped at 1
    /// (Equations 5 and 10).
    pub fn union(self, other: Pavf) -> Pavf {
        Pavf((self.0 + other.0).min(1.0))
    }

    /// The node-update / resolution rule: the smaller conservative
    /// estimate wins (Equation 7, Table 1).
    pub fn min(self, other: Pavf) -> Pavf {
        if other.0 < self.0 {
            other
        } else {
            self
        }
    }
}

/// The one decode-time check on measured probabilities: every port pAVF
/// and structure AVF of a pAVF table (`--pavf` files, service request
/// bodies) decodes through here. A value outside `[0, 1]`, or a
/// non-finite one, is rejected rather than clamped — ACE output is always
/// in range, so it means a malformed table.
impl Deserialize for Pavf {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let p = f64::from_value(v)?;
        if (0.0..=1.0).contains(&p) {
            Ok(Pavf(p))
        } else {
            Err(de_error(format!(
                "expected a probability in [0, 1], got {p:?}"
            )))
        }
    }
}

impl Default for Pavf {
    /// Nodes "conservatively start with a pAVF of 1.0" (§4.1.1).
    fn default() -> Self {
        Pavf::ONE
    }
}

impl From<f64> for Pavf {
    fn from(v: f64) -> Self {
        Pavf::new(v)
    }
}

impl fmt::Display for Pavf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

impl std::iter::Sum for Pavf {
    /// Capped sum — the n-ary union.
    fn sum<I: Iterator<Item = Pavf>>(iter: I) -> Pavf {
        iter.fold(Pavf::ZERO, Pavf::union)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_clamps() {
        assert_eq!(Pavf::new(0.5).value(), 0.5);
        assert_eq!(Pavf::new(-3.0), Pavf::ZERO);
        assert_eq!(Pavf::new(7.0), Pavf::ONE);
        assert_eq!(Pavf::new(f64::NAN), Pavf::ZERO);
    }

    #[test]
    fn decoding_rejects_what_construction_would_clamp() {
        for ok in ["0.0", "0.25", "1.0", "1"] {
            let p: Pavf = serde_json::from_str(ok).unwrap();
            assert_eq!(p.value(), ok.parse::<f64>().unwrap());
        }
        for bad in ["-0.5", "1.0000001", "7.0", "1e400", "-1e400", "null"] {
            let e = serde_json::from_str::<Pavf>(bad).unwrap_err();
            assert!(e.to_string().contains("[0, 1]"), "{bad}: {e}");
        }
    }

    #[test]
    fn union_caps_at_one() {
        let a = Pavf::new(0.7);
        let b = Pavf::new(0.6);
        assert_eq!(a.union(b), Pavf::ONE);
        assert!((Pavf::new(0.1).union(Pavf::new(0.02)).value() - 0.12).abs() < 1e-12);
    }

    #[test]
    fn union_is_commutative_and_has_identity() {
        let a = Pavf::new(0.3);
        let b = Pavf::new(0.4);
        assert_eq!(a.union(b), b.union(a));
        assert_eq!(a.union(Pavf::ZERO), a);
    }

    #[test]
    fn min_picks_smaller() {
        assert_eq!(Pavf::new(0.3).min(Pavf::new(0.5)).value(), 0.3);
        assert_eq!(Pavf::new(0.5).min(Pavf::new(0.3)).value(), 0.3);
    }

    #[test]
    fn default_is_conservative_one() {
        assert_eq!(Pavf::default(), Pavf::ONE);
    }

    #[test]
    fn sum_is_capped_union() {
        let s: Pavf = [0.4, 0.5, 0.6].into_iter().map(Pavf::new).sum();
        assert_eq!(s, Pavf::ONE);
        let s: Pavf = [0.1, 0.2].into_iter().map(Pavf::new).sum();
        assert!((s.value() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn display_format() {
        assert_eq!(Pavf::new(0.125).to_string(), "0.1250");
    }
}
