//! Structure-to-RTL mapping and pAVF input tables (§5.1 steps 2 and 4).
//!
//! The ACE model reports port AVFs per *performance-model* structure; the
//! netlist declares *RTL* structures (banks of bit cells). The
//! [`StructureMapping`] records which performance structure's measured port
//! AVFs drive each RTL structure's cells — "often an individual structure
//! is composed of several arrays … some of the arrays … in a different
//! FUB", so many RTL structures may map to one performance structure.
//!
//! [`PavfInputs`] carries the measured values themselves: per-structure
//! `(pAVF_R, pAVF_W)` pairs plus optional structure AVFs (Equation 3) used
//! as the final values for structure cells.

use std::collections::BTreeMap;

use seqavf_netlist::graph::{Netlist, StructId};
use serde::{de_error, field, DeError, Deserialize, Serialize, Value};

use crate::pavf::Pavf;

/// Measured port AVFs of one structure.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PortPavf {
    /// `pAVF_R` — ACE read rate.
    pub read: Pavf,
    /// `pAVF_W` — ACE write rate.
    pub write: Pavf,
}

impl PortPavf {
    /// Creates a pair from raw probabilities (clamped).
    pub fn new(read: f64, write: f64) -> Self {
        PortPavf {
            read: Pavf::new(read),
            write: Pavf::new(write),
        }
    }
}

/// Mapping from netlist structures to performance-model structure names.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StructureMapping {
    by_struct: BTreeMap<u32, String>,
}

impl StructureMapping {
    /// Creates an empty mapping.
    pub fn new() -> Self {
        StructureMapping::default()
    }

    /// Builds a mapping from `(netlist structure id, perf name)` pairs, as
    /// produced by the synthetic design generator's ground truth.
    pub fn from_pairs<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (StructId, String)>,
    {
        let mut m = StructureMapping::new();
        for (sid, name) in pairs {
            m.insert(sid, name);
        }
        m
    }

    /// Maps `sid` to the performance-model structure `perf_name`.
    pub fn insert(&mut self, sid: StructId, perf_name: impl Into<String>) {
        self.by_struct.insert(sid.index() as u32, perf_name.into());
    }

    /// The performance-model name mapped to `sid`, if any.
    pub fn perf_name(&self, sid: StructId) -> Option<&str> {
        self.by_struct
            .get(&(sid.index() as u32))
            .map(String::as_str)
    }

    /// Number of mapped structures.
    pub fn len(&self) -> usize {
        self.by_struct.len()
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.by_struct.is_empty()
    }

    /// Structures of `netlist` that have no mapping (these fall back to the
    /// conservative default pAVFs).
    pub fn unmapped<'a>(&'a self, netlist: &'a Netlist) -> impl Iterator<Item = StructId> + 'a {
        netlist
            .structure_ids()
            .filter(move |sid| self.perf_name(*sid).is_none())
    }

    /// Serializes to the text map format (`<netlist struct name> <perf
    /// name>` per line), the equivalent of the paper's mapping file.
    pub fn to_text(&self, netlist: &Netlist) -> String {
        let mut out = String::new();
        for (sid_raw, perf) in &self.by_struct {
            let sid = StructId::from_index(*sid_raw as usize);
            out.push_str(netlist.structure(sid).name());
            out.push(' ');
            out.push_str(perf);
            out.push('\n');
        }
        out
    }

    /// Parses the text map format against a netlist. Unknown structure
    /// names are reported as errors.
    pub fn from_text(netlist: &Netlist, text: &str) -> Result<Self, String> {
        let mut m = StructureMapping::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.split_whitespace();
            let (Some(rtl), Some(perf)) = (it.next(), it.next()) else {
                return Err(format!("line {}: expected `<rtl> <perf>`", lineno + 1));
            };
            let sid = netlist
                .lookup_structure(rtl)
                .ok_or_else(|| format!("line {}: unknown structure `{rtl}`", lineno + 1))?;
            m.insert(sid, perf);
        }
        Ok(m)
    }
}

/// The measured inputs to a SART run.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct PavfInputs {
    /// Port AVFs keyed by performance-model structure name.
    pub ports: BTreeMap<String, PortPavf>,
    /// Structure AVFs (Equation 3) keyed by performance-model structure
    /// name; used as the final AVF of structure cells ("the estimate value
    /// is discarded in favor of the computed value", §4.2).
    pub structure_avfs: BTreeMap<String, f64>,
}

/// Structure AVFs decode through [`Pavf`] — the same range check as the
/// port pAVFs — so an out-of-range table is an error, never an AVF
/// outside `[0, 1]`.
impl Deserialize for PavfInputs {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let ports = Deserialize::from_value(field(v, "ports"))
            .map_err(|e| de_error(format!("PavfInputs.ports: {e}")))?;
        let structure_avfs: BTreeMap<String, Pavf> =
            Deserialize::from_value(field(v, "structure_avfs"))
                .map_err(|e| de_error(format!("PavfInputs.structure_avfs: {e}")))?;
        Ok(PavfInputs {
            ports,
            structure_avfs: structure_avfs
                .into_iter()
                .map(|(name, avf)| (name, avf.value()))
                .collect(),
        })
    }
}

impl PavfInputs {
    /// Creates an empty input table.
    pub fn new() -> Self {
        PavfInputs::default()
    }

    /// Inserts a structure's port AVFs.
    pub fn set_port(&mut self, name: impl Into<String>, read: f64, write: f64) -> &mut Self {
        self.ports.insert(name.into(), PortPavf::new(read, write));
        self
    }

    /// Inserts a structure's AVF.
    pub fn set_structure_avf(&mut self, name: impl Into<String>, avf: f64) -> &mut Self {
        self.structure_avfs.insert(name.into(), avf.clamp(0.0, 1.0));
        self
    }

    /// Port AVFs for `name`, if measured.
    pub fn port(&self, name: &str) -> Option<PortPavf> {
        self.ports.get(name).copied()
    }

    /// Structure AVF for `name`, if measured.
    pub fn structure_avf(&self, name: &str) -> Option<f64> {
        self.structure_avfs.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqavf_netlist::flatten::parse_netlist;

    fn netlist_with_structs() -> Netlist {
        parse_netlist(
            ".design x\n.fub f\n.input i\n.struct a 2\n.struct b 2\n.sw a[0] i\n.endfub\n.end\n",
        )
        .unwrap()
    }

    #[test]
    fn mapping_roundtrips_through_text() {
        let nl = netlist_with_structs();
        let sa = nl.lookup_structure("f.a").unwrap();
        let sb = nl.lookup_structure("f.b").unwrap();
        let mut m = StructureMapping::new();
        m.insert(sa, "rob");
        m.insert(sb, "issue_queue");
        let text = m.to_text(&nl);
        let m2 = StructureMapping::from_text(&nl, &text).unwrap();
        assert_eq!(m, m2);
        assert_eq!(m2.perf_name(sa), Some("rob"));
        assert_eq!(m2.len(), 2);
    }

    #[test]
    fn pavf_tables_reject_out_of_range_values_at_decode() {
        let ok = r#"{"ports":{"rob":{"read":0.5,"write":1.0}},"structure_avfs":{"rob":0.25}}"#;
        let table: PavfInputs = serde_json::from_str(ok).unwrap();
        assert_eq!(table.port("rob"), Some(PortPavf::new(0.5, 1.0)));
        assert_eq!(table.structure_avf("rob"), Some(0.25));
        let again: PavfInputs =
            serde_json::from_str(&serde_json::to_string(&table).unwrap()).unwrap();
        assert_eq!(again, table);
        for bad in [
            r#"{"ports":{"rob":{"read":-0.5,"write":0.5}},"structure_avfs":{}}"#,
            r#"{"ports":{"rob":{"read":0.5,"write":1.5}},"structure_avfs":{}}"#,
            r#"{"ports":{"rob":{"read":0.5}},"structure_avfs":{}}"#,
            r#"{"ports":{},"structure_avfs":{"rob":7.0}}"#,
            r#"{"ports":{},"structure_avfs":{"rob":-0.1}}"#,
            r#"{"ports":{},"structure_avfs":{"rob":null}}"#,
        ] {
            let e = serde_json::from_str::<PavfInputs>(bad).unwrap_err();
            assert!(e.to_string().contains("[0, 1]"), "{bad}: {e}");
        }
    }

    #[test]
    fn text_parser_rejects_unknown_structures() {
        let nl = netlist_with_structs();
        let e = StructureMapping::from_text(&nl, "nosuch rob\n").unwrap_err();
        assert!(e.contains("nosuch"));
    }

    #[test]
    fn text_parser_skips_comments_and_blanks() {
        let nl = netlist_with_structs();
        let m = StructureMapping::from_text(&nl, "# comment\n\nf.a rob\n").unwrap();
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn unmapped_structures_listed() {
        let nl = netlist_with_structs();
        let sa = nl.lookup_structure("f.a").unwrap();
        let mut m = StructureMapping::new();
        m.insert(sa, "rob");
        let unmapped: Vec<_> = m.unmapped(&nl).collect();
        assert_eq!(unmapped.len(), 1);
        assert_eq!(nl.structure(unmapped[0]).name(), "f.b");
    }

    #[test]
    fn inputs_clamp_and_lookup() {
        let mut p = PavfInputs::new();
        p.set_port("rob", 0.4, 0.3).set_structure_avf("rob", 1.7);
        assert_eq!(p.port("rob").unwrap().read.value(), 0.4);
        assert_eq!(p.structure_avf("rob"), Some(1.0));
        assert_eq!(p.port("nope"), None);
    }
}
