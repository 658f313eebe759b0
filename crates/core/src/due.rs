//! SDC / DUE decomposition of sequential AVFs (§1, §3.1).
//!
//! "There are essentially two types of SER that are computed. One is
//! silent data corruption (SDC) … The second is detected uncorrectable
//! error (DUE), which measures the SER of components that have error
//! detection capability such as arrays protected with parity." With fault
//! injection the two require separate campaigns because the observation
//! points differ; the analytical flow gets both from one propagation
//! (§3.2: "SDC and DUE AVFs can be computed in a single run").
//!
//! The backward annotation of a node records *which* sinks consume its
//! data, as a set of write-port terms. A fault reaching a parity/ECC
//! protected structure's write port is detected (DUE); one reaching an
//! unprotected sink is silent (SDC). A node's AVF therefore splits by the
//! share of its backward pAVF mass flowing to protected vs unprotected
//! sinks.

use std::collections::BTreeSet;

use seqavf_netlist::graph::{Netlist, NodeId};
use serde::{Deserialize, Serialize};

use crate::arena::TermKind;
use crate::engine::SartResult;
use crate::mapping::PavfInputs;

/// Per-node SDC/DUE decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct AvfSplit {
    /// Silent-data-corruption component.
    pub sdc: f64,
    /// Detected-uncorrectable-error component.
    pub due: f64,
}

impl AvfSplit {
    /// Total AVF.
    pub fn total(self) -> f64 {
        self.sdc + self.due
    }
}

/// Whole-design SDC/DUE analysis against a set of protected structures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DueAnalysis {
    /// Per-node splits, indexed by [`NodeId::index`].
    pub nodes: Vec<AvfSplit>,
    /// Names of the protected performance-model structures used.
    pub protected: BTreeSet<String>,
    /// Mean SDC AVF over sequential nodes.
    pub mean_seq_sdc: f64,
    /// Mean DUE AVF over sequential nodes.
    pub mean_seq_due: f64,
}

impl DueAnalysis {
    /// Decomposes a SART result's node AVFs into SDC and DUE components.
    ///
    /// `protected` names the performance-model structures whose write
    /// ports have error detection (parity/ECC). Injected sinks (loop
    /// boundaries, RTL outputs) are unprotected: faults flowing there are
    /// potential SDC.
    pub fn compute(
        result: &SartResult,
        nl: &Netlist,
        inputs: &PavfInputs,
        protected: &BTreeSet<String>,
    ) -> DueAnalysis {
        let values = result.term_values(inputs);
        let mut nodes = Vec::with_capacity(nl.node_count());
        let mut seq_sdc = 0.0;
        let mut seq_due = 0.0;
        let mut seq_count = 0usize;
        for id in nl.nodes() {
            let avf = result.avf(id);
            // Partition the backward (consumption) mass by sink protection.
            let mut det = 0.0f64;
            let mut silent = 0.0f64;
            for &t in result.arena.terms(result.bwd[id.index()]) {
                let v = values[t.index()];
                match result.terms.kind(t) {
                    TermKind::WritePort(s) if protected.contains(s) => det += v,
                    _ => silent += v,
                }
            }
            let total = det + silent;
            let due_fraction = if total == 0.0 { 0.0 } else { det / total };
            let split = AvfSplit {
                sdc: avf * (1.0 - due_fraction),
                due: avf * due_fraction,
            };
            if nl.kind(id).is_sequential() {
                seq_sdc += split.sdc;
                seq_due += split.due;
                seq_count += 1;
            }
            nodes.push(split);
        }
        let n = seq_count.max(1) as f64;
        DueAnalysis {
            nodes,
            protected: protected.clone(),
            mean_seq_sdc: seq_sdc / n,
            mean_seq_due: seq_due / n,
        }
    }

    /// The split for one node.
    pub fn split(&self, id: NodeId) -> AvfSplit {
        self.nodes[id.index()]
    }

    /// Fraction of the mean sequential AVF that is detected (DUE).
    pub fn due_share(&self) -> f64 {
        let total = self.mean_seq_sdc + self.mean_seq_due;
        if total == 0.0 {
            0.0
        } else {
            self.mean_seq_due / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SartConfig, SartEngine};
    use crate::mapping::StructureMapping;
    use seqavf_netlist::flatten::parse_netlist;
    use seqavf_obs::Collector;

    /// One source structure splitting into two sinks, one protected.
    const SPLIT: &str = r"
.design d
.fub f
  .struct src 1
  .struct plain 1
  .struct parity 1
  .flop q1 src[0]
  .flop q2a q1
  .flop q2b q1
  .sw plain[0] q2a
  .sw parity[0] q2b
.endfub
.end
";

    fn setup(
        protect: &[&str],
    ) -> (
        seqavf_netlist::graph::Netlist,
        SartResult,
        PavfInputs,
        DueAnalysis,
    ) {
        let nl = parse_netlist(SPLIT).unwrap();
        let mut inputs = PavfInputs::new();
        inputs.set_port("f.src", 0.8, 0.1);
        inputs.set_port("f.plain", 0.1, 0.2);
        inputs.set_port("f.parity", 0.1, 0.2);
        let obs = Collector::disabled();
        let engine = SartEngine::new_traced(
            &nl,
            &StructureMapping::new(),
            SartConfig::default(),
            None,
            &obs,
        );
        let result = engine.run_traced(&inputs, &obs);
        let protected: BTreeSet<String> = protect.iter().map(|s| (*s).to_owned()).collect();
        let due = DueAnalysis::compute(&result, &nl, &inputs, &protected);
        (nl, result, inputs, due)
    }

    #[test]
    fn split_components_sum_to_avf() {
        let (nl, result, _, due) = setup(&["f.parity"]);
        for id in nl.nodes() {
            let s = due.split(id);
            assert!(
                (s.total() - result.avf(id)).abs() < 1e-12,
                "{}",
                nl.name(id)
            );
            assert!(s.sdc >= 0.0 && s.due >= 0.0);
        }
    }

    #[test]
    fn fault_feeding_only_protected_sink_is_pure_due() {
        let (nl, _, _, due) = setup(&["f.parity"]);
        let q2b = nl.lookup("f.q2b").unwrap();
        let s = due.split(q2b);
        assert_eq!(s.sdc, 0.0, "q2b only reaches the parity structure");
        assert!(s.due > 0.0);
    }

    #[test]
    fn fault_feeding_only_unprotected_sink_is_pure_sdc() {
        let (nl, _, _, due) = setup(&["f.parity"]);
        let q2a = nl.lookup("f.q2a").unwrap();
        let s = due.split(q2a);
        assert_eq!(s.due, 0.0);
        assert!(s.sdc > 0.0);
    }

    #[test]
    fn shared_upstream_node_splits_proportionally() {
        let (nl, _, _, due) = setup(&["f.parity"]);
        let q1 = nl.lookup("f.q1").unwrap();
        let s = due.split(q1);
        // Equal write pAVFs on both sinks: a 50/50 split.
        assert!(s.sdc > 0.0 && s.due > 0.0);
        assert!((s.sdc - s.due).abs() < 1e-12, "{s:?}");
    }

    #[test]
    fn no_protection_means_all_sdc() {
        let (nl, result, _, due) = setup(&[]);
        assert_eq!(due.due_share(), 0.0);
        for id in nl.seq_nodes() {
            assert_eq!(due.split(id).due, 0.0);
            assert!((due.split(id).sdc - result.avf(id)).abs() < 1e-12);
        }
    }

    #[test]
    fn protecting_everything_moves_share_to_due() {
        let (_, _, _, due_all) = setup(&["f.parity", "f.plain", "f.src"]);
        let (_, _, _, due_none) = setup(&[]);
        assert!(due_all.due_share() > 0.8, "{}", due_all.due_share());
        assert_eq!(due_none.due_share(), 0.0);
        // SDC + DUE totals identical across protection choices.
        let t_all = due_all.mean_seq_sdc + due_all.mean_seq_due;
        let t_none = due_none.mean_seq_sdc + due_none.mean_seq_due;
        assert!((t_all - t_none).abs() < 1e-12);
    }
}
