//! Per-FUB AVF reporting (the paper's Figure 9 and §6.1 counts).

use seqavf_netlist::graph::Netlist;
use serde::{Deserialize, Serialize};

use crate::engine::SartResult;

/// Per-FUB averages after the final relaxation iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FubAvfRow {
    /// FUB name.
    pub fub: String,
    /// Sequential (flop/latch) nodes in the FUB.
    pub seq_count: usize,
    /// All nodes in the FUB.
    pub node_count: usize,
    /// Mean AVF over the FUB's sequential nodes.
    pub seq_avf: f64,
    /// Mean AVF over all of the FUB's nodes (combinational + sequential +
    /// boundary), the paper's "node pAVF" series.
    pub node_avf: f64,
}

/// Whole-design summary of a SART run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SartSummary {
    /// One row per FUB, in FUB-id order.
    pub rows: Vec<FubAvfRow>,
    /// Sequential-count-weighted mean sequential AVF ("the overall averages
    /// are weighted to account for the actual number of sequentials in each
    /// FUB").
    pub weighted_seq_avf: f64,
    /// Node-count-weighted mean AVF over all nodes.
    pub weighted_node_avf: f64,
    /// Control-register bits identified (§6.1: 6,825 on the Xeon core).
    pub control_reg_bits: usize,
    /// Sequential bits on loops (§6.1: 201,530 on the Xeon core).
    pub loop_seq_bits: usize,
    /// Fraction of nodes visited by walks (§6.1: >98%).
    pub visited_fraction: f64,
    /// Relaxation iterations executed (§6.1: 20).
    pub iterations: usize,
}

impl SartSummary {
    /// Builds the summary from a run's result.
    pub fn new(nl: &Netlist, result: &SartResult) -> Self {
        let nf = nl.fub_count();
        let mut seq_sum = vec![0.0; nf];
        let mut seq_cnt = vec![0usize; nf];
        let mut node_sum = vec![0.0; nf];
        let mut node_cnt = vec![0usize; nf];
        for id in nl.nodes() {
            let f = nl.fub(id).index();
            let v = result.avf(id);
            node_sum[f] += v;
            node_cnt[f] += 1;
            if nl.kind(id).is_sequential() {
                seq_sum[f] += v;
                seq_cnt[f] += 1;
            }
        }
        let rows: Vec<FubAvfRow> = (0..nf)
            .map(|f| FubAvfRow {
                fub: nl
                    .fub_name(seqavf_netlist::graph::FubId::from_index(f))
                    .to_owned(),
                seq_count: seq_cnt[f],
                node_count: node_cnt[f],
                seq_avf: if seq_cnt[f] == 0 {
                    0.0
                } else {
                    seq_sum[f] / seq_cnt[f] as f64
                },
                node_avf: if node_cnt[f] == 0 {
                    0.0
                } else {
                    node_sum[f] / node_cnt[f] as f64
                },
            })
            .collect();
        let total_seq: usize = seq_cnt.iter().sum();
        let total_node: usize = node_cnt.iter().sum();
        SartSummary {
            weighted_seq_avf: if total_seq == 0 {
                0.0
            } else {
                seq_sum.iter().sum::<f64>() / total_seq as f64
            },
            weighted_node_avf: if total_node == 0 {
                0.0
            } else {
                node_sum.iter().sum::<f64>() / total_node as f64
            },
            rows,
            control_reg_bits: result.roles.control_reg_bits(),
            loop_seq_bits: result.roles.loop_seq_bits(),
            visited_fraction: result.visited_fraction(nl),
            iterations: result.iterations(),
        }
    }

    /// Renders an aligned text table (one row per FUB plus the weighted
    /// totals), suitable for terminal output.
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>10} {:>9} {:>9}",
            "FUB", "seqs", "nodes", "seqAVF", "nodeAVF"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<12} {:>10} {:>10} {:>9.4} {:>9.4}",
                r.fub, r.seq_count, r.node_count, r.seq_avf, r.node_avf
            );
        }
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>10} {:>9.4} {:>9.4}",
            "WEIGHTED",
            self.rows.iter().map(|r| r.seq_count).sum::<usize>(),
            self.rows.iter().map(|r| r.node_count).sum::<usize>(),
            self.weighted_seq_avf,
            self.weighted_node_avf
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SartConfig, SartEngine};
    use crate::mapping::{PavfInputs, StructureMapping};
    use seqavf_netlist::flatten::parse_netlist;
    use seqavf_obs::Collector;

    fn summary() -> SartSummary {
        let nl = parse_netlist(
            r"
.design x
.fub a
  .struct s1 1
  .flop q1 s1[0]
  .flop q2 q1
  .output o q2
.endfub
.fub b
  .flop r a.o
  .output o2 r
.endfub
.end
",
        )
        .unwrap();
        let mut inputs = PavfInputs::new();
        inputs.set_port("a.s1", 0.2, 0.4);
        let obs = Collector::disabled();
        let engine = SartEngine::new_traced(
            &nl,
            &StructureMapping::new(),
            SartConfig::default(),
            None,
            &obs,
        );
        let r = engine.run_traced(&inputs, &obs);
        SartSummary::new(&nl, &r)
    }

    #[test]
    fn rows_cover_all_fubs() {
        let s = summary();
        assert_eq!(s.rows.len(), 2);
        assert_eq!(s.rows[0].fub, "a");
        assert_eq!(s.rows[0].seq_count, 2);
        assert_eq!(s.rows[1].seq_count, 1);
    }

    #[test]
    fn weighted_average_weights_by_seq_count() {
        let s = summary();
        let manual = (s.rows[0].seq_avf * 2.0 + s.rows[1].seq_avf) / 3.0;
        assert!((s.weighted_seq_avf - manual).abs() < 1e-12);
    }

    #[test]
    fn avfs_track_source_pavf() {
        let s = summary();
        // Everything downstream of s1 with boundary_out at 1.0: forward
        // 0.2 dominates.
        assert!((s.rows[0].seq_avf - 0.2).abs() < 1e-12);
        assert!((s.rows[1].seq_avf - 0.2).abs() < 1e-12);
    }

    #[test]
    fn table_renders() {
        let s = summary();
        let t = s.to_table();
        assert!(t.contains("FUB"));
        assert!(t.contains("WEIGHTED"));
        assert!(t.lines().count() >= 4);
    }

    #[test]
    fn serializes_to_json() {
        let s = summary();
        let j = serde_json::to_string(&s).unwrap();
        let back: SartSummary = serde_json::from_str(&j).unwrap();
        assert_eq!(s, back);
    }
}
