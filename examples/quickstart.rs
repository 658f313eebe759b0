//! Quickstart: the paper's Figure 7 worked example.
//!
//! Builds the S1–S4 circuit from EXLIF text, assigns the figure's port
//! AVFs (`pAVF_1 = 0.10`, `pAVF_2 = 0.02`), runs SART, and prints every
//! sequential's closed-form equation and resolved AVF.
//!
//! Run with: `cargo run --example quickstart`

use seqavf::core::engine::{SartConfig, SartEngine};
use seqavf::core::mapping::{PavfInputs, StructureMapping};
use seqavf::netlist::flatten::parse_netlist;
use seqavf::obs::Collector;

/// The Figure 7 circuit: S1 and S2 read ports feed a pipeline with a
/// logical join (G1), a second join (G2) and a distribution split, ending
/// at the write ports of S3 and S4.
const FIGURE7: &str = r"
.design figure7
.fub f
  .struct s1 1
  .struct s2 1
  .struct s3 1
  .struct s4 1
  .flop q1a s1[0]
  .flop q1b s2[0]
  .flop q2a q1a
  .gate nor g1 q2a q1b
  .flop q3b g1
  .gate nor g2 q2a g1
  .flop q3a g2
  .sw s3[0] q3a
  .sw s4[0] q3b
.endfub
.end
";

fn main() {
    let netlist = parse_netlist(FIGURE7).expect("the example netlist is valid");

    // Port AVFs as given in the figure. In the real flow these come from
    // the ACE-instrumented performance model (see `seqavf-perf`).
    let mut inputs = PavfInputs::new();
    inputs.set_port("f.s1", 0.10, 0.50); // pAVF_1
    inputs.set_port("f.s2", 0.02, 0.50); // pAVF_2
    inputs.set_port("f.s3", 0.50, 0.90);
    inputs.set_port("f.s4", 0.50, 0.90);

    let obs = Collector::disabled();
    let engine = SartEngine::new_traced(
        &netlist,
        &StructureMapping::new(),
        SartConfig::default(),
        None,
        &obs,
    );
    let result = engine.run_traced(&inputs, &obs);

    println!(
        "Figure 7 pAVF propagation ({} nodes, {} sequential)\n",
        netlist.node_count(),
        netlist.seq_count()
    );
    println!(
        "{:<8} {:>8} {:>8} {:>8}  closed form",
        "node", "fwd", "bwd", "AVF"
    );
    for id in netlist.seq_nodes() {
        println!(
            "{:<8} {:>8.4} {:>8.4} {:>8.4}  {}",
            netlist.name(id).trim_start_matches("f."),
            result.forward_value(id, &inputs),
            result.backward_value(id, &inputs),
            result.avf(id),
            result.closed_form(id),
        );
    }

    // The union dedup of §4.2: G2 joins pAVF_1 with (pAVF_1 ∪ pAVF_2) and
    // the result stays 0.12, not 0.22.
    let q3a = netlist.lookup("f.q3a").expect("exists");
    assert!((result.forward_value(q3a, &inputs) - 0.12).abs() < 1e-12);
    println!("\nQ3a forward = 0.12: pAVF_1 ∪ (pAVF_1 ∪ pAVF_2) simplified by set union.");
}
