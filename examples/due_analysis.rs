//! SDC vs DUE decomposition (§1, §3.1) on a hand-written structural
//! Verilog design.
//!
//! The paper notes that fault-injection flows need *separate* campaigns
//! for SDC and DUE because the observation points differ, while the
//! analytical flow yields both from one propagation. Here a datapath
//! splits toward an unprotected buffer and a parity-protected queue; the
//! DUE analysis apportions each flop's AVF by where its faults would land.
//!
//! Run with: `cargo run --example due_analysis`

use std::collections::BTreeSet;

use seqavf::core::due::DueAnalysis;
use seqavf::core::engine::{SartConfig, SartEngine};
use seqavf::core::mapping::{PavfInputs, StructureMapping};
use seqavf::netlist::verilog;
use seqavf::obs::Collector;

const DESIGN: &str = r"
// A small datapath: one source structure feeding two sinks through a
// shared pipeline. `pqueue` is parity protected; `buffer` is not.
module dp (input din, output dout);
  structure src    [1:0];
  structure buffer [1:0];
  structure pqueue [1:0];
  dff q1 (.q(q1o), .d(src[0]));
  dff q2 (.q(q2o), .d(q1o));
  // Distribution split: the shared value reaches both sinks.
  dff qa (.q(qao), .d(q2o));
  dff qb (.q(qbo), .d(q2o));
  assign buffer[0] = qao;
  assign pqueue[0] = qbo;
  // A second path that only ever reaches the protected queue.
  dff qp (.q(qpo), .d(src[1]));
  assign pqueue[1] = qpo;
  assign dout = q2o;
endmodule
";

fn main() {
    let nl = verilog::parse_netlist(DESIGN).expect("valid design");
    let mut inputs = PavfInputs::new();
    inputs.set_port("dp.src", 0.30, 0.10);
    inputs.set_port("dp.buffer", 0.10, 0.20);
    inputs.set_port("dp.pqueue", 0.10, 0.20);

    let obs = Collector::disabled();
    let engine = SartEngine::new_traced(
        &nl,
        &StructureMapping::new(),
        SartConfig::default(),
        None,
        &obs,
    );
    let result = engine.run_traced(&inputs, &obs);

    let protected: BTreeSet<String> = ["dp.pqueue".to_owned()].into();
    let due = DueAnalysis::compute(&result, &nl, &inputs, &protected);

    println!("SDC/DUE decomposition (pqueue parity-protected)\n");
    println!("{:<8} {:>8} {:>8} {:>8}", "flop", "AVF", "SDC", "DUE");
    for id in nl.seq_nodes() {
        let s = due.split(id);
        println!(
            "{:<8} {:>8.4} {:>8.4} {:>8.4}",
            nl.name(id).trim_start_matches("dp."),
            result.avf(id),
            s.sdc,
            s.due
        );
    }
    println!(
        "\nmean sequential: SDC = {:.4}, DUE = {:.4} ({:.1}% of faults detected)",
        due.mean_seq_sdc,
        due.mean_seq_due,
        due.due_share() * 100.0
    );

    let qp = nl.lookup("dp.qpo").expect("exists");
    assert_eq!(due.split(qp).sdc, 0.0, "qp only reaches the protected sink");
    println!("\nqp's faults are all DUE: every path from it ends at parity.");
}
