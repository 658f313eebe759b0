//! E10 — design-choice ablations (§4/§5.1): backward walk, bit-field
//! analysis, HD-1, residency mode, FUBIO relaxation iterations.
//! Usage: `ablations [--scale full]`.
use seqavf_bench::common::{emit, Scale};

fn main() {
    let scale = Scale::from_args();
    let report = seqavf_bench::ablations::run(scale, 42);
    emit("ablations", &report.render(), &report);
}
