//! E12 — parallel relaxation wall time vs worker-thread count.
//! Usage: `thread_scaling [--scale full]`.
use seqavf_bench::common::{emit, Scale};

fn main() {
    let scale = Scale::from_args();
    let report = seqavf_bench::threads::run(scale, 42, &[1, 2, 4, 8]);
    emit("thread_scaling", &report.render(), &report);
}
