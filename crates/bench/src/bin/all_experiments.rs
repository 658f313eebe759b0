//! Runs every paper experiment (E2–E11, E17) in sequence and writes all
//! reports — the one-command reproduction of the paper's evaluation
//! section. Usage: `all_experiments [--scale quick|full]`.
use seqavf_bench::common::{emit, Scale};

fn main() {
    let scale = Scale::from_args();
    println!("=== E2: Figure 8 — loop-boundary pAVF sweep ===");
    let r = seqavf_bench::fig8::run(scale, 42);
    emit("fig8_loop_sweep", &r.render(), &r);
    println!("\n=== E3: Figure 9 — per-FUB AVF ===");
    let r = seqavf_bench::fig9::run(scale, 42);
    emit("fig9_fub_avf", &r.render(), &r);
    println!("\n=== E4: convergence ===");
    let r = seqavf_bench::convergence::run(scale, 42);
    emit("convergence", &r.render(), &r);
    println!("\n=== E5: Figure 10 — beam correlation ===");
    let r = seqavf_bench::fig10::run(scale, 42);
    emit("fig10_beam_correlation", &r.render(), &r);
    println!("\n=== E6: headline numbers ===");
    let r = seqavf_bench::headline::run(scale, 42);
    emit("headline_numbers", &r.render(), &r);
    println!("\n=== E7: speed comparison ===");
    let r = seqavf_bench::speed::run(scale, 42);
    emit("speed_comparison", &r.render(), &r);
    println!("\n=== E8: SART accuracy vs SFI ===");
    let r = seqavf_bench::accuracy::run(scale, 42);
    emit("sart_accuracy", &r.render(), &r);
    println!("\n=== E9: symbolic re-evaluation ===");
    let r = seqavf_bench::symbolic::run(scale, 42);
    emit("symbolic_ablation", &r.render(), &r);
    println!("\n=== E10: ablations ===");
    let r = seqavf_bench::ablations::run(scale, 42);
    emit("ablations", &r.render(), &r);
    println!("\n=== E11: scaling ===");
    let r = seqavf_bench::scaling::run(scale, 42);
    emit("scaling", &r.render(), &r);
    println!("\n=== E17: validation campaign ===");
    let r = seqavf_bench::validate::run(scale, 42, &[1, 8, 32]);
    emit("BENCH_8", &r.render(), &r);
}
