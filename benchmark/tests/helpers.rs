//! The percentile helper's tail rule and the determinism of every seeded
//! input stream.

use seqavf_benchmark::inputs::{
    arrivals, build_design, picks, suite_config, suite_tables, Editor, Size,
};
use seqavf_benchmark::stats::{median, min_samples, tail, MIN_BEYOND};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn a_tail_needs_ten_samples_beyond_it() {
    assert_eq!(min_samples(0.75), 40);
    assert_eq!(min_samples(0.9), 100);
    assert_eq!(min_samples(0.99), 1000);
    assert_eq!(tail(&ramp(39), 0.75), None);
    assert_eq!(tail(&ramp(40), 0.75), Some(30.0));
    assert_eq!(tail(&ramp(999), 0.99), None);
    assert_eq!(tail(&ramp(1000), 0.99), Some(990.0));
    for n in [40, 41, 77, 100, 1000] {
        let beyond = ramp(n)
            .iter()
            .filter(|&&v| v > tail(&ramp(n), 0.75).unwrap())
            .count();
        assert!(beyond >= MIN_BEYOND, "{n} samples: {beyond} beyond p75");
    }
}

#[test]
fn an_unreportable_tail_is_omitted_never_zeroed() {
    assert_eq!(tail(&[], 0.75), None);
    assert_eq!(tail(&[5.0; 12], 0.75), None);
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
}

fn revisions(seed: u64, n: usize) -> Vec<String> {
    let base = build_design(Size::Small);
    let mut editor = Editor::new(&base.text, seed);
    (0..n).map(|_| editor.next_revision()).collect()
}

#[test]
fn edit_sequences_repeat_per_seed_and_differ_across_seeds() {
    let a = revisions(1, 5);
    assert_eq!(a, revisions(1, 5));
    assert_ne!(a, revisions(2, 5));
    // Chained: every revision differs from every earlier one.
    for (i, r) in a.iter().enumerate() {
        assert!(
            a[..i].iter().all(|earlier| earlier != r),
            "revision {i} repeats"
        );
    }
}

#[test]
fn arrival_schedules_repeat_per_seed_and_differ_across_seeds() {
    let a = arrivals(1, "s", 60.0, 1200);
    assert_eq!(a, arrivals(1, "s", 60.0, 1200));
    assert_ne!(a, arrivals(2, "s", 60.0, 1200));
    assert_ne!(a, arrivals(1, "other", 60.0, 1200));
    assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals are sorted");
    assert!(
        a.iter().all(|&t| (0.0..20.0).contains(&t)),
        "1200 at 60/s span 20 s"
    );
}

#[test]
fn table_picks_and_pools_repeat_per_seed_and_differ_across_seeds() {
    let p = picks(1, "q", 64, 16, 50);
    assert_eq!(p, picks(1, "q", 64, 16, 50));
    assert_ne!(p, picks(2, "q", 64, 16, 50));
    for request in &p {
        let mut sorted = request.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 16, "picks within a request are distinct");
        assert!(sorted.iter().all(|&k| k < 64));
    }
    let pool = |seed| suite_tables(&suite_config(seed, 4, 300));
    let a = pool(1);
    assert_eq!(a, pool(1));
    assert_ne!(a, pool(2));
}
