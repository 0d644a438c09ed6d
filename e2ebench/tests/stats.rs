//! The percentile rule: the median is always the estimator; a tail
//! percentile is reported only with at least ten samples beyond it.

use e2ebench::stats::{highest_tail, median, quartiles, tail_percentile, MIN_BEYOND};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn no_tail_percentile_with_fewer_than_ten_samples_beyond() {
    for n in 1..400 {
        let xs = ramp(n);
        for p in [0.5, 0.75, 0.9, 0.95, 0.99] {
            if let Some(v) = tail_percentile(&xs, p) {
                let beyond = xs.iter().filter(|&&x| x > v).count();
                assert!(beyond >= MIN_BEYOND, "p{p} of {n}: {beyond} beyond");
            }
        }
    }
}

#[test]
fn p90_needs_a_hundred_samples_and_p99_a_thousand() {
    assert_eq!(tail_percentile(&ramp(99), 0.9), None);
    assert_eq!(tail_percentile(&ramp(100), 0.9), Some(90.0));
    assert_eq!(tail_percentile(&ramp(999), 0.99), None);
    assert_eq!(tail_percentile(&ramp(1000), 0.99), Some(990.0));
}

#[test]
fn highest_tail_is_the_highest_percentile_with_ten_beyond() {
    assert_eq!(highest_tail(&ramp(15)), None);
    assert_eq!(highest_tail(&ramp(100)), Some((90, 90.0)));
    assert_eq!(highest_tail(&ramp(5000)), Some((99, 4950.0)));
    let (pct, v) = highest_tail(&ramp(40)).unwrap();
    assert_eq!((pct, v), (75, 30.0));
}

#[test]
fn median_and_quartiles() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(quartiles(&ramp(8)), Some((2.0, 6.0)));
}
