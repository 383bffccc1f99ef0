//! Order statistics the metrics are built from. Pure functions over
//! `f64` samples; no workspace symbols.

/// Segments the timed phase is cut into for `updates_per_s`.
pub const SEGMENTS: usize = 5;
/// A percentile is reported only with at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` (in `(0, 1]`) among `n` samples.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// Nearest-rank percentile.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    v[nearest_rank(v.len(), p) - 1]
}

/// Cuts the timed rounds into [`SEGMENTS`] runs of equal round count.
///
/// # Panics
///
/// Panics unless the round count is a positive multiple of [`SEGMENTS`].
fn segments(round_s: &[f64]) -> std::slice::Chunks<'_, f64> {
    assert!(
        !round_s.is_empty() && round_s.len().is_multiple_of(SEGMENTS),
        "{} timed rounds do not split into {SEGMENTS} equal segments",
        round_s.len()
    );
    round_s.chunks(round_s.len() / SEGMENTS)
}

/// `updates / wall` of each of the five segments, in round order.
/// `updates_per_s` is their median, so one stall moves one segment and
/// not the metric, while a cost that recurs (a stall every few dozen
/// rounds) lands in most segments and does.
pub fn segment_throughputs(round_s: &[f64], updates_per_round: usize) -> Vec<f64> {
    segments(round_s).map(|seg| (seg.len() * updates_per_round) as f64 / seg.iter().sum::<f64>()).collect()
}

/// Nearest-rank percentile over all samples, refused unless
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn guarded_percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let beyond = samples_beyond(samples.len(), p);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{:.0} of {} samples has {beyond} beyond it, need {MIN_BEYOND}",
            100.0 * p,
            samples.len()
        ));
    }
    Ok(percentile(samples, p))
}

/// Rounds up to a positive multiple of [`SEGMENTS`].
pub fn round_up_to_segments(rounds: usize) -> usize {
    rounds.max(1).div_ceil(SEGMENTS) * SEGMENTS
}

/// `|b − a| / a`.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    ((b - a) / a).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn median_segment_throughput(round_s: &[f64], updates_per_round: usize) -> f64 {
        median(&segment_throughputs(round_s, updates_per_round))
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.9), 3.0);
        assert_eq!(nearest_rank(150, 0.9), 135);
    }

    #[test]
    fn tail_guard_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(150, 0.9), 15);
        // p99 of 100 samples has one sample beyond it: not a metric.
        assert_eq!(samples_beyond(100, 0.99), 1);
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(guarded_percentile(&v, 0.9).unwrap_err().contains("9 beyond"));
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(guarded_percentile(&v, 0.9), Ok(89.0));
        assert!(guarded_percentile(&v, 0.99).is_err());
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn median_of_nine_setups_ignores_cold_outliers() {
        // First-in-process construction is slower; one stall is slower
        // still. Neither moves the median of nine.
        let reps = [0.40, 0.22, 0.21, 0.23, 0.22, 0.95, 0.22, 0.21, 0.23];
        assert_eq!(median(&reps), 0.22);
    }

    #[test]
    fn median_of_five_segments_ignores_one_stall_and_follows_the_program() {
        // 10 rounds of 0.1 s, 100 updates each: 1000 updates/s.
        let mut rounds = vec![0.1; 10];
        assert!((median_segment_throughput(&rounds, 100) - 1000.0).abs() < 1e-9);
        // A 2 s stall lands in one segment; the plain quotient would read 345/s.
        rounds[3] = 2.0;
        assert!((median_segment_throughput(&rounds, 100) - 1000.0).abs() < 1e-9);
        assert!((segment_throughputs(&rounds, 100)[1] - 200.0 / 2.1).abs() < 1e-9);
        // A program that is slower everywhere moves it.
        assert!((median_segment_throughput(&[0.2; 10], 100) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn a_recurring_stall_moves_throughput() {
        // 100 rounds of 10 ms; amortised work stalls rounds 0, 25, 50 and
        // 75 for 500 ms. Four of five segments hold a stall, so the
        // median segment does: throughput falls 3.5x. The median round and
        // p90 stay at 10 ms by definition (4 % of rounds are slow).
        let mut rounds = vec![0.010; 100];
        for stalled in [0, 25, 50, 75] {
            rounds[stalled] = 0.5;
        }
        let stalled = median_segment_throughput(&rounds, 1);
        assert!((stalled - 20.0 / 0.69).abs() < 1e-9, "{stalled}");
        assert_eq!(median(&rounds), 0.010);
        assert_eq!(guarded_percentile(&rounds, 0.9), Ok(0.010));
        // Ten percent of rounds slow is where p90 starts to see them.
        for slow in (0..100).step_by(9) {
            rounds[slow] = 0.5;
        }
        assert_eq!(guarded_percentile(&rounds, 0.9), Ok(0.5));
    }

    #[test]
    #[should_panic(expected = "equal segments")]
    fn throughput_refuses_ragged_segments() {
        let _ = median_segment_throughput(&[0.1; 7], 1);
    }

    #[test]
    fn segment_rounding() {
        assert_eq!(round_up_to_segments(0), 5);
        assert_eq!(round_up_to_segments(100), 100);
        assert_eq!(round_up_to_segments(101), 105);
    }
}
