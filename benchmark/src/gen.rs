//! The load generator's own input synthesis: every input is a pure
//! function of `--seed`. No workspace symbols; the program only ever sees
//! what is generated here.

/// SplitMix64 stream.
pub struct SplitMix(u64);

impl SplitMix {
    /// Stream `stream` of `seed`; distinct streams are decorrelated.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        s.next_u64();
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32) * (2.0 / (1u64 << 24) as f32) - 1.0
    }
}

/// `n` honest-looking gradients of dimension `d`: one shared direction
/// plus per-client noise. The direction is offset from zero so about two
/// thirds of the coordinates are positive — sign statistics, which the
/// SignGuard filter clusters on, then tell a sign-flipped row apart.
pub fn honest_rows(n: usize, d: usize, seed: u64, stream: u64) -> Vec<Vec<f32>> {
    let mut rng = SplitMix::new(seed, stream);
    let phase = rng.unit();
    let base: Vec<f32> = (0..d).map(|j| 0.5 + (j as f32 * 0.11 + phase).sin()).collect();
    (0..n).map(|_| base.iter().map(|&b| b + 0.3 * rng.unit()).collect()).collect()
}

/// Coordinate-wise mean of `rows`.
pub fn mean_row(rows: &[Vec<f32>]) -> Vec<f32> {
    let mut mean = vec![0.0f64; rows[0].len()];
    for row in rows {
        for (m, &x) in mean.iter_mut().zip(row) {
            *m += f64::from(x);
        }
    }
    mean.into_iter().map(|m| (m / rows.len() as f64) as f32).collect()
}

/// Cosine of the angle between `a` and `b`.
pub fn cosine(a: &[f32], b: &[f32]) -> f64 {
    let (mut ab, mut aa, mut bb) = (0.0f64, 0.0f64, 0.0f64);
    for (&x, &y) in a.iter().zip(b) {
        ab += f64::from(x) * f64::from(y);
        aa += f64::from(x) * f64::from(x);
        bb += f64::from(y) * f64::from(y);
    }
    ab / (aa.sqrt() * bb.sqrt())
}

pub fn all_finite(v: &[f32]) -> bool {
    v.iter().all(|x| x.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_rows_other_seed_other_rows() {
        assert_eq!(honest_rows(3, 64, 9, 1), honest_rows(3, 64, 9, 1));
        assert_ne!(honest_rows(3, 64, 9, 1), honest_rows(3, 64, 10, 1));
        assert_ne!(honest_rows(3, 64, 9, 1), honest_rows(3, 64, 9, 2));
    }

    #[test]
    fn rows_share_a_direction_and_lean_positive() {
        let rows = honest_rows(8, 4096, 3, 0);
        assert!(cosine(&rows[0], &rows[7]) > 0.9);
        let positive = rows[0].iter().filter(|&&x| x > 0.0).count() as f64 / 4096.0;
        assert!((0.6..0.75).contains(&positive), "{positive}");
        assert!(rows.iter().all(|r| all_finite(r)));
    }

    #[test]
    fn unit_stays_in_range() {
        let mut rng = SplitMix::new(1, 1);
        assert!((0..10_000).map(|_| rng.unit()).all(|u| (-1.0..1.0).contains(&u)));
    }
}
