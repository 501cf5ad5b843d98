//! Fast Fourier transforms.
//!
//! Provides an iterative radix-2 Cooley–Tukey FFT for power-of-two lengths
//! and a Bluestein (chirp-z) fallback for arbitrary lengths, so callers can
//! transform CSI vectors of any subcarrier count (e.g. the 114 usable
//! subcarriers of a 40 MHz 802.11n channel) without padding decisions
//! leaking into the signal path. The same chirp-z machinery ([`czt`],
//! [`Czt`]) evaluates a DTFT on any uniform frequency grid, which the CSI
//! sanitizer uses for its delay search.
//!
//! Conventions: `fft` computes `X[k] = Σ_n x[n]·e^{-2πi·kn/N}` (no scaling);
//! `ifft` applies the `1/N` factor so `ifft(fft(x)) == x`.

use crate::complex::{Complex64, ZERO};

/// Returns true if `n` is a power of two (and nonzero).
#[inline]
fn is_pow2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// In-place bit-reversal permutation.
fn bit_reverse_permute(x: &mut [Complex64]) {
    let n = x.len();
    let mut j = 0usize;
    for i in 0..n {
        if i < j {
            x.swap(i, j);
        }
        let mut mask = n >> 1;
        while mask > 0 && j & mask != 0 {
            j &= !mask;
            mask >>= 1;
        }
        j |= mask;
    }
}

/// In-place radix-2 FFT. `x.len()` must be a power of two.
/// `inverse` selects the conjugate transform (without the 1/N scale).
fn fft_pow2_in_place(x: &mut [Complex64], inverse: bool) {
    let n = x.len();
    debug_assert!(is_pow2(n));
    bit_reverse_permute(x);
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * std::f64::consts::TAU / len as f64;
        let wlen = Complex64::cis(ang);
        for chunk in x.chunks_exact_mut(len) {
            let mut w = Complex64::new(1.0, 0.0);
            let half = len / 2;
            for i in 0..half {
                let u = chunk[i];
                let v = chunk[i + half] * w;
                chunk[i] = u + v;
                chunk[i + half] = u - v;
                w *= wlen;
            }
        }
        len <<= 1;
    }
}

/// A chirp-z transform plan: evaluates the DTFT of an `n`-point input on
/// `len` equally spaced frequencies,
///
/// `X[k] = Σ_m x[m]·e^{-i(start + k·step)·m}`, for `k = 0..len`,
///
/// as one power-of-two FFT convolution (Bluestein's identity
/// `mk = (m² + k² − (k−m)²)/2`). The chirps and the chirp filter's
/// spectrum depend only on `(n, start, step, len)`, so a plan built once
/// transforms any number of inputs of that length for two FFTs each.
#[derive(Debug, Clone)]
pub struct Czt {
    /// Input weights `e^{-i·start·m}·w[m]`, `m < n`.
    pre: Vec<Complex64>,
    /// Output weights `w[k]/M`, `k < len` (the `1/M` completes the inverse
    /// FFT).
    post: Vec<Complex64>,
    /// FFT of the chirp filter `conj(w[t])`, `t ∈ (−n, len)`, laid out
    /// circularly over the convolution length `M ≥ n + len − 1`.
    filter: Vec<Complex64>,
}

impl Czt {
    /// Plans a transform of `n`-point inputs onto the frequencies
    /// `start + k·step` (radians per sample), `k = 0..len`.
    pub fn new(n: usize, start: f64, step: f64, len: usize) -> Self {
        let m = (n.max(1) + len - 1).next_power_of_two();
        // w[t] = e^{-i·step·t²/2}.
        let chirp: Vec<Complex64> = (0..n.max(len))
            .map(|t| Complex64::cis(-0.5 * step * (t as f64 * t as f64)))
            .collect();
        let pre = (0..n)
            .map(|t| chirp[t] * Complex64::cis(-start * t as f64))
            .collect();
        let post = chirp[..len]
            .iter()
            .map(|w| w.scale(1.0 / m as f64))
            .collect();
        let mut filter = vec![ZERO; m];
        for (t, w) in chirp.iter().enumerate().take(len) {
            filter[t] = w.conj();
        }
        for (t, w) in chirp.iter().enumerate().take(n).skip(1) {
            filter[m - t] = w.conj();
        }
        fft_pow2_in_place(&mut filter, false);
        Czt { pre, post, filter }
    }

    /// Transforms `x` (of the planned input length) to its `len` outputs.
    ///
    /// # Panics
    /// If `x.len()` differs from the planned input length.
    pub fn apply(&self, x: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(x.len(), self.pre.len(), "czt input length");
        let mut a = vec![ZERO; self.filter.len()];
        for ((a, &x), &p) in a.iter_mut().zip(x).zip(&self.pre) {
            *a = x * p;
        }
        fft_pow2_in_place(&mut a, false);
        for (a, &f) in a.iter_mut().zip(&self.filter) {
            *a *= f;
        }
        fft_pow2_in_place(&mut a, true);
        a.truncate(self.post.len());
        for (a, &p) in a.iter_mut().zip(&self.post) {
            *a *= p;
        }
        a
    }
}

/// Chirp-z transform: `X[k] = Σ_m x[m]·e^{-i(start + k·step)·m}` for
/// `k = 0..len`, i.e. the DTFT of `x` sampled on an arbitrary uniform
/// frequency grid, in `O((n + len)·log(n + len))`. Build a [`Czt`] plan
/// instead when transforming many inputs on the same grid.
pub fn czt(x: &[Complex64], start: f64, step: f64, len: usize) -> Vec<Complex64> {
    Czt::new(x.len(), start, step, len).apply(x)
}

/// Bluestein's algorithm: an arbitrary-length DFT is the chirp-z transform
/// on the `N` roots of unity (step `2π/N`, or `−2π/N` for the inverse).
fn bluestein(x: &[Complex64], inverse: bool) -> Vec<Complex64> {
    let n = x.len();
    let step = std::f64::consts::TAU / n as f64;
    czt(x, 0.0, if inverse { -step } else { step }, n)
}

/// Forward DFT of arbitrary length.
///
/// Power-of-two lengths use the radix-2 path; other lengths use Bluestein.
/// An empty input returns an empty output.
///
/// ```
/// use rim_dsp::complex::Complex64;
/// use rim_dsp::fft::{fft, ifft};
///
/// // Works for non-power-of-two lengths (e.g. 114 subcarriers).
/// let x: Vec<Complex64> = (0..114).map(|k| Complex64::new(k as f64, 0.0)).collect();
/// let y = ifft(&fft(&x));
/// assert!(x.iter().zip(&y).all(|(a, b)| (*a - *b).abs() < 1e-8));
/// ```
pub fn fft(x: &[Complex64]) -> Vec<Complex64> {
    match x.len() {
        0 => Vec::new(),
        n if is_pow2(n) => {
            let mut y = x.to_vec();
            fft_pow2_in_place(&mut y, false);
            y
        }
        _ => bluestein(x, false),
    }
}

/// Inverse DFT of arbitrary length, scaled by `1/N` so that
/// `ifft(fft(x)) == x` up to rounding.
pub fn ifft(x: &[Complex64]) -> Vec<Complex64> {
    let n = x.len();
    if n == 0 {
        return Vec::new();
    }
    let mut y = if is_pow2(n) {
        let mut y = x.to_vec();
        fft_pow2_in_place(&mut y, true);
        y
    } else {
        bluestein(x, true)
    };
    let scale = 1.0 / n as f64;
    for z in &mut y {
        *z = z.scale(scale);
    }
    y
}

/// Naive `O(N²)` DFT, used as a reference in tests and for very short inputs
/// where FFT set-up overhead dominates.
pub fn dft_naive(x: &[Complex64]) -> Vec<Complex64> {
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut acc = ZERO;
            for (j, &v) in x.iter().enumerate() {
                let ang = -std::f64::consts::TAU * (k * j % n) as f64 / n as f64;
                acc += v * Complex64::cis(ang);
            }
            acc
        })
        .collect()
}

/// Converts a channel frequency response (CFR) to a channel impulse
/// response (CIR) via the inverse DFT.
pub fn cfr_to_cir(cfr: &[Complex64]) -> Vec<Complex64> {
    ifft(cfr)
}

/// Converts a channel impulse response back to a frequency response.
pub fn cir_to_cfr(cir: &[Complex64]) -> Vec<Complex64> {
    fft(cir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::norm_sqr;

    fn assert_vec_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() < tol,
                "index {i}: {x:?} vs {y:?} (diff {})",
                (x - y).abs()
            );
        }
    }

    fn ramp(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|k| Complex64::new(k as f64 * 0.7 - 1.0, (k as f64).sin()))
            .collect()
    }

    #[test]
    fn empty_input() {
        assert!(fft(&[]).is_empty());
        assert!(ifft(&[]).is_empty());
    }

    #[test]
    fn single_element_is_identity() {
        let x = [Complex64::new(2.0, -3.0)];
        assert_vec_close(&fft(&x), &x, 1e-12);
        assert_vec_close(&ifft(&x), &x, 1e-12);
    }

    #[test]
    fn matches_naive_dft_pow2() {
        for n in [2usize, 4, 8, 64] {
            let x = ramp(n);
            assert_vec_close(&fft(&x), &dft_naive(&x), 1e-8);
        }
    }

    #[test]
    fn matches_naive_dft_arbitrary() {
        for n in [3usize, 5, 7, 12, 57, 114] {
            let x = ramp(n);
            assert_vec_close(&fft(&x), &dft_naive(&x), 1e-8);
        }
    }

    #[test]
    fn round_trip_pow2_and_arbitrary() {
        for n in [1usize, 2, 16, 30, 114, 128] {
            let x = ramp(n);
            assert_vec_close(&ifft(&fft(&x)), &x, 1e-9);
            assert_vec_close(&fft(&ifft(&x)), &x, 1e-9);
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        for n in [8usize, 57, 114] {
            let x = ramp(n);
            let y = fft(&x);
            let ex = norm_sqr(&x);
            let ey = norm_sqr(&y) / n as f64;
            assert!((ex - ey).abs() < 1e-8 * ex.max(1.0), "n={n}: {ex} vs {ey}");
        }
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut x = vec![ZERO; 16];
        x[0] = Complex64::new(1.0, 0.0);
        let y = fft(&x);
        for &v in &y {
            assert!((v - Complex64::new(1.0, 0.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn delayed_impulse_has_linear_phase() {
        let n = 32;
        let d = 5;
        let mut x = vec![ZERO; n];
        x[d] = Complex64::new(1.0, 0.0);
        let y = fft(&x);
        for (k, &v) in y.iter().enumerate() {
            let expect = Complex64::cis(-std::f64::consts::TAU * (k * d) as f64 / n as f64);
            assert!((v - expect).abs() < 1e-10);
        }
    }

    #[test]
    fn cfr_cir_round_trip() {
        let cfr = ramp(114);
        let cir = cfr_to_cir(&cfr);
        assert_vec_close(&cir_to_cfr(&cir), &cfr, 1e-9);
    }

    /// `Σ_m x[m]·e^{-i(start + k·step)·m}` summed directly.
    fn czt_naive(x: &[Complex64], start: f64, step: f64, len: usize) -> Vec<Complex64> {
        (0..len)
            .map(|k| {
                let w = start + k as f64 * step;
                x.iter()
                    .enumerate()
                    .fold(ZERO, |acc, (m, &v)| acc + v * Complex64::cis(-w * m as f64))
            })
            .collect()
    }

    fn l1(x: &[Complex64]) -> f64 {
        x.iter().map(|v| v.abs()).sum()
    }

    #[test]
    fn czt_on_rational_grids_is_a_slice_of_the_padded_dft() {
        // start = 2πa/P, step = 2πb/P samples DFT_P(x zero-padded to P) at
        // bins a + k·b (mod P).
        let tau = std::f64::consts::TAU;
        for &(n, p, a, b, len) in &[
            (1usize, 1usize, 0usize, 1usize, 1usize),
            (1, 5, 2, 1, 3),
            (3, 3, 0, 1, 3),
            (7, 16, 5, 3, 1),
            (7, 16, 5, 3, 11),
            (57, 64, 60, 1, 30),
            (114, 114, 0, 1, 114),
            (117, 256, 200, 1, 121),
        ] {
            let x = ramp(n);
            let mut padded = x.clone();
            padded.resize(p, ZERO);
            let dft = dft_naive(&padded);
            let want: Vec<Complex64> = (0..len).map(|k| dft[(a + k * b) % p]).collect();
            let got = czt(
                &x,
                tau * a as f64 / p as f64,
                tau * b as f64 / p as f64,
                len,
            );
            assert_vec_close(&got, &want, 1e-12 * l1(&x).max(1.0));
        }
    }

    #[test]
    fn czt_matches_direct_sum_on_arbitrary_grids() {
        for &(n, start, step, len) in &[
            (1usize, 0.3, 0.1, 1usize),
            (1, -2.0, 0.7, 5),
            (5, 1.234, 0.0, 1),
            (6, -0.8, 0.02, 81),
            (30, 1.1, -0.2, 3),
            (117, -0.8124, 0.013_54, 121),
            (245, -0.804_6, 0.006_437, 251),
        ] {
            let x = ramp(n);
            let got = czt(&x, start, step, len);
            assert_vec_close(&got, &czt_naive(&x, start, step, len), 1e-12 * l1(&x));
        }
        assert!(czt(&ramp(4), 0.1, 0.2, 0).is_empty());
        assert_eq!(czt(&[], 0.1, 0.2, 3), vec![ZERO; 3]);
    }

    #[test]
    fn linearity() {
        let n = 24;
        let x = ramp(n);
        let y: Vec<Complex64> = (0..n)
            .map(|k| Complex64::new(1.0, k as f64 * 0.1))
            .collect();
        let a = Complex64::new(0.5, -1.5);
        let combo: Vec<Complex64> = x.iter().zip(&y).map(|(&u, &v)| a * u + v).collect();
        let lhs = fft(&combo);
        let fx = fft(&x);
        let fy = fft(&y);
        let rhs: Vec<Complex64> = fx.iter().zip(&fy).map(|(&u, &v)| a * u + v).collect();
        assert_vec_close(&lhs, &rhs, 1e-9);
    }
}
