//! CSI phase sanitation.
//!
//! Removes the linear phase distortion (STO/SFO slope plus constant
//! offset) from a CFR by fitting a line to the unwrapped phase across
//! subcarriers and subtracting it — the calibration approach of SpotFi
//! [13] that the paper applies per antenna independently before computing
//! TRRS (§3.2, footnote 3). The remaining per-packet *initial* phase is
//! irrelevant because the TRRS takes a magnitude.
//!
//! The pipeline's sanitizer is the robust [`sanitize_matched_delay`]
//! variant: it removes the slope of the strongest time-domain tap. Its
//! objective |Σ H_k e^{−jβ·idx_k}|² is the CIR power at delay β (the
//! CIRSense view), so the coarse β grid is evaluated as one chirp-z
//! transform ([`rim_dsp::fft::Czt`]) of the CFR on its dense index range.
//! The grid is the one a point-by-point search visits, with the same tie
//! order (first strict maximum in ascending β), so the output matches the
//! brute-force search to rounding; the CSI crate's property tests hold it
//! to 1e-9 relative.

use rim_dsp::complex::{Complex64, ZERO};
use rim_dsp::fft::Czt;
use rim_dsp::stats::linear_fit;

/// Unwraps a phase sequence: adds multiples of 2π so consecutive samples
/// never jump by more than π.
pub fn unwrap_phase(phases: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(phases.len());
    let mut offset = 0.0;
    for (i, &p) in phases.iter().enumerate() {
        if i > 0 {
            let prev = out[i - 1];
            let mut cur = p + offset;
            while cur - prev > std::f64::consts::PI {
                cur -= std::f64::consts::TAU;
                offset -= std::f64::consts::TAU;
            }
            while cur - prev < -std::f64::consts::PI {
                cur += std::f64::consts::TAU;
                offset += std::f64::consts::TAU;
            }
            out.push(cur);
        } else {
            out.push(p);
        }
    }
    out
}

/// Removes the best-fit linear phase (slope over subcarrier index and
/// intercept) from a CFR in place.
///
/// `indices` are the subcarrier indices of the CFR entries (they need not
/// be contiguous — e.g. the DC gap or Intel 5300 grouping). Magnitudes are
/// untouched. Vectors shorter than 2 entries are left unchanged.
pub fn sanitize_linear_phase(cfr: &mut [Complex64], indices: &[i32]) {
    if cfr.len() < 2 || cfr.len() != indices.len() {
        return;
    }
    let raw: Vec<f64> = cfr.iter().map(|h| h.arg()).collect();
    let unwrapped = unwrap_phase(&raw);
    let xs: Vec<f64> = indices.iter().map(|&i| i as f64).collect();
    let (slope, intercept) = linear_fit(&xs, &unwrapped);
    if !slope.is_finite() || !intercept.is_finite() {
        return;
    }
    for (h, &x) in cfr.iter_mut().zip(&xs) {
        *h *= Complex64::cis(-(slope * x + intercept));
    }
}

/// Largest subcarrier index span (`max − min` of the indices) the
/// matched-delay search accepts: well above 802.11ax HE160's 2024. The
/// dense delay grid grows with the span, so a hostile index list must not
/// size it.
pub const MAX_INDEX_SPAN: u64 = 4096;

/// Half-width of the slope search, in rad per subcarrier index.
const BETA_RANGE: f64 = 0.8;

/// Fine steps per coarse step, searched on each side of the coarse peak.
const FINE: i32 = 8;

/// `e^{−jθ·(lo + m)}` for `m = 0..n`, one complex multiply per entry (the
/// recurrence `rim_channel::cfr::synthesize_cfr` uses).
fn phasors(theta: f64, lo: i32, n: usize) -> Vec<Complex64> {
    let step = Complex64::cis(-theta);
    let mut cur = Complex64::cis(-theta * lo as f64);
    (0..n)
        .map(|_| {
            let p = cur;
            cur *= step;
            p
        })
        .collect()
}

/// The layout-only half of the matched-delay search: the coarse β grid as
/// a chirp-z plan and the fine-pass rotors. Built once per subcarrier
/// layout and shared by every CFR on it.
struct DelaySearch {
    lo: i32,
    /// Dense offset `idx − lo` of each subcarrier.
    slots: Vec<usize>,
    /// Dense grid length, `span + 1`.
    dense: usize,
    /// The coarse grid is `β_s = s·coarse`, `s ∈ −n_steps..=n_steps`.
    coarse: f64,
    n_steps: i32,
    grid: Czt,
    /// `e^{−j·step·idx}` per subcarrier, `step = coarse/FINE`: advances a
    /// phasor by one fine step.
    rotor: Vec<Complex64>,
}

impl DelaySearch {
    /// Plans the search for a non-empty index list.
    fn new(indices: &[i32]) -> Result<Self, SanitizeError> {
        let lo = *indices.iter().min().expect("non-empty indices");
        let hi = *indices.iter().max().expect("non-empty indices");
        let span = (i64::from(hi) - i64::from(lo)) as u64;
        if span > MAX_INDEX_SPAN {
            return Err(SanitizeError::IndexSpan { span });
        }
        // The main lobe of |Σ H e^{-jβ idx}| is about 2π/span wide, so the
        // search step must scale with the grid. A fixed step sized for the
        // 56/114-entry layouts straddles VHT80's ±122-span lobe, and the
        // slope error it leaves behind (a fraction of the step, amplified
        // by the edge index) jitters the fingerprint packet to packet: a
        // static antenna's self-TRRS sags toward the movement threshold
        // and its stops stop being detected. ≥4 coarse samples per main
        // lobe guarantees the sampled maximum lands on it (the strongest
        // sidelobe sits 13 dB down).
        let lobe = std::f64::consts::TAU / span.max(1) as f64;
        let coarse = (lobe / 4.0).min(0.02);
        let n_steps = (BETA_RANGE / coarse).ceil() as i32;
        let dense = span as usize + 1;
        let grid = Czt::new(
            dense,
            -n_steps as f64 * coarse,
            coarse,
            2 * n_steps as usize + 1,
        );
        let slots: Vec<usize> = indices.iter().map(|&i| (i - lo) as usize).collect();
        let table = phasors(coarse / FINE as f64, lo, dense);
        let rotor = slots.iter().map(|&s| table[s]).collect();
        Ok(DelaySearch {
            lo,
            slots,
            dense,
            coarse,
            n_steps,
            grid,
            rotor,
        })
    }

    /// Removes the matched-delay slope and intercept from `cfr` (one entry
    /// per planned index) in place.
    fn apply(&self, cfr: &mut [Complex64]) {
        // Coarse pass: |Σ H_k e^{-jβ idx_k}| = |Σ_m x_m e^{-jβm}| for the
        // CFR scattered onto the dense grid x (duplicate indices sum), so
        // the whole grid is one chirp-z transform of x. Keep the first
        // strict maximum in ascending β.
        let mut x = vec![ZERO; self.dense];
        for (h, &s) in cfr.iter().zip(&self.slots) {
            x[s] += *h;
        }
        let mut best = (0, f64::NEG_INFINITY);
        for (s, v) in (-self.n_steps..).zip(self.grid.apply(&x)) {
            let v = v.norm_sqr();
            if v > best.1 {
                best = (s, v);
            }
        }
        let b0 = best.0 as f64 * self.coarse;
        // Fine pass across the coarse peak's neighbourhood (s ∈ −8..=8)
        // plus one guard point per side for the parabolic refinement:
        // every phasor advances one fine step per point.
        let step = self.coarse / FINE as f64;
        let table = phasors(b0 - (FINE + 1) as f64 * step, self.lo, self.dense);
        let mut ph: Vec<Complex64> = cfr
            .iter()
            .zip(&self.slots)
            .map(|(h, &s)| *h * table[s])
            .collect();
        let mut vals = [0.0f64; 2 * FINE as usize + 3];
        for v in &mut vals {
            let mut acc = ZERO;
            for (p, r) in ph.iter_mut().zip(&self.rotor) {
                acc += *p;
                *p *= *r;
            }
            *v = acc.norm_sqr();
        }
        let mut fine = (0, f64::NEG_INFINITY);
        for s in -FINE..=FINE {
            let v = vals[(s + FINE + 1) as usize];
            if v > fine.1 {
                fine = (s, v);
            }
        }
        let (s0, v0) = fine;
        let b0 = b0 + s0 as f64 * step;
        let (vm, vp) = (vals[(s0 + FINE) as usize], vals[(s0 + FINE + 2) as usize]);
        // Parabolic refinement. The vertex of an interior maximum lies
        // within half a step of it; only at the edge of the search range
        // (the peak lies beyond ±0.8) would the fit extrapolate, and
        // there its vertex is noise-dominated (hundreds of steps out as
        // the curvature vanishes), so it is held to that half step.
        let denom = vm - 2.0 * v0 + vp;
        let beta = if denom < -1e-12 {
            b0 + (0.5 * (vm - vp) / denom).clamp(-0.5, 0.5) * step
        } else {
            b0
        };
        // Remove the slope and the intercept (phase of the aligned sum).
        let table = phasors(beta, self.lo, self.dense);
        let acc = cfr
            .iter()
            .zip(&self.slots)
            .fold(ZERO, |acc, (h, &s)| acc + *h * table[s]);
        let intercept = Complex64::cis(-acc.arg());
        for (h, &s) in cfr.iter_mut().zip(&self.slots) {
            *h *= table[s] * intercept;
        }
    }
}

/// Removes the linear phase via a *matched-delay* search: finds the slope
/// `β★ = argmax_β |Σ_k H_k e^{−jβ·idx_k}|` (the delay of the strongest
/// time-domain tap) by coarse grid plus parabolic refinement, then removes
/// `β★·idx + intercept`.
///
/// Unlike the unwrap-and-fit approach, this is robust to phase noise on
/// deep-fade subcarriers (a single corrupted phase sample can derail
/// unwrapping and inject a ±2π/N slope error, jittering the fingerprint
/// packet to packet). Both the channel's own bulk delay and the per-packet
/// STO/SFO slope are removed consistently, so the residual is a stable
/// location signature.
///
/// The objective is the CIR power at delay β, so the coarse grid
/// (`β = s·c`, `|β| ≤ 0.8`, `c ≤ 2π/(4·span)`) is evaluated as one chirp-z
/// transform of the CFR scattered onto its dense index range: the same
/// grid a point-by-point search visits, in two FFTs. The 17-point fine
/// pass around the coarse peak and the final derotation advance
/// per-subcarrier phasors by one complex multiply per step.
///
/// The CFR is left unchanged when it is shorter than 2 entries, its length
/// differs from `indices.len()`, or the index span exceeds
/// [`MAX_INDEX_SPAN`]; [`sanitize_snapshot`] reports those cases as
/// [`SanitizeError`]s instead.
pub fn sanitize_matched_delay(cfr: &mut [Complex64], indices: &[i32]) {
    if cfr.len() < 2 || cfr.len() != indices.len() {
        return;
    }
    if let Ok(search) = DelaySearch::new(indices) {
        search.apply(cfr);
    }
}

/// A MIMO snapshot [`sanitize_snapshot`] refused to sanitize. The
/// snapshot is left untouched; the recorder maps a rejected snapshot to
/// packet loss so interpolation can repair it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SanitizeError {
    /// A NaN or infinite CFR value. Non-finite amplitudes would otherwise
    /// survive sanitation (the matched-delay objective turns NaN into a
    /// flat-NaN CFR) and silently poison every TRRS downstream.
    NonFinite {
        /// TX-antenna index of the offending CFR.
        tx: usize,
        /// Subcarrier position (index into the CFR) of the first
        /// non-finite value.
        subcarrier: usize,
    },
    /// A CFR whose length differs from the subcarrier index list; it
    /// cannot be sanitized against that layout.
    Shape {
        /// TX-antenna index of the offending CFR.
        tx: usize,
        /// Its length.
        len: usize,
        /// `indices.len()`.
        expected: usize,
    },
    /// Subcarrier indices spanning more than [`MAX_INDEX_SPAN`].
    IndexSpan {
        /// `max − min` of the indices.
        span: u64,
    },
}

impl std::fmt::Display for SanitizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SanitizeError::NonFinite { tx, subcarrier } => write!(
                f,
                "non-finite CSI amplitude at tx {tx} subcarrier {subcarrier}; treat the \
                 packet as lost (the recorder maps rejected snapshots to loss \
                 so interpolation can repair them)"
            ),
            SanitizeError::Shape { tx, len, expected } => write!(
                f,
                "CFR of tx {tx} has {len} subcarriers but the layout has {expected}"
            ),
            SanitizeError::IndexSpan { span } => write!(
                f,
                "subcarrier indices span {span}, above the supported {MAX_INDEX_SPAN}"
            ),
        }
    }
}

impl std::error::Error for SanitizeError {}

/// Sanitizes every CFR of a MIMO snapshot (`csi[tx][subcarrier]`) with the
/// robust matched-delay method. The layout-only part of the search (the
/// chirp-z plan and the fine rotors) is built once and shared by all TX
/// antennas.
///
/// # Errors
/// [`SanitizeError::Shape`] when a CFR's length differs from
/// `indices.len()`, [`SanitizeError::NonFinite`] when any CFR entry is NaN
/// or infinite, and [`SanitizeError::IndexSpan`] when the indices span
/// more than [`MAX_INDEX_SPAN`]. On error the snapshot is left untouched
/// so the caller can discard it as loss.
pub fn sanitize_snapshot(csi: &mut [Vec<Complex64>], indices: &[i32]) -> Result<(), SanitizeError> {
    for (tx, cfr) in csi.iter().enumerate() {
        if cfr.len() != indices.len() {
            return Err(SanitizeError::Shape {
                tx,
                len: cfr.len(),
                expected: indices.len(),
            });
        }
        if let Some(subcarrier) = cfr.iter().position(|h| !h.is_finite()) {
            return Err(SanitizeError::NonFinite { tx, subcarrier });
        }
    }
    if indices.len() < 2 {
        return Ok(());
    }
    let search = DelaySearch::new(indices)?;
    for cfr in csi {
        search.apply(cfr);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrap_restores_continuity() {
        // A steep linear phase wraps repeatedly; unwrap must restore it.
        let true_phase: Vec<f64> = (0..50).map(|k| 0.7 * k as f64).collect();
        let wrapped: Vec<f64> = true_phase
            .iter()
            .map(|&p| rim_dsp::stats::wrap_angle(p))
            .collect();
        let unwrapped = unwrap_phase(&wrapped);
        for (u, t) in unwrapped.iter().zip(&true_phase) {
            assert!((u - t).abs() < 1e-9, "{u} vs {t}");
        }
    }

    #[test]
    fn unwrap_handles_empty_and_single() {
        assert!(unwrap_phase(&[]).is_empty());
        assert_eq!(unwrap_phase(&[1.2]), vec![1.2]);
    }

    #[test]
    fn sanitize_removes_pure_linear_phase() {
        let indices: Vec<i32> = (-8..=-1).chain(1..=8).collect();
        let mut cfr: Vec<Complex64> = indices
            .iter()
            .map(|&i| Complex64::from_polar(2.0, 0.3 * i as f64 + 1.1))
            .collect();
        sanitize_linear_phase(&mut cfr, &indices);
        for h in &cfr {
            assert!((h.abs() - 2.0).abs() < 1e-9, "magnitude preserved");
            assert!(h.arg().abs() < 1e-6, "phase flattened, got {}", h.arg());
        }
    }

    #[test]
    fn sanitize_preserves_multipath_structure() {
        // A two-path channel has nonlinear phase; sanitation must keep the
        // curvature (the fingerprint) while removing added linear ramps.
        let indices: Vec<i32> = (-28..=-1).chain(1..=28).collect();
        let channel: Vec<Complex64> = indices
            .iter()
            .map(|&i| {
                Complex64::cis(0.02 * i as f64) + Complex64::from_polar(0.6, 0.3 * i as f64 + 0.9)
            })
            .collect();
        let mut dirty: Vec<Complex64> = channel
            .iter()
            .zip(&indices)
            .map(|(h, &i)| *h * Complex64::cis(0.11 * i as f64 + 2.0))
            .collect();
        let mut clean = channel.clone();
        sanitize_linear_phase(&mut dirty, &indices);
        sanitize_linear_phase(&mut clean, &indices);
        // After sanitising both, they agree (same residual after removing
        // each one's own linear fit).
        for (d, c) in dirty.iter().zip(&clean) {
            assert!((*d - *c).abs() < 1e-6);
        }
        // And the result still differs from a flat channel: curvature kept.
        let curvature: f64 = clean
            .windows(3)
            .map(|w| {
                let d1 = (w[1] * w[0].conj()).arg();
                let d2 = (w[2] * w[1].conj()).arg();
                (d2 - d1).abs()
            })
            .sum();
        assert!(curvature > 0.1, "multipath curvature survives: {curvature}");
    }

    #[test]
    fn sanitize_makes_trrs_invariant_to_timing_offset() {
        // The end goal: TRRS of (sanitised dirty) vs (sanitised clean) ≈ 1.
        let indices: Vec<i32> = (-28..=-1).chain(1..=28).collect();
        let channel: Vec<Complex64> = indices
            .iter()
            .map(|&i| {
                Complex64::cis(0.05 * i as f64)
                    + Complex64::from_polar(0.5, -0.21 * i as f64)
                    + Complex64::from_polar(0.3, 0.4 * i as f64 + 1.0)
            })
            .collect();
        let mut dirty: Vec<Complex64> = channel
            .iter()
            .zip(&indices)
            .map(|(h, &i)| *h * Complex64::from_polar(1.0, -0.23 * i as f64 + 0.7))
            .collect();
        let mut clean = channel.clone();
        sanitize_linear_phase(&mut dirty, &indices);
        sanitize_linear_phase(&mut clean, &indices);
        let ip = rim_dsp::inner_product(&clean, &dirty).abs();
        let trrs = ip * ip / (rim_dsp::norm_sqr(&clean) * rim_dsp::norm_sqr(&dirty));
        assert!(trrs > 0.999, "sanitised TRRS ≈ 1, got {trrs}");
    }

    #[test]
    fn sanitize_short_or_mismatched_is_noop() {
        let mut one = vec![Complex64::from_polar(1.0, 0.5)];
        let orig = one.clone();
        sanitize_linear_phase(&mut one, &[0]);
        assert_eq!(one, orig);
        let mut two = vec![Complex64::from_re(1.0); 4];
        let orig2 = two.clone();
        sanitize_linear_phase(&mut two, &[0, 1]); // length mismatch
        assert_eq!(two, orig2);
    }

    #[test]
    fn sanitize_snapshot_covers_all_tx() {
        let indices: Vec<i32> = (0..16).collect();
        let mut csi: Vec<Vec<Complex64>> = (0..3)
            .map(|t| {
                indices
                    .iter()
                    .map(|&i| Complex64::from_polar(1.0, (0.2 + 0.1 * t as f64) * i as f64))
                    .collect()
            })
            .collect();
        sanitize_snapshot(&mut csi, &indices).unwrap();
        // A pure linear-phase CFR is a single tap: after matched-delay
        // sanitation the phase is flat.
        for cfr in &csi {
            for h in cfr {
                assert!(h.arg().abs() < 1e-3, "{}", h.arg());
            }
        }
    }

    #[test]
    fn sanitize_snapshot_rejects_non_finite_untouched() {
        let indices: Vec<i32> = (0..16).collect();
        let mut csi: Vec<Vec<Complex64>> = (0..2)
            .map(|t| {
                indices
                    .iter()
                    .map(|&i| Complex64::from_polar(1.0, (0.2 + 0.1 * t as f64) * i as f64))
                    .collect()
            })
            .collect();
        csi[1][5] = Complex64::new(f64::NAN, 0.3);
        let before = csi.clone();
        let err = sanitize_snapshot(&mut csi, &indices).unwrap_err();
        assert_eq!(
            err,
            SanitizeError::NonFinite {
                tx: 1,
                subcarrier: 5
            }
        );
        assert!(err.to_string().contains("tx 1"), "{err}");
        assert!(err.to_string().contains("subcarrier 5"), "{err}");
        // Rejection leaves the snapshot untouched — even the clean TX 0
        // must not be half-sanitised.
        for (a, b) in csi.iter().zip(&before) {
            for (x, y) in a.iter().zip(b) {
                assert!(
                    (x.re == y.re || (x.re.is_nan() && y.re.is_nan())) && x.im == y.im,
                    "unchanged on rejection"
                );
            }
        }
        let inf = vec![vec![Complex64::new(f64::INFINITY, 0.0); 16]];
        let mut inf_csi = inf.clone();
        assert!(sanitize_snapshot(&mut inf_csi, &indices).is_err());
    }

    #[test]
    fn matched_delay_invariant_to_timing_offset() {
        // Multipath channel, two different STO slopes: the sanitised
        // fingerprints must agree (TRRS ≈ 1).
        let indices: Vec<i32> = (-28..=-1).chain(1..=28).collect();
        let channel: Vec<Complex64> = indices
            .iter()
            .map(|&i| {
                Complex64::cis(0.05 * i as f64)
                    + Complex64::from_polar(0.5, -0.21 * i as f64)
                    + Complex64::from_polar(0.3, 0.4 * i as f64 + 1.0)
            })
            .collect();
        let mut a = channel.clone();
        let mut b: Vec<Complex64> = channel
            .iter()
            .zip(&indices)
            .map(|(h, &i)| *h * Complex64::from_polar(1.0, -0.23 * i as f64 + 0.7))
            .collect();
        sanitize_matched_delay(&mut a, &indices);
        sanitize_matched_delay(&mut b, &indices);
        let ip = rim_dsp::inner_product(&a, &b).abs();
        let trrs = ip * ip / (rim_dsp::norm_sqr(&a) * rim_dsp::norm_sqr(&b));
        assert!(trrs > 0.999, "matched-delay invariance: {trrs}");
    }

    #[test]
    fn matched_delay_robust_to_single_bad_phase() {
        // One corrupted deep-fade subcarrier must not disturb the rest of
        // the fingerprint (the unwrap-based fit fails this).
        let indices: Vec<i32> = (-28..=-1).chain(1..=28).collect();
        let channel: Vec<Complex64> = indices
            .iter()
            .map(|&i| Complex64::cis(0.05 * i as f64) + Complex64::from_polar(0.4, -0.3 * i as f64))
            .collect();
        let mut clean = channel.clone();
        let mut bad = channel.clone();
        bad[20] = Complex64::from_polar(1e-4, 2.9); // fade + garbage phase
        sanitize_matched_delay(&mut clean, &indices);
        sanitize_matched_delay(&mut bad, &indices);
        let ip = rim_dsp::inner_product(&clean, &bad).abs();
        let trrs = ip * ip / (rim_dsp::norm_sqr(&clean) * rim_dsp::norm_sqr(&bad));
        assert!(trrs > 0.98, "robustness: {trrs}");
    }

    #[test]
    fn matched_delay_invariant_on_wide_grids() {
        // Regression: on a VHT80-scale grid (±122 span) the β search must
        // still resolve the slope finely enough that two packets of the
        // same channel under different per-packet timing offsets sanitise
        // to near-identical fingerprints. With a fixed 0.02 rad/index
        // step the residual slope error left TRRS near 0.96 here — below
        // the 0.92 movement threshold once channel noise stacks on top —
        // so stop-and-go motion on 242-subcarrier devices never detected
        // its stops.
        let indices: Vec<i32> = (-122..=-2).chain(2..=122).collect();
        let channel: Vec<Complex64> = indices
            .iter()
            .map(|&i| {
                Complex64::cis(0.013 * i as f64)
                    + Complex64::from_polar(0.5, -0.047 * i as f64)
                    + Complex64::from_polar(0.3, 0.09 * i as f64 + 1.0)
            })
            .collect();
        for (sto_a, sto_b) in [(0.0, -0.23), (0.11, 0.017), (-0.31, 0.29)] {
            let offset = |sto: f64| -> Vec<Complex64> {
                channel
                    .iter()
                    .zip(&indices)
                    .map(|(h, &i)| *h * Complex64::from_polar(1.0, sto * i as f64 + 0.7))
                    .collect()
            };
            let mut a = offset(sto_a);
            let mut b = offset(sto_b);
            sanitize_matched_delay(&mut a, &indices);
            sanitize_matched_delay(&mut b, &indices);
            let ip = rim_dsp::inner_product(&a, &b).abs();
            let trrs = ip * ip / (rim_dsp::norm_sqr(&a) * rim_dsp::norm_sqr(&b));
            assert!(
                trrs > 0.9995,
                "wide-grid invariance for STO {sto_a} vs {sto_b}: {trrs}"
            );
        }
    }

    #[test]
    fn matched_delay_holds_the_slope_inside_the_search_range() {
        // Two subcarriers two indices apart with a 1.3 rad/index slope:
        // the objective peaks at β = 1.3 (and 1.3 − π), both beyond the
        // ±0.8 search range. The refinement must not extrapolate the
        // edge parabola out of the range (it used to land near −3.5).
        let indices = [-24, -22];
        let mut cfr = [Complex64::from_re(1.0), Complex64::cis(2.0 * 1.3)];
        let orig = cfr;
        sanitize_matched_delay(&mut cfr, &indices);
        // The removed slope β is half the phase the pair lost.
        let lost = (orig[1] * orig[0].conj()).arg() - (cfr[1] * cfr[0].conj()).arg();
        let beta = rim_dsp::stats::wrap_angle(lost) / 2.0;
        assert!(beta.abs() <= 0.8 + 0.02 + 0.02 / 16.0 + 1e-9, "β = {beta}");
        assert!(beta > 0.0, "β = {beta}: the range edge nearest the peak");
    }

    #[test]
    fn matched_delay_short_input_is_noop() {
        let mut one = vec![Complex64::from_polar(1.0, 0.5)];
        let orig = one.clone();
        sanitize_matched_delay(&mut one, &[0]);
        assert_eq!(one, orig);
    }
}
