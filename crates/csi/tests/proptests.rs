//! Property-based tests of the CSI layer.

use proptest::prelude::*;
use rim_csi::frame::{CsiFrame, CsiSnapshot};
use rim_csi::sanitize::{
    sanitize_matched_delay, sanitize_snapshot, unwrap_phase, SanitizeError, MAX_INDEX_SPAN,
};
use rim_dsp::complex::Complex64;

fn snapshot_strategy() -> impl Strategy<Value = CsiSnapshot> {
    prop::collection::vec(
        prop::collection::vec(
            (-10.0f64..10.0, -10.0f64..10.0).prop_map(|(re, im)| Complex64::new(re, im)),
            1..20,
        ),
        1..4,
    )
    .prop_map(|per_tx| CsiSnapshot { per_tx })
}

/// The point-by-point β search the chirp-z sanitizer replaced: one
/// objective evaluation (one `cis` per subcarrier) per grid point. Kept
/// as the reference the fast search must reproduce. Its parabolic step
/// is held to half a fine step like the sanitizer's; unheld, it
/// extrapolates at the search range's edge, where two mathematically
/// identical evaluations disagree by up to ~6e-9 relative.
fn brute_force_matched_delay(cfr: &mut [Complex64], indices: &[i32]) {
    let eval = |beta: f64| -> f64 {
        let mut acc = rim_dsp::complex::ZERO;
        for (h, &i) in cfr.iter().zip(indices) {
            acc += *h * Complex64::cis(-beta * i as f64);
        }
        acc.norm_sqr()
    };
    let span = (indices.iter().max().unwrap() - indices.iter().min().unwrap()).max(1) as f64;
    let coarse = (std::f64::consts::TAU / span / 4.0).min(0.02);
    let n_steps = (0.8 / coarse).ceil() as i32;
    let mut best = (0.0f64, f64::NEG_INFINITY);
    for s in -n_steps..=n_steps {
        let beta = s as f64 * coarse;
        let v = eval(beta);
        if v > best.1 {
            best = (beta, v);
        }
    }
    let step = coarse / 8.0;
    let mut fine = (best.0, f64::NEG_INFINITY);
    for s in -8..=8 {
        let beta = best.0 + s as f64 * step;
        let v = eval(beta);
        if v > fine.1 {
            fine = (beta, v);
        }
    }
    let (b0, v0) = fine;
    let vm = eval(b0 - step);
    let vp = eval(b0 + step);
    let denom = vm - 2.0 * v0 + vp;
    let beta = if denom < -1e-12 {
        b0 + (0.5 * (vm - vp) / denom).clamp(-0.5, 0.5) * step
    } else {
        b0
    };
    let mut acc = rim_dsp::complex::ZERO;
    for (h, &i) in cfr.iter().zip(indices) {
        acc += *h * Complex64::cis(-beta * i as f64);
    }
    let intercept = acc.arg();
    for (h, &i) in cfr.iter_mut().zip(indices) {
        *h *= Complex64::cis(-(beta * i as f64 + intercept));
    }
}

/// Subcarrier index lists: the HT20, HT40, VHT80 and Intel 5300 layouts,
/// then arbitrary lists built from `raw` (2..60 draws from −130..130, so
/// unsorted, gapped and often duplicated): as drawn, with duplicates
/// forced, negative-only, and cut to length 2.
fn index_list(kind: usize, raw: &[i32]) -> Vec<i32> {
    match kind {
        0 => (-28..=-1).chain(1..=28).collect(),
        1 => (-58..=-2).chain(2..=58).collect(),
        2 => (-122..=-2).chain(2..=122).collect(),
        3 => (0..30).map(|k| -58 + 4 * k).collect(),
        4 => raw.to_vec(),
        5 => raw.iter().chain(&raw[..raw.len() / 2]).copied().collect(),
        6 => raw.iter().map(|&i| -i.abs() - 1).collect(),
        _ => raw[..2].to_vec(),
    }
}

/// One TX antenna's multipath CFR on `indices`: a main tap plus echoes,
/// each a delay slope with an amplitude and phase.
fn multipath_cfr(indices: &[i32], taps: &[(f64, f64, f64)]) -> Vec<Complex64> {
    indices
        .iter()
        .map(|&i| {
            taps.iter()
                .fold(rim_dsp::complex::ZERO, |acc, &(a, sl, ph)| {
                    acc + Complex64::from_polar(a, sl * i as f64 + ph)
                })
        })
        .collect()
}

fn taps_strategy() -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
    prop::collection::vec((0.05f64..3.0, -1.2f64..1.2, -3.1f64..3.1), 1..6)
}

fn bits(csi: &[Vec<Complex64>]) -> Vec<(u64, u64)> {
    csi.iter()
        .flatten()
        .map(|h| (h.re.to_bits(), h.im.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn frame_wire_round_trip(
        seq in any::<u64>(),
        ts in -1e6f64..1e6,
        rx in prop::collection::vec(snapshot_strategy(), 0..4),
    ) {
        let frame = CsiFrame { seq, timestamp_s: ts, rx };
        let decoded = CsiFrame::decode(&frame.encode()).unwrap();
        prop_assert_eq!(frame, decoded);
    }

    #[test]
    fn decode_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = CsiFrame::decode(&bytes); // must return, never panic/OOM
    }

    #[test]
    fn unwrap_never_jumps_more_than_pi(phases in prop::collection::vec(-10.0f64..10.0, 1..40)) {
        let u = unwrap_phase(&phases);
        for w in u.windows(2) {
            prop_assert!((w[1] - w[0]).abs() <= std::f64::consts::PI + 1e-9);
        }
    }

    #[test]
    fn sanitation_preserves_magnitudes(
        cfr in prop::collection::vec(
            (0.01f64..10.0, -3.1f64..3.1).prop_map(|(r, p)| Complex64::from_polar(r, p)),
            2..40,
        ),
    ) {
        let indices: Vec<i32> = (0..cfr.len() as i32).collect();
        let mut v = cfr.clone();
        sanitize_matched_delay(&mut v, &indices);
        for (a, b) in v.iter().zip(&cfr) {
            prop_assert!((a.abs() - b.abs()).abs() < 1e-9);
        }
    }

    #[test]
    fn sanitation_is_idempotent_up_to_phase(
        // Physical multipath CFRs: one dominant tap plus weaker echoes.
        // (On adversarial vectors with *tied* taps the argmax can flip
        // between passes — that ambiguity is inherent to any per-packet
        // delay alignment, not a defect of this one.)
        main_slope in -0.4f64..0.4,
        echoes in prop::collection::vec(
            (0.05f64..0.7, -0.4f64..0.4, -3.1f64..3.1),
            1..4,
        ),
    ) {
        let indices: Vec<i32> = (-28..=-1).chain(1..=28).collect();
        let cfr: Vec<Complex64> = indices
            .iter()
            .map(|&i| {
                let mut h = Complex64::cis(main_slope * i as f64);
                for &(a, sl, ph) in &echoes {
                    h += Complex64::from_polar(a, sl * i as f64 + ph);
                }
                h
            })
            .collect();
        // Sanitising twice changes nothing: the second pass finds β ≈ 0.
        let mut once = cfr.clone();
        sanitize_matched_delay(&mut once, &indices);
        let mut twice = once.clone();
        sanitize_matched_delay(&mut twice, &indices);
        let ip = rim_dsp::inner_product(&once, &twice).abs();
        let denom = rim_dsp::norm_sqr(&once);
        // The grid+parabolic β estimate re-converges to within a few
        // millirads/index between passes; what matters downstream is that
        // the TRRS of the two residuals stays ≈ 1.
        prop_assert!(ip > denom * 0.999, "idempotent: {} vs {}", ip, denom);
    }

    #[test]
    fn sanitation_removes_any_linear_ramp(
        slope in -0.5f64..0.5,
        intercept in -3.0f64..3.0,
    ) {
        // A multipath-like fixed channel with an arbitrary added ramp must
        // sanitise to the same fingerprint as the ramp-free version.
        let indices: Vec<i32> = (-28..=-1).chain(1..=28).collect();
        let base: Vec<Complex64> = indices
            .iter()
            .map(|&i| {
                Complex64::cis(0.04 * i as f64)
                    + Complex64::from_polar(0.5, -0.18 * i as f64 + 0.4)
            })
            .collect();
        let mut clean = base.clone();
        let mut ramped: Vec<Complex64> = base
            .iter()
            .zip(&indices)
            .map(|(h, &i)| *h * Complex64::cis(slope * i as f64 + intercept))
            .collect();
        sanitize_matched_delay(&mut clean, &indices);
        sanitize_matched_delay(&mut ramped, &indices);
        let ip = rim_dsp::inner_product(&clean, &ramped).abs();
        let trrs = ip * ip / (rim_dsp::norm_sqr(&clean) * rim_dsp::norm_sqr(&ramped));
        prop_assert!(trrs > 0.999, "ramp removed: {trrs}");
    }

    #[test]
    fn chirp_z_search_matches_the_brute_force_oracle(
        kind in 0usize..8,
        raw in prop::collection::vec(-130i32..130, 2..60),
        tx_taps in prop::collection::vec(taps_strategy(), 1..4),
    ) {
        let indices = index_list(kind, &raw);
        let mut snapshot: Vec<Vec<Complex64>> =
            tx_taps.iter().map(|taps| multipath_cfr(&indices, taps)).collect();
        let mut expected = snapshot.clone();
        for cfr in &mut expected {
            brute_force_matched_delay(cfr, &indices);
        }
        let mut single = snapshot.clone();
        for cfr in &mut single {
            sanitize_matched_delay(cfr, &indices);
        }
        sanitize_snapshot(&mut snapshot, &indices).unwrap();
        for ((want, one), shared) in expected.iter().zip(&single).zip(&snapshot) {
            let norm = rim_dsp::norm_sqr(want).sqrt();
            for got in [one, shared] {
                let worst = want
                    .iter()
                    .zip(got)
                    .map(|(a, b)| (*a - *b).abs())
                    .fold(0.0f64, f64::max);
                prop_assert!(
                    worst <= 1e-9 * norm,
                    "kind {kind}, indices {indices:?}: max |Δh| {worst} vs ‖h‖ {norm}"
                );
            }
        }
    }

    #[test]
    fn snapshot_rejects_non_finite_untouched(
        tx_taps in prop::collection::vec(taps_strategy(), 1..4),
        at in (0usize..3, 0usize..114),
        bad in prop::sample::select(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
        in_re in any::<bool>(),
    ) {
        let indices: Vec<i32> = (-58..=-2).chain(2..=58).collect();
        let mut csi: Vec<Vec<Complex64>> =
            tx_taps.iter().map(|taps| multipath_cfr(&indices, taps)).collect();
        let (tx, subcarrier) = (at.0 % csi.len(), at.1);
        if in_re {
            csi[tx][subcarrier].re = bad;
        } else {
            csi[tx][subcarrier].im = bad;
        }
        let before = bits(&csi);
        prop_assert_eq!(
            sanitize_snapshot(&mut csi, &indices),
            Err(SanitizeError::NonFinite { tx, subcarrier })
        );
        prop_assert_eq!(bits(&csi), before);
    }

    #[test]
    fn snapshot_rejects_mismatched_shapes_untouched(
        tx_taps in prop::collection::vec(taps_strategy(), 1..4),
        which in 0usize..3,
        len in 0usize..120,
    ) {
        let indices: Vec<i32> = (-58..=-2).chain(2..=58).collect();
        prop_assume!(len != indices.len());
        let mut csi: Vec<Vec<Complex64>> =
            tx_taps.iter().map(|taps| multipath_cfr(&indices, taps)).collect();
        let tx = which % csi.len();
        csi[tx].resize(len, Complex64::from_re(1.0));
        let before = bits(&csi);
        prop_assert_eq!(
            sanitize_snapshot(&mut csi, &indices),
            Err(SanitizeError::Shape { tx, len, expected: indices.len() })
        );
        prop_assert_eq!(bits(&csi), before);
    }

    #[test]
    fn snapshot_rejects_unbounded_index_spans_untouched(
        lo in any::<i32>(),
        extra in 1u64..(u32::MAX as u64),
        middle in prop::collection::vec(any::<i32>(), 0..8),
        taps in taps_strategy(),
    ) {
        // Two indices more than MAX_INDEX_SPAN apart, anywhere in i32,
        // up to the full i32::MIN..=i32::MAX range.
        let span = (MAX_INDEX_SPAN + extra).min(u32::MAX as u64);
        let lo = lo.min((i32::MAX as i64 - span as i64) as i32);
        let hi = (lo as i64 + span as i64) as i32;
        let mut indices = vec![hi, lo];
        indices.extend(
            middle
                .iter()
                .map(|&m| (lo as i64 + (m as i64).rem_euclid(span as i64)) as i32),
        );
        let mut csi = vec![multipath_cfr(&indices, &taps)];
        let before = bits(&csi);
        prop_assert_eq!(
            sanitize_snapshot(&mut csi, &indices),
            Err(SanitizeError::IndexSpan { span })
        );
        prop_assert_eq!(bits(&csi), before);
        // The single-CFR entry point leaves it alone too.
        sanitize_matched_delay(&mut csi[0], &indices);
        prop_assert_eq!(bits(&csi), before);
    }
}
