//! Substrate micro-benchmarks: channel synthesis and CSI conditioning.

use criterion::{criterion_group, criterion_main, Criterion};
use rim_channel::cfr::synthesize_cfr;
use rim_channel::{ChannelSimulator, SubcarrierLayout};
use rim_csi::sanitize::{sanitize_linear_phase, sanitize_matched_delay, sanitize_snapshot};
use rim_dsp::complex::Complex64;
use rim_dsp::fft::fft;
use rim_dsp::geom::Point2;
use std::hint::black_box;

fn bench_substrate(c: &mut Criterion) {
    let sim = ChannelSimulator::open_lab(7);
    let sampler = sim.sampler();
    c.bench_function("channel_cfr_open_lab", |b| {
        b.iter(|| sampler.cfr(0, black_box(Point2::new(0.5, 2.0)), 0.0))
    });

    let layout = SubcarrierLayout::ht40_5ghz();
    let rays: Vec<rim_channel::Ray> = (0..150)
        .map(|k| rim_channel::Ray {
            delay_s: 20e-9 + k as f64 * 1e-9,
            amp: Complex64::from_polar(0.1, k as f64),
        })
        .collect();
    c.bench_function("synthesize_cfr_150rays", |b| {
        b.iter(|| synthesize_cfr(black_box(&rays), &layout))
    });

    let indices: Vec<i32> = layout.indices.clone();
    let cfr = sampler.cfr(0, Point2::new(0.5, 2.0), 0.0);
    c.bench_function("sanitize_matched_delay_114sc", |b| {
        b.iter(|| {
            let mut v = cfr.clone();
            sanitize_matched_delay(&mut v, &indices);
            v
        })
    });
    // One 3-TX HT40 snapshot: the layout-only search plan is shared by
    // the three CFRs.
    let snapshot = sampler.mimo_cfr(Point2::new(0.5, 2.0), 0.0).per_tx;
    c.bench_function("sanitize_snapshot_ht40", |b| {
        b.iter(|| {
            let mut s = snapshot.clone();
            sanitize_snapshot(&mut s, &indices).unwrap();
            s
        })
    });
    let wide = ChannelSimulator::open_lab(7).with_layout(SubcarrierLayout::vht80_5ghz());
    let wide_indices = SubcarrierLayout::vht80_5ghz().indices;
    let wide_cfr = wide.sampler().cfr(0, Point2::new(0.5, 2.0), 0.0);
    c.bench_function("sanitize_matched_delay_242sc", |b| {
        b.iter(|| {
            let mut v = wide_cfr.clone();
            sanitize_matched_delay(&mut v, &wide_indices);
            v
        })
    });
    c.bench_function("sanitize_linear_fit_114sc", |b| {
        b.iter(|| {
            let mut v = cfr.clone();
            sanitize_linear_phase(&mut v, &indices);
            v
        })
    });

    c.bench_function("fft_1024", |b| {
        let x: Vec<Complex64> = (0..1024)
            .map(|k| Complex64::from_polar(1.0, k as f64 * 0.1))
            .collect();
        b.iter(|| fft(black_box(&x)))
    });
}

criterion_group!(benches, bench_substrate);
criterion_main!(benches);
