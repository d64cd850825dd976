//! Heap discipline of the hot paths: once the scratch arenas, FFT plans
//! and engine caches are warm, a `demodulate_with` loop, the detector's
//! coarse hop scan and its cluster confirmation perform **zero** heap
//! allocations.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! replays the same window set once to warm every buffer, snapshots the
//! allocation counter, replays again and asserts the counter did not
//! move. This file holds exactly one test so no sibling test can allocate
//! concurrently on another harness thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cic::{
    Boundaries, CicConfig, CicDemodulator, DemodScratch, DetectScratch, PreambleDetector,
    SymbolContext,
};
use lora_channel::{add_unit_noise, amplitude_for_snr, superpose, Emission};
use lora_dsp::Cf32;
use lora_phy::chirp::symbol_waveform;
use lora_phy::packet::Transceiver;
use lora_phy::params::{CodeRate, LoraParams};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Collision windows covering every branch the hot path can take: clean,
/// 1-boundary and 3-boundary windows with noise, plus an all-zero window
/// (the argmax fallback).
fn windows(p: &LoraParams) -> Vec<(Vec<Cf32>, Boundaries, SymbolContext)> {
    let sps = p.samples_per_symbol();
    let n_bins = p.n_bins();
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let amp = amplitude_for_snr(15.0, p.oversampling());
    let mut out = Vec::new();
    for n_interferers in [0usize, 1, 3] {
        for _ in 0..4 {
            let mut emissions = vec![Emission {
                waveform: symbol_waveform(p, rng.random_range(0..n_bins)),
                amplitude: amp,
                start_sample: 0,
                cfo_hz: 0.0,
            }];
            let mut taus = Vec::new();
            for _ in 0..n_interferers {
                let tau = rng.random_range(sps / 8..sps - sps / 8);
                taus.push(tau);
                let w_prev = symbol_waveform(p, rng.random_range(0..n_bins));
                let w_next = symbol_waveform(p, rng.random_range(0..n_bins));
                emissions.push(Emission {
                    waveform: w_prev[sps - tau..].to_vec(),
                    amplitude: amp * 1.5,
                    start_sample: 0,
                    cfo_hz: 300.0,
                });
                emissions.push(Emission {
                    waveform: w_next[..sps - tau].to_vec(),
                    amplitude: amp * 1.5,
                    start_sample: tau,
                    cfo_hz: 300.0,
                });
            }
            let mut win = superpose(p, sps, &emissions);
            add_unit_noise(&mut rng, &mut win);
            let ctx = SymbolContext {
                frac_cfo_bins: Some(0.0),
                expected_peak_power: Some((amp * sps as f64).powi(2)),
                known_interferer_bins: vec![rng.random_range(0.0..n_bins as f64)],
            };
            out.push((win, Boundaries::new(sps, taus), ctx));
        }
    }
    out.push((
        vec![Cf32::new(0.0, 0.0); sps],
        Boundaries::new(sps, vec![]),
        SymbolContext::default(),
    ));
    out
}

/// A capture with one packet in noise: the scan passes through noise
/// windows and the packet's down-chirp hits.
fn scan_capture(p: &LoraParams) -> Vec<Cf32> {
    let x = Transceiver::new(*p, CodeRate::Cr45);
    let wave = x.waveform(&[7u8; 12]);
    let start = 5 * p.samples_per_symbol() + 123;
    let mut cap = superpose(
        p,
        start + wave.len() + 4 * p.samples_per_symbol(),
        &[Emission {
            waveform: wave,
            amplitude: amplitude_for_snr(10.0, p.oversampling()),
            start_sample: start,
            cfo_hz: 900.0,
        }],
    );
    add_unit_noise(&mut StdRng::seed_from_u64(0x5CA7), &mut cap);
    cap
}

#[test]
fn warm_demodulate_loop_is_allocation_free() {
    let p = LoraParams::new(9, 250e3, 4).unwrap();
    let cic = CicDemodulator::new(p, CicConfig::default());
    let cases: Vec<(Vec<Cf32>, Boundaries, SymbolContext)> = windows(&p)
        .into_iter()
        .map(|(w, b, ctx)| (cic.inner().dechirp(&w), b, ctx))
        .collect();

    let mut scratch = DemodScratch::new();
    // Warm-up: two passes so every arena buffer, FFT plan and engine-side
    // cache reaches steady state (one would do; two make the claim
    // independent of first-pass growth order).
    let mut warm = Vec::new();
    for _ in 0..2 {
        for (de, b, ctx) in &cases {
            warm.push(cic.demodulate_with(de, b, ctx, &mut scratch));
        }
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut values = 0usize;
    for _ in 0..3 {
        for (de, b, ctx) in &cases {
            let (value, selection) = cic.demodulate_with(de, b, ctx, &mut scratch);
            values = values.wrapping_add(value);
            std::hint::black_box(selection);
        }
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "warm demodulate_with loop allocated {} times over {} windows",
        after - before,
        3 * cases.len()
    );

    // The measured loop must agree with the warm-up decisions (sanity
    // that black_box didn't hide a broken path).
    let warm_sum: usize = warm[warm.len() - cases.len()..]
        .iter()
        .map(|(v, _)| *v)
        .sum();
    assert_eq!(values, warm_sum.wrapping_mul(3));

    // The coarse hop scan of preamble detection: warm the scratch and the
    // hit list once, then rescan the same capture.
    let detector = PreambleDetector::new(p, CicConfig::default());
    let cap = scan_capture(&p);
    let mut detect = DetectScratch::default();
    let mut hits = Vec::new();
    detector.coarse_scan(&cap, 0, 0, &mut detect, &mut hits);
    let warm_hits = hits.clone();
    assert!(!warm_hits.is_empty(), "the packet's down-chirps must hit");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut next = 0;
    for _ in 0..3 {
        hits.clear();
        next = detector.coarse_scan(&cap, 0, 0, &mut detect, &mut hits);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "warm coarse scan allocated {} times over {} hops",
        after - before,
        3 * next / (p.samples_per_symbol() / 2)
    );
    assert_eq!(hits, warm_hits);

    // Cluster confirmation over the scan's clusters (hits at most one
    // symbol apart): warm the scratch once, then confirm every cluster
    // again into a list that already has room.
    let sps = p.samples_per_symbol();
    let mut clusters: Vec<Vec<(usize, f64)>> = Vec::new();
    for &(pos, score) in &hits {
        match clusters.last_mut() {
            Some(c) if pos - c[c.len() - 1].0 <= sps => c.push((pos, score)),
            _ => clusters.push(vec![(pos, score)]),
        }
    }
    let mut found = Vec::with_capacity(4 * hits.len());
    for c in &mut clusters {
        detector.confirm_cluster(&cap, 0, c, &mut detect, |d| found.push(d));
    }
    let warm_found = found.clone();
    assert!(!warm_found.is_empty(), "the packet must be confirmed");

    let transforms = detect.transforms();
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..3 {
        found.clear();
        for c in &mut clusters {
            detector.confirm_cluster(&cap, 0, c, &mut detect, |d| found.push(d));
        }
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "warm confirmation allocated {} times over {} transforms",
        after - before,
        detect.transforms() - transforms
    );
    assert_eq!(found, warm_found);
}
