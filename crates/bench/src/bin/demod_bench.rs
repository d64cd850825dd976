//! Demodulator hot-path throughput: allocating wrapper/reference path vs
//! the scratch-arena path, in symbols/s per (SF, boundary-count) cell,
//! written to `BENCH_demod.json`.
//!
//! Each cell synthesises a fixed set of collision windows (target symbol
//! plus 0/1/3 interferer boundary crossings, noise, preamble-style
//! `SymbolContext`), de-chirps them once, then replays the set through
//! `demodulate_reference` (the pinned pre-scratch implementation: one
//! FFT per ICSS member plus separate full-window power and amplitude
//! transforms, allocating every intermediate) and through
//! `demodulate_with` (single full-window transform folded three ways,
//! all buffers from a warm [`cic::DemodScratch`]). Best of `--reps`
//! passes is reported; both paths are asserted decision-identical on
//! every window before timing starts.
//!
//! The `stream_rows` compare, on one busy capture per SF (7 and 9), the
//! cost of pushing it through a [`cic::StreamingReceiver`] in 4 k, 16 k
//! and 64 k chunks against one batch `receive` over the whole capture
//! (median per-rep ratio over at least 5 reps); a receiver that decodes
//! every frame once stays near 1×.
//!
//! The `detect_rows` time batch [`cic::PreambleDetector::detect`] (best of
//! the reps, as seconds per air-second) on the 3 s `Scenario::paper(D2,
//! 30 pps)` capture (seed 11) and on the two busy captures, and count
//! through a [`cic::DetectScratch`] the window summaries confirmation
//! requested and the window transforms it performed, per confirmed
//! cluster. The counts are deterministic, so they are gated without host
//! noise.
//!
//! CI smoke-runs this with `--quick`, validates the schema, and fails if
//! the scratch path is slower than the wrapper path on any cell,
//! streaming costs more than 1.2× batch on any row, or confirmation
//! needs more transforms per cluster than its bound.
//!
//! Usage: `demod_bench [--windows <n>] [--reps <n>] [--quick] [--out <path>]`

use std::time::Instant;

use cic::{
    Boundaries, CicConfig, CicDemodulator, CicReceiver, DemodScratch, DetectScratch,
    PreambleDetector, StreamingReceiver, SymbolContext,
};
use lora_channel::{add_unit_noise, amplitude_for_snr, superpose, DeploymentKind, Emission};
use lora_dsp::Cf32;
use lora_phy::chirp::symbol_waveform;
use lora_phy::params::LoraParams;
use lora_sim::scenario::{generate, Scenario};
use lora_sim::{json_object, JsonValue};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

struct Opts {
    windows: usize,
    reps: usize,
    out: String,
    quick: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\n\
         usage: demod_bench [--windows <n>] [--reps <n>] [--quick] [--out <path>]\n\
         defaults: windows 48, reps 5, out BENCH_demod.json; --quick = windows 6, reps 2"
    );
    std::process::exit(2)
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        windows: 48,
        reps: 5,
        out: "BENCH_demod.json".to_string(),
        quick: false,
    };
    let mut explicit_windows = None;
    let mut explicit_reps = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut next = |what: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{what} needs a value")))
        };
        let parse_pos = |what: &str, v: String| -> usize {
            let n = v
                .parse()
                .unwrap_or_else(|_| usage(&format!("{what} needs an integer")));
            if n == 0 {
                usage(&format!("{what} must be positive"));
            }
            n
        };
        match arg.as_str() {
            "--windows" => explicit_windows = Some(parse_pos("--windows", next("--windows"))),
            "--reps" => explicit_reps = Some(parse_pos("--reps", next("--reps"))),
            "--quick" => o.quick = true,
            "--out" => o.out = next("--out"),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if o.quick {
        o.windows = 6;
        o.reps = 2;
    }
    if let Some(w) = explicit_windows {
        o.windows = w;
    }
    if let Some(r) = explicit_reps {
        o.reps = r;
    }
    o
}

/// Full-window peak power of a clean, collision-free target symbol —
/// the preamble-style estimate the receiver's power filter would carry.
fn expected_peak_power(cic: &CicDemodulator, p: &LoraParams, amp: f64) -> f64 {
    let de = cic.inner().dechirp(&superpose(
        p,
        p.samples_per_symbol(),
        &[Emission {
            waveform: symbol_waveform(p, 0),
            amplitude: amp,
            start_sample: 0,
            cfo_hz: 0.0,
        }],
    ));
    let spec = cic.inner().folded_spectrum(&de);
    let (bin, _) = spec.argmax().expect("clean symbol has a peak");
    let n = spec.len();
    // Same ±1-bin lobe the candidate features use.
    spec[(bin + n - 1) % n] + spec[bin] + spec[(bin + 1) % n]
}

/// One cell's window set: target symbol at 15 dB SNR plus
/// `n_interferers` boundary-crossing interferers at mixed amplitudes and
/// small CFOs, with unit-variance noise.
fn windows(
    p: &LoraParams,
    n_interferers: usize,
    count: usize,
    ctx: &SymbolContext,
    seed: u64,
) -> Vec<(Vec<Cf32>, Boundaries, SymbolContext)> {
    let sps = p.samples_per_symbol();
    let n_bins = p.n_bins();
    let mut rng = StdRng::seed_from_u64(seed);
    let amp = amplitude_for_snr(15.0, p.oversampling());
    (0..count)
        .map(|_| {
            let mut emissions = vec![Emission {
                waveform: symbol_waveform(p, rng.random_range(0..n_bins)),
                amplitude: amp,
                start_sample: 0,
                cfo_hz: 0.0,
            }];
            let mut taus = Vec::new();
            for k in 0..n_interferers {
                let tau = rng.random_range(sps / 8..sps - sps / 8);
                taus.push(tau);
                let a = amp * [1.6, 0.7, 2.4][k % 3];
                let cfo = rng.random_range(-400.0..400.0);
                let w_prev = symbol_waveform(p, rng.random_range(0..n_bins));
                let w_next = symbol_waveform(p, rng.random_range(0..n_bins));
                emissions.push(Emission {
                    waveform: w_prev[sps - tau..].to_vec(),
                    amplitude: a,
                    start_sample: 0,
                    cfo_hz: cfo,
                });
                emissions.push(Emission {
                    waveform: w_next[..sps - tau].to_vec(),
                    amplitude: a,
                    start_sample: tau,
                    cfo_hz: cfo,
                });
            }
            let mut win = superpose(p, sps, &emissions);
            add_unit_noise(&mut rng, &mut win);
            (win, Boundaries::new(sps, taus), ctx.clone())
        })
        .collect()
}

/// Streaming push cost against batch `receive` cost on the busy capture
/// of each SF, `seconds` long. Each rep times batch and then every
/// chunking back to back, so host contention hits both sides of a ratio
/// alike; a row reports the median over reps of the per-rep ratio (and
/// the best time of each side).
fn stream_rows(opts: &Opts) -> Vec<JsonValue> {
    let seconds = if opts.quick { 0.6 } else { 2.0 };
    let reps = opts.reps.max(5);
    let chunks = [4096usize, 16_384, 65_536];
    let mut rows = Vec::new();
    for sf in [7u8, 9] {
        let scenario = busy_scenario(sf, seconds);
        let capture = generate(&scenario);
        let cap = &capture.samples;
        let (p, cr, len) = (scenario.params, scenario.cr, scenario.payload_len);
        let config = CicConfig::default();
        let batch_rx = CicReceiver::new(p, cr, len, config.clone());

        let mut batch_s = Vec::new();
        let mut stream_s = vec![Vec::new(); chunks.len()];
        let mut batch_ok = 0;
        let mut stream_ok = vec![0; chunks.len()];
        for _ in 0..reps {
            let t0 = Instant::now();
            let packets = batch_rx.receive(cap);
            batch_s.push(t0.elapsed().as_secs_f64());
            batch_ok = packets.iter().filter(|q| q.ok()).count();
            for (i, &chunk) in chunks.iter().enumerate() {
                let mut rx = StreamingReceiver::new(p, cr, len, config.clone());
                let t0 = Instant::now();
                let mut packets = Vec::new();
                for c in cap.chunks(chunk) {
                    packets.extend(rx.push(c));
                }
                packets.extend(rx.flush());
                stream_s[i].push(t0.elapsed().as_secs_f64());
                stream_ok[i] = packets.iter().filter(|q| q.ok()).count();
            }
        }

        let best = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        for (i, &chunk) in chunks.iter().enumerate() {
            let mut ratios: Vec<f64> = stream_s[i]
                .iter()
                .zip(&batch_s)
                .map(|(s, b)| s / b)
                .collect();
            ratios.sort_by(f64::total_cmp);
            let ratio = ratios[ratios.len() / 2];
            let (bs, ss) = (best(&batch_s), best(&stream_s[i]));
            println!(
                "SF{sf} stream {chunk:>6}-sample chunks: {ss:.3} s ({} ok) \
                 vs batch {bs:.3} s ({batch_ok} ok), median ratio {ratio:.2}x",
                stream_ok[i],
            );
            rows.push(json_object! {
                "sf" => sf as usize,
                "chunk" => chunk,
                "samples" => cap.len(),
                "frames" => capture.truth.len(),
                "reps" => reps,
                "batch_s" => bs,
                "stream_s" => ss,
                "batch_ok" => batch_ok,
                "stream_ok" => stream_ok[i],
                "stream_over_batch" => ratio,
            });
        }
    }
    rows
}

/// The busy capture of `stream_rows` and `detect_rows` at `sf`: D2
/// traffic at a rate that keeps about two frames on the air at once.
fn busy_scenario(sf: u8, seconds: f64) -> Scenario {
    let rate_pps = if sf == 7 { 80.0 } else { 30.0 };
    let mut scenario = Scenario::paper(DeploymentKind::D2IndoorNlos, rate_pps, seconds, 7);
    scenario.params = LoraParams::new(sf, 250e3, 4).expect("valid params");
    scenario
}

/// Batch detection cost and confirmation work on the ROADMAP capture
/// (3 s of `Scenario::paper(D2, 30 pps)`, seed 11, whatever `--quick`)
/// and on the busy SF7/SF9 captures.
fn detect_rows(opts: &Opts) -> Vec<JsonValue> {
    let seconds = if opts.quick { 0.6 } else { 2.0 };
    let captures = [
        (
            "paper_d2_30pps",
            Scenario::paper(DeploymentKind::D2IndoorNlos, 30.0, 3.0, 11),
        ),
        ("busy_sf7", busy_scenario(7, seconds)),
        ("busy_sf9", busy_scenario(9, seconds)),
    ];
    let mut rows = Vec::new();
    for (name, scenario) in captures {
        let cap = generate(&scenario).samples;
        let p = scenario.params;
        let detector = PreambleDetector::new(p, CicConfig::default());
        let mut scratch = DetectScratch::default();
        let detections = detector.detect_with(&cap, &mut scratch).len();
        let mut best = f64::INFINITY;
        for _ in 0..opts.reps {
            let t0 = Instant::now();
            std::hint::black_box(detector.detect(&cap));
            best = best.min(t0.elapsed().as_secs_f64());
        }
        let air_s = p.samples_to_seconds(cap.len());
        let clusters = scratch.clusters().max(1) as f64;
        let per_cluster = scratch.transforms() as f64 / clusters;
        println!(
            "detect {name:>14} (SF{}): {:.3} s per air-s, {detections} detections, \
             {} clusters, {:.1} window requests and {per_cluster:.1} transforms per cluster",
            p.sf().value(),
            best / air_s,
            scratch.clusters(),
            scratch.window_requests() as f64 / clusters,
        );
        rows.push(json_object! {
            "capture" => name,
            "sf" => p.sf().value() as usize,
            "samples" => cap.len(),
            "air_s" => air_s,
            "reps" => opts.reps,
            "detect_s" => best,
            "s_per_air_s" => best / air_s,
            "detections" => detections,
            "clusters" => scratch.clusters() as usize,
            "window_requests" => scratch.window_requests() as usize,
            "transforms" => scratch.transforms() as usize,
            "transforms_per_cluster" => per_cluster,
        });
    }
    rows
}

fn main() {
    let opts = parse_opts();
    repro_bench::banner(
        "BENCH demod",
        "symbols/s, allocating wrapper path vs scratch hot path, per SF x boundaries",
    );

    let mut rows = Vec::new();
    for sf in [7u8, 9, 12] {
        let p = LoraParams::new(sf, 250e3, 4).expect("valid params");
        let cic = CicDemodulator::new(p, CicConfig::default());
        let amp = amplitude_for_snr(15.0, p.oversampling());
        let ctx = SymbolContext {
            frac_cfo_bins: Some(0.0),
            expected_peak_power: Some(expected_peak_power(&cic, &p, amp)),
            known_interferer_bins: Vec::new(),
        };
        for n_boundaries in [0usize, 1, 3] {
            let seed = 0xD_E40D ^ ((sf as u64) << 8) ^ n_boundaries as u64;
            let cases: Vec<(Vec<Cf32>, Boundaries, SymbolContext)> =
                windows(&p, n_boundaries, opts.windows, &ctx, seed)
                    .into_iter()
                    .map(|(w, b, c)| (cic.inner().dechirp(&w), b, c))
                    .collect();

            // Decision identity on every window, and hot-path warm-up
            // (FFT plans, scratch steady state) before any timing.
            let mut scratch = DemodScratch::new();
            for (de, b, c) in &cases {
                let want = cic.demodulate_reference(de, b, c);
                let got = cic.demodulate_scratch(de, b, c, &mut scratch);
                assert_eq!(
                    got, want,
                    "SF{sf}/{n_boundaries}b: scratch and wrapper paths disagree"
                );
            }

            let mut best_wrapper = f64::INFINITY;
            let mut best_scratch = f64::INFINITY;
            let mut sum_wrapper = 0usize;
            let mut sum_scratch = 0usize;
            for _ in 0..opts.reps {
                let t0 = Instant::now();
                let mut acc = 0usize;
                for (de, b, c) in &cases {
                    acc = acc.wrapping_add(std::hint::black_box(
                        cic.demodulate_reference(de, b, c).value,
                    ));
                }
                best_wrapper = best_wrapper.min(t0.elapsed().as_secs_f64());
                sum_wrapper = acc;

                let t0 = Instant::now();
                let mut acc = 0usize;
                for (de, b, c) in &cases {
                    let (value, _) =
                        std::hint::black_box(cic.demodulate_with(de, b, c, &mut scratch));
                    acc = acc.wrapping_add(value);
                }
                best_scratch = best_scratch.min(t0.elapsed().as_secs_f64());
                sum_scratch = acc;
            }
            assert_eq!(
                sum_wrapper, sum_scratch,
                "SF{sf}/{n_boundaries}b: timed passes decoded different values"
            );

            let wrapper_sps = opts.windows as f64 / best_wrapper;
            let scratch_sps = opts.windows as f64 / best_scratch;
            let speedup = scratch_sps / wrapper_sps;
            println!(
                "SF{sf} {n_boundaries} boundaries: wrapper {wrapper_sps:9.0} sym/s, \
                 scratch {scratch_sps:9.0} sym/s, speedup {speedup:.2}x",
            );
            rows.push(json_object! {
                "sf" => sf as usize,
                "boundaries" => n_boundaries,
                "windows" => opts.windows,
                "wrapper_symbols_per_sec" => wrapper_sps,
                "scratch_symbols_per_sec" => scratch_sps,
                "speedup" => speedup,
            });
        }
    }

    let stream = stream_rows(&opts);
    let detect = detect_rows(&opts);

    let doc = json_object! {
        "bench" => "demod",
        "windows" => opts.windows,
        "reps" => opts.reps,
        "quick" => opts.quick,
        "rows" => JsonValue::Array(rows),
        "stream_rows" => JsonValue::Array(stream),
        "detect_rows" => JsonValue::Array(detect),
    };
    std::fs::write(&opts.out, doc.pretty() + "\n").expect("write BENCH_demod.json");
    println!("\nwrote {}", opts.out);
}
