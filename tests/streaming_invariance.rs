//! The streaming receiver's contract on busy captures: the decoded set
//! does not depend on how the stream is chunked, it contains every
//! packet the batch receiver's first pass decodes, and its detections
//! are exactly the batch detector's.

use cic::{CicConfig, CicReceiver, DecodedPacket, PreambleDetector, StreamingReceiver};
use cic_repro::lora_sim::scenario::{generate, Scenario};
use lora_channel::{add_unit_noise, amplitude_for_snr, superpose, DeploymentKind, Emission};
use lora_dsp::Cf32;
use lora_phy::{CodeRate, Demodulator, LoraParams, Transceiver};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const PAYLOAD_LEN: usize = 10;

fn params(sf: u8) -> LoraParams {
    LoraParams::new(sf, 250e3, 2).unwrap()
}

/// Six packets whose starts sit a third of a frame apart (with jitter),
/// so every frame overlaps two or three others, at mixed SNR and CFO.
fn busy_capture(sf: u8, seed: u64) -> Vec<Cf32> {
    let p = params(sf);
    let x = Transceiver::new(p, CodeRate::Cr45);
    let frame = x.frame_samples(PAYLOAD_LEN);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut start = 3 * p.samples_per_symbol();
    let emissions: Vec<Emission> = (0..6)
        .map(|_| {
            let payload: Vec<u8> = (0..PAYLOAD_LEN).map(|_| rng.random()).collect();
            let e = Emission {
                waveform: x.waveform(&payload),
                amplitude: amplitude_for_snr(rng.random_range(8.0..25.0), p.oversampling()),
                start_sample: start,
                cfo_hz: rng.random_range(-3000.0..3000.0),
            };
            start += frame / 3 + rng.random_range(0..frame / 6);
            e
        })
        .collect();
    let len = start + frame;
    let mut cap = superpose(&p, len, &emissions);
    add_unit_noise(&mut rng, &mut cap);
    cap
}

/// Everything that identifies one decode, CRC-failed ones included.
type Decode = (usize, u64, Vec<usize>, Option<Vec<u8>>);

fn key(p: DecodedPacket) -> Decode {
    (
        p.detection.frame_start,
        p.detection.cfo_bins.to_bits(),
        p.symbols,
        p.payload,
    )
}

/// Stream `cap` through a fresh receiver, cycling through `sizes` for
/// the chunk lengths.
fn stream(p: LoraParams, cap: &[Cf32], sizes: &[usize]) -> Vec<Decode> {
    let mut s = StreamingReceiver::new(p, CodeRate::Cr45, PAYLOAD_LEN, CicConfig::default());
    let mut out = Vec::new();
    let mut at = 0;
    for &n in sizes.iter().cycle() {
        if at == cap.len() {
            break;
        }
        let end = (at + n).min(cap.len());
        out.extend(s.push(&cap[at..end]).into_iter().map(key));
        at = end;
    }
    out.extend(s.flush().into_iter().map(key));
    out.sort_by_key(|d| d.0);
    out
}

#[test]
fn single_sample_chunks_match_one_whole_chunk() {
    for (sf, seed) in [(7u8, 1u64), (9, 2)] {
        let cap = busy_capture(sf, seed);
        let whole = stream(params(sf), &cap, &[cap.len()]);
        assert!(
            whole.len() >= 5,
            "SF{sf}: busy capture detected {}",
            whole.len()
        );
        assert!(
            whole.iter().any(|d| d.3.is_some()),
            "SF{sf}: nothing decoded"
        );
        assert_eq!(stream(params(sf), &cap, &[1]), whole, "SF{sf}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn ragged_chunkings_decode_the_same_set(
        sf in prop_oneof![Just(7u8), Just(9u8)],
        seed in 0u64..1000,
        sizes in proptest::collection::vec(
            prop_oneof![1usize..8, 100usize..3000, 3000usize..40_000],
            1..12,
        ),
    ) {
        let cap = busy_capture(sf, seed);
        let whole = stream(params(sf), &cap, &[cap.len()]);
        prop_assert_eq!(stream(params(sf), &cap, &sizes), whole);
    }
}

/// The capture the streaming-vs-batch comparison has been measured on:
/// 3 s of `Scenario::paper(D2, 30 pps)`, 99 frames.
fn paper_capture() -> (Scenario, Vec<Cf32>) {
    let sc = Scenario::paper(DeploymentKind::D2IndoorNlos, 30.0, 3.0, 11);
    let cap = generate(&sc).samples;
    (sc, cap)
}

#[test]
fn streaming_decodes_every_first_pass_batch_packet() {
    let (sc, cap) = paper_capture();
    let single = CicConfig {
        decode_passes: 1,
        ..CicConfig::default()
    };
    let batch: Vec<usize> = CicReceiver::new(sc.params, sc.cr, sc.payload_len, single)
        .receive(&cap)
        .into_iter()
        .filter(|p| p.ok())
        .map(|p| p.detection.frame_start)
        .collect();
    let mut s = StreamingReceiver::new(sc.params, sc.cr, sc.payload_len, CicConfig::default());
    let mut streamed = Vec::new();
    for c in cap.chunks(16_384) {
        streamed.extend(s.push(c));
    }
    streamed.extend(s.flush());
    let clean: Vec<usize> = streamed
        .iter()
        .filter(|p| p.ok())
        .map(|p| p.detection.frame_start)
        .collect();
    for start in &batch {
        assert!(
            clean.contains(start),
            "batch first pass decodes the frame at {start}, streaming does not"
        );
    }
    // The re-decoding receiver this one replaced decoded 36 of these
    // frames CRC-clean with 16 k chunks and 37 with 64 k; batch
    // `receive` with three passes decodes 38.
    assert!(
        clean.len() >= 37,
        "streaming decoded {} CRC-clean",
        clean.len()
    );
}

#[test]
fn scratch_coarse_scan_keeps_detections_bit_identical() {
    let (sc, cap) = paper_capture();
    let p = sc.params;
    let sps = p.samples_per_symbol();
    let config = CicConfig::default();
    let detector = PreambleDetector::new(p, config.clone());

    // Every hop window scores exactly as the allocating path does.
    let demod = Demodulator::new(p);
    let mut reference = Vec::new();
    let mut w = 0;
    while w + sps <= cap.len() {
        let spec = demod.folded_spectrum(&demod.updechirp(&cap[w..w + sps]));
        if let Some((_, peak)) = spec.argmax() {
            let floor = spec.median_power();
            if floor > 0.0 && peak / floor >= config.preamble_peak_threshold {
                reference.push((w, (peak / floor).to_bits()));
            }
        }
        w += sps / 2;
    }
    let mut hits = Vec::new();
    detector.coarse_scan(&cap, 0, 0, &mut Default::default(), &mut hits);
    let hits: Vec<(usize, u64)> = hits.iter().map(|&(w, s)| (w, s.to_bits())).collect();
    assert_eq!(hits, reference);

    // The detections themselves, pinned as measured with the allocating
    // scan: an FNV-1a hash over every field's bits.
    let detections = detector.detect(&cap);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in &detections {
        for v in [
            d.frame_start as u64,
            d.cfo_bins.to_bits(),
            d.peak_power.to_bits(),
            d.score.to_bits(),
        ] {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    assert_eq!(detections.len(), 94);
    assert_eq!(h, 0xa42f_28f5_20ab_c548);
}
