//! The `batch_hybrid` workload: the paper's figure path. Whole captures
//! go through one `CicReceiver::receive_hybrid` call each, with the
//! hybrid CIC + SIC configuration, single-threaded.

use std::time::Instant;

use cic::{CicConfig, CicReceiver, DecodedPacket, ResidualBuffer, SicConfig, SicReport};
use lora_channel::DeploymentKind;
use lora_dsp::Cf32;
use lora_phy::params::{CodeRate, LoraParams};
use lora_sim::scenario::{generate, Scenario};

use crate::truth::TruthFrame;

/// Generator parameters of `batch_hybrid`.
#[derive(Debug, Clone)]
pub struct BatchSpec {
    /// Captures per pass.
    pub captures: usize,
    /// Air time of each capture, seconds.
    pub capture_s: f64,
    /// Aggregate offered load, packets per second.
    pub rate_pps: f64,
    /// Deployment.
    pub deployment: DeploymentKind,
}

impl BatchSpec {
    /// `batch_hybrid`: D2 at 30 pps, the paper's collision-rich indoor
    /// point, with enough captures to decode for about `seconds`.
    pub fn batch_hybrid(seconds: f64) -> Self {
        const CAPTURE_S: f64 = 1.0;
        Self {
            // One capture second decodes in about 1.25 s on one CPU.
            captures: ((seconds * 0.8 / CAPTURE_S).round() as usize).max(1),
            capture_s: CAPTURE_S,
            rate_pps: 30.0,
            deployment: DeploymentKind::D2IndoorNlos,
        }
    }

    /// The scenario of capture `i` under master seed `seed`.
    pub fn scenario(&self, seed: u64, i: usize) -> Scenario {
        Scenario::paper(
            self.deployment,
            self.rate_pps,
            self.capture_s,
            seed.wrapping_mul(1_000_003).wrapping_add(i as u64),
        )
    }

    /// The arguments of `CicReceiver::new` for the receiver the pass
    /// builds: paper parameters, CIC + SIC.
    pub fn receiver_args(&self) -> (LoraParams, CodeRate, usize, CicConfig) {
        let s = self.scenario(0, 0);
        let config = CicConfig {
            sic: SicConfig::hybrid(),
            ..CicConfig::default()
        };
        (s.params, s.cr, s.payload_len, config)
    }

    /// The receiver the pass builds.
    pub fn receiver(&self) -> CicReceiver {
        let (params, cr, payload_len, config) = self.receiver_args();
        CicReceiver::new(params, cr, payload_len, config)
    }

    /// One-line description of the generator parameters.
    pub fn describe(&self) -> String {
        format!(
            "batch_hybrid: {} captures x {} s of Scenario::paper({}, {} pps), \
             SF8/250 kHz/os4, 28 B payload, receive_hybrid with SicConfig::hybrid(), single thread",
            self.captures,
            self.capture_s,
            self.deployment.label(),
            self.rate_pps
        )
    }
}

/// One pre-generated capture.
pub struct BatchCapture {
    /// Raw IQ.
    pub samples: Vec<Cf32>,
    /// Transmitted frames (capture time base, channel 0).
    pub truth: Vec<TruthFrame>,
    /// Sample rate, Hz.
    pub rate_hz: f64,
}

impl BatchCapture {
    /// Air time of the capture, seconds.
    pub fn air_s(&self) -> f64 {
        self.samples.len() as f64 / self.rate_hz
    }
}

/// Generate the captures for `seed` (outside any timed region).
///
/// Generation runs on a thread of its own, so the memory it frees stays
/// in that thread's allocator arena: the decode on the calling thread
/// cannot reuse it, and `rss_mb` does not depend on how generation left
/// the heap.
pub fn generate_input(spec: &BatchSpec, seed: u64) -> Vec<BatchCapture> {
    std::thread::scope(|s| {
        s.spawn(|| generate_captures(spec, seed))
            .join()
            .expect("capture generation panicked")
    })
}

fn generate_captures(spec: &BatchSpec, seed: u64) -> Vec<BatchCapture> {
    (0..spec.captures)
        .map(|i| {
            let sc = spec.scenario(seed, i);
            let frame = lora_phy::packet::Transceiver::new(sc.params, sc.cr)
                .frame_samples(sc.payload_len) as u64;
            let cap = generate(&sc);
            let sf = sc.params.sf().value();
            BatchCapture {
                truth: cap
                    .truth
                    .into_iter()
                    .map(|t| TruthFrame {
                        channel: 0,
                        sf,
                        start: t.start_sample as u64,
                        end: t.start_sample as u64 + frame,
                        payload: t.payload,
                    })
                    .collect(),
                samples: cap.samples,
                rate_hz: sc.params.sample_rate_hz(),
            }
        })
        .collect()
}

/// What one capture's decode produced.
pub struct CaptureOutcome {
    /// Packets `receive_hybrid` returned.
    pub packets: Vec<DecodedPacket>,
    /// Its SIC report.
    pub report: SicReport,
    /// Call to return, seconds.
    pub wall_s: f64,
}

/// Decode one capture as the figure path does.
pub fn decode(
    rx: &CicReceiver,
    residual: &mut ResidualBuffer,
    cap: &BatchCapture,
) -> CaptureOutcome {
    let t = Instant::now();
    let (packets, report) = rx.receive_hybrid(&cap.samples, residual);
    CaptureOutcome {
        wall_s: t.elapsed().as_secs_f64(),
        packets,
        report,
    }
}
