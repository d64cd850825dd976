//! Single-threaded replay of a workload's input through each layer's
//! public functions, for the per-layer metrics of the traced run.
//!
//! Under the threaded runtime the in-program histograms record wall time
//! on an oversubscribed box, so layer *times* come from here, as span
//! sums: the same wideband chunks go through the channelizer(s) the
//! serving system builds (`channelizer` spans), each channel stream
//! through one `StreamingReceiver` per (channel, SF) with the chunking
//! the workers see (`stream.push`), and each whole channel stream through
//! the batch receiver (`detect`, `receive`).

use cic::{CicReceiver, SicReport, StreamingReceiver};
use lora_dsp::{Cf32, Channelizer};

use crate::serving::{GatewayInput, GatewaySpec, Mode};
use crate::spans::SpanRecorder;

/// Counts gathered during a replay; times are read from the spans.
#[derive(Debug, Default, Clone)]
pub struct LayerCounts {
    /// Wideband samples through all channelizers.
    pub channelized_samples: u64,
    /// Detections found by `detect`.
    pub detections: u64,
    /// Decode attempts of `receive` (one per packet it returned).
    pub decode_attempts: u64,
    /// CRC-clean decodes of `receive`.
    pub decode_ok: u64,
    /// SIC counters of the `receive_hybrid` calls (figure path only; the
    /// gateway workloads run with SIC off).
    pub sic: SicReport,
}

impl LayerCounts {
    /// Batch-decode one stream or capture: `detect`, then `receive`
    /// (which detects again on its own).
    pub fn batch(&mut self, rx: &CicReceiver, samples: &[Cf32], id: u64, rec: &mut SpanRecorder) {
        let detections = rec.time("detect", Some(id), || rx.detect(samples));
        self.detections += detections.len() as u64;
        let packets = rec.time("receive", Some(id), || rx.receive(samples));
        self.decode_attempts += packets.len() as u64;
        self.decode_ok += packets.iter().filter(|p| p.ok()).count() as u64;
    }
}

/// Replay `input` through the layers `spec`'s serving system is built
/// from.
pub fn replay_gateway(
    spec: &GatewaySpec,
    input: &GatewayInput,
    rec: &mut SpanRecorder,
) -> LayerCounts {
    let mut out = LayerCounts::default();
    let base = spec.gateway_config();
    let cluster = spec.cluster_config();
    // (channelizer config, global channel of each local channel) per
    // channelizer the serving system runs.
    let fronts: Vec<_> = match spec.mode {
        Mode::Wide => vec![(
            base.channelizer.clone(),
            (0..base.channelizer.n_channels()).collect::<Vec<_>>(),
        )],
        Mode::Cluster { shards, .. } => (0..shards)
            .map(|s| {
                (
                    cluster.shard_config(s).channelizer,
                    cluster.shards[s].channels.clone(),
                )
            })
            .collect(),
    };

    // Per global channel, the chunk sequence its workers see.
    let mut streams: Vec<Vec<Vec<Cf32>>> = vec![Vec::new(); base.channelizer.n_channels()];
    for (cfg, channels) in fronts {
        let mut ch = Channelizer::new(cfg);
        for (k, chunk) in input.chunks().enumerate() {
            let outs = rec.time("channelizer", Some(k as u64), || ch.process(chunk));
            for (local, o) in outs.into_iter().enumerate() {
                streams[channels[local]].push(o);
            }
        }
        let tail = rec.time("channelizer", None, || ch.flush());
        for (local, o) in tail.into_iter().enumerate() {
            streams[channels[local]].push(o);
        }
        out.channelized_samples += input.samples.len() as u64;
    }

    for chunks in &streams {
        for &sf in &spec.sfs {
            let mut sr = StreamingReceiver::new(
                base.channel_params(sf),
                base.code_rate,
                base.payload_len,
                base.cic.clone(),
            );
            // The gateway dispatches only non-empty channel chunks.
            for (k, chunk) in chunks.iter().enumerate().filter(|(_, o)| !o.is_empty()) {
                rec.time("stream.push", Some(k as u64), || sr.push(chunk));
            }
            rec.time("stream.push", None, || sr.flush());
        }
    }

    for (c, chunks) in streams.iter().enumerate() {
        let stream: Vec<Cf32> = chunks.concat();
        for &sf in &spec.sfs {
            let rx = CicReceiver::new(
                base.channel_params(sf),
                base.code_rate,
                base.payload_len,
                base.cic.clone(),
            );
            out.batch(&rx, &stream, c as u64, rec);
        }
    }
    out
}
