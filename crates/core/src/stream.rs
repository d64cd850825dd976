//! Streaming (chunked) CIC reception.
//!
//! The paper deploys CIC as a GNU Radio block at an SDR gateway or as a
//! C-RAN module in the cloud (§6): samples arrive continuously, not as a
//! finished capture. [`StreamingReceiver`] runs the batch pipeline of
//! [`crate::CicReceiver`] incrementally, touching every sample window a
//! bounded number of times:
//!
//! * **Scan once.** The coarse down-chirp scan runs on the half-symbol hop
//!   grid anchored to *absolute* stream positions (multiples of `sps/2`,
//!   also after [`StreamingReceiver::seek_to`] and
//!   [`StreamingReceiver::quiesce`]); each window is scanned once, as soon
//!   as its last sample arrives.
//! * **Confirm once.** Hits cluster exactly as in batch detection. A
//!   cluster is confirmed once no later window can join it and every
//!   sample confirmation reads has arrived (3.5 symbols past its last
//!   hit); the detections join a pending list.
//! * **Decode once.** A detection is *due* when the stream reaches
//!   `frame_end + data_start + 2·sps`: by then every interferer starting
//!   more than 1.25 symbols before the frame's end has been confirmed. It
//!   is decoded then, exactly once, against the tracked interferers
//!   confirmed by its due point, with a known-symbol retry over
//!   neighbours that already decoded CRC-clean (when
//!   `decode_passes > 1`).
//! * With SIC enabled, a residual copy of the window is kept alive across
//!   pushes: each CRC-clean packet is subtracted from it once, and the
//!   residual pass runs once per group of newly decoded packets.
//!
//! Memory stays bounded, at about [`StreamingReceiver::holdback`] plus
//! the chunk length, regardless of stream duration: the window is
//! trimmed to the oldest sample any pending detection, unconfirmed
//! cluster or future coarse window can still read, and a coarse cluster
//! longer than the holdback is split.
//!
//! **Relation to batch.** The emitted packet set is *chunk-invariant*:
//! it depends only on the samples and on where `seek_to`/`quiesce`/
//! `flush` cut the stream, never on how pushes split them (SIC off; a
//! residual pass sees whatever window the push that triggered it left).
//! Detections are exactly those of [`crate::CicReceiver::detect`] on the
//! same samples (short of the cluster split, which needs a down-chirp run
//! longer than a frame). Each packet's first decode equals the batch first pass,
//! so every packet batch `receive` decodes CRC-clean with
//! `decode_passes = 1` is decoded CRC-clean here too; later batch passes
//! may also use tones of packets that start after the target, which a
//! once-per-frame decode never has. Packets whose frame was cut by
//! `seek_to`/`quiesce`, or runs past the end at `flush`, are dropped.

use std::collections::HashMap;

use lora_dsp::Cf32;
use lora_phy::modulate::{FrameLayout, Modulator};
use lora_phy::params::{CodeRate, LoraParams};

use crate::config::CicConfig;
use crate::demod::CicDemodulator;
use crate::preamble::{confirm_reach, extends_cluster, DetectScratch, Detection, PreambleDetector};
use crate::receiver::{CicReceiver, DecodedPacket};
use crate::scratch::DemodScratch;
use crate::sic::{CancelOutcome, ResidualBuffer, SicReport};

/// A confirmed detection the receiver still tracks.
#[derive(Debug)]
struct Tracked {
    /// The detection, with an absolute frame start.
    det: Detection,
    /// Absolute position at which its cluster's confirmation became
    /// possible: it shapes the decode of packets due at or after this
    /// point only, whatever the chunking.
    confirmed_at: usize,
    /// Data symbols, once decoded CRC-clean.
    clean: Option<Vec<usize>>,
    /// Whether the packet was subtracted from the live residual.
    subtracted: bool,
}

/// How far a decode call may go.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// `push`: confirm complete clusters, decode due detections.
    Push,
    /// `quiesce`/`seek_to`: additionally decode every pending detection
    /// whose frame is complete; the rest are given up.
    Cut,
    /// `flush`: end of stream — confirm every cluster on what arrived and
    /// decode every pending detection.
    Drain,
}

/// Detector and demodulator, built on first use (not in
/// [`StreamingReceiver::new`]) and rebuilt after a config change.
struct Engines {
    detector: PreambleDetector,
    demod: CicDemodulator,
}

/// A chunk-at-a-time CIC receiver with bounded memory.
pub struct StreamingReceiver {
    rx: CicReceiver,
    buffer: Vec<Cf32>,
    /// Absolute sample index of `buffer[0]` in the stream.
    origin: usize,
    /// Start of the current contiguous stretch (0, or the last
    /// `seek_to`/`quiesce`/`flush` point): nothing reads before it.
    floor: usize,
    /// Absolute start of the next coarse window to scan.
    next_hop: usize,
    /// Coarse clusters not yet confirmed, oldest first; only the last
    /// may still grow.
    clusters: Vec<Vec<(usize, f64)>>,
    /// Confirmed detections not yet decoded, by frame start.
    pending: Vec<Tracked>,
    /// Decoded detections, kept while their frames reach into the window
    /// (interferers and duplicate checks for later detections).
    decided: Vec<Tracked>,
    engines: Option<Engines>,
    detect: DetectScratch,
    hits: Vec<(usize, f64)>,
    scratch: DemodScratch,
    /// Residual of the window for the SIC stage: mirrors `buffer` minus
    /// every subtracted packet while `residual_live`.
    residual: ResidualBuffer,
    residual_live: bool,
    /// Cumulative SIC counters across all pushes.
    sic: SicReport,
}

impl StreamingReceiver {
    /// Wrap a configured receiver.
    pub fn new(params: LoraParams, cr: CodeRate, payload_len: usize, config: CicConfig) -> Self {
        Self {
            rx: CicReceiver::new(params, cr, payload_len, config),
            buffer: Vec::new(),
            origin: 0,
            floor: 0,
            next_hop: 0,
            clusters: Vec::new(),
            pending: Vec::new(),
            decided: Vec::new(),
            engines: None,
            detect: DetectScratch::default(),
            hits: Vec::new(),
            scratch: DemodScratch::new(),
            residual: ResidualBuffer::new(),
            residual_live: false,
            sic: SicReport::default(),
        }
    }

    /// The wrapped batch receiver.
    pub fn inner(&self) -> &CicReceiver {
        &self.rx
    }

    /// Cumulative counters of the SIC residual stage over the stream so
    /// far. All zero while the stage is disabled. A recovered packet's
    /// frame lies inside the window its residual was taken from, which
    /// starts no earlier than the previous push's `position() -
    /// holdback()`, so the watermark contract of [`Self::holdback`] holds
    /// for recovered packets too.
    pub fn sic_report(&self) -> SicReport {
        self.sic
    }

    /// Swap the decoder configuration at runtime (e.g. a gateway lowering
    /// `decode_passes` under load). Applies from the next push; buffered
    /// samples, position and tracked detections are untouched. The
    /// memory bound and [`Self::holdback`] depend only on the fixed
    /// parameters, so they are unaffected.
    pub fn set_config(&mut self, config: CicConfig) {
        self.rx.set_config(config);
        self.engines = None;
    }

    /// Total samples consumed so far.
    pub fn position(&self) -> usize {
        self.origin + self.buffer.len()
    }

    /// Current internal buffer length (bounded; see module docs).
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// How far behind [`Self::position`] a future packet can still start:
    /// every packet emitted by a later `push` has
    /// `frame_start >= position() - holdback()`. Lets a merger of several
    /// streams compute a safe release watermark. It is one frame plus
    /// the due margin (`data_start + 2·sps`): a detection still pending
    /// after a push is not yet due, so its frame started less than this
    /// far back.
    pub fn holdback(&self) -> usize {
        self.frame_len() + self.due_margin()
    }

    /// Frame length in samples for the configured payload size.
    fn frame_len(&self) -> usize {
        self.layout().frame_len(self.rx.n_data_symbols())
    }

    fn layout(&self) -> FrameLayout {
        FrameLayout::new(self.rx.params())
    }

    fn sps(&self) -> usize {
        self.rx.params().samples_per_symbol()
    }

    /// How far past its frame end a detection waits before decoding. An
    /// interferer's last coarse hit starts no later than a quarter symbol
    /// before its down-chirps end (`data_start` after its frame start),
    /// and its cluster confirms 3.5 symbols after that hit; so every
    /// interferer starting more than 1.25 symbols before the frame's end
    /// is tracked by then. A later one overlaps at most the last two data
    /// symbols, with its preamble only.
    fn due_margin(&self) -> usize {
        self.layout().data_start + 2 * self.sps()
    }

    /// Append a chunk and return every packet that became due, in frame
    /// order. Packets whose frames (plus the due margin) extend past the
    /// current stream head are held until a later push completes them.
    pub fn push(&mut self, chunk: &[Cf32]) -> Vec<DecodedPacket> {
        self.buffer.extend_from_slice(chunk);
        if self.residual_live {
            self.residual.extend(chunk);
        }
        let out = self.advance(Mode::Push);
        self.trim();
        out
    }

    /// Drain: decode everything the stream has detected, even if that
    /// means giving up on packets that would have needed more samples.
    /// Call once at end of stream.
    pub fn flush(&mut self) -> Vec<DecodedPacket> {
        let out = self.advance(Mode::Drain);
        self.restart_at(self.position());
        out
    }

    /// Quiesce an idle stream: emit every tracked packet whose frame is
    /// complete, then reset so that no future packet can start before
    /// [`Self::position`]. Lets a merger release everything up to
    /// `position()` instead of holding the [`Self::holdback`] margin
    /// while the stream is silent. A packet only partially received when
    /// `quiesce` is called is given up, so call it on sustained
    /// inactivity, not between routine chunks. The hop grid stays
    /// anchored to absolute positions, so a stream resumed after a
    /// quiesce detects later packets exactly where an unbroken one would.
    pub fn quiesce(&mut self) -> Vec<DecodedPacket> {
        let out = self.advance(Mode::Cut);
        self.restart_at(self.position());
        out
    }

    /// Jump the stream head forward to absolute sample `position`:
    /// samples in between were lost upstream (e.g. an overloaded queue
    /// dropped them). Tracked packets whose frames are complete are
    /// decoded and returned, exactly as [`Self::quiesce`] does; the
    /// receiver then continues cleanly from `position` on the same
    /// absolute hop grid, with packets straddling the gap given up.
    /// Positions at or behind the current head are a no-op.
    pub fn seek_to(&mut self, position: usize) -> Vec<DecodedPacket> {
        if position <= self.position() {
            return Vec::new();
        }
        let out = self.advance(Mode::Cut);
        self.restart_at(position);
        out
    }

    /// Forget all stream state and continue at absolute `position`.
    fn restart_at(&mut self, position: usize) {
        self.buffer.clear();
        self.origin = position;
        self.floor = position;
        self.next_hop = position;
        self.clusters.clear();
        self.pending.clear();
        self.decided.clear();
        self.residual.load(&[]);
        self.residual_live = false;
    }

    /// Scan, confirm and decode as far as `mode` allows; returns the
    /// packets decoded, in frame order.
    fn advance(&mut self, mode: Mode) -> Vec<DecodedPacket> {
        let sps = self.sps();
        let position = self.position();
        let holdback = self.holdback();
        let frame_len = self.frame_len();
        let engines = self.engines.get_or_insert_with(|| Engines {
            detector: PreambleDetector::new(*self.rx.params(), self.rx.config().clone()),
            demod: CicDemodulator::new(*self.rx.params(), self.rx.config().clone()),
        });

        // Scan every hop window completed since the last call.
        self.hits.clear();
        self.next_hop = engines.detector.coarse_scan(
            &self.buffer,
            self.origin,
            self.next_hop,
            &mut self.detect,
            &mut self.hits,
        );
        // A cluster spanning more than the holdback (a down-chirp run no
        // real traffic produces) is split, which keeps the window bounded
        // on hostile input.
        for &(pos, score) in &self.hits {
            match self.clusters.last_mut() {
                Some(cluster)
                    if extends_cluster(sps, cluster, pos) && pos - cluster[0].0 <= holdback =>
                {
                    cluster.push((pos, score))
                }
                _ => self.clusters.push(vec![(pos, score)]),
            }
        }

        // Confirm, oldest first, every cluster whose confirmation span has
        // fully arrived (at end of stream: every cluster).
        while let Some(cluster) = self.clusters.first() {
            let (lo, hi) = confirm_reach(sps, cluster[0].0, cluster[cluster.len() - 1].0);
            if hi > position && mode != Mode::Drain {
                break;
            }
            let mut cluster = self.clusters.remove(0);
            let lo = lo.max(self.floor);
            let span = &self.buffer[lo - self.origin..hi.min(position) - self.origin];
            let (pending, decided) = (&mut self.pending, &self.decided);
            engines
                .detector
                .confirm_cluster(span, lo, &mut cluster, &mut self.detect, |det| {
                    let dup = pending
                        .iter()
                        .chain(decided)
                        .any(|t| t.det.frame_start.abs_diff(det.frame_start) < sps / 2);
                    if !dup {
                        let at = pending.partition_point(|t| t.det.frame_start <= det.frame_start);
                        pending.insert(
                            at,
                            Tracked {
                                det,
                                confirmed_at: hi,
                                clean: None,
                                subtracted: false,
                            },
                        );
                    }
                });
        }

        // Decode due detections, oldest first: each sees the neighbours
        // decoded before it.
        let n_due = match mode {
            Mode::Push => self
                .pending
                .partition_point(|t| t.det.frame_start + holdback <= position),
            Mode::Cut => self
                .pending
                .partition_point(|t| t.det.frame_start + frame_len <= position),
            Mode::Drain => self.pending.len(),
        };
        let mut out = Vec::new();
        for _ in 0..n_due {
            let t = self.pending.remove(0);
            let due = t.det.frame_start + holdback;
            let mut neighbours: Vec<Detection> = Vec::new();
            let mut known: HashMap<usize, Vec<usize>> = HashMap::new();
            for n in &self.decided {
                if let Some(symbols) = &n.clean {
                    known.insert(neighbours.len(), symbols.clone());
                }
                neighbours.push(n.det);
            }
            neighbours.push(t.det);
            neighbours.extend(
                self.pending
                    .iter()
                    .filter(|n| mode != Mode::Push || n.confirmed_at <= due)
                    .map(|n| n.det),
            );
            let tracker = self.rx.tracker(&neighbours);
            let pkt = self.rx.decode_detection(
                &self.buffer,
                self.origin,
                &tracker,
                &engines.demod,
                &t.det,
                &known,
                &mut self.scratch,
            );
            self.decided.push(Tracked {
                clean: pkt.ok().then(|| pkt.symbols.clone()),
                ..t
            });
            // A frame that ran past the end of the stream has nothing
            // to report.
            if pkt.truncated_symbols == 0 {
                out.push(pkt);
            }
        }
        self.sic_stage(&mut out);
        out.sort_by_key(|p| p.detection.frame_start);
        out
    }

    /// The SIC residual stage over the live residual (no-op unless
    /// `config.sic.depth > 0` and `out` — the packets this call decoded —
    /// holds a CRC-clean one): subtract every CRC-clean packet not yet
    /// subtracted, re-run CIC on the residual, and merge what it
    /// recovers: a failed packet of `out` is replaced, a frame start
    /// nobody tracks is a new packet, anything else was already reported.
    fn sic_stage(&mut self, out: &mut Vec<DecodedPacket>) {
        let cfg = self.rx.config().sic.clone();
        if !cfg.enabled() {
            if self.residual_live {
                self.residual.load(&[]);
                self.residual_live = false;
            }
            return;
        }
        if !out.iter().any(|p| p.ok()) {
            return;
        }
        if !self.residual_live {
            self.residual.load(&self.buffer);
            self.residual_live = true;
            for t in &mut self.decided {
                t.subtracted = false;
            }
        }
        let sps = self.sps();
        let origin = self.origin;
        let modulator = Modulator::new(*self.rx.params());
        let n_threads = self.rx.config().decode_threads.max(1);
        let mut report = SicReport::default();
        let (hits_before, misses_before) = self.residual.cache_counters();
        for pass in 1..=cfg.depth {
            let e_before = self.residual.energy();
            let mut any_cancelled = false;
            for t in &mut self.decided {
                let Some(symbols) = &t.clean else { continue };
                if t.subtracted || t.det.frame_start < origin {
                    continue;
                }
                t.subtracted = true;
                match self.residual.cancel(
                    &modulator,
                    symbols,
                    t.det.frame_start - origin,
                    t.det.cfo_bins,
                    &cfg,
                ) {
                    CancelOutcome::Cancelled { .. } => any_cancelled = true,
                    CancelOutcome::Abandoned => report.abandoned += 1,
                }
            }
            if !any_cancelled {
                break;
            }
            let e_after = self.residual.energy();
            if e_after <= f64::MIN_POSITIVE
                || lora_dsp::math::db(e_before / e_after) < cfg.min_pass_reduction_db
            {
                break;
            }
            report.passes += 1;
            let mut progressed = false;
            for mut pkt in self.rx.receive_cic(self.residual.samples(), n_threads) {
                if !pkt.ok() {
                    continue;
                }
                pkt.detection.frame_start += origin;
                pkt.sic_pass = pass;
                let near =
                    |t: &Tracked| t.det.frame_start.abs_diff(pkt.detection.frame_start) < sps / 2;
                if self.pending.iter().any(near) {
                    continue;
                }
                match self.decided.iter().position(near) {
                    // Only a failed packet of this call can still be
                    // replaced: older ones were reported already.
                    Some(j) => {
                        let start = self.decided[j].det.frame_start;
                        let slot = out
                            .iter_mut()
                            .find(|p| !p.ok() && p.detection.frame_start == start);
                        if let Some(slot) = slot {
                            self.decided[j].det = pkt.detection;
                            self.decided[j].clean = Some(pkt.symbols.clone());
                            self.decided[j].subtracted = false;
                            *slot = pkt;
                            report.recovered += 1;
                            progressed = true;
                        }
                    }
                    None => {
                        self.decided.push(Tracked {
                            det: pkt.detection,
                            confirmed_at: self.origin + self.buffer.len(),
                            clean: Some(pkt.symbols.clone()),
                            subtracted: false,
                        });
                        out.push(pkt);
                        report.recovered += 1;
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        let (hits, misses) = self.residual.cache_counters();
        report.ref_cache_hits = hits - hits_before;
        report.ref_cache_misses = misses - misses_before;
        self.sic.absorb(report);
    }

    /// Evict samples nothing can read any more: before the oldest pending
    /// frame, the earliest read of an unconfirmed cluster, and the
    /// earliest read of a cluster starting at the next coarse window.
    /// Eviction waits until a symbol's worth is dead, so single-sample
    /// pushes do not shift the window every call.
    fn trim(&mut self) {
        let sps = self.sps();
        let mut keep = confirm_reach(sps, self.next_hop, self.next_hop).0;
        if let Some(t) = self.pending.first() {
            keep = keep.min(t.det.frame_start);
        }
        if let Some(cluster) = self.clusters.first() {
            keep = keep.min(confirm_reach(sps, cluster[0].0, cluster[0].0).0);
        }
        let keep = keep.clamp(self.origin, self.position());
        let frame_len = self.frame_len();
        self.decided
            .retain(|t| t.det.frame_start + frame_len > keep);
        if keep - self.origin < sps {
            return;
        }
        let drop = keep - self.origin;
        self.buffer.drain(..drop);
        if self.residual_live {
            self.residual.drain_front(drop);
        }
        self.origin = keep;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_channel::{add_unit_noise, amplitude_for_snr, superpose, Emission};
    use lora_phy::packet::Transceiver;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> LoraParams {
        LoraParams::new(8, 250e3, 4).unwrap()
    }

    fn payload(tag: u8) -> Vec<u8> {
        (0..14).map(|i| i * 5 + tag).collect()
    }

    /// Three packets, two of them colliding, with noise.
    fn capture() -> (Vec<Cf32>, Vec<(usize, Vec<u8>)>) {
        let p = params();
        let x = Transceiver::new(p, CodeRate::Cr45);
        let sps = p.samples_per_symbol();
        let a = amplitude_for_snr(22.0, p.oversampling());
        let truth = vec![
            (3000usize, payload(1)),
            (3000 + 14 * sps + 500, payload(2)),
            (3000 + 90 * sps, payload(3)),
        ];
        let emissions: Vec<Emission> = truth
            .iter()
            .enumerate()
            .map(|(i, (start, pl))| Emission {
                waveform: x.waveform(pl),
                amplitude: a,
                start_sample: *start,
                cfo_hz: [700.0, -1500.0, 2400.0][i],
            })
            .collect();
        let len = truth.last().unwrap().0 + x.frame_samples(14) + 4096;
        let mut cap = superpose(&p, len, &emissions);
        let mut rng = StdRng::seed_from_u64(77);
        add_unit_noise(&mut rng, &mut cap);
        (cap, truth)
    }

    fn run_streaming(cap: &[Cf32], chunk: usize) -> Vec<(usize, Option<Vec<u8>>)> {
        let mut s = StreamingReceiver::new(params(), CodeRate::Cr45, 14, CicConfig::default());
        let mut got = Vec::new();
        for c in cap.chunks(chunk) {
            for pkt in s.push(c) {
                got.push((pkt.detection.frame_start, pkt.payload));
            }
        }
        for pkt in s.flush() {
            got.push((pkt.detection.frame_start, pkt.payload));
        }
        got.sort_by_key(|g| g.0);
        got
    }

    #[test]
    fn matches_batch_for_various_chunk_sizes() {
        let (cap, _) = capture();
        let batch = CicReceiver::new(params(), CodeRate::Cr45, 14, CicConfig::default());
        let mut expect: Vec<(usize, Option<Vec<u8>>)> = batch
            .receive(&cap)
            .into_iter()
            .map(|p| (p.detection.frame_start, p.payload))
            .collect();
        expect.sort_by_key(|g| g.0);

        for chunk in [1024usize, 10_000, 100_000, cap.len()] {
            let got = run_streaming(&cap, chunk);
            assert_eq!(got.len(), expect.len(), "chunk {chunk}");
            for ((gs, gp), (es, ep)) in got.iter().zip(&expect) {
                assert!(gs.abs_diff(*es) <= 4, "chunk {chunk}: {gs} vs {es}");
                assert_eq!(gp, ep, "chunk {chunk}");
            }
        }
    }

    #[test]
    fn decodes_all_three_packets() {
        let (cap, truth) = capture();
        let got = run_streaming(&cap, 8192);
        assert_eq!(got.len(), 3);
        for ((start, pl), (ts, tp)) in got.iter().zip(&truth) {
            assert!(start.abs_diff(*ts) <= 4);
            assert_eq!(pl.as_deref(), Some(&tp[..]));
        }
    }

    #[test]
    fn memory_stays_bounded() {
        let (cap, _) = capture();
        let mut s = StreamingReceiver::new(params(), CodeRate::Cr45, 14, CicConfig::default());
        let chunk = 4096;
        let bound = s.holdback() + chunk;
        for c in cap.chunks(chunk) {
            s.push(c);
            assert!(
                s.buffered() <= bound,
                "buffer {} > bound {bound}",
                s.buffered()
            );
        }
        assert_eq!(s.position(), cap.len());
    }

    #[test]
    fn emissions_respect_the_holdback() {
        // The watermark contract: a packet emitted by a push starts no
        // earlier than `position() - holdback()` taken before that push.
        let (cap, _) = capture();
        for chunk in [1usize << 10, 5000, 1 << 14] {
            let mut s = StreamingReceiver::new(params(), CodeRate::Cr45, 14, CicConfig::default());
            for c in cap.chunks(chunk) {
                let bound = s.position().saturating_sub(s.holdback());
                for pkt in s.push(c) {
                    assert!(pkt.detection.frame_start >= bound, "chunk {chunk}");
                }
            }
        }
    }

    #[test]
    fn no_duplicate_emissions() {
        let (cap, _) = capture();
        let got = run_streaming(&cap, 2048);
        for w in got.windows(2) {
            assert!(
                w[1].0 - w[0].0 > 512,
                "duplicate at {} / {}",
                w[0].0,
                w[1].0
            );
        }
    }

    #[test]
    fn threaded_streaming_matches_sequential() {
        // Same stream pushed through a single-threaded and a 4-thread
        // receiver: decode_threads must not change a single emission.
        let (cap, _) = capture();
        let sequential = run_streaming(&cap, 8192);
        let cfg = CicConfig {
            decode_threads: 4,
            ..CicConfig::default()
        };
        let mut s = StreamingReceiver::new(params(), CodeRate::Cr45, 14, cfg);
        let mut threaded = Vec::new();
        for c in cap.chunks(8192) {
            for pkt in s.push(c) {
                threaded.push((pkt.detection.frame_start, pkt.payload));
            }
        }
        for pkt in s.flush() {
            threaded.push((pkt.detection.frame_start, pkt.payload));
        }
        threaded.sort_by_key(|g| g.0);
        assert_eq!(sequential, threaded);
    }

    #[test]
    fn seek_skips_a_gap_and_keeps_positions_absolute() {
        let (cap, truth) = capture();
        let p = params();
        let frame = Transceiver::new(p, CodeRate::Cr45).frame_samples(14);
        let mut s = StreamingReceiver::new(p, CodeRate::Cr45, 14, CicConfig::default());
        let mut got = Vec::new();
        // Feed until the second packet's frame is complete (plus the
        // emission margin), then simulate losing everything up to just
        // before the third packet and continue from there.
        let fed = truth[1].0 + frame + 4 * p.samples_per_symbol();
        let cut_resume = truth[2].0 - 2 * p.samples_per_symbol();
        for c in cap[..fed].chunks(8192) {
            got.extend(s.push(c));
        }
        got.extend(s.seek_to(cut_resume));
        assert_eq!(s.position(), cut_resume);
        for c in cap[cut_resume..].chunks(8192) {
            got.extend(s.push(c));
        }
        got.extend(s.flush());
        // Packets 1, 2 and 3 all arrive, with absolute stream positions.
        assert_eq!(got.len(), 3);
        got.sort_by_key(|p| p.detection.frame_start);
        for (pkt, (ts, tp)) in got.iter().zip(&truth) {
            assert!(pkt.detection.frame_start.abs_diff(*ts) <= 4);
            assert_eq!(pkt.payload.as_deref(), Some(&tp[..]));
        }
    }

    #[test]
    fn seek_emits_complete_frames_and_drops_cut_ones() {
        // An upstream gap arrives the moment packet 1's frame completes,
        // before it is due. Its detection was confirmed over complete
        // samples, so the seek decodes and emits it; nothing straddling
        // the gap survives, and the packet after the gap decodes at its
        // absolute position.
        let (cap, truth) = capture();
        let p = params();
        let frame = Transceiver::new(p, CodeRate::Cr45).frame_samples(14);
        let mut s = StreamingReceiver::new(p, CodeRate::Cr45, 14, CicConfig::default());
        let cut = truth[0].0 + frame;
        let mut emitted = Vec::new();
        for c in cap[..cut].chunks(4096) {
            emitted.extend(s.push(c));
        }
        assert!(emitted.is_empty(), "packet 1 is not due before the gap");
        let resume = truth[2].0 - 2 * p.samples_per_symbol();
        let at_seek = s.seek_to(resume);
        assert_eq!(
            at_seek.len(),
            1,
            "the complete frame is decoded at the seek"
        );
        assert!(at_seek[0].detection.frame_start.abs_diff(truth[0].0) <= 4);
        assert_eq!(at_seek[0].payload.as_deref(), Some(&truth[0].1[..]));
        assert_eq!(s.position(), resume);
        let mut rest = Vec::new();
        for c in cap[resume..].chunks(4096) {
            rest.extend(s.push(c));
        }
        rest.extend(s.flush());
        assert_eq!(rest.len(), 1);
        assert!(rest[0].detection.frame_start.abs_diff(truth[2].0) <= 4);
        assert_eq!(rest[0].payload.as_deref(), Some(&truth[2].1[..]));
    }

    #[test]
    fn quiesce_releases_holdback_and_resumes() {
        // After a quiesce the receiver owes nothing before `position()`:
        // an emitted packet plus a cleared buffer, and the next pushes
        // decode later packets at absolute positions as usual.
        let (cap, truth) = capture();
        let p = params();
        let mut s = StreamingReceiver::new(p, CodeRate::Cr45, 14, CicConfig::default());
        // Feed far enough that packets 1 and 2 are due and emitted by push.
        let fed = truth[1].0 + s.holdback();
        assert!(fed < truth[2].0, "quiesce in the lull before packet 3");
        let mut got = Vec::new();
        for c in cap[..fed].chunks(8192) {
            got.extend(s.push(c));
        }
        assert_eq!(got.len(), 2);
        let pos = s.position();
        assert!(s.quiesce().is_empty(), "no edge detections in the lull");
        assert_eq!(s.position(), pos, "quiesce never moves the stream head");
        assert_eq!(s.buffered(), 0);
        // The stream resumes contiguously.
        for c in cap[fed..].chunks(8192) {
            got.extend(s.push(c));
        }
        got.extend(s.flush());
        assert_eq!(got.len(), 3);
        assert!(got[2].detection.frame_start.abs_diff(truth[2].0) <= 4);
        assert_eq!(got[2].payload.as_deref(), Some(&truth[2].1[..]));
    }

    /// Packet 3's decode from an unbroken 8 k-chunked stream.
    fn unbroken_third_packet() -> DecodedPacket {
        let (cap, _) = capture();
        let mut s = StreamingReceiver::new(params(), CodeRate::Cr45, 14, CicConfig::default());
        let mut got = Vec::new();
        for c in cap.chunks(8192) {
            got.extend(s.push(c));
        }
        got.extend(s.flush());
        assert_eq!(got.len(), 3);
        got.pop().unwrap()
    }

    #[test]
    fn seek_to_unaligned_position_keeps_the_absolute_hop_grid() {
        // The coarse scan after a seek runs on the same absolute
        // half-symbol grid as an unbroken stream, so packet 3 is detected
        // from the same windows: identical detection, score included.
        let (cap, truth) = capture();
        let p = params();
        let sps = p.samples_per_symbol();
        let mut s = StreamingReceiver::new(p, CodeRate::Cr45, 14, CicConfig::default());
        let fed = truth[1].0 + s.holdback();
        let resume = truth[2].0 - 5 * sps - 37;
        assert_ne!(resume % (sps / 2), 0);
        for c in cap[..fed].chunks(5000) {
            s.push(c);
        }
        s.seek_to(resume);
        let mut got = Vec::new();
        for c in cap[resume..].chunks(3001) {
            got.extend(s.push(c));
        }
        got.extend(s.flush());
        assert_eq!(got.len(), 1);
        let want = unbroken_third_packet();
        assert_eq!(got[0].detection, want.detection);
        assert_eq!(got[0].payload, want.payload);
    }

    #[test]
    fn quiesce_then_resume_keeps_the_absolute_hop_grid() {
        let (cap, truth) = capture();
        let p = params();
        let sps = p.samples_per_symbol();
        let mut s = StreamingReceiver::new(p, CodeRate::Cr45, 14, CicConfig::default());
        let pause = truth[1].0 + s.holdback() + 333;
        assert_ne!(pause % (sps / 2), 0);
        assert!(pause + 4 * sps < truth[2].0);
        for c in cap[..pause].chunks(7777) {
            s.push(c);
        }
        s.quiesce();
        let mut got = Vec::new();
        for c in cap[pause..].chunks(2049) {
            got.extend(s.push(c));
        }
        got.extend(s.flush());
        assert_eq!(got.len(), 1);
        let want = unbroken_third_packet();
        assert_eq!(got[0].detection, want.detection);
        assert_eq!(got[0].payload, want.payload);
    }

    #[test]
    fn set_config_applies_to_later_pushes() {
        let (cap, truth) = capture();
        let mut s = StreamingReceiver::new(params(), CodeRate::Cr45, 14, CicConfig::default());
        let mut got = Vec::new();
        for (i, c) in cap.chunks(8192).enumerate() {
            if i == 4 {
                s.set_config(CicConfig::default().effort_rung(CicConfig::MAX_EFFORT_RUNG));
            }
            got.extend(s.push(c));
        }
        got.extend(s.flush());
        // This capture's packets are clean enough to decode at the lowest
        // effort rung; the swap itself must not disturb the stream state.
        assert_eq!(got.len(), 3);
        got.sort_by_key(|p| p.detection.frame_start);
        for (pkt, (ts, tp)) in got.iter().zip(&truth) {
            assert!(pkt.detection.frame_start.abs_diff(*ts) <= 4);
            assert_eq!(pkt.payload.as_deref(), Some(&tp[..]));
        }
    }

    #[test]
    fn streaming_sic_emits_recovered_packet_exactly_once() {
        // A buried packet is recovered by the residual pass that runs
        // when the strong packet is decoded, and emitted exactly once.
        let p = params();
        let x = Transceiver::new(p, CodeRate::Cr45);
        let sps = p.samples_per_symbol();
        let truth = vec![(3000usize, payload(1)), (3000 + 6 * sps + 413, payload(2))];
        let emissions = [
            Emission {
                waveform: x.waveform(&truth[0].1),
                amplitude: amplitude_for_snr(30.0, p.oversampling()),
                start_sample: truth[0].0,
                cfo_hz: 300.0,
            },
            Emission {
                waveform: x.waveform(&truth[1].1),
                amplitude: amplitude_for_snr(12.0, p.oversampling()),
                start_sample: truth[1].0,
                cfo_hz: -800.0,
            },
        ];
        let len = truth[1].0 + x.frame_samples(14) + 40_000;
        let mut cap = superpose(&p, len, &emissions);
        let mut rng = StdRng::seed_from_u64(91);
        add_unit_noise(&mut rng, &mut cap);

        let cfg = CicConfig {
            sic: crate::sic::SicConfig::hybrid(),
            ..CicConfig::default()
        };
        let mut s = StreamingReceiver::new(p, CodeRate::Cr45, 14, cfg);
        let mut got = Vec::new();
        for c in cap.chunks(8192) {
            got.extend(s.push(c));
        }
        got.extend(s.flush());
        got.sort_by_key(|pk| pk.detection.frame_start);
        assert_eq!(got.len(), 2, "strong + recovered weak, no duplicates");
        for (pkt, (ts, tp)) in got.iter().zip(&truth) {
            assert!(pkt.detection.frame_start.abs_diff(*ts) <= 8);
            assert_eq!(pkt.payload.as_deref(), Some(&tp[..]));
        }
        assert!(
            got[1].sic_pass >= 1,
            "weak packet came from a residual pass"
        );
        let report = s.sic_report();
        assert!(report.passes >= 1 && report.recovered >= 1, "{report:?}");
        // The residual lives across pushes, so every CRC-clean packet is
        // subtracted (its reference looked up) exactly once: no packet is
        // re-modulated on a later push.
        let clean = got.iter().filter(|pk| pk.ok()).count() as u64;
        assert_eq!(
            report.ref_cache_hits + report.ref_cache_misses,
            clean,
            "each CRC-clean packet subtracted once: {report:?}"
        );
    }

    #[test]
    fn seek_backwards_is_a_no_op() {
        let mut s = StreamingReceiver::new(params(), CodeRate::Cr45, 14, CicConfig::default());
        s.push(&vec![Cf32::new(0.0, 0.0); 5000]);
        assert!(s.seek_to(100).is_empty());
        assert_eq!(s.position(), 5000);
    }

    #[test]
    fn empty_and_tiny_pushes_are_safe() {
        let mut s = StreamingReceiver::new(params(), CodeRate::Cr45, 14, CicConfig::default());
        assert!(s.push(&[]).is_empty());
        assert!(s.push(&[Cf32::new(0.0, 0.0); 10]).is_empty());
        assert!(s.flush().is_empty());
    }
}
