//! Packet detection (paper §5.8).
//!
//! The conventional LoRa detector de-chirps with `C_0^*` and looks for 8
//! consecutive equal-frequency peaks — but under collisions every ongoing
//! data symbol is also an up-chirp, so the spectrum is a clutter of peaks
//! (paper Fig 19). CIC instead searches for the preamble's 2.25
//! **down-chirps** by multiplying with the *up*-chirp: a down-chirp
//! becomes a clean constant tone while data up-chirps smear into
//! double-slope chirps (paper Fig 20).
//!
//! Having located the down-chirps, the detector walks back to the 8
//! up-chirps to confirm the preamble and to estimate CFO and peak power,
//! and uses the classic `f_up`/`f_down` combination to split CFO from
//! residual timing error.

use lora_dsp::{peaks, Cf32, Spectrum};
use lora_phy::modulate::{FrameLayout, PREAMBLE_UPCHIRPS};
use lora_phy::params::LoraParams;
use lora_phy::{Demodulator, SpectrumScratch};

use crate::config::CicConfig;

/// A confirmed packet detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Sample index of the frame start (first preamble up-chirp).
    pub frame_start: usize,
    /// Estimated CFO in bins (signed, integer + fractional part).
    pub cfo_bins: f64,
    /// Mean peak power over the preamble up-chirps (full-window FFT).
    pub peak_power: f64,
    /// Detection score (peak-to-median ratio of the down-chirp window).
    pub score: f64,
}

/// Down- and up-dechirped window summaries one cluster's confirmation
/// keeps at most (64 together); past this, the oldest of a kind is
/// overwritten (a recomputed summary is identical, so the bound costs
/// transforms, never results). Of the splits of 64 tried on
/// `demod_bench`'s detection captures, 44/20 transforms the fewest
/// windows: up windows recur more (the coherence gate reads them at the
/// refined frame start as well as at the hypothesis).
const DOWN_MEMO_CAP: usize = 44;
const UP_MEMO_CAP: usize = 20;

/// Peaks kept per de-chirped window: the voting depth of the preamble,
/// sync-word and `f_up` checks.
const TOP_PEAKS: usize = 6;

/// Peak threshold of the `f_up` vote in [`sync_candidates`].
const SYNC_PEAK_THRESHOLD: f64 = 3.0;

/// Frame hypotheses [`sync_candidates`] yields at most: two timing
/// offsets times three down-chirp indices.
const MAX_CANDIDATES: usize = 6;

/// The strongest peaks of one window, strongest first.
#[derive(Debug, Clone, Copy)]
struct TopPeaks {
    peaks: [peaks::Peak; TOP_PEAKS],
    len: usize,
}

impl TopPeaks {
    const EMPTY: Self = Self {
        peaks: [peaks::Peak {
            bin: 0,
            power: 0.0,
            frac_bin: 0.0,
        }; TOP_PEAKS],
        len: 0,
    };

    /// The first [`TOP_PEAKS`] of `found`.
    fn first_of(found: &[peaks::Peak]) -> Self {
        let mut out = Self::EMPTY;
        out.len = found.len().min(TOP_PEAKS);
        out.peaks[..out.len].copy_from_slice(&found[..out.len]);
        out
    }

    fn as_slice(&self) -> &[peaks::Peak] {
        &self.peaks[..self.len]
    }
}

/// What confirmation reads of one down-dechirped (`× C_0^*`) window.
#[derive(Debug, Clone, Copy)]
struct DownSummary {
    /// `find_peaks` at [`SYNC_PEAK_THRESHOLD`], raw powers: the `f_up`
    /// vote of [`sync_candidates`].
    wide: TopPeaks,
    /// `find_peaks` at the preamble threshold, each power replaced by its
    /// 3-bin lobe energy: the preamble vote and the sync-word check.
    lobes: TopPeaks,
}

/// What confirmation reads of one up-dechirped window.
#[derive(Debug, Clone, Copy)]
struct UpSummary {
    /// Strongest bin and its power.
    argmax: Option<(usize, f64)>,
    /// `refine_sinc` at the strongest bin (0 without one).
    frac: f64,
    /// Median bin power.
    median: f64,
}

/// Summaries of up to `CAP` windows keyed by window start, overwritten
/// oldest-first once full.
#[derive(Debug)]
struct Memo<T, const CAP: usize> {
    starts: Vec<usize>,
    summaries: Vec<T>,
    next_slot: usize,
}

impl<T: Copy, const CAP: usize> Memo<T, CAP> {
    fn new() -> Self {
        Self {
            starts: Vec::new(),
            summaries: Vec::new(),
            next_slot: 0,
        }
    }

    fn get(&self, start: usize) -> Option<T> {
        let i = self.starts.iter().position(|&s| s == start)?;
        Some(self.summaries[i])
    }

    fn insert(&mut self, start: usize, summary: T) {
        if self.starts.len() < CAP {
            self.starts.push(start);
            self.summaries.push(summary);
        } else {
            self.starts[self.next_slot] = start;
            self.summaries[self.next_slot] = summary;
            self.next_slot = (self.next_slot + 1) % CAP;
        }
    }

    fn clear(&mut self) {
        self.starts.clear();
        self.summaries.clear();
        self.next_slot = 0;
    }
}

/// Reusable state of the detector: the de-chirped window, padded
/// transform, folded spectrum and selection buffers that
/// [`PreambleDetector::coarse_scan`] and
/// [`PreambleDetector::confirm_cluster`] share, and confirmation's memos
/// of window summaries. Frame hypotheses one symbol apart share most of
/// their windows, so within one cluster every (window start, de-chirp
/// direction) pair is transformed once and then read from a memo.
/// Empty until the first scan or confirmation grows it; allocation-free
/// after that.
#[derive(Debug)]
pub struct DetectScratch {
    window: Vec<Cf32>,
    spec: SpectrumScratch,
    folded: Spectrum,
    median: Vec<f64>,
    found: Vec<peaks::Peak>,
    down: Memo<DownSummary, DOWN_MEMO_CAP>,
    up: Memo<UpSummary, UP_MEMO_CAP>,
    /// Preamble peak threshold of the `lobes` sets.
    threshold: f64,
    clusters: u64,
    requests: u64,
    transforms: u64,
}

impl Default for DetectScratch {
    fn default() -> Self {
        Self {
            window: Vec::new(),
            spec: SpectrumScratch::new(),
            folded: Spectrum::from_power(Vec::new()),
            median: Vec::new(),
            found: Vec::new(),
            down: Memo::new(),
            up: Memo::new(),
            threshold: 0.0,
            clusters: 0,
            requests: 0,
            transforms: 0,
        }
    }
}

impl DetectScratch {
    /// Clusters confirmed through this scratch.
    pub fn clusters(&self) -> u64 {
        self.clusters
    }

    /// Window summaries the confirmations asked for.
    pub fn window_requests(&self) -> u64 {
        self.requests
    }

    /// Window transforms performed: requests the memos did not answer.
    pub fn transforms(&self) -> u64 {
        self.transforms
    }

    /// Forget every summary: a new cluster reads a new capture span.
    fn reset(&mut self, threshold: f64) {
        self.down.clear();
        self.up.clear();
        self.threshold = threshold;
    }

    /// Transform the window at `start` de-chirped by `chirp` into
    /// `self.folded`.
    fn transform(&mut self, demod: &Demodulator, capture: &[Cf32], start: usize, chirp: &[Cf32]) {
        let sps = demod.params().samples_per_symbol();
        lora_dsp::math::multiply_into(
            &capture[start..start + sps],
            &chirp[..sps],
            &mut self.window,
        );
        demod.folded_spectrum_scratch(&self.window, &mut self.spec, &mut self.folded);
    }

    /// The summary of the down-dechirped window at `start`.
    fn down(&mut self, demod: &Demodulator, capture: &[Cf32], start: usize) -> DownSummary {
        self.requests += 1;
        if let Some(s) = self.down.get(start) {
            return s;
        }
        self.transforms += 1;
        self.transform(demod, capture, start, demod.table().down());
        let spec = &self.folded;
        let n = spec.len();
        peaks::find_peaks_into(
            spec,
            SYNC_PEAK_THRESHOLD,
            1,
            &mut self.median,
            &mut self.found,
        );
        let wide = TopPeaks::first_of(&self.found);
        peaks::find_peaks_into(spec, self.threshold, 1, &mut self.median, &mut self.found);
        let mut lobes = TopPeaks::first_of(&self.found);
        for p in &mut lobes.peaks[..lobes.len] {
            p.power = spec[p.bin] + spec[(p.bin + 1) % n] + spec[(p.bin + n - 1) % n];
        }
        let s = DownSummary { wide, lobes };
        self.down.insert(start, s);
        s
    }

    /// The summary of the up-dechirped window at `start`.
    fn up(&mut self, demod: &Demodulator, capture: &[Cf32], start: usize) -> UpSummary {
        self.requests += 1;
        if let Some(s) = self.up.get(start) {
            return s;
        }
        self.transforms += 1;
        self.transform(demod, capture, start, demod.table().up());
        let spec = &self.folded;
        let argmax = spec.argmax();
        let s = UpSummary {
            argmax,
            frac: argmax.map_or(0.0, |(bin, _)| peaks::refine_sinc(spec, bin)),
            median: spec.median_power_with(&mut self.median),
        };
        self.up.insert(start, s);
        s
    }
}

/// Whether a coarse hit at `pos` joins `cluster` (hits sorted by
/// position): consecutive hits at most one symbol apart belong together.
pub(crate) fn extends_cluster(sps: usize, cluster: &[(usize, f64)], pos: usize) -> bool {
    cluster.last().is_some_and(|&(last, _)| pos - last <= sps)
}

/// Absolute sample range `[lo, hi)` that confirming a cluster spanning
/// hits `first..=last` reads: back to the earliest frame hypothesis of
/// the earliest hit (12.5 symbols before it, rounded up to 13), forward
/// to the end of the second full down-chirp of the latest hypothesis of
/// the last hit (3.5 symbols after it).
pub(crate) fn confirm_reach(sps: usize, first: usize, last: usize) -> (usize, usize) {
    (first.saturating_sub(13 * sps), last + 7 * (sps / 2))
}

/// Down-chirp based preamble detector (the CIC method).
pub struct PreambleDetector {
    demod: Demodulator,
    config: CicConfig,
    layout: FrameLayout,
}

impl PreambleDetector {
    /// Build a detector.
    pub fn new(params: LoraParams, config: CicConfig) -> Self {
        Self {
            demod: Demodulator::new(params),
            layout: FrameLayout::new(&params),
            config,
        }
    }

    /// Parameters in use.
    pub fn params(&self) -> &LoraParams {
        self.demod.params()
    }

    /// Scan a capture and return all confirmed detections, sorted by
    /// frame start.
    pub fn detect(&self, capture: &[Cf32]) -> Vec<Detection> {
        self.detect_with(capture, &mut DetectScratch::default())
    }

    /// [`Self::detect`] confirming through a caller-held scratch, whose
    /// counters then cover this call too.
    pub fn detect_with(&self, capture: &[Cf32], scratch: &mut DetectScratch) -> Vec<Detection> {
        let sps = self.params().samples_per_symbol();
        if capture.len() < self.layout.data_start {
            return Vec::new();
        }

        // Coarse scan: up-dechirp every hop and score the peak.
        let mut coarse: Vec<(usize, f64)> = Vec::new();
        self.coarse_scan(capture, 0, 0, scratch, &mut coarse);

        // Cluster adjacent hits: the 2.25 down-chirps light up several
        // consecutive windows. Under load, down-chirp regions of
        // *different* packets can sit side by side, so a cluster may hold
        // more than one packet: `confirm_cluster` tries several windows
        // per cluster and keeps every distinct verified frame.
        let mut clusters: Vec<Vec<(usize, f64)>> = Vec::new();
        for (pos, score) in coarse {
            match clusters.last_mut() {
                Some(cluster) if extends_cluster(sps, cluster, pos) => cluster.push((pos, score)),
                _ => clusters.push(vec![(pos, score)]),
            }
        }

        let mut detections: Vec<Detection> = Vec::new();
        for mut cluster in clusters {
            self.confirm_cluster(capture, 0, &mut cluster, scratch, |det| {
                let dup = detections
                    .iter()
                    .any(|d| d.frame_start.abs_diff(det.frame_start) < sps / 2);
                if !dup {
                    detections.push(det);
                }
            });
        }
        detections.sort_by_key(|d| d.frame_start);
        detections
    }

    /// The coarse down-chirp scan: score every window `[w, w + sps)` on
    /// the half-symbol hop grid (absolute positions that are multiples
    /// of `sps / 2`), from the first grid position at or after `from`
    /// while the window fits in `capture`, and append `(w, score)` for
    /// each window whose up-dechirped peak-to-median ratio reaches the
    /// preamble threshold. `capture[0]` sits at absolute position
    /// `origin`; positions in and out are absolute. Returns the first
    /// grid position not scanned, where the next call resumes.
    ///
    /// Allocation-free once `scratch` and `hits` have grown: the window
    /// product, padded transform, folded spectrum and median selection
    /// all reuse `scratch`. Scores are bit-identical to the allocating
    /// `folded_spectrum(updechirp(..))` + `median_power` path.
    pub fn coarse_scan(
        &self,
        capture: &[Cf32],
        origin: usize,
        from: usize,
        scratch: &mut DetectScratch,
        hits: &mut Vec<(usize, f64)>,
    ) -> usize {
        let sps = self.params().samples_per_symbol();
        let hop = sps / 2;
        let mut w = from.max(origin).div_ceil(hop) * hop;
        while w + sps <= origin + capture.len() {
            scratch.transform(&self.demod, capture, w - origin, self.demod.table().up());
            if let Some((_, p)) = scratch.folded.argmax() {
                let floor = scratch.folded.median_power_with(&mut scratch.median);
                if floor > 0.0 && p / floor >= self.config.preamble_peak_threshold {
                    hits.push((w, p / floor));
                }
            }
            w += hop;
        }
        w
    }

    /// Confirm one coarse cluster (hits sorted by position, absolute) into
    /// detections, handing each verified frame to `accept` in the order
    /// batch detection considers them; `accept` owns the duplicate check.
    /// `capture[0]` sits at absolute position `origin`, and the frame
    /// starts handed out are absolute.
    ///
    /// Confirmation reads `capture` over [`confirm_reach`] of the
    /// cluster; given at least that span, the result does not depend on
    /// what else `capture` holds. Allocation-free once `scratch` has
    /// grown: every window is transformed at most once per call and read
    /// back from the scratch's memo.
    pub fn confirm_cluster(
        &self,
        capture: &[Cf32],
        origin: usize,
        cluster: &mut [(usize, f64)],
        scratch: &mut DetectScratch,
        mut accept: impl FnMut(Detection),
    ) {
        scratch.reset(self.config.preamble_peak_threshold);
        scratch.clusters += 1;
        // Order windows strongest-first: the highest score can come
        // from a window straddling the sync words and the down-chirps
        // whose sync estimate is unusable, so weaker in-cluster
        // windows are tried too. Positions are distinct, so the
        // position tie-break gives the stable order without a buffer.
        cluster.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for &(pos, score) in cluster.iter().take(4) {
            if let Some(mut det) = self.confirm(capture, pos - origin, score, scratch) {
                det.frame_start += origin;
                accept(det);
            }
        }
    }

    /// Refine a coarse down-chirp hit into a confirmed detection.
    ///
    /// Fine time alignment is FFT-based (the classic LoRa `f_up`/`f_down`
    /// combination), **not** a time-domain matched filter: a COTS crystal
    /// offset of ±10 ppm rotates the carrier through several full cycles
    /// per symbol and nulls any long coherent correlation, while the
    /// de-chirped peak positions simply shift by the CFO.
    fn confirm(
        &self,
        capture: &[Cf32],
        coarse_pos: usize,
        score: f64,
        scratch: &mut DetectScratch,
    ) -> Option<Detection> {
        let unset = Detection {
            frame_start: 0,
            cfo_bins: 0.0,
            peak_power: 0.0,
            score: 0.0,
        };
        let mut verified = [(unset, 0usize, 0.0f64); MAX_CANDIDATES];
        let mut n_verified = 0;
        let (candidates, n_candidates) =
            sync_candidates_in(&self.demod, &self.layout, capture, coarse_pos, scratch);
        for &frame_start in &candidates[..n_candidates] {
            if let Some((det, votes, syncs)) =
                self.verify_preamble(capture, frame_start, score, scratch)
            {
                let quality = votes + syncs;
                let (dc, dc_ratio) = self.dc_coherence(capture, det.frame_start, scratch);
                // Absolute gate: a true frame has a strong coherent tone
                // in its first down-chirp window; coincidental voting
                // runs in data regions do not.
                if dc_ratio < self.config.preamble_peak_threshold {
                    continue;
                }
                verified[n_verified] = (det, quality, dc);
                n_verified += 1;
            }
        }
        // Preamble-vote counts can differ by one from noise alone, while
        // the down-chirp coherence gap between the true alignment and any
        // shifted one is ~6 dB. Shortlist near-best quality, then let
        // coherence decide.
        let verified = &verified[..n_verified];
        let max_q = verified.iter().map(|v| v.1).max()?;
        verified
            .iter()
            .filter(|v| v.1 + 1 >= max_q)
            .max_by(|a, b| a.2.total_cmp(&b.2))
            .map(|&(d, _, _)| d)
    }

    /// Secondary discriminator between candidates: the weaker of the
    /// up-dechirped peaks at the two hypothesised full down-chirp
    /// positions, and the first one's peak-to-median ratio. A
    /// half-symbol-shifted hypothesis still verifies (the repeated-C0
    /// preamble aliases into stable tones at any offset) but each of its
    /// "down-chirp" windows is only half a down-chirp (~6 dB weaker); a
    /// full-symbol shift lands one window on a real down-chirp but the
    /// other on the quarter-chirp + data, so the *min* over both windows
    /// exposes every shift.
    fn dc_coherence(
        &self,
        capture: &[Cf32],
        frame_start: usize,
        scratch: &mut DetectScratch,
    ) -> (f64, f64) {
        let sps = self.params().samples_per_symbol();
        let mut min_power = f64::INFINITY;
        let mut first_ratio = 0.0;
        for m in 0..2 {
            let a = frame_start + self.layout.downchirp_start + m * sps;
            if a + sps > capture.len() {
                return (0.0, 0.0);
            }
            let s = scratch.up(&self.demod, capture, a);
            let peak = s.argmax.map(|(_, p)| p).unwrap_or(0.0);
            min_power = min_power.min(peak);
            if m == 0 {
                first_ratio = if s.median > 0.0 { peak / s.median } else { 0.0 };
            }
        }
        (min_power, first_ratio)
    }

    /// Check the 8 up-chirps + sync words at a hypothesised frame start;
    /// estimate CFO, timing correction and peak power.
    fn verify_preamble(
        &self,
        capture: &[Cf32],
        frame_start: usize,
        score: f64,
        scratch: &mut DetectScratch,
    ) -> Option<(Detection, usize, usize)> {
        let sps = self.params().samples_per_symbol();
        let n = self.params().n_bins();
        if frame_start + self.layout.data_start > capture.len() {
            return None;
        }

        // De-chirp the 8 preamble windows. Under a collision the preamble
        // tone is not necessarily each window's argmax (ongoing data
        // symbols from other packets add their own peaks), so collect the
        // top peaks of every window and vote across windows: the preamble
        // bin repeats in all 8, interfering data bins change per symbol.
        // Each peak's power is its 3-bin lobe energy, matching how the
        // demodulator's power filter measures candidates.
        let mut window_peaks = [TopPeaks::EMPTY; PREAMBLE_UPCHIRPS];
        for (k, ps) in window_peaks.iter_mut().enumerate() {
            *ps = scratch
                .down(&self.demod, capture, frame_start + k * sps)
                .lobes;
        }
        // Count each window at most once per candidate bin.
        let mut best: (usize, usize) = (0, 0);
        for candidate in window_peaks.iter().flat_map(|ps| ps.as_slice()) {
            let votes = window_peaks
                .iter()
                .filter(|ps| {
                    ps.as_slice()
                        .iter()
                        .any(|p| peaks::cyclic_bin_distance(p.bin, candidate.bin, n) <= 1)
                })
                .count();
            if votes > best.1 {
                best = (candidate.bin, votes);
            }
        }
        let (mode_bin, votes) = best;
        if votes < self.config.preamble_min_upchirps {
            return None;
        }

        // Fractional positions and powers of the preamble tone, taken from
        // the windows where it was found.
        let mut fracs = [0.0f64; PREAMBLE_UPCHIRPS];
        let mut powers = [0.0f64; PREAMBLE_UPCHIRPS];
        let mut found = 0;
        for ps in &window_peaks {
            if let Some(p) = ps
                .as_slice()
                .iter()
                .find(|p| peaks::cyclic_bin_distance(p.bin, mode_bin, n) <= 1)
            {
                fracs[found] = p.frac_bin;
                powers[found] = p.power;
                found += 1;
            }
        }
        if found == 0 {
            return None;
        }

        // SYNC check — this is what disambiguates the two down-chirp
        // hypotheses: with the frame start off by one symbol, the windows
        // at positions 8 and 9 hold (sync_y, down-chirp) or (up-chirp,
        // sync_x) instead of (sync_x, sync_y), and no peak lands on the
        // expected +8 / +16 bins relative to the preamble mode.
        let mut sync_ok = [false; 2];
        for (ok, (k, expect)) in sync_ok
            .iter_mut()
            .zip([(PREAMBLE_UPCHIRPS, 8), (PREAMBLE_UPCHIRPS + 1, 16)])
        {
            let a = frame_start + k * sps;
            if a + sps > capture.len() {
                continue;
            }
            let ps = scratch.down(&self.demod, capture, a).lobes;
            *ok = ps.as_slice().iter().any(|p| {
                let d = (p.bin + n - mode_bin) % n;
                d.abs_diff(expect) <= 1 || d == n - 1 && expect == 0
            });
        }
        if !sync_ok[0] && !sync_ok[1] {
            return None;
        }
        let sync_count = sync_ok[0] as usize + sync_ok[1] as usize;

        // f_up: circular mean of the preamble tone's fractional positions.
        let f_up = circular_mean(&fracs[..found], n as f64);

        // f_down: circular mean over both full down-chirp windows — at
        // sub-noise SNR every fraction of a bin of CFO accuracy matters
        // (a residual above ~0.2 bins starts flipping symbol roundings).
        let mut f_downs = [0.0f64; 2];
        let mut n_downs = 0;
        for m in 0..2 {
            let dpos = frame_start + self.layout.downchirp_start + m * sps;
            if dpos + sps > capture.len() {
                continue;
            }
            let s = scratch.up(&self.demod, capture, dpos);
            if let Some((_, p)) = s.argmax {
                if p > 0.0 {
                    f_downs[n_downs] = s.frac;
                    n_downs += 1;
                }
            }
        }
        if n_downs == 0 {
            return None;
        }
        let f_down = circular_mean(&f_downs[..n_downs], n as f64);

        // Split into CFO and timing error (both signed, in bins):
        //   f_up = cfo + t, f_down = cfo - t  (mod n)
        // Both CFO (crystal budget: a few bins) and residual timing (the
        // matched filter is within a few samples) are small, so the signed
        // mapping cannot wrap.
        let nu = n as f64;
        let s_up = signed_bin(f_up, nu);
        let s_down = signed_bin(f_down, nu);
        let cfo = (s_up + s_down) / 2.0;
        let t_bins = (s_up - s_down) / 2.0;
        let t_samples = (t_bins * self.params().oversampling() as f64).round() as i64;
        let refined = frame_start as i64 - t_samples;
        let frame_start = usize::try_from(refined).unwrap_or(frame_start);

        let peak_power = powers[..found].iter().sum::<f64>() / found as f64;
        Some((
            Detection {
                frame_start,
                cfo_bins: cfo,
                peak_power,
                score,
            },
            votes,
            sync_count,
        ))
    }
}

/// Find the window position with the strongest down-chirp response
/// (up-dechirped peak over median) near `around`, scanning ±`span` at
/// quarter-symbol hops. Returns `None` when nothing exceeds `threshold`.
pub fn best_downchirp_window(
    demod: &Demodulator,
    capture: &[Cf32],
    around: usize,
    span: usize,
    threshold: f64,
) -> Option<usize> {
    let sps = demod.params().samples_per_symbol();
    let lo = around.saturating_sub(span);
    let hi = (around + span).min(capture.len().saturating_sub(sps));
    let mut best: Option<(usize, f64)> = None;
    let mut w = lo;
    while w <= hi {
        let spec = demod.folded_spectrum(&demod.updechirp(&capture[w..w + sps]));
        if let Some((_, p)) = spec.argmax() {
            let floor = spec.median_power();
            if floor > 0.0 {
                let score = p / floor;
                if score >= threshold && best.map(|(_, s)| score > s).unwrap_or(true) {
                    best = Some((w, score));
                }
            }
        }
        w += sps / 4;
    }
    best.map(|(w, _)| w)
}

/// CFO-tolerant fine synchronisation: given a window `w` known to contain
/// down-chirp energy, combine the up-dechirped down-chirp frequency
/// `f_down = δf − τ` with the de-chirped preamble frequency
/// `f_up = δf + τ` (both mod the band) to solve for the window-to-frame
/// offset τ, and return the candidate frame starts.
///
/// Both sums are known only mod the band, so τ carries a half-symbol
/// ambiguity, and `w` may sit over either full down-chirp — the caller
/// verifies each returned candidate against the preamble and keeps the
/// best (at most 6 candidates).
pub fn sync_candidates(
    demod: &Demodulator,
    layout: &FrameLayout,
    capture: &[Cf32],
    w: usize,
) -> Vec<usize> {
    // Only the `wide` peak sets (fixed threshold) are read here, so the
    // scratch's preamble threshold does not matter.
    let (out, len) = sync_candidates_in(demod, layout, capture, w, &mut DetectScratch::default());
    out[..len].to_vec()
}

/// [`sync_candidates`] through `scratch`'s window memo; returns the
/// candidates in `out[..len]`.
fn sync_candidates_in(
    demod: &Demodulator,
    layout: &FrameLayout,
    capture: &[Cf32],
    w: usize,
    scratch: &mut DetectScratch,
) -> ([usize; MAX_CANDIDATES], usize) {
    let sps = demod.params().samples_per_symbol();
    let os = demod.params().oversampling();
    let n = demod.params().n_bins();
    let mut out = [0usize; MAX_CANDIDATES];
    if w + sps > capture.len() {
        return (out, 0);
    }

    // f_down: fractional peak of the up-dechirped down-chirp window.
    let down_chirp = scratch.up(demod, capture, w);
    let Some((_, dpow)) = down_chirp.argmax else {
        return (out, 0);
    };
    if dpow <= 0.0 {
        return (out, 0);
    }
    let f_down = down_chirp.frac;

    // f_up: the preamble tone, 5-7 symbols before the down-chirps. Vote
    // across three windows with multi-peak extraction (ongoing collisions
    // may out-power the preamble tone in any single window).
    let mut window_peaks = [TopPeaks::EMPTY; 3];
    let mut n_windows = 0;
    for back in [5usize, 6, 7] {
        let Some(a) = w.checked_sub(back * sps) else {
            continue;
        };
        window_peaks[n_windows] = scratch.down(demod, capture, a).wide;
        n_windows += 1;
    }
    let window_peaks = &window_peaks[..n_windows];
    let mut best: Option<(f64, usize, f64)> = None; // (frac_pos, votes, power)
    for cand in window_peaks.iter().flat_map(|ps| ps.as_slice()) {
        let votes = window_peaks
            .iter()
            .filter(|ps| {
                ps.as_slice()
                    .iter()
                    .any(|p| peaks::cyclic_bin_distance(p.bin, cand.bin, n) <= 1)
            })
            .count();
        let better = match best {
            None => true,
            Some((_, v, pow)) => votes > v || (votes == v && cand.power > pow),
        };
        if better {
            best = Some((cand.frac_bin, votes, cand.power));
        }
    }
    let Some((f_up, _, _)) = best else {
        return (out, 0);
    };

    // Solve: f_up - f_down = 2τ/os (mod n) => τ has a half-symbol
    // ambiguity; each τ candidate pairs with the down-chirp index
    // hypotheses m ∈ {0, 1}.
    let two_tau_bins = lora_dsp::math::wrap(f_up - f_down, n as f64);
    let tau_a = (two_tau_bins / 2.0 * os as f64).round() as i64;
    let tau_b = (tau_a + sps as i64 / 2) % sps as i64;
    let mut len = 0;
    for tau in [tau_a, tau_b] {
        // m = -1 covers a coarse window that starts slightly *before*
        // the first down-chirp (over the sync tail); the preamble
        // verification prunes wrong hypotheses.
        for m in [-1i64, 0, 1] {
            let frame = w as i64 - tau - layout.downchirp_start as i64 - m * sps as i64;
            // Tolerate a few samples of negative edge error.
            let frame = if (-8..0).contains(&frame) { 0 } else { frame };
            if frame >= 0 && !out[..len].contains(&(frame as usize)) {
                out[len] = frame as usize;
                len += 1;
            }
        }
    }
    (out, len)
}

/// Conventional up-chirp preamble scan (standard LoRa / FTrack style):
/// de-chirp at symbol hops and look for `PREAMBLE_UPCHIRPS` consecutive
/// windows whose strongest peak stays on one bin. Used as the baseline in
/// the Fig 32–35 comparison and by the baseline receivers.
pub fn upchirp_scan(demod: &Demodulator, capture: &[Cf32], peak_threshold: f64) -> Vec<Detection> {
    let sps = demod.params().samples_per_symbol();
    let n = demod.params().n_bins();
    // Symbol-rate hop: a window offset τ into the repeated C_0 sequence
    // peaks at the same bin regardless of τ (tail and head segments alias
    // to one tone), so consecutive symbol-length windows inside the
    // preamble agree on one bin. Finer hops would alternate the apparent
    // bin by the hop offset and break the run.
    let mut window_peaks: Vec<Vec<peaks::Peak>> = Vec::new();
    let mut w = 0;
    while w + sps <= capture.len() {
        let spec = demod.folded_spectrum(&demod.dechirp(&capture[w..w + sps]));
        let mut ps = peaks::find_peaks(&spec, peak_threshold, 1);
        ps.truncate(4);
        window_peaks.push(ps);
        w += sps;
    }

    // A preamble shows one bin recurring in (nearly) 8 consecutive
    // windows; data symbols from other packets change bin every window.
    // Vote each candidate bin over a sliding 8-window span, keeping the
    // top few peaks per window so a collision cannot mask the run.
    let needed = PREAMBLE_UPCHIRPS - 2;
    let mut detections: Vec<Detection> = Vec::new();
    let mut i = 0usize;
    while i + PREAMBLE_UPCHIRPS <= window_peaks.len() {
        let span = &window_peaks[i..i + PREAMBLE_UPCHIRPS];
        let mut best: Option<(usize, usize, f64)> = None; // (bin, votes, power)
        for cand in window_peaks[i].iter().map(|p| p.bin) {
            let votes = span
                .iter()
                .filter(|ps| {
                    ps.iter()
                        .any(|p| peaks::cyclic_bin_distance(p.bin, cand, n) <= 1)
                })
                .count();
            let power: f64 = span
                .iter()
                .filter_map(|ps| {
                    ps.iter()
                        .find(|p| peaks::cyclic_bin_distance(p.bin, cand, n) <= 1)
                        .map(|p| p.power)
                })
                .sum::<f64>()
                / votes.max(1) as f64;
            if best.map(|(_, v, _)| votes > v).unwrap_or(true) {
                best = Some((cand, votes, power));
            }
        }
        match best {
            Some((bin, votes, power)) if votes >= needed => {
                detections.push(Detection {
                    frame_start: i * sps,
                    cfo_bins: bin as f64,
                    peak_power: power,
                    score: votes as f64,
                });
                // Skip past this preamble so it fires once.
                i += PREAMBLE_UPCHIRPS;
            }
            _ => i += 1,
        }
    }
    detections
}

/// Circular mean of positions on a ring of circumference `n`.
fn circular_mean(xs: &[f64], n: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let (mut s, mut c) = (0.0f64, 0.0f64);
    for &x in xs {
        let a = std::f64::consts::TAU * x / n;
        s += a.sin();
        c += a.cos();
    }
    let mean = s.atan2(c) / std::f64::consts::TAU * n;
    lora_dsp::math::wrap(mean, n)
}

/// Map a position on `[0, n)` to a signed offset in `(-n/2, n/2]`.
fn signed_bin(x: f64, n: f64) -> f64 {
    let w = lora_dsp::math::wrap(x, n);
    if w > n / 2.0 {
        w - n
    } else {
        w
    }
}

/// The allocating confirmation the memoized one replaced, kept verbatim as
/// the oracle that production detection must match bit for bit: every
/// window is transformed anew, through the allocating `dechirp` /
/// `updechirp` / `folded_spectrum` / `find_peaks` path.
#[cfg(test)]
mod reference {
    use super::*;

    /// Batch detection through the allocating confirmation.
    pub(super) fn detect(det: &PreambleDetector, capture: &[Cf32]) -> Vec<Detection> {
        let sps = det.params().samples_per_symbol();
        if capture.len() < det.layout.data_start {
            return Vec::new();
        }
        let mut coarse: Vec<(usize, f64)> = Vec::new();
        det.coarse_scan(capture, 0, 0, &mut DetectScratch::default(), &mut coarse);
        let mut clusters: Vec<Vec<(usize, f64)>> = Vec::new();
        for (pos, score) in coarse {
            match clusters.last_mut() {
                Some(cluster) if extends_cluster(sps, cluster, pos) => cluster.push((pos, score)),
                _ => clusters.push(vec![(pos, score)]),
            }
        }
        let mut detections: Vec<Detection> = Vec::new();
        for mut cluster in clusters {
            cluster.sort_by(|a, b| b.1.total_cmp(&a.1));
            for &(pos, score) in cluster.iter().take(4) {
                if let Some(d) = confirm(det, capture, pos, score) {
                    if !detections
                        .iter()
                        .any(|x| x.frame_start.abs_diff(d.frame_start) < sps / 2)
                    {
                        detections.push(d);
                    }
                }
            }
        }
        detections.sort_by_key(|d| d.frame_start);
        detections
    }

    fn confirm(
        det: &PreambleDetector,
        capture: &[Cf32],
        coarse_pos: usize,
        score: f64,
    ) -> Option<Detection> {
        let dc_coherence = |frame_start: usize| -> (f64, f64) {
            let sps = det.params().samples_per_symbol();
            let mut min_power = f64::INFINITY;
            let mut first_ratio = 0.0;
            for m in 0..2 {
                let a = frame_start + det.layout.downchirp_start + m * sps;
                if a + sps > capture.len() {
                    return (0.0, 0.0);
                }
                let spec = det
                    .demod
                    .folded_spectrum(&det.demod.updechirp(&capture[a..a + sps]));
                let peak = spec.argmax().map(|(_, p)| p).unwrap_or(0.0);
                min_power = min_power.min(peak);
                if m == 0 {
                    let floor = spec.median_power();
                    first_ratio = if floor > 0.0 { peak / floor } else { 0.0 };
                }
            }
            (min_power, first_ratio)
        };
        let mut verified: Vec<(Detection, usize, f64)> = Vec::new();
        for frame_start in sync_candidates(&det.demod, &det.layout, capture, coarse_pos) {
            if let Some((d, votes, syncs)) = verify_preamble(det, capture, frame_start, score) {
                let quality = votes + syncs;
                let (dc, dc_ratio) = dc_coherence(d.frame_start);
                if dc_ratio < det.config.preamble_peak_threshold {
                    continue;
                }
                verified.push((d, quality, dc));
            }
        }
        let max_q = verified.iter().map(|v| v.1).max()?;
        verified
            .into_iter()
            .filter(|v| v.1 + 1 >= max_q)
            .max_by(|a, b| a.2.total_cmp(&b.2))
            .map(|(d, _, _)| d)
    }

    fn verify_preamble(
        det: &PreambleDetector,
        capture: &[Cf32],
        frame_start: usize,
        score: f64,
    ) -> Option<(Detection, usize, usize)> {
        let sps = det.params().samples_per_symbol();
        let n = det.params().n_bins();
        if frame_start + det.layout.data_start > capture.len() {
            return None;
        }
        let mut window_peaks: Vec<Vec<peaks::Peak>> = Vec::with_capacity(PREAMBLE_UPCHIRPS);
        for k in 0..PREAMBLE_UPCHIRPS {
            let a = frame_start + k * sps;
            let de = det.demod.dechirp(&capture[a..a + sps]);
            let spec = det.demod.folded_spectrum(&de);
            let mut ps = peaks::find_peaks(&spec, det.config.preamble_peak_threshold, 1);
            ps.truncate(6);
            for p in &mut ps {
                p.power = spec[p.bin] + spec[(p.bin + 1) % n] + spec[(p.bin + n - 1) % n];
            }
            window_peaks.push(ps);
        }
        let all_bins: Vec<usize> = window_peaks
            .iter()
            .flat_map(|ps| ps.iter().map(|p| p.bin))
            .collect();
        let mut best: (usize, usize) = (0, 0);
        for &candidate in &all_bins {
            let votes = window_peaks
                .iter()
                .filter(|ps| {
                    ps.iter()
                        .any(|p| peaks::cyclic_bin_distance(p.bin, candidate, n) <= 1)
                })
                .count();
            if votes > best.1 {
                best = (candidate, votes);
            }
        }
        let (mode_bin, votes) = best;
        if votes < det.config.preamble_min_upchirps {
            return None;
        }
        let mut fracs: Vec<f64> = Vec::new();
        let mut powers: Vec<f64> = Vec::new();
        for ps in &window_peaks {
            if let Some(p) = ps
                .iter()
                .find(|p| peaks::cyclic_bin_distance(p.bin, mode_bin, n) <= 1)
            {
                fracs.push(p.frac_bin);
                powers.push(p.power);
            }
        }
        if powers.is_empty() {
            return None;
        }
        let sync_has_diff = |k: usize, expect: usize| -> bool {
            let a = frame_start + k * sps;
            if a + sps > capture.len() {
                return false;
            }
            let spec = det
                .demod
                .folded_spectrum(&det.demod.dechirp(&capture[a..a + sps]));
            let ps = peaks::find_peaks(&spec, det.config.preamble_peak_threshold, 1);
            ps.iter().take(6).any(|p| {
                let d = (p.bin + n - mode_bin) % n;
                d.abs_diff(expect) <= 1 || d == n - 1 && expect == 0
            })
        };
        let sync0_ok = sync_has_diff(PREAMBLE_UPCHIRPS, 8);
        let sync1_ok = sync_has_diff(PREAMBLE_UPCHIRPS + 1, 16);
        if !sync0_ok && !sync1_ok {
            return None;
        }
        let sync_count = sync0_ok as usize + sync1_ok as usize;
        let f_up = circular_mean(&fracs, n as f64);
        let mut f_downs = Vec::with_capacity(2);
        for m in 0..2 {
            let dpos = frame_start + det.layout.downchirp_start + m * sps;
            if dpos + sps > capture.len() {
                continue;
            }
            let up_de = det.demod.updechirp(&capture[dpos..dpos + sps]);
            let dspec = det.demod.folded_spectrum(&up_de);
            if let Some((dbin, p)) = dspec.argmax() {
                if p > 0.0 {
                    f_downs.push(peaks::refine_sinc(&dspec, dbin));
                }
            }
        }
        if f_downs.is_empty() {
            return None;
        }
        let f_down = circular_mean(&f_downs, n as f64);
        let nu = n as f64;
        let s_up = signed_bin(f_up, nu);
        let s_down = signed_bin(f_down, nu);
        let cfo = (s_up + s_down) / 2.0;
        let t_bins = (s_up - s_down) / 2.0;
        let t_samples = (t_bins * det.params().oversampling() as f64).round() as i64;
        let refined = frame_start as i64 - t_samples;
        let frame_start = usize::try_from(refined).unwrap_or(frame_start);
        let peak_power = powers.iter().sum::<f64>() / powers.len() as f64;
        Some((
            Detection {
                frame_start,
                cfo_bins: cfo,
                peak_power,
                score,
            },
            votes,
            sync_count,
        ))
    }

    /// The allocating `sync_candidates`.
    pub(super) fn sync_candidates(
        demod: &Demodulator,
        layout: &FrameLayout,
        capture: &[Cf32],
        w: usize,
    ) -> Vec<usize> {
        let sps = demod.params().samples_per_symbol();
        let os = demod.params().oversampling();
        let n = demod.params().n_bins();
        if w + sps > capture.len() {
            return Vec::new();
        }
        let dspec = demod.folded_spectrum(&demod.updechirp(&capture[w..w + sps]));
        let Some((dbin, dpow)) = dspec.argmax() else {
            return Vec::new();
        };
        if dpow <= 0.0 {
            return Vec::new();
        }
        let f_down = peaks::refine_sinc(&dspec, dbin);
        let mut window_peaks: Vec<Vec<peaks::Peak>> = Vec::new();
        for back in [5usize, 6, 7] {
            let Some(a) = w.checked_sub(back * sps) else {
                continue;
            };
            let spec = demod.folded_spectrum(&demod.dechirp(&capture[a..a + sps]));
            let mut ps = peaks::find_peaks(&spec, 3.0, 1);
            ps.truncate(6);
            window_peaks.push(ps);
        }
        if window_peaks.is_empty() {
            return Vec::new();
        }
        let mut best: Option<(f64, usize, f64)> = None;
        for cand in window_peaks.iter().flatten() {
            let votes = window_peaks
                .iter()
                .filter(|ps| {
                    ps.iter()
                        .any(|p| peaks::cyclic_bin_distance(p.bin, cand.bin, n) <= 1)
                })
                .count();
            let better = match best {
                None => true,
                Some((_, v, pow)) => votes > v || (votes == v && cand.power > pow),
            };
            if better {
                best = Some((cand.frac_bin, votes, cand.power));
            }
        }
        let Some((f_up, _, _)) = best else {
            return Vec::new();
        };
        let two_tau_bins = lora_dsp::math::wrap(f_up - f_down, n as f64);
        let tau_a = (two_tau_bins / 2.0 * os as f64).round() as i64;
        let tau_b = (tau_a + sps as i64 / 2) % sps as i64;
        let mut out = Vec::new();
        for tau in [tau_a, tau_b] {
            for m in [-1i64, 0, 1] {
                let frame = w as i64 - tau - layout.downchirp_start as i64 - m * sps as i64;
                let frame = if (-8..0).contains(&frame) { 0 } else { frame };
                if frame >= 0 && !out.contains(&(frame as usize)) {
                    out.push(frame as usize);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_channel::{add_unit_noise, amplitude_for_snr, superpose, Emission};
    use lora_phy::packet::Transceiver;
    use lora_phy::params::CodeRate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> LoraParams {
        LoraParams::new(8, 250e3, 4).unwrap()
    }

    fn capture_with_packet(
        snr_db: f64,
        start: usize,
        cfo_hz: f64,
        seed: u64,
    ) -> (Vec<Cf32>, usize) {
        let p = params();
        let x = Transceiver::new(p, CodeRate::Cr45);
        let payload: Vec<u8> = (0..16).collect();
        let wave = x.waveform(&payload);
        let len = start + wave.len() + 2048;
        let mut cap = superpose(
            &p,
            len,
            &[Emission {
                waveform: wave,
                amplitude: amplitude_for_snr(snr_db, p.oversampling()),
                start_sample: start,
                cfo_hz,
            }],
        );
        let mut rng = StdRng::seed_from_u64(seed);
        add_unit_noise(&mut rng, &mut cap);
        (cap, start)
    }

    #[test]
    fn detects_clean_packet_at_exact_start() {
        let (cap, start) = capture_with_packet(20.0, 3000, 0.0, 1);
        let det = PreambleDetector::new(params(), CicConfig::default());
        let ds = det.detect(&cap);
        assert_eq!(ds.len(), 1, "detections: {ds:?}");
        assert!(
            ds[0].frame_start.abs_diff(start) <= 2,
            "start {} vs {}",
            ds[0].frame_start,
            start
        );
        assert!(ds[0].cfo_bins.abs() < 0.3, "cfo {}", ds[0].cfo_bins);
    }

    #[test]
    fn estimates_cfo() {
        let p = params();
        let cfo_bins_true = 2.4;
        let cfo_hz = cfo_bins_true * p.bin_hz();
        let (cap, start) = capture_with_packet(25.0, 5000, cfo_hz, 2);
        let det = PreambleDetector::new(p, CicConfig::default());
        let ds = det.detect(&cap);
        assert_eq!(ds.len(), 1);
        assert!(
            (ds[0].cfo_bins - cfo_bins_true).abs() < 0.3,
            "cfo est {} true {}",
            ds[0].cfo_bins,
            cfo_bins_true
        );
        assert!(ds[0].frame_start.abs_diff(start) <= 3);
    }

    #[test]
    fn detects_at_low_snr() {
        let (cap, start) = capture_with_packet(-2.0, 4096, 0.0, 3);
        let det = PreambleDetector::new(params(), CicConfig::default());
        let ds = det.detect(&cap);
        assert_eq!(ds.len(), 1, "sub-noise packet missed");
        assert!(ds[0].frame_start.abs_diff(start) <= 4);
    }

    #[test]
    fn no_false_detection_in_pure_noise() {
        let p = params();
        let mut rng = StdRng::seed_from_u64(4);
        let cap = lora_channel::awgn::noise_buffer(&mut rng, 60_000);
        let det = PreambleDetector::new(p, CicConfig::default());
        assert!(det.detect(&cap).is_empty());
    }

    #[test]
    fn detects_two_overlapping_packets() {
        let p = params();
        let x = Transceiver::new(p, CodeRate::Cr45);
        let w1 = x.waveform(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let w2 = x.waveform(&[9, 10, 11, 12, 13, 14, 15, 16]);
        let a = amplitude_for_snr(20.0, p.oversampling());
        // Second packet starts mid-way through the first.
        let s2 = 9 * p.samples_per_symbol() + 137;
        let len = s2 + w2.len() + 1000;
        let mut cap = superpose(
            &p,
            len,
            &[
                Emission {
                    waveform: w1,
                    amplitude: a,
                    start_sample: 0,
                    cfo_hz: 200.0,
                },
                Emission {
                    waveform: w2,
                    amplitude: a * 0.8,
                    start_sample: s2,
                    cfo_hz: -350.0,
                },
            ],
        );
        let mut rng = StdRng::seed_from_u64(5);
        add_unit_noise(&mut rng, &mut cap);
        let det = PreambleDetector::new(p, CicConfig::default());
        let ds = det.detect(&cap);
        assert_eq!(ds.len(), 2, "detections: {ds:?}");
        assert!(ds[0].frame_start.abs_diff(0) <= 4);
        assert!(ds[1].frame_start.abs_diff(s2) <= 4);
    }

    #[test]
    fn upchirp_scan_finds_isolated_packet() {
        let p = params();
        let (cap, start) = capture_with_packet(25.0, 2048, 0.0, 6);
        let demod = Demodulator::new(p);
        let ds = upchirp_scan(&demod, &cap, 8.0);
        assert_eq!(ds.len(), 1);
        assert!(ds[0].frame_start.abs_diff(start) <= p.samples_per_symbol());
    }

    /// Six packets whose starts sit a third of a frame apart (with
    /// jitter), so every frame overlaps two or three others, at mixed SNR
    /// and CFO: the memo's shared-window case.
    fn busy_capture(sf: u8, seed: u64) -> (LoraParams, Vec<Cf32>) {
        use rand::RngExt;
        let p = LoraParams::new(sf, 250e3, 2).unwrap();
        let x = Transceiver::new(p, CodeRate::Cr45);
        let frame = x.frame_samples(10);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut start = 3 * p.samples_per_symbol();
        let emissions: Vec<Emission> = (0..6)
            .map(|_| {
                let payload: Vec<u8> = (0..10).map(|_| rng.random()).collect();
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
        let mut cap = superpose(&p, start + frame, &emissions);
        add_unit_noise(&mut rng, &mut cap);
        (p, cap)
    }

    /// Every field's bits, so NaN fields compare too.
    fn bits(ds: &[Detection]) -> Vec<[u64; 4]> {
        ds.iter()
            .map(|d| {
                [
                    d.frame_start as u64,
                    d.cfo_bins.to_bits(),
                    d.peak_power.to_bits(),
                    d.score.to_bits(),
                ]
            })
            .collect()
    }

    /// FNV-1a over every detection field's bits.
    fn fnv(ds: &[Detection]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in bits(ds).into_iter().flatten() {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// The memoized confirmation detects exactly what the allocating
        /// oracle does, on busy captures with and without a hostile
        /// stretch (zeros or a NaN burst) written over them.
        #[test]
        fn memoized_confirmation_matches_the_allocating_oracle(
            sf in proptest::prop_oneof![proptest::prelude::Just(7u8), proptest::prelude::Just(9u8)],
            seed in 0u64..1000,
            hostile in 0u8..3,
            at in 0.0f64..1.0,
            span in 1usize..4096,
        ) {
            let (p, mut cap) = busy_capture(sf, seed);
            let a = (at * cap.len() as f64) as usize;
            let b = (a + span).min(cap.len());
            match hostile {
                1 => cap[a..b].fill(Cf32::new(0.0, 0.0)),
                2 => cap[a..b].fill(Cf32::new(f32::NAN, 0.0)),
                _ => {}
            }
            let det = PreambleDetector::new(p, CicConfig::default());
            let got = det.detect(&cap);
            proptest::prop_assert_eq!(bits(&got), bits(&reference::detect(&det, &cap)));
            if hostile == 0 {
                proptest::prop_assert!(got.len() >= 4, "SF{} seed {}: {:?}", sf, seed, got);
            }

            // The public wrapper answers like the allocating original at
            // every coarse hit.
            let mut hits = Vec::new();
            det.coarse_scan(&cap, 0, 0, &mut DetectScratch::default(), &mut hits);
            for &(w, _) in &hits {
                proptest::prop_assert_eq!(
                    sync_candidates(&det.demod, &det.layout, &cap, w),
                    reference::sync_candidates(&det.demod, &det.layout, &cap, w)
                );
            }
        }
    }

    #[test]
    fn busy_capture_detections_are_pinned() {
        // Measured with the allocating confirmation.
        for (sf, seed, count, hash) in [
            (7u8, 1u64, 6usize, 0xde44_3221_f0fd_63cbu64),
            (9, 2, 6, 0x10fb_2f91_6e7c_2551),
        ] {
            let (p, cap) = busy_capture(sf, seed);
            let ds = PreambleDetector::new(p, CicConfig::default()).detect(&cap);
            assert_eq!((ds.len(), fnv(&ds)), (count, hash), "SF{sf}");
        }
    }

    #[test]
    fn confirmation_transforms_each_window_once() {
        let (p, cap) = busy_capture(9, 2);
        let det = PreambleDetector::new(p, CicConfig::default());
        let mut scratch = DetectScratch::default();
        let ds = det.detect_with(&cap, &mut scratch);
        assert_eq!(bits(&ds), bits(&det.detect(&cap)));
        assert!(scratch.clusters() >= ds.len() as u64);
        assert!(scratch.down.starts.len() + scratch.up.starts.len() <= 64);
        assert!(
            scratch.transforms() * 2 < scratch.window_requests(),
            "{} transforms for {} requests",
            scratch.transforms(),
            scratch.window_requests()
        );
    }

    #[test]
    fn circular_mean_wraps() {
        let m = circular_mean(&[255.5, 0.5], 256.0);
        assert!(!(1.0..=255.0).contains(&m), "mean {m}");
    }

    #[test]
    fn signed_bin_examples() {
        assert_eq!(signed_bin(1.0, 256.0), 1.0);
        assert_eq!(signed_bin(255.0, 256.0), -1.0);
        assert_eq!(signed_bin(128.0, 256.0), 128.0);
    }
}
