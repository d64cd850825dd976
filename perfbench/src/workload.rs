//! One benchmark run of one workload: generate the inputs from the seed,
//! then either measure the end-to-end metrics (untraced) or record spans
//! and replay the layers (traced).

use std::time::{Duration, Instant};

use cic::{CicReceiver, ResidualBuffer};

use crate::batch::{self, BatchCapture, BatchSpec};
use crate::outcome::Outcome;
use crate::probe::{CpuProbe, RssProbe, UNAVAILABLE};
use crate::replay::{replay_gateway, LayerCounts};
use crate::serving::{self, GatewayInput, GatewaySpec, PassOutcome};
use crate::spans::{self_times_ns, SpanRecorder};
use crate::stats::{median, percentile, samples_beyond, tail_percentile, MIN_BEYOND};
use crate::truth::{TruthFrame, TruthMatcher};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["gw_busy", "cluster_wide_paced", "batch_hybrid"];

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Receiver constructions per `batch_hybrid` set-up sample (one is too
/// short to time).
const BATCH_SETUP_GROUP: usize = 20_000;

/// Run parameters from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Input seed.
    pub seed: u64,
    /// Measurement time, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
}

/// Run `workload`; `None` for an unknown name.
pub fn run(workload: &str, opts: RunOpts, rec: &mut SpanRecorder) -> Option<Outcome> {
    match workload {
        "gw_busy" => Some(run_gateway(&GatewaySpec::gw_busy(opts.seconds), opts, rec)),
        "cluster_wide_paced" => Some(run_gateway(
            &GatewaySpec::cluster_wide_paced(opts.seconds),
            opts,
            rec,
        )),
        "batch_hybrid" => Some(run_batch(&BatchSpec::batch_hybrid(opts.seconds), opts, rec)),
        _ => None,
    }
}

/// Truth-matching tolerance, wideband samples: half a symbol at the
/// smallest spreading factor of a gateway workload.
fn gateway_tolerance(spec: &GatewaySpec) -> u64 {
    let plan = spec.plan();
    let sf = *spec.sfs.iter().min().expect("non-empty sfs");
    plan.wideband_params(sf).samples_per_symbol() as u64 / 2
}

/// Truth-matched view of a pass or a capture.
#[derive(Default)]
struct Scored {
    offered: usize,
    delivered: usize,
    false_pkts: usize,
    misattributed: usize,
    release_ms: Vec<f64>,
}

impl Scored {
    fn from_matcher(matcher: &TruthMatcher, release_ms: Vec<f64>) -> Self {
        Self {
            offered: matcher.offered(),
            delivered: matcher.delivered(),
            false_pkts: matcher.false_pkts(),
            misattributed: matcher.misattributed(),
            release_ms,
        }
    }

    fn add(&mut self, other: Scored) {
        self.offered += other.offered;
        self.delivered += other.delivered;
        self.false_pkts += other.false_pkts;
        self.misattributed += other.misattributed;
        self.release_ms.extend(other.release_ms);
    }

    fn pdr(&self) -> f64 {
        self.delivered as f64 / self.offered.max(1) as f64
    }
}

fn score_gateway(
    spec: &GatewaySpec,
    input: &GatewayInput,
    pass: &PassOutcome,
    tolerance: u64,
) -> Scored {
    let mut matcher = TruthMatcher::new(input.truth.clone(), tolerance);
    let mut release_ms = Vec::new();
    for (p, at) in &pass.releases {
        let Some(payload) = &p.packet.payload else {
            continue;
        };
        let Some(i) = matcher.claim(p.channel, p.sf, p.start_wideband, payload) else {
            continue;
        };
        let last = matcher.frame(i).end.saturating_sub(1);
        // When the frame's last sample was due: on the open-loop
        // schedule, or — closed loop — when the chunk holding it was
        // pushed.
        let due = match spec.pace() {
            Some(p) => pass.t0 + Duration::from_secs_f64((last + 1) as f64 / (input.rate_hz * p)),
            None => {
                pass.push_start[(last as usize / serving::CHUNK).min(pass.push_start.len() - 1)]
            }
        };
        release_ms.push(at.saturating_duration_since(due).as_secs_f64() * 1e3);
    }
    Scored::from_matcher(&matcher, release_ms)
}

/// Release-latency metrics over the pooled samples of the traced pass.
fn release_metrics(out: &mut Outcome, release_ms: &[f64]) {
    let n = release_ms.len();
    out.set(
        "release_ms_p50",
        percentile(release_ms, 50.0).unwrap_or(0.0),
    );
    out.set(
        "release_ms_p90",
        percentile(release_ms, 90.0).unwrap_or(0.0),
    );
    out.set("release.samples", n as f64);
    let tail = tail_percentile(n);
    out.set("release.tail_pct", tail.unwrap_or(0.0));
    let at = |p: f64| percentile(release_ms, p).unwrap_or(0.0);
    let mut line = format!(
        "release latency: {n} samples, p50 {:.3} ms, p90 {:.3} ms",
        at(50.0),
        at(90.0)
    );
    match tail {
        Some(p) if p > 90.0 => line.push_str(&format!(", p{p} {:.3} ms", at(p))),
        Some(p) if p < 90.0 => line.push_str(" (fewer than 10 samples beyond p90)"),
        None => line.push_str(" (fewer than 10 samples beyond p50)"),
        Some(_) => {}
    }
    out.note(line);
}

/// Segments an untraced run is split into: gateway passes, or groups of
/// batch captures.
const SEGMENTS: usize = serving::PASSES;

/// One measured segment of an untraced run.
struct Segment {
    air_s: f64,
    wall_s: f64,
    cpu_s: Option<f64>,
    release_ms: Vec<f64>,
}

/// The end-to-end timing metrics. The rates are each the median over
/// segments of its per-segment value: on a shared host, a segment that a
/// burst of contention slowed down moves neither. The release-latency
/// percentiles are taken over the pooled samples of all segments, and a
/// run with fewer than [`MIN_BEYOND`] samples beyond p90 is incorrect:
/// its p90 would rest on too few packets to mean anything.
fn segment_metrics(out: &mut Outcome, segments: &[Segment]) {
    let rates: Vec<f64> = segments.iter().map(|s| s.air_s / s.wall_s).collect();
    out.set("x_realtime", median(&rates).expect("at least one segment"));
    let cpu: Option<Vec<f64>> = segments
        .iter()
        .map(|s| s.cpu_s.map(|c| c / s.air_s))
        .collect();
    out.set(
        "cpu_per_air_s",
        cpu.and_then(|v| median(&v)).unwrap_or(UNAVAILABLE),
    );
    let pooled: Vec<f64> = segments
        .iter()
        .flat_map(|s| s.release_ms.iter().copied())
        .collect();
    let p50 = percentile(&pooled, 50.0).unwrap_or(0.0);
    let p90 = percentile(&pooled, 90.0).unwrap_or(0.0);
    out.set("release_ms_p50", p50);
    out.set("release_ms_p90", p90);
    let beyond = samples_beyond(90.0, pooled.len());
    out.note(format!(
        "release latency: {} samples (per segment {:?}), {beyond} beyond p90; \
         p50 {p50:.3} ms, p90 {p90:.3} ms",
        pooled.len(),
        segments
            .iter()
            .map(|s| s.release_ms.len())
            .collect::<Vec<_>>()
    ));
    if beyond < MIN_BEYOND {
        out.problem(format!(
            "only {beyond} release samples beyond p90 (at least {MIN_BEYOND} needed): \
             the run is too short"
        ));
    }
    out.note(format!(
        "{} segments: x_realtime {}",
        segments.len(),
        rates
            .iter()
            .map(|r| format!("{r:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
}

/// Record `truth.false_pkts` and check truth matching. A CRC-clean
/// packet carrying a transmitted payload that claims no frame — a second
/// release of a frame, or one far from its start — is a correctness
/// error of the serving system. A payload nobody sent is a receiver false
/// positive that passed the 16-bit CRC: counted, not an error.
fn check_false_packets(out: &mut Outcome, s: &Scored) {
    out.set("truth.false_pkts", s.false_pkts as f64);
    if s.misattributed > 0 {
        out.problem(format!(
            "{} CRC-clean packets carry a transmitted payload but claim no frame \
             (released twice, or far from the frame start)",
            s.misattributed
        ));
    }
    if s.false_pkts > s.misattributed {
        out.note(format!(
            "{} CRC-clean packets carry a payload that was never transmitted",
            s.false_pkts - s.misattributed
        ));
    }
}

fn run_gateway(spec: &GatewaySpec, opts: RunOpts, rec: &mut SpanRecorder) -> Outcome {
    let mut out = Outcome::default();
    out.note(spec.describe());
    let input = GatewayInput::generate(spec, opts.seed);
    let tolerance = gateway_tolerance(spec);
    out.note(format!(
        "input: {:.2} s air, {} frames, {} chunks of {} samples",
        input.air_s(),
        input.truth.len(),
        input.chunks().len(),
        serving::CHUNK
    ));

    if opts.trace {
        return trace_gateway(spec, &input, tolerance, out, rec);
    }

    let setups: Vec<f64> = (0..SETUP_REPS).map(|_| serving::time_setup(spec)).collect();
    // Each pass sets the serving system up again; the baseline is taken
    // after the timed set-ups so that the allocator's per-thread arenas
    // they leave behind do not make the peak depend on thread timing.
    let rss = RssProbe::start();
    let mut cpu_s = Vec::with_capacity(SEGMENTS);
    let passes: Vec<PassOutcome> = (0..SEGMENTS)
        .map(|_| {
            let cpu = CpuProbe::start();
            let pass = serving::run_pass(spec, &input, &mut SpanRecorder::new(false));
            cpu_s.push(cpu.elapsed_s());
            pass
        })
        .collect();
    let rss_mb = rss.peak_mb();

    let mut segments = Vec::with_capacity(passes.len());
    let mut scored = None;
    for (i, (pass, cpu_s)) in passes.iter().zip(cpu_s).enumerate() {
        if i > 0 {
            serving::compare_passes(&passes[0], pass, &format!("passes 0 and {i}"), &mut out);
        }
        check_release_order(&mut out, pass);
        let s = score_gateway(spec, &input, pass, tolerance);
        segments.push(Segment {
            air_s: input.air_s(),
            wall_s: pass.wall_s,
            cpu_s,
            release_ms: s.release_ms.clone(),
        });
        scored.get_or_insert(s);
        let t = &pass.telemetry.gateway;
        out.attempted += pass.push_start.len() as u64;
        out.failed += t.chunks_dropped + t.chunks_shed;
    }
    let s = scored.expect("at least one pass");
    segment_metrics(&mut out, &segments);
    out.set("pdr", s.pdr());
    check_false_packets(&mut out, &s);
    out.set("setup_s", median(&setups).expect("setup reps"));
    out.set("rss_mb", rss_mb);
    out.note(format!(
        "{} passes, {}/{} frames delivered, {} false packets, rss peak reset: {}",
        passes.len(),
        s.delivered,
        s.offered,
        s.false_pkts,
        rss.peak_reset()
    ));
    if spec.pace().is_some() {
        let late = passes.iter().map(|p| p.late_ms_max).fold(0.0, f64::max);
        out.note(format!(
            "open loop: pushes ran at most {late:.3} ms behind schedule"
        ));
    }
    if s.delivered == 0 {
        out.problem("no transmitted frame was delivered");
    }
    out
}

/// The merged stream must be time-ordered: a gateway's sink and a
/// cluster's global watermark both release in non-decreasing start order.
fn check_release_order(out: &mut Outcome, pass: &PassOutcome) {
    let starts: Vec<u64> = pass
        .releases
        .iter()
        .map(|(p, _)| p.start_wideband)
        .collect();
    if let Some(w) = starts.windows(2).position(|w| w[1] < w[0]) {
        out.problem(format!(
            "released stream out of order at packet {}: start {} after {}",
            w + 1,
            starts[w + 1],
            starts[w]
        ));
    }
}

fn trace_gateway(
    spec: &GatewaySpec,
    input: &GatewayInput,
    tolerance: u64,
    mut out: Outcome,
    rec: &mut SpanRecorder,
) -> Outcome {
    let untraced = serving::run_pass(spec, input, &mut SpanRecorder::new(false));
    rec.enter("trace.pass", None);
    let pass = serving::run_pass(spec, input, rec);
    rec.exit();
    serving::compare_passes(&untraced, &pass, "untraced and traced pass", &mut out);
    check_release_order(&mut out, &pass);
    let s = score_gateway(spec, input, &pass, tolerance);
    let t = &pass.telemetry;
    out.attempted = pass.push_start.len() as u64;
    out.failed = t.gateway.chunks_dropped + t.gateway.chunks_shed;
    out.set(
        "trace.overhead_pct",
        (pass.wall_s - untraced.wall_s) / untraced.wall_s * 100.0,
    );
    out.set("queue.bp_wait_s", pass.bp_wait_s);
    out.set(
        "queue.depth_hwm",
        t.gateway
            .workers
            .iter()
            .map(|w| w.queue_depth_hwm)
            .max()
            .unwrap_or(0) as f64,
    );
    out.set("queue.chunks_dropped", t.gateway.chunks_dropped as f64);
    out.set("queue.chunks_shed", t.gateway.chunks_shed as f64);
    out.set("sink.packets_released", t.gateway.packets_released as f64);
    out.set(
        "sink.duplicates_suppressed",
        t.gateway.duplicates_suppressed as f64,
    );
    out.set("cluster.packets_merged", t.packets_merged as f64);
    out.set(
        "cluster.cross_gateway_duplicates",
        t.cross_gateway_duplicates as f64,
    );
    out.set(
        "cluster.watermark_lag_ms",
        median(&pass.watermark_lag_ms).unwrap_or(0.0),
    );
    out.set("gateway.decode_calls", t.gateway.decode.count as f64);
    out.set(
        "gateway.decode_p99_us",
        t.gateway.decode_percentiles.p99_ns as f64 / 1e3,
    );
    out.set("gen.late_ms_max", pass.late_ms_max);
    check_false_packets(&mut out, &s);
    release_metrics(&mut out, &s.release_ms);

    rec.enter("replay", None);
    let counts = replay_gateway(spec, input, rec);
    rec.exit();
    layer_metrics(&mut out, &counts, rec);
    out
}

/// Metrics read from the replay spans and counts, plus the trace's
/// unaccounted share.
fn layer_metrics(out: &mut Outcome, counts: &LayerCounts, rec: &SpanRecorder) {
    let channelizer_s = rec.total_s("channelizer");
    out.set("channelizer.busy_s", channelizer_s);
    out.set(
        "channelizer.msps",
        if channelizer_s > 0.0 {
            counts.channelized_samples as f64 / channelizer_s / 1e6
        } else {
            0.0
        },
    );
    let push: Vec<f64> = rec
        .durations_ns("stream.push")
        .into_iter()
        .map(|ns| ns as f64 / 1e3)
        .collect();
    let push_s = rec.total_s("stream.push");
    let receive_s = rec.total_s("receive");
    let detect_s = rec.total_s("detect");
    let hybrid_s = rec.total_s("receive_hybrid");
    out.set("stream.push_busy_s", push_s);
    out.set("stream.push_p99_us", percentile(&push, 99.0).unwrap_or(0.0));
    out.set(
        "stream.redecode_ratio",
        if push_s > 0.0 {
            push_s / receive_s
        } else {
            0.0
        },
    );
    out.set("detect.busy_s", detect_s);
    out.set("detect.detections", counts.detections as f64);
    out.set("demod.busy_s", receive_s - detect_s);
    out.set(
        "demod.ok_ratio",
        counts.decode_ok as f64 / counts.decode_attempts.max(1) as f64,
    );
    out.set(
        "sic.busy_s",
        if hybrid_s > 0.0 {
            hybrid_s - receive_s
        } else {
            0.0
        },
    );
    out.set("sic.recovered", counts.sic.recovered as f64);
    out.set("sic.abandoned", counts.sic.abandoned as f64);
    let refs = counts.sic.ref_cache_hits + counts.sic.ref_cache_misses;
    out.set(
        "sic.ref_cache_hit_ratio",
        counts.sic.ref_cache_hits as f64 / refs.max(1) as f64,
    );

    // Time inside the root spans that no layer span covers.
    let self_ns = self_times_ns(rec.spans());
    let (mut root_ns, mut root_self_ns) = (0u64, 0u64);
    for (s, own) in rec.spans().iter().zip(&self_ns) {
        if s.parent.is_none() {
            root_ns += s.duration_ns();
            root_self_ns += own;
        }
    }
    out.set(
        "trace.unaccounted_pct",
        root_self_ns as f64 / root_ns.max(1) as f64 * 100.0,
    );
    let mut table = String::from("self time by span:");
    for (name, s) in rec.self_time_by_name_s() {
        table.push_str(&format!(" {name}={s:.4}s"));
    }
    out.note(table);
}

fn run_batch(spec: &BatchSpec, opts: RunOpts, rec: &mut SpanRecorder) -> Outcome {
    let mut out = Outcome::default();
    out.note(spec.describe());
    let captures = batch::generate_input(spec, opts.seed);
    let tolerance = {
        let rx = spec.receiver();
        rx.params().samples_per_symbol() as u64 / 2
    };
    out.note(format!(
        "input: {} captures, {} frames",
        captures.len(),
        captures.iter().map(|c| c.truth.len()).sum::<usize>()
    ));
    if opts.trace {
        return trace_batch(spec, &captures, tolerance, out, rec);
    }

    let (params, cr, payload_len, config) = spec.receiver_args();
    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..BATCH_SETUP_GROUP {
                std::hint::black_box(CicReceiver::new(params, cr, payload_len, config.clone()));
            }
            t.elapsed().as_secs_f64() / BATCH_SETUP_GROUP as f64
        })
        .collect();
    // As for the gateway workloads, the baseline is taken after the
    // timed set-ups.
    let rss = RssProbe::start();
    let rx = spec.receiver();
    let mut residual = ResidualBuffer::new();
    let mut segments = Vec::with_capacity(SEGMENTS);
    let mut total = Scored::default();
    for group in captures.chunks(captures.len().div_ceil(SEGMENTS)) {
        let cpu = CpuProbe::start();
        let results: Vec<_> = group
            .iter()
            .map(|c| batch::decode(&rx, &mut residual, c))
            .collect();
        let cpu_s = cpu.elapsed_s();
        let mut group_score = Scored::default();
        for (cap, res) in group.iter().zip(&results) {
            group_score.add(score_batch(&cap.truth, res, tolerance));
        }
        segments.push(Segment {
            air_s: group.iter().map(BatchCapture::air_s).sum(),
            wall_s: results.iter().map(|r| r.wall_s).sum(),
            cpu_s,
            release_ms: std::mem::take(&mut group_score.release_ms),
        });
        total.add(group_score);
    }
    let rss_mb = rss.peak_mb();
    out.attempted = captures.len() as u64;
    segment_metrics(&mut out, &segments);
    out.set("pdr", total.pdr());
    check_false_packets(&mut out, &total);
    out.set("setup_s", median(&setups).expect("setup reps"));
    out.set("rss_mb", rss_mb);
    out.note(format!(
        "{}/{} frames delivered, {} false packets, rss peak reset: {}",
        total.delivered,
        total.offered,
        total.false_pkts,
        rss.peak_reset()
    ));
    if total.delivered == 0 {
        out.problem("no transmitted frame was delivered");
    }
    out
}

/// A capture's decode set, sorted, for comparing passes.
fn batch_set(res: &batch::CaptureOutcome) -> Vec<(usize, Option<Vec<u8>>)> {
    let mut v: Vec<_> = res
        .packets
        .iter()
        .map(|p| (p.detection.frame_start, p.payload.clone()))
        .collect();
    v.sort();
    v
}

/// Truth-match one capture's decode. A whole capture is available when
/// the call starts, and every packet comes out when it returns.
fn score_batch(truth: &[TruthFrame], res: &batch::CaptureOutcome, tolerance: u64) -> Scored {
    let mut matcher = TruthMatcher::new(truth.to_vec(), tolerance);
    let sf = truth.first().map_or(0, |t| t.sf);
    for p in &res.packets {
        if let Some(payload) = &p.payload {
            matcher.claim(0, sf, p.detection.frame_start as u64, payload);
        }
    }
    let release_ms = vec![res.wall_s * 1e3; matcher.delivered()];
    Scored::from_matcher(&matcher, release_ms)
}

fn trace_batch(
    spec: &BatchSpec,
    captures: &[batch::BatchCapture],
    tolerance: u64,
    mut out: Outcome,
    rec: &mut SpanRecorder,
) -> Outcome {
    let mut rx = spec.receiver();
    let untraced_t = Instant::now();
    let untraced: Vec<_> = {
        let mut residual = ResidualBuffer::new();
        captures
            .iter()
            .map(|c| batch::decode(&rx, &mut residual, c))
            .collect()
    };
    let untraced_s = untraced_t.elapsed().as_secs_f64();

    let traced_t = Instant::now();
    rec.enter("trace.pass", None);
    let mut residual = ResidualBuffer::new();
    let traced: Vec<_> = captures
        .iter()
        .enumerate()
        .map(|(i, c)| {
            rec.time("receive_hybrid", Some(i as u64), || {
                batch::decode(&rx, &mut residual, c)
            })
        })
        .collect();
    rec.exit();
    let traced_s = traced_t.elapsed().as_secs_f64();
    out.set(
        "trace.overhead_pct",
        (traced_s - untraced_s) / untraced_s * 100.0,
    );

    let mut total = Scored::default();
    for (j, (cap, res)) in captures.iter().zip(&traced).enumerate() {
        if batch_set(res) != batch_set(&untraced[j]) {
            out.problem(format!(
                "traced pass decoded capture {j} differently than the untraced pass"
            ));
        }
        total.add(score_batch(&cap.truth, res, tolerance));
    }
    out.attempted = captures.len() as u64;
    check_false_packets(&mut out, &total);
    release_metrics(&mut out, &total.release_ms);

    // Layers not on the figure path report 0.
    for name in [
        "queue.bp_wait_s",
        "queue.depth_hwm",
        "queue.chunks_dropped",
        "queue.chunks_shed",
        "sink.packets_released",
        "sink.duplicates_suppressed",
        "cluster.packets_merged",
        "cluster.cross_gateway_duplicates",
        "cluster.watermark_lag_ms",
        "gateway.decode_calls",
        "gateway.decode_p99_us",
        "gen.late_ms_max",
    ] {
        out.set(name, 0.0);
    }

    rec.enter("replay", None);
    let mut counts = LayerCounts::default();
    for res in &traced {
        counts.sic.absorb(res.report);
    }
    // The same receiver with the SIC stage off: `receive` is then the
    // CIC pipeline alone, and `receive_hybrid - receive` is the SIC cost.
    let mut cic_only = rx.config().clone();
    cic_only.sic.depth = 0;
    rx.set_config(cic_only);
    for (i, c) in captures.iter().enumerate() {
        counts.batch(&rx, &c.samples, i as u64, rec);
    }
    rec.exit();
    layer_metrics(&mut out, &counts, rec);
    out
}
