//! The two gateway workloads: `gw_busy` (one wide [`Gateway`], closed
//! loop, unpaced) and `cluster_wide_paced` (a threaded
//! [`GatewayCluster`], open loop at a fixed offered rate).
//!
//! Both push pre-generated wideband chunks under *external lossless
//! backpressure*: before each push the benchmark waits until every queue
//! the chunk will land in has room, reading only the telemetry the
//! gateway already exposes. So the measured throughput contains no
//! shedding, and the decode set is a deterministic function of the input,
//! which lets a run compare its passes for equality.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cic::CicConfig;
use lora_channel::deployment::DeploymentKind;
use lora_channel::stream::{StreamConfig, StreamedScenario};
use lora_channel::BandPlan;
use lora_dsp::Cf32;
use lora_gateway::{
    ClusterConfig, Gateway, GatewayCluster, GatewayConfig, GatewayPacket, GatewaySnapshot,
    OverloadConfig, WorkerStats,
};
use lora_phy::packet::Transceiver;
use lora_phy::params::CodeRate;

use crate::spans::SpanRecorder;
use crate::truth::TruthFrame;

/// Push chunk, wideband samples.
pub const CHUNK: usize = 1 << 14;
/// Per-worker (and per-shard broadcast) queue capacity, chunks: deep
/// enough to keep both CPUs busy in the closed loop, shallow enough that
/// release latency reflects decode rather than queueing. (A 64-chunk
/// queue measured slower and noisier on a 2-CPU box.)
pub const QUEUE_CAPACITY: usize = 16;
/// Passes per untraced run. Every pass pushes the same input through a
/// fresh serving system, and a lossless run must decode the same set
/// each time.
pub const PASSES: usize = 5;
/// Fixed payload length of the streamed deployments, bytes.
pub const PAYLOAD_LEN: usize = 16;
/// How often a waiting benchmark polls for released packets: releases
/// are stamped at this resolution or better.
const POLL: Duration = Duration::from_micros(500);

/// Generator and gateway parameters of one gateway workload.
#[derive(Debug, Clone)]
pub struct GatewaySpec {
    /// Workload name.
    pub name: &'static str,
    /// Channels in the band plan.
    pub channels: usize,
    /// Spreading factors decoded on every channel.
    pub sfs: Vec<u8>,
    /// Deployment the nodes live in.
    pub deployment: DeploymentKind,
    /// Node count.
    pub n_nodes: usize,
    /// Mean per-node packet interval, seconds.
    pub interval_s: f64,
    /// Air time of one pass, seconds: sized so the run's
    /// [`PASSES`] passes take about the requested measurement time on a
    /// 2-CPU box.
    pub air_s: f64,
    /// The serving system and how it is driven.
    pub mode: Mode,
}

/// The serving system of a gateway workload and how it is driven.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// One wide [`Gateway`], closed loop, unpaced.
    Wide,
    /// A [`GatewayCluster::new_threaded`] of `shards` shards, open loop
    /// at `pace` times real time.
    Cluster {
        /// Shard count.
        shards: usize,
        /// Offered rate as a multiple of real time.
        pace: f64,
    },
}

impl GatewaySpec {
    /// `gw_busy`: collision-heavy traffic on one wide gateway, measured
    /// for about `seconds`.
    pub fn gw_busy(seconds: f64) -> Self {
        Self {
            name: "gw_busy",
            channels: 2,
            sfs: vec![7, 9],
            deployment: DeploymentKind::D1IndoorLos,
            n_nodes: 10_000,
            interval_s: 300.0,
            // The closed loop runs at 0.85-1.0x real time on 2 CPUs.
            air_s: seconds * 0.9 / PASSES as f64,
            mode: Mode::Wide,
        }
    }

    /// `cluster_wide_paced`: light SF7 traffic on an 8-channel band split
    /// over two threaded shards, offered at a fixed fraction of real
    /// time, measured for about `seconds`.
    pub fn cluster_wide_paced(seconds: f64) -> Self {
        const PACE: f64 = 0.2;
        Self {
            name: "cluster_wide_paced",
            channels: 8,
            sfs: vec![7],
            deployment: DeploymentKind::D1IndoorLos,
            n_nodes: 36_000,
            interval_s: 300.0,
            air_s: seconds * PACE / PASSES as f64,
            mode: Mode::Cluster {
                shards: 2,
                pace: PACE,
            },
        }
    }

    /// The band plan: 250 kHz channels 500 kHz apart, oversampling 2,
    /// decimation equal to the channel count so the wideband rate covers
    /// the outermost channel.
    pub fn plan(&self) -> BandPlan {
        BandPlan::uniform(self.channels, 250e3, 500e3, 2, self.channels)
    }

    /// The wide gateway configuration (also the cluster's base).
    pub fn gateway_config(&self) -> GatewayConfig {
        let plan = self.plan();
        GatewayConfig {
            channelizer: lora_sim::capacity::channelizer_for(&plan),
            oversampling: plan.oversampling,
            sfs: self.sfs.clone(),
            code_rate: CodeRate::Cr45,
            payload_len: PAYLOAD_LEN,
            cic: CicConfig::default(),
            queue_capacity: QUEUE_CAPACITY,
            overload: OverloadConfig {
                // Pinned, as in the repository's determinism tests: an
                // idle worker quiesces its receiver, so a wall-clock idle
                // timer firing mid-stream would make the decode depend on
                // scheduling.
                idle_timeout: Duration::from_secs(600),
                // With the benchmark's backpressure the adaptive ladder
                // would see full queues and cut decoder effort, which
                // would move `pdr`; drop-oldest has no controller, and
                // the backpressure keeps it from ever dropping.
                ..OverloadConfig::drop_oldest()
            },
        }
    }

    /// The cluster configuration (a single shard for [`Mode::Wide`]).
    pub fn cluster_config(&self) -> ClusterConfig {
        let shards = match self.mode {
            Mode::Wide => 1,
            Mode::Cluster { shards, .. } => shards,
        };
        ClusterConfig::channel_sharded(self.gateway_config(), shards)
    }

    /// Offered rate of the open loop as a multiple of real time; `None`
    /// for the closed loop.
    pub fn pace(&self) -> Option<f64> {
        match self.mode {
            Mode::Wide => None,
            Mode::Cluster { pace, .. } => Some(pace),
        }
    }

    /// One-line description of the generator parameters.
    pub fn describe(&self) -> String {
        format!(
            "{}: {} ch x SF{:?}, {}, {} nodes @ {} s interval ({:.1} pps), {:.2} s air/pass, {}",
            self.name,
            self.channels,
            self.sfs,
            self.deployment.label(),
            self.n_nodes,
            self.interval_s,
            self.n_nodes as f64 / self.interval_s,
            self.air_s,
            match self.mode {
                Mode::Wide => "one wide gateway, closed loop, unpaced".to_string(),
                Mode::Cluster { shards, pace } =>
                    format!("{shards}-shard threaded cluster, open loop at {pace}x real time"),
            }
        )
    }
}

/// Pre-generated input of one gateway workload.
pub struct GatewayInput {
    /// Wideband samples of one pass.
    pub samples: Vec<Cf32>,
    /// Every transmitted frame (wideband time base).
    pub truth: Vec<TruthFrame>,
    /// Wideband sample rate, Hz.
    pub rate_hz: f64,
}

impl GatewayInput {
    /// Generate the input for `seed` (outside any timed region).
    pub fn generate(spec: &GatewaySpec, seed: u64) -> Self {
        let plan = spec.plan();
        let cfg = StreamConfig {
            n_nodes: spec.n_nodes,
            deployment: spec.deployment,
            sfs: spec.sfs.clone(),
            code_rate: CodeRate::Cr45,
            payload_len: PAYLOAD_LEN,
            mean_interval_s: spec.interval_s,
            duration_s: spec.air_s,
            seed,
            noise: true,
        };
        let frame_len: Vec<(u8, u64)> = spec
            .sfs
            .iter()
            .map(|&sf| {
                let tx = Transceiver::new(plan.wideband_params(sf), CodeRate::Cr45);
                (sf, tx.frame_samples(PAYLOAD_LEN) as u64)
            })
            .collect();
        let mut scenario = StreamedScenario::new(plan.clone(), cfg);
        let mut samples = Vec::with_capacity(scenario.total_samples());
        while let Some(chunk) = scenario.next_chunk(CHUNK) {
            samples.extend_from_slice(chunk);
        }
        let truth = scenario
            .drain_truth()
            .into_iter()
            .map(|e| {
                let p = e.packet;
                let len = frame_len.iter().find(|(sf, _)| *sf == p.sf).expect("sf").1;
                TruthFrame {
                    channel: p.channel,
                    sf: p.sf,
                    start: p.start_sample as u64,
                    end: p.start_sample as u64 + len,
                    payload: p.payload,
                }
            })
            .collect();
        Self {
            samples,
            truth,
            rate_hz: plan.wideband_rate_hz(),
        }
    }

    /// Air time of one pass, seconds.
    pub fn air_s(&self) -> f64 {
        self.samples.len() as f64 / self.rate_hz
    }

    /// The push chunks of one pass.
    pub fn chunks(&self) -> std::slice::Chunks<'_, Cf32> {
        self.samples.chunks(CHUNK)
    }
}

/// The serving system under test, seen from outside.
enum Serving {
    /// The gateway and its per-worker counters.
    Gateway(Gateway, Vec<Arc<WorkerStats>>),
    Cluster(GatewayCluster),
}

/// Final telemetry of one pass.
#[derive(Debug, Clone)]
pub struct PassTelemetry {
    /// The gateway snapshot (for a cluster, the merged shard aggregate).
    pub gateway: GatewaySnapshot,
    /// Packets merged into the cluster's global stream (0 for a gateway).
    pub packets_merged: u64,
    /// Duplicates suppressed at the cluster merge tier (0 for a gateway).
    pub cross_gateway_duplicates: u64,
}

impl Serving {
    fn new(spec: &GatewaySpec) -> Self {
        match spec.mode {
            Mode::Wide => {
                let config = spec.gateway_config();
                let n_workers = config.workers().len();
                let gw = Gateway::new(config).expect("valid gateway");
                let stats = gw.stats();
                Serving::Gateway(gw, (0..n_workers).map(|i| stats.worker(i)).collect())
            }
            Mode::Cluster { .. } => Serving::Cluster(
                GatewayCluster::new_threaded(spec.cluster_config()).expect("valid cluster"),
            ),
        }
    }

    fn push(&mut self, chunk: &[Cf32]) {
        match self {
            Serving::Gateway(g, _) => g.push(chunk),
            Serving::Cluster(c) => c.push(chunk),
        }
    }

    fn poll(&mut self) -> Vec<GatewayPacket> {
        match self {
            Serving::Gateway(g, _) => g.poll_packets(),
            Serving::Cluster(c) => c.poll_packets(),
        }
    }

    /// Whether one more chunk fits in every queue it will reach.
    ///
    /// A gateway push adds one chunk to every worker queue. A cluster
    /// push first lands in each shard's lossless broadcast queue, then
    /// — when the shard thread pushes it into its gateway — in that
    /// shard's drop-oldest worker queues; so a shard has room only when
    /// its broadcast backlog (chunks pushed minus the shard's
    /// `chunks_in`) plus its deepest worker queue leaves space for one
    /// more chunk, plus one for the chunk the shard may be channelizing
    /// (counted in `chunks_in`, not yet in a worker queue).
    fn has_room(&self, pushed: u64) -> bool {
        match self {
            Serving::Gateway(_, workers) => workers
                .iter()
                .all(|w| w.queue_depth.load(Ordering::Relaxed) < QUEUE_CAPACITY as u64),
            Serving::Cluster(c) => c.snapshot().shards.iter().all(|s| {
                let backlog = pushed.saturating_sub(s.chunks_in);
                let deepest = s.workers.iter().map(|w| w.queue_depth).max().unwrap_or(0);
                backlog + deepest + 2 <= QUEUE_CAPACITY as u64
            }),
        }
    }

    /// Release horizon (wideband samples): the released stream is
    /// complete below it.
    fn horizon(&self) -> u64 {
        match self {
            Serving::Gateway(g, _) => g.release_horizon(),
            Serving::Cluster(c) => c.global_watermark(),
        }
    }

    fn finish(self) -> (Vec<GatewayPacket>, PassTelemetry) {
        match self {
            Serving::Gateway(g, _) => {
                let (packets, gateway) = g.finish();
                (
                    packets,
                    PassTelemetry {
                        gateway,
                        packets_merged: 0,
                        cross_gateway_duplicates: 0,
                    },
                )
            }
            Serving::Cluster(c) => {
                let (packets, snap) = c.finish();
                (
                    packets,
                    PassTelemetry {
                        gateway: snap.merged,
                        packets_merged: snap.packets_merged,
                        cross_gateway_duplicates: snap.cross_gateway_duplicates,
                    },
                )
            }
        }
    }
}

/// Build and tear down the serving system once; returns the time
/// `Gateway::new` / `GatewayCluster::new_threaded` took, seconds.
pub fn time_setup(spec: &GatewaySpec) -> f64 {
    let t0 = Instant::now();
    let serving = Serving::new(spec);
    let dt = t0.elapsed().as_secs_f64();
    drop(serving.finish());
    dt
}

/// What one pass produced.
pub struct PassOutcome {
    /// First push to `finish` returning, seconds.
    pub wall_s: f64,
    /// Every released packet with its release instant.
    pub releases: Vec<(GatewayPacket, Instant)>,
    /// When each chunk's push started.
    pub push_start: Vec<Instant>,
    /// Start of the pass; the open-loop schedule counts from here.
    pub t0: Instant,
    /// Time spent waiting for queue room, seconds.
    pub bp_wait_s: f64,
    /// Largest lateness of a push against the open-loop schedule, ms
    /// (0 for the closed loop).
    pub late_ms_max: f64,
    /// Wall time between a pushed position and the release horizon
    /// catching up with it, sampled at each push, ms.
    pub watermark_lag_ms: Vec<f64>,
    /// Final telemetry.
    pub telemetry: PassTelemetry,
}

/// Push one pass of `input` through a fresh serving system built from
/// `spec`, recording spans into `rec` when it is enabled.
pub fn run_pass(spec: &GatewaySpec, input: &GatewayInput, rec: &mut SpanRecorder) -> PassOutcome {
    let mut serving = Serving::new(spec);
    let n_chunks = input.samples.len().div_ceil(CHUNK);
    let mut releases: Vec<(GatewayPacket, Instant)> = Vec::new();
    let mut push_start: Vec<Instant> = Vec::with_capacity(n_chunks);
    let mut bp_wait = Duration::ZERO;
    let mut late_ms_max = 0.0f64;
    let mut watermark_lag_ms = Vec::with_capacity(n_chunks);
    let secs_per_sample = spec.pace().map(|p| 1.0 / (input.rate_hz * p));

    let poll = |serving: &mut Serving, rec: &mut SpanRecorder, out: &mut Vec<_>| {
        let fresh = rec.time("sink.poll", None, || serving.poll());
        let now = Instant::now();
        out.extend(fresh.into_iter().map(|p| (p, now)));
    };

    let t0 = Instant::now();
    let mut end = 0usize;
    for (k, chunk) in input.chunks().enumerate() {
        end += chunk.len();
        if let Some(sps) = secs_per_sample {
            // Open loop: the chunk is due once its last sample arrived.
            let due = t0 + Duration::from_secs_f64(end as f64 * sps);
            rec.enter("pace.wait", Some(k as u64));
            loop {
                poll(&mut serving, rec, &mut releases);
                let now = Instant::now();
                if now >= due {
                    break;
                }
                std::thread::sleep((due - now).min(POLL));
            }
            rec.exit();
        }
        let wait0 = Instant::now();
        rec.enter("queue.bp_wait", Some(k as u64));
        while !serving.has_room(k as u64) {
            poll(&mut serving, rec, &mut releases);
            std::thread::sleep(POLL);
        }
        rec.exit();
        let start = Instant::now();
        bp_wait += start - wait0;
        if let Some(sps) = secs_per_sample {
            let due = t0 + Duration::from_secs_f64(end as f64 * sps);
            let late = start.saturating_duration_since(due).as_secs_f64() * 1e3;
            late_ms_max = late_ms_max.max(late);
        }
        push_start.push(start);
        rec.time("gateway.push", Some(k as u64), || serving.push(chunk));
        poll(&mut serving, rec, &mut releases);
        // Release horizon against the push schedule: how long ago was
        // the sample at the horizon pushed?
        let h = serving.horizon();
        let lag_chunk = (h as usize / CHUNK).min(k);
        if (h as usize) < end {
            watermark_lag_ms.push(
                Instant::now()
                    .duration_since(push_start[lag_chunk])
                    .as_secs_f64()
                    * 1e3,
            );
        }
    }
    // `finish` flushes the channelizer's group-delay tail into the
    // queues: one more chunk that needs room like any other.
    rec.enter("queue.bp_wait", None);
    let wait0 = Instant::now();
    while !serving.has_room(n_chunks as u64) {
        poll(&mut serving, rec, &mut releases);
        std::thread::sleep(POLL);
    }
    bp_wait += wait0.elapsed();
    rec.exit();
    let (rest, telemetry) = rec.time("gateway.finish", None, || serving.finish());
    let done = Instant::now();
    releases.extend(rest.into_iter().map(|p| (p, done)));
    PassOutcome {
        wall_s: (done - t0).as_secs_f64(),
        releases,
        push_start,
        t0,
        bp_wait_s: bp_wait.as_secs_f64(),
        late_ms_max,
        watermark_lag_ms,
        telemetry,
    }
}

/// One released packet as compared between passes: (channel, SF,
/// start, payload), the payload `None` for a CRC failure.
type Released = (usize, u8, u64, Option<Vec<u8>>);

/// Every packet a pass released, CRC-failed ones included, sorted.
fn released_set(pass: &PassOutcome) -> Vec<Released> {
    let mut v: Vec<Released> = pass
        .releases
        .iter()
        .map(|(p, _)| (p.channel, p.sf, p.start_wideband, p.packet.payload.clone()))
        .collect();
    v.sort();
    v
}

/// Compare two passes over the same input. A lossless run is
/// deterministic, so any difference in the released packets — CRC-failed
/// outputs included — is a correctness problem.
pub fn compare_passes(
    a: &PassOutcome,
    b: &PassOutcome,
    what: &str,
    out: &mut crate::outcome::Outcome,
) {
    let (set_a, set_b) = (released_set(a), released_set(b));
    if set_a != set_b {
        let only = |x: &[Released], y: &[Released]| -> Vec<(usize, u8, u64, bool)> {
            x.iter()
                .filter(|r| !y.contains(r))
                .map(|r| (r.0, r.1, r.2, r.3.is_some()))
                .collect()
        };
        out.problem(format!(
            "{what}: released packets differ on the same input \
             (channel, sf, start, crc_ok) only in first {:?}, only in second {:?}",
            only(&set_a, &set_b),
            only(&set_b, &set_a)
        ));
    }
}
