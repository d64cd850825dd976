//! The gateway runtime: channelizer front end, per-(channel, SF) worker
//! pool, overload control plane, and the merged time-ordered packet
//! stream.
//!
//! Dataflow (one box per thread):
//!
//! ```text
//!                 ┌──────────── caller thread ────────────┐
//! wideband IQ ──▶ │ Gateway::push ─▶ Channelizer (D-fold) │
//!                 └──────┬───────────────┬────────────────┘
//!               channel 0│     channel 1 │        …
//!                  ┌─────┴─────┐   ┌─────┴─────┐
//!                  ▼           ▼   ▼           ▼
//!             [queue 0,SF7] [queue 0,SF9] …        bounded, drop-oldest
//!                  │           │                        ▲ depth gauges
//!                  ▼           ▼                        │
//!             worker thread  worker thread   ◀── policy thread
//!             (CIC decode)   (CIC decode)        (degradation ladder)
//!                  └─────┬─────┘
//!                        ▼
//!                  PacketSink  ─▶ time-ordered, deduplicated packets
//! ```
//!
//! Backpressure is layered ([`crate::load`]). `push` never blocks; when
//! decoders fall behind under [`OverloadPolicy::Adaptive`] the policy
//! thread first cuts decoder effort on hot workers
//! ([`cic::CicConfig::effort_rung`]), then sheds whole high-SF workers
//! (their chunks are discarded and counted, their watermarks keep
//! advancing), and only load the ladder cannot absorb reaches the
//! bounded queues' counted drop-oldest eviction — after which the worker
//! resynchronises across the gap with [`StreamingReceiver::seek_to`].
//! Recovery retraces the ladder upward under hysteresis.
//!
//! Liveness: a worker whose queue stays empty for
//! [`crate::load::OverloadConfig::idle_timeout`] has caught up with
//! everything channelized so far; it quiesces its receiver
//! ([`StreamingReceiver::quiesce`]) and publishes a caught-up watermark
//! at its full stream position, so a silent channel can never hold back
//! the release of other workers' already-decoded packets while the
//! producer pauses.

use std::sync::atomic::Ordering;
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use cic::{CicConfig, DecodedPacket, StreamingReceiver};
use lora_dsp::{Cf32, Channelizer, ChannelizerConfig};
use lora_phy::params::{CodeRate, LoraParams, ParamError};

use crate::load::{
    ControlAction, OverloadConfig, OverloadController, OverloadPolicy, WorkerControl, SHED_RUNG,
    SIC_RUNG,
};
use crate::queue::{Chunk, ChunkQueue, Pop};
use crate::sink::{GatewayPacket, PacketSink};
use crate::stats::{GatewaySnapshot, GatewayStats, WorkerStats};

/// Everything needed to stand up a gateway.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// The wideband → channel split.
    pub channelizer: ChannelizerConfig,
    /// Oversampling at the channel rate (channel bandwidth is
    /// `channel_rate / oversampling`).
    pub oversampling: usize,
    /// Spreading factors decoded on every channel (one worker each).
    pub sfs: Vec<u8>,
    /// Coding rate of the deployment.
    pub code_rate: CodeRate,
    /// Fixed payload length (implicit-header deployments).
    pub payload_len: usize,
    /// CIC decoder configuration shared by all workers (full-effort
    /// baseline; the overload ladder derives reduced-effort variants).
    pub cic: CicConfig,
    /// Bounded queue capacity per worker, in chunks.
    pub queue_capacity: usize,
    /// Overload policy and control-loop tuning.
    pub overload: OverloadConfig,
}

/// Typed rejection of an invalid [`GatewayConfig`], raised by
/// [`GatewayConfig::validate`] (and therefore by [`Gateway::new`]) before
/// any thread is spawned — instead of an `expect` deep inside a worker
/// constructor.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The channelizer plan has no channels.
    NoChannels,
    /// No spreading factors configured (no worker would exist).
    NoSpreadingFactors,
    /// A spreading factor appears more than once (duplicate workers
    /// would double-decode the same stream).
    DuplicateSpreadingFactor(u8),
    /// Per-worker queue capacity of zero chunks (no sample could ever be
    /// enqueued).
    ZeroQueueCapacity,
    /// The per-channel LoRa parameters derived from the channelizer
    /// layout and oversampling are invalid at this spreading factor.
    InvalidChannelParams {
        /// Offending spreading factor.
        sf: u8,
        /// Derived channel bandwidth (`channel_rate / oversampling`), Hz.
        bandwidth_hz: f64,
        /// Configured oversampling factor.
        oversampling: usize,
        /// The underlying parameter error.
        source: ParamError,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoChannels => write!(f, "channelizer plan has no channels"),
            ConfigError::NoSpreadingFactors => {
                write!(f, "need at least one spreading factor")
            }
            ConfigError::DuplicateSpreadingFactor(sf) => {
                write!(f, "spreading factor sf{sf} listed more than once")
            }
            ConfigError::ZeroQueueCapacity => {
                write!(f, "per-worker queue capacity must be at least one chunk")
            }
            ConfigError::InvalidChannelParams {
                sf,
                bandwidth_hz,
                oversampling,
                source,
            } => write!(
                f,
                "invalid channel parameters at sf{sf} \
                 (bandwidth {bandwidth_hz} Hz, oversampling {oversampling}): {source}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::InvalidChannelParams { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl GatewayConfig {
    /// LoRa parameters of one channel stream at spreading factor `sf`.
    ///
    /// # Panics
    /// If the configuration is invalid at `sf` — run
    /// [`GatewayConfig::validate`] first ([`Gateway::new`] does).
    pub fn channel_params(&self, sf: u8) -> LoraParams {
        self.try_channel_params(sf)
            .expect("gateway config holds valid parameters")
    }

    /// LoRa parameters of one channel stream at `sf`, or the typed
    /// validation error naming the offending parameters.
    pub fn try_channel_params(&self, sf: u8) -> Result<LoraParams, ConfigError> {
        let bw = self.channelizer.channel_rate_hz() / self.oversampling as f64;
        LoraParams::new(sf, bw, self.oversampling).map_err(|source| {
            ConfigError::InvalidChannelParams {
                sf,
                bandwidth_hz: bw,
                oversampling: self.oversampling,
                source,
            }
        })
    }

    /// Check every axis of the configuration up front, before any
    /// resource is allocated or thread spawned: channel plan, spreading
    /// factor set, queue sizing, and the derived per-channel LoRa
    /// parameters at every configured spreading factor.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.channelizer.n_channels() == 0 {
            return Err(ConfigError::NoChannels);
        }
        if self.sfs.is_empty() {
            return Err(ConfigError::NoSpreadingFactors);
        }
        for (i, &sf) in self.sfs.iter().enumerate() {
            if self.sfs[..i].contains(&sf) {
                return Err(ConfigError::DuplicateSpreadingFactor(sf));
            }
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        for &sf in &self.sfs {
            self.try_channel_params(sf)?;
        }
        Ok(())
    }

    /// The (channel, SF) pair handled by each worker, in worker order.
    pub fn workers(&self) -> Vec<(usize, u8)> {
        let mut v = Vec::with_capacity(self.channelizer.n_channels() * self.sfs.len());
        for channel in 0..self.channelizer.n_channels() {
            for &sf in &self.sfs {
                v.push((channel, sf));
            }
        }
        v
    }
}

/// Per-worker context moved onto the worker thread.
struct WorkerCtx {
    idx: usize,
    channel: usize,
    sf: u8,
    queue: Arc<ChunkQueue>,
    sink: Arc<PacketSink>,
    stats: Arc<GatewayStats>,
    wstats: Arc<WorkerStats>,
    control: Arc<WorkerControl>,
    /// Full-effort decoder configuration (rung 0 baseline).
    base_cic: CicConfig,
    /// How long an empty queue waits before the caught-up watermark.
    idle_timeout: std::time::Duration,
    /// Wideband samples per channel sample.
    decimation: u64,
    /// Channel-filter group delay in wideband samples.
    delay_wideband: u64,
}

impl WorkerCtx {
    /// Map a channel-stream sample index onto the wideband time base,
    /// correcting the filter group delay.
    fn to_wideband(&self, channel_sample: usize) -> u64 {
        (channel_sample as u64 * self.decimation).saturating_sub(self.delay_wideband)
    }

    /// Decoder configuration for one ladder rung. [`SIC_RUNG`] is the
    /// full base configuration (residual cancellation as configured);
    /// every ordinary effort rung — including full-effort rung 0 — runs
    /// with the SIC stage disabled, so the ladder alone decides when the
    /// gateway spends headroom on residual passes.
    fn config_for_rung(&self, rung: usize) -> CicConfig {
        if rung == SIC_RUNG {
            self.base_cic.clone()
        } else {
            let mut c = self.base_cic.effort_rung(rung);
            c.sic.depth = 0;
            c
        }
    }

    /// Count and forward freshly decoded packets to the sink.
    fn deliver(&self, packets: Vec<DecodedPacket>) {
        if packets.is_empty() {
            return;
        }
        let mut out = Vec::with_capacity(packets.len());
        for p in packets {
            if p.ok() {
                self.wstats.packets_decoded.fetch_add(1, Ordering::Relaxed);
            } else {
                self.wstats.crc_failures.fetch_add(1, Ordering::Relaxed);
            }
            out.push(GatewayPacket {
                channel: self.channel,
                sf: self.sf,
                start_wideband: self.to_wideband(p.detection.frame_start),
                packet: p,
            });
        }
        self.sink.report(out);
    }
}

fn worker_loop(ctx: WorkerCtx, mut sr: StreamingReceiver) {
    let holdback = sr.holdback();
    // The effort rung the receiver's config currently reflects.
    let mut applied_rung = 0usize;
    // `Some(t)` while shed: entry time, for `shed_micros`.
    let mut shed_since: Option<Instant> = None;
    loop {
        match ctx.queue.pop_timeout(ctx.idle_timeout) {
            Pop::Closed => break,
            Pop::Idle => {
                // Caught up with everything produced so far. Emit every
                // tracked packet whose frame is complete (this is not a
                // drain: partial frames are given up) and publish a
                // watermark at the *full* position: nothing we report
                // later can start before it, because the buffer is empty.
                if shed_since.is_none() {
                    let out = sr.quiesce();
                    ctx.deliver(out);
                    ctx.wstats.store_sic_report(&sr.sic_report());
                    ctx.sink
                        .set_watermark(ctx.idx, ctx.to_wideband(sr.position()));
                }
            }
            Pop::Chunk(chunk) => {
                if ctx.control.is_shed() {
                    if shed_since.is_none() {
                        // Entering shed: quiesce first so every packet the
                        // buffer still holds is emitted (or given up on)
                        // before the watermark runs ahead of the decode.
                        let out = sr.quiesce();
                        ctx.deliver(out);
                        shed_since = Some(Instant::now());
                    }
                    ctx.wstats.chunks_shed.fetch_add(1, Ordering::Relaxed);
                    ctx.wstats
                        .samples_shed
                        .fetch_add(chunk.samples.len() as u64, Ordering::Relaxed);
                    // The discarded span is gone for good; let the rest of
                    // the gateway release past it.
                    let end = chunk.start + chunk.samples.len();
                    ctx.sink.set_watermark(ctx.idx, ctx.to_wideband(end));
                    continue;
                }
                if let Some(t0) = shed_since.take() {
                    ctx.wstats
                        .shed_micros
                        .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
                }
                let rung = ctx.control.rung();
                if rung != applied_rung {
                    sr.set_config(ctx.config_for_rung(rung));
                    applied_rung = rung;
                }
                let mut decoded = Vec::new();
                // A start beyond our position means chunks were dropped or
                // shed: give up on anything straddling the gap and
                // resynchronise.
                if chunk.start > sr.position() {
                    decoded.extend(sr.seek_to(chunk.start));
                }
                let t0 = Instant::now();
                decoded.extend(sr.push(&chunk.samples));
                let dt = t0.elapsed();
                ctx.stats.decode.record(dt);
                ctx.wstats.record_decode_ewma(dt);
                ctx.deliver(decoded);
                ctx.wstats.store_sic_report(&sr.sic_report());
                let safe = sr.position().saturating_sub(holdback);
                ctx.sink.set_watermark(ctx.idx, ctx.to_wideband(safe));
            }
        }
    }
    if let Some(t0) = shed_since.take() {
        ctx.wstats
            .shed_micros
            .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
    }
    // Queue closed and drained: decode what the buffer still holds.
    let rest = sr.flush();
    ctx.deliver(rest);
    ctx.wstats.store_sic_report(&sr.sic_report());
    ctx.sink.finish_worker(ctx.idx);
}

/// Condvar-backed stop gate for the policy thread. The thread sleeps
/// between ticks on [`StopGate::wait_until`]; [`StopGate::stop`] wakes it
/// immediately, so shutdown latency is not quantised to the tick period.
struct StopGate {
    stopped: Mutex<bool>,
    cv: Condvar,
}

impl StopGate {
    fn new() -> Self {
        Self {
            stopped: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    /// Block until `deadline` or until [`StopGate::stop`] is called,
    /// whichever comes first. Returns `true` if the gate was stopped.
    fn wait_until(&self, deadline: Instant) -> bool {
        let mut stopped = self.stopped.lock().expect("stop gate poisoned");
        loop {
            if *stopped {
                return true;
            }
            let now = Instant::now();
            let Some(left) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                return false;
            };
            // Spurious wakes loop back around; the deadline re-check
            // above bounds the total wait.
            let (guard, _) = self
                .cv
                .wait_timeout(stopped, left)
                .expect("stop gate poisoned");
            stopped = guard;
        }
    }

    fn stop(&self) {
        *self.stopped.lock().expect("stop gate poisoned") = true;
        self.cv.notify_all();
    }
}

/// The control plane: samples the queue-depth gauges every tick, runs the
/// [`OverloadController`] ladder, and applies its transitions to the
/// per-worker [`WorkerControl`] mailboxes and telemetry.
fn policy_loop(
    cfg: OverloadConfig,
    worker_sfs: Vec<u8>,
    queue_capacity: usize,
    controls: Vec<Arc<WorkerControl>>,
    stats: Arc<GatewayStats>,
    wstats: Vec<Arc<WorkerStats>>,
    gate: Arc<StopGate>,
) {
    let tick = cfg.tick;
    let mut ctl = OverloadController::new(cfg, &worker_sfs);
    // Deadline-scheduled ticks: each iteration waits until `next` rather
    // than sleeping a fixed amount, so tick processing time does not
    // accumulate drift, and `stop` interrupts the wait instantly.
    let mut next = Instant::now() + tick;
    loop {
        if gate.wait_until(next) {
            return;
        }
        next = Instant::now() + tick;
        let depths: Vec<u64> = wstats
            .iter()
            .map(|w| w.queue_depth.load(Ordering::Relaxed))
            .collect();
        let decode_ewmas: Vec<u64> = wstats
            .iter()
            .map(|w| w.decode_ewma_ns.load(Ordering::Relaxed))
            .collect();
        for action in ctl.tick_with_decode(&depths, &decode_ewmas, queue_capacity) {
            match action {
                ControlAction::SetRung {
                    worker,
                    rung,
                    degrade,
                } => {
                    controls[worker].set_rung(rung);
                    wstats[worker]
                        .effort_rung
                        .store(rung as u64, Ordering::Relaxed);
                    stats.record_rung_engagement(rung);
                    let counter = if degrade {
                        &wstats[worker].degrade_events
                    } else {
                        &wstats[worker].restore_events
                    };
                    counter.fetch_add(1, Ordering::Relaxed);
                }
                ControlAction::Shed { workers, .. } => {
                    for w in workers {
                        controls[w].set_rung(SHED_RUNG);
                        wstats[w]
                            .effort_rung
                            .store(SHED_RUNG as u64, Ordering::Relaxed);
                        stats.record_rung_engagement(SHED_RUNG);
                        wstats[w].degrade_events.fetch_add(1, Ordering::Relaxed);
                    }
                }
                ControlAction::Restore { workers, .. } => {
                    for w in workers {
                        let rung = CicConfig::MAX_EFFORT_RUNG;
                        controls[w].set_rung(rung);
                        wstats[w].effort_rung.store(rung as u64, Ordering::Relaxed);
                        stats.record_rung_engagement(rung);
                        wstats[w].restore_events.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

/// A running multi-channel gateway. Feed wideband samples with
/// [`Gateway::push`] (any chunk sizes), collect merged packets with
/// [`Gateway::poll_packets`] or all at once from [`Gateway::finish`].
pub struct Gateway {
    channelizer: Channelizer,
    /// One queue per worker, in [`GatewayConfig::workers`] order.
    queues: Vec<Arc<ChunkQueue>>,
    /// Channel index of each worker.
    worker_channel: Vec<usize>,
    /// Per-worker control mailboxes (shared with the policy thread).
    controls: Vec<Arc<WorkerControl>>,
    handles: Vec<JoinHandle<()>>,
    policy_gate: Arc<StopGate>,
    policy_handle: Option<JoinHandle<()>>,
    sink: Arc<PacketSink>,
    stats: Arc<GatewayStats>,
    /// Channel-stream samples produced so far, per channel.
    produced: Vec<usize>,
    /// Deepest below-watermark reach of the release stream, wideband
    /// samples (largest worker receiver holdback).
    release_slack: u64,
}

impl Gateway {
    /// Validate the configuration, spawn the worker pool (and, under the
    /// adaptive policy, the control thread) and return a ready gateway.
    /// An invalid configuration is rejected here with a typed
    /// [`ConfigError`] naming the offending parameters — no thread is
    /// spawned and nothing panics.
    pub fn new(mut config: GatewayConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        // Under the adaptive ladder, a configured SIC stage becomes the
        // boost rung: workers start without it and earn it through
        // recovery steps, so residual passes only ever run with headroom.
        // (Under drop-oldest there is no controller, so the base config —
        // SIC included — applies unconditionally.)
        let adaptive = config.overload.policy == OverloadPolicy::Adaptive;
        if adaptive && config.cic.sic.enabled() {
            config.overload.sic_boost = true;
        }
        let workers = config.workers();
        let stats = Arc::new(GatewayStats::new(&workers));
        let channelizer = Channelizer::new(config.channelizer.clone());
        let decimation = config.channelizer.decimation as u64;
        let delay_wideband = channelizer.group_delay_wideband() as u64;
        let max_sf = *config.sfs.iter().max().expect("validated: non-empty sfs");

        // Build every receiver before the sink: a worker's reports can
        // legitimately reach its receiver holdback behind its watermark
        // (SIC residual passes re-read that much buffered history), so
        // the sink's duplicate window must retain releases over the
        // largest holdback of any worker.
        let receivers: Vec<StreamingReceiver> = workers
            .iter()
            .map(|&(_, sf)| {
                let initial_cic = if adaptive {
                    // Workers start at rung 0: full effort, no SIC boost.
                    let mut c = config.cic.clone();
                    c.sic.depth = 0;
                    c
                } else {
                    config.cic.clone()
                };
                StreamingReceiver::new(
                    config.channel_params(sf),
                    config.code_rate,
                    config.payload_len,
                    initial_cic,
                )
            })
            .collect();
        let release_slack = receivers
            .iter()
            .map(|sr| sr.holdback() as u64 * decimation)
            .max()
            .unwrap_or(0);
        let sink = Arc::new(PacketSink::new(
            workers.len(),
            config.oversampling * config.channelizer.decimation,
            max_sf,
            release_slack,
            stats.clone(),
        ));

        let mut queues = Vec::with_capacity(workers.len());
        let mut worker_channel = Vec::with_capacity(workers.len());
        let mut controls = Vec::with_capacity(workers.len());
        let mut handles = Vec::with_capacity(workers.len());
        for ((idx, &(channel, sf)), sr) in workers.iter().enumerate().zip(receivers) {
            let wstats = stats.worker(idx);
            let queue = Arc::new(ChunkQueue::new(config.queue_capacity, wstats.clone()));
            let control = Arc::new(WorkerControl::new());
            let ctx = WorkerCtx {
                idx,
                channel,
                sf,
                queue: queue.clone(),
                sink: sink.clone(),
                stats: stats.clone(),
                wstats,
                control: control.clone(),
                base_cic: config.cic.clone(),
                idle_timeout: config.overload.idle_timeout,
                decimation,
                delay_wideband,
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("gw-ch{channel}-sf{sf}"))
                    .spawn(move || worker_loop(ctx, sr))
                    .expect("spawn gateway worker"),
            );
            queues.push(queue);
            worker_channel.push(channel);
            controls.push(control);
        }

        let policy_gate = Arc::new(StopGate::new());
        let policy_handle = if config.overload.policy == OverloadPolicy::Adaptive {
            let worker_sfs: Vec<u8> = workers.iter().map(|&(_, sf)| sf).collect();
            let wstats: Vec<Arc<WorkerStats>> =
                (0..workers.len()).map(|i| stats.worker(i)).collect();
            let cfg = config.overload.clone();
            let capacity = config.queue_capacity;
            let ctrls = controls.clone();
            let gstats = stats.clone();
            let gate = policy_gate.clone();
            Some(
                std::thread::Builder::new()
                    .name("gw-policy".into())
                    .spawn(move || {
                        policy_loop(cfg, worker_sfs, capacity, ctrls, gstats, wstats, gate)
                    })
                    .expect("spawn gateway policy thread"),
            )
        } else {
            None
        };

        Ok(Self {
            channelizer,
            queues,
            worker_channel,
            controls,
            handles,
            policy_gate,
            policy_handle,
            sink,
            stats,
            produced: vec![0; config.channelizer.n_channels()],
            release_slack,
        })
    }

    /// Feed a chunk of wideband samples. Never blocks: overload is
    /// absorbed by the degradation ladder and, at the last resort, the
    /// counted drop-oldest queues.
    pub fn push(&mut self, samples: &[Cf32]) {
        self.stats
            .samples_in
            .fetch_add(samples.len() as u64, Ordering::Relaxed);
        self.stats.chunks_in.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let outs = self.channelizer.process(samples);
        self.stats.channelize.record(t0.elapsed());
        self.dispatch(outs);
    }

    /// Fan channelizer output out to every worker of its channel.
    fn dispatch(&mut self, outs: Vec<Vec<Cf32>>) {
        for (channel, out) in outs.into_iter().enumerate() {
            if out.is_empty() {
                continue;
            }
            let start = self.produced[channel];
            self.produced[channel] += out.len();
            let shared = Arc::new(out);
            for (idx, queue) in self.queues.iter().enumerate() {
                if self.worker_channel[idx] == channel {
                    queue.push(Chunk {
                        start,
                        samples: shared.clone(),
                    });
                }
            }
        }
    }

    /// Packets released by the sink since the last call, time-ordered.
    pub fn poll_packets(&self) -> Vec<GatewayPacket> {
        self.sink.take_released()
    }

    /// Attach the gateway's single non-blocking packet subscription:
    /// released packets are forwarded into a bounded channel the moment
    /// the sink releases them, so consumers block on `recv` instead of
    /// spinning on [`Gateway::poll_packets`]. Delivery preserves the
    /// sink's release order (non-decreasing `start_wideband`, modulo
    /// late SIC-recovered packets). If the consumer falls more than
    /// `capacity` packets behind, the surplus waits in the sink backlog
    /// and is flushed — still in order — on subsequent releases or by
    /// [`Gateway::finish`]. Panics if a subscription is already
    /// attached.
    pub fn subscribe(&self, capacity: usize) -> Receiver<GatewayPacket> {
        self.sink.subscribe(capacity)
    }

    /// Live telemetry handle (snapshot-readable at any time).
    pub fn stats(&self) -> Arc<GatewayStats> {
        self.stats.clone()
    }

    /// The sink's current release horizon, wideband samples: this
    /// gateway's released stream is complete below it. A cluster's
    /// global watermark is the minimum of these across shards.
    pub fn release_horizon(&self) -> u64 {
        self.sink.horizon()
    }

    /// Deepest legitimate below-watermark reach of the release stream,
    /// wideband samples — the largest worker receiver holdback. Sizes
    /// the cross-gateway duplicate window at the cluster merge tier.
    pub fn release_slack(&self) -> u64 {
        self.release_slack
    }

    /// End of stream: stop the control plane, restore every worker to
    /// full effort so the drain decodes the backlog instead of shedding
    /// it, flush the channelizer's group-delay tail to the workers (a
    /// packet ending at capture end keeps its final symbols), close all
    /// queues, wait for every worker to drain and flush, and return the
    /// remaining merged packets (everything since the last
    /// [`Gateway::poll_packets`] call) plus a final telemetry snapshot.
    pub fn finish(mut self) -> (Vec<GatewayPacket>, GatewaySnapshot) {
        self.policy_gate.stop();
        if let Some(h) = self.policy_handle.take() {
            h.join().expect("gateway policy thread panicked");
        }
        for c in &self.controls {
            // Shed and degraded workers come back to full effort; a
            // granted SIC boost stays — only heat revokes it, and with
            // the stream ended there is no load left to protect.
            if c.rung() != SIC_RUNG {
                c.set_rung(0);
            }
        }
        let t0 = Instant::now();
        let tail = self.channelizer.flush();
        self.stats.channelize.record(t0.elapsed());
        self.dispatch(tail);
        for q in &self.queues {
            q.close();
        }
        for h in std::mem::take(&mut self.handles) {
            h.join().expect("gateway worker panicked");
        }
        let packets = self.sink.take_released();
        (packets, self.stats.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> GatewayConfig {
        GatewayConfig {
            channelizer: ChannelizerConfig::uniform(4, 250e3, 500e3, 1e6, 4),
            oversampling: 4,
            sfs: vec![7, 9],
            code_rate: CodeRate::Cr45,
            payload_len: 16,
            cic: CicConfig::default(),
            queue_capacity: 64,
            overload: OverloadConfig::default(),
        }
    }

    #[test]
    fn worker_layout_covers_channels_times_sfs() {
        let w = config().workers();
        assert_eq!(w.len(), 8);
        assert_eq!(w[0], (0, 7));
        assert_eq!(w[1], (0, 9));
        assert_eq!(w[7], (3, 9));
    }

    #[test]
    fn channel_params_recover_bandwidth() {
        let p = config().channel_params(7);
        assert_eq!(p.samples_per_symbol(), 128 * 4);
        assert!((p.bandwidth_hz() - 250e3).abs() < 1e-6);
    }

    #[test]
    fn empty_stream_finishes_cleanly() {
        let gw = Gateway::new(config()).expect("valid config");
        let (packets, snap) = gw.finish();
        assert!(packets.is_empty());
        assert_eq!(snap.samples_in, 0);
        assert_eq!(snap.packets_decoded, 0);
        assert_eq!(snap.chunks_dropped, 0);
    }

    #[test]
    fn silence_produces_no_packets_but_counts_samples() {
        let mut gw = Gateway::new(config()).expect("valid config");
        for _ in 0..8 {
            gw.push(&vec![Cf32::new(0.0, 0.0); 4096]);
        }
        let (packets, snap) = gw.finish();
        assert!(packets.is_empty());
        assert_eq!(snap.samples_in, 8 * 4096);
        assert_eq!(snap.chunks_in, 8);
        // 8 pushes plus the group-delay flush pass in `finish`.
        assert!(snap.channelize.count == 9);
        assert!(snap.decode.count > 0);
    }

    #[test]
    fn idle_system_never_degrades() {
        // Silence at nominal rate: the adaptive policy must not touch
        // anything.
        let mut cfg = config();
        cfg.overload.tick = std::time::Duration::from_millis(1);
        let mut gw = Gateway::new(cfg).expect("valid config");
        let rx = gw.subscribe(16);
        for _ in 0..4 {
            gw.push(&vec![Cf32::new(0.0, 0.0); 4096]);
            // Block on the subscription instead of sleep-polling: silence
            // never yields a packet, so each bounded wait just gives the
            // policy thread a few ticks of observed idleness.
            assert!(rx
                .recv_timeout(std::time::Duration::from_millis(5))
                .is_err());
        }
        let (_, snap) = gw.finish();
        assert_eq!(snap.degrade_events, 0);
        assert_eq!(snap.chunks_shed, 0);
        assert!(snap.workers.iter().all(|w| w.effort_rung == 0));
    }

    #[test]
    fn fully_shed_gateway_stays_live_and_finishes() {
        // Every worker forced to the shed rung: chunks are discarded and
        // counted, watermarks keep advancing, and `finish` must return
        // instead of stalling (or panicking in the sink horizon).
        let mut cfg = config();
        cfg.overload.policy = OverloadPolicy::DropOldest; // no controller to un-shed
        let mut gw = Gateway::new(cfg).expect("valid config");
        for c in &gw.controls {
            c.set_rung(SHED_RUNG);
        }
        for _ in 0..8 {
            gw.push(&vec![Cf32::new(0.0, 0.0); 4096]);
        }
        let (packets, snap) = gw.finish();
        assert!(packets.is_empty());
        assert!(snap.chunks_shed > 0, "shed rung must have engaged");
    }

    #[test]
    fn finish_is_not_quantised_to_the_policy_tick() {
        // A huge policy tick used to pin shutdown for a full sleep; the
        // condvar gate wakes the policy thread immediately.
        let mut cfg = config();
        cfg.overload.tick = std::time::Duration::from_secs(60);
        let gw = Gateway::new(cfg).expect("valid config");
        let t0 = Instant::now();
        let (_, _) = gw.finish();
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "finish must interrupt the policy tick wait"
        );
    }

    // Regression (one test per invalid axis): `Gateway::new` used to
    // `assert!` only the SF list and hit
    // `LoraParams::new(..).expect(..)` per worker at spawn time for
    // everything else — an opaque panic deep in a constructor instead of
    // a typed error naming the offending parameters.

    #[test]
    fn validate_rejects_sf_below_range() {
        let mut cfg = config();
        cfg.sfs = vec![6, 9];
        match Gateway::new(cfg) {
            Err(ConfigError::InvalidChannelParams { sf: 6, source, .. }) => {
                assert_eq!(source, ParamError::InvalidSpreadingFactor(6));
            }
            Err(other) => panic!("want InvalidChannelParams at sf6, got {other:?}"),
            Ok(_) => panic!("invalid sf6 config must be rejected"),
        }
    }

    #[test]
    fn validate_rejects_sf_above_range() {
        let mut cfg = config();
        cfg.sfs = vec![7, 13];
        let err = cfg.validate().unwrap_err();
        assert!(
            matches!(
                err,
                ConfigError::InvalidChannelParams {
                    sf: 13,
                    source: ParamError::InvalidSpreadingFactor(13),
                    ..
                }
            ),
            "got {err:?}"
        );
        // The error names the offending parameter in its message.
        assert!(err.to_string().contains("sf13"), "{err}");
    }

    #[test]
    fn validate_rejects_zero_oversampling() {
        let mut cfg = config();
        cfg.oversampling = 0;
        let err = cfg.validate().unwrap_err();
        assert!(
            matches!(
                err,
                ConfigError::InvalidChannelParams {
                    source: ParamError::ZeroOversampling,
                    oversampling: 0,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn validate_rejects_nonpositive_bandwidth() {
        // A hand-built channelizer layout with a zero wideband rate
        // derives a zero channel bandwidth.
        let mut cfg = config();
        cfg.channelizer.wideband_rate_hz = 0.0;
        let err = cfg.validate().unwrap_err();
        assert!(
            matches!(
                err,
                ConfigError::InvalidChannelParams {
                    source: ParamError::InvalidBandwidth,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn validate_rejects_degenerate_layouts() {
        let mut cfg = config();
        cfg.sfs = vec![];
        assert_eq!(cfg.validate(), Err(ConfigError::NoSpreadingFactors));

        let mut cfg = config();
        cfg.sfs = vec![7, 9, 7];
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::DuplicateSpreadingFactor(7))
        );

        let mut cfg = config();
        cfg.channelizer.offsets_hz.clear();
        assert_eq!(cfg.validate(), Err(ConfigError::NoChannels));

        let mut cfg = config();
        cfg.queue_capacity = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroQueueCapacity));

        assert!(config().validate().is_ok());
    }
}
