//! Every metric the benchmark reports, with its unit and — for the
//! per-layer metrics — the end-to-end metric and workload it should move.
//!
//! `BENCHMARK.json` lists the same names and units; the self-tests check
//! that the two agree. The pairing column is what later performance
//! changes cite: a change to one layer predicts a move in the named
//! end-to-end metric on the named workload, and no move elsewhere.

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// End-to-end metric(s) @ workload(s) this one should move (empty
    /// for end-to-end metrics).
    pub moves: &'static str,
}

const fn m(name: &'static str, unit: &'static str, moves: &'static str) -> MetricDef {
    MetricDef { name, unit, moves }
}

/// Metrics of the untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("x_realtime", "air-s/wall-s", ""),
    m("cpu_per_air_s", "cpu-s/air-s", ""),
    m("pdr", "ratio", ""),
    m("release_ms_p50", "ms", ""),
    m("release_ms_p90", "ms", ""),
    m("setup_s", "s", ""),
    m("rss_mb", "MB", ""),
];

/// Metrics of the traced run (`--trace 1`). A layer that is not on a
/// workload's path reports 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    m(
        "channelizer.busy_s",
        "s",
        "cpu_per_air_s, release_ms_* @ cluster_wide_paced; no move @ gw_busy",
    ),
    m(
        "channelizer.msps",
        "Msps",
        "cpu_per_air_s, release_ms_* @ cluster_wide_paced; no move @ gw_busy",
    ),
    m(
        "stream.push_busy_s",
        "s",
        "x_realtime @ gw_busy; cpu_per_air_s, release_ms_* @ cluster_wide_paced",
    ),
    m(
        "stream.push_p99_us",
        "us",
        "x_realtime @ gw_busy; release_ms_p90 @ cluster_wide_paced",
    ),
    m(
        "stream.redecode_ratio",
        "ratio",
        "x_realtime @ gw_busy; cpu_per_air_s @ cluster_wide_paced",
    ),
    m(
        "detect.busy_s",
        "s",
        "x_realtime @ gw_busy, batch_hybrid; cpu_per_air_s @ cluster_wide_paced",
    ),
    m("detect.detections", "count", "pdr @ all workloads"),
    m("demod.busy_s", "s", "x_realtime @ gw_busy, batch_hybrid"),
    m(
        "demod.ok_ratio",
        "ratio",
        "x_realtime @ gw_busy, batch_hybrid",
    ),
    m("sic.busy_s", "s", "x_realtime @ batch_hybrid only"),
    m("sic.recovered", "count", "pdr @ batch_hybrid only"),
    m("sic.abandoned", "count", "pdr @ batch_hybrid only"),
    m(
        "sic.ref_cache_hit_ratio",
        "ratio",
        "x_realtime @ batch_hybrid only",
    ),
    m("queue.bp_wait_s", "s", "x_realtime @ gw_busy"),
    m(
        "queue.depth_hwm",
        "chunks",
        "release_ms_* @ gw_busy, cluster_wide_paced",
    ),
    m(
        "queue.chunks_dropped",
        "count",
        "must stay 0 @ gw_busy, cluster_wide_paced",
    ),
    m(
        "queue.chunks_shed",
        "count",
        "must stay 0 @ gw_busy, cluster_wide_paced",
    ),
    m(
        "sink.packets_released",
        "count",
        "pdr @ gw_busy, cluster_wide_paced",
    ),
    m(
        "sink.duplicates_suppressed",
        "count",
        "pdr @ gw_busy, cluster_wide_paced",
    ),
    m(
        "cluster.packets_merged",
        "count",
        "pdr @ cluster_wide_paced",
    ),
    m(
        "cluster.cross_gateway_duplicates",
        "count",
        "pdr @ cluster_wide_paced",
    ),
    m(
        "cluster.watermark_lag_ms",
        "ms",
        "release_ms_* @ cluster_wide_paced (gw_busy: gateway release horizon)",
    ),
    m(
        "gateway.decode_calls",
        "count",
        "context for cpu_per_air_s @ gw_busy, cluster_wide_paced",
    ),
    m(
        "gateway.decode_p99_us",
        "us",
        "context for release_ms_p90 @ gw_busy, cluster_wide_paced",
    ),
    m(
        "gen.late_ms_max",
        "ms",
        "validity of cluster_wide_paced (open loop must run on schedule)",
    ),
    m(
        "release.samples",
        "count",
        "sample count behind release_ms_* @ all workloads",
    ),
    m(
        "release.tail_pct",
        "pct",
        "highest percentile with >= 10 release samples beyond it",
    ),
    m(
        "truth.false_pkts",
        "count",
        "CRC-clean outputs matching no transmitted frame @ all workloads",
    ),
    m(
        "trace.overhead_pct",
        "pct",
        "traced pass wall vs untraced pass wall",
    ),
    m(
        "trace.unaccounted_pct",
        "pct",
        "share of traced wall time no layer span covers",
    ),
];
