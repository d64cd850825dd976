//! Self-tests of the benchmark's own machinery: truth matching,
//! percentile choice, span arithmetic, procfs parsing, the result line,
//! the catalog against `BENCHMARK.json`, and short lossless runs of the
//! gateway workloads.

use cic_perfbench::catalog::{END_TO_END, PER_LAYER};
use cic_perfbench::outcome::Outcome;
use cic_perfbench::probe::{parse_cpu_seconds, parse_vm_kb};
use cic_perfbench::spans::{self_times_ns, Span};
use cic_perfbench::stats::{percentile, samples_beyond, tail_percentile};
use cic_perfbench::truth::{TruthFrame, TruthMatcher};
use cic_perfbench::workload::{self, RunOpts, WORKLOADS};

fn frame(channel: usize, sf: u8, start: u64, payload: &[u8]) -> TruthFrame {
    TruthFrame {
        channel,
        sf,
        start,
        end: start + 1000,
        payload: payload.to_vec(),
    }
}

#[test]
fn truth_matcher_claims_each_frame_once() {
    let mut m = TruthMatcher::new(vec![frame(0, 7, 1000, b"abc")], 10);
    assert_eq!(m.claim(0, 7, 1003, b"abc"), Some(0));
    // The same transmission released a second time is a false packet.
    assert_eq!(m.claim(0, 7, 1000, b"abc"), None);
    assert_eq!((m.offered(), m.delivered(), m.false_pkts()), (1, 1, 1));
    // A transmitted payload that claims no frame is misattributed; one
    // nobody sent is only a false positive.
    assert_eq!(m.misattributed(), 1);
    assert_eq!(m.claim(0, 7, 1000, b"zzz"), None);
    assert_eq!((m.false_pkts(), m.misattributed()), (2, 1));
}

#[test]
fn truth_matcher_tolerance_edges_and_key() {
    let frames = vec![frame(1, 9, 5000, b"xy"), frame(1, 9, 9000, b"xy")];
    let mut m = TruthMatcher::new(frames, 100);
    // Exactly at the tolerance matches; one sample beyond does not.
    assert_eq!(m.claim(1, 9, 5100, b"xy"), Some(0));
    assert_eq!(m.claim(1, 9, 8899, b"xy"), None);
    assert_eq!(m.claim(1, 9, 8900, b"xy"), Some(1));
    let mut m = TruthMatcher::new(vec![frame(1, 9, 5000, b"xy")], 100);
    // Channel, SF and payload are all part of the key.
    assert_eq!(m.claim(0, 9, 5000, b"xy"), None);
    assert_eq!(m.claim(1, 7, 5000, b"xy"), None);
    assert_eq!(m.claim(1, 9, 5000, b"xz"), None);
    assert_eq!(m.delivered(), 0);
    assert_eq!(m.false_pkts(), 3);
    assert_eq!(m.misattributed(), 0);
}

#[test]
fn truth_matcher_prefers_the_nearest_unclaimed_frame() {
    let frames = vec![frame(0, 7, 1000, b"p"), frame(0, 7, 1040, b"p")];
    let mut m = TruthMatcher::new(frames, 50);
    assert_eq!(m.claim(0, 7, 1030, b"p"), Some(1));
    assert_eq!(m.claim(0, 7, 1030, b"p"), Some(0));
    assert_eq!(m.claim(0, 7, 1030, b"p"), None);
}

#[test]
fn tail_percentile_needs_ten_samples_beyond() {
    assert_eq!(tail_percentile(0), None);
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(99), Some(50.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(999), Some(90.0));
    assert_eq!(tail_percentile(1000), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    assert_eq!(samples_beyond(90.0, 100), 10);
    assert_eq!(samples_beyond(90.0, 99), 9);
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), Some(50.0));
    assert_eq!(percentile(&v, 90.0), Some(90.0));
    assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
    assert_eq!(percentile(&[], 50.0), None);
}

fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name: "s",
        start_ns,
        end_ns,
        parent,
        chunk: None,
    }
}

#[test]
fn self_time_subtracts_children_once() {
    let spans = vec![
        span(0, 100, None),     // 0: root
        span(10, 40, Some(0)),  // 1: child of root
        span(30, 60, Some(0)),  // 2: overlaps child 1
        span(15, 25, Some(1)),  // 3: grandchild
        span(90, 120, Some(0)), // 4: runs past the root's end
    ];
    // Root: 100 - union([10,60], [90,100]) = 100 - 60.
    // Child 1: 30 - 10. Child 2: 30. Grandchild: 10. Child 4: 30.
    assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 10, 30]);
}

#[test]
fn procfs_parsing() {
    // A command name holding spaces and parentheses.
    let stat = "4242 (a (b) c) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1";
    assert_eq!(parse_cpu_seconds(stat), Some(3.0));
    assert_eq!(parse_cpu_seconds("garbage"), None);
    let status = "Name:\tx\nVmHWM:\t  2048 kB\nVmRSS:\t  1024 kB\n";
    assert_eq!(parse_vm_kb(status, "VmRSS"), Some(1024));
    assert_eq!(parse_vm_kb(status, "VmHWM"), Some(2048));
    assert_eq!(parse_vm_kb(status, "VmPeak"), None);
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let mut out = Outcome::default();
    for d in END_TO_END {
        out.set(d.name, 1.5);
    }
    out.attempted = 3;
    let line = out.result_json(false);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    for d in END_TO_END {
        assert!(line.contains(&format!(
            "\"{}\": {{\"value\": 1.5, \"unit\": \"{}\"}}",
            d.name, d.unit
        )));
    }
    out.problem("decode sets differ");
    assert!(out.result_json(false).starts_with("{\"correct\": false"));
}

#[test]
fn catalog_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let line = json
            .lines()
            .find(|l| l.contains(&format!("\"name\": \"{}\"", d.name)))
            .unwrap_or_else(|| panic!("{} missing from BENCHMARK.json", d.name));
        assert!(
            line.contains(&format!("\"unit\": \"{}\"", d.unit)),
            "{line}"
        );
    }
    for w in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
    }
    let metric_entries = json.matches("\"better\":").count();
    assert_eq!(metric_entries, END_TO_END.len() + PER_LAYER.len());
}

/// A short run of a gateway workload must finish lossless and correct:
/// external backpressure leaves no chunk dropped or shed, and every
/// pass releases the same packets.
fn short_lossless_run(name: &str) {
    let opts = RunOpts {
        seed: 3,
        // Long enough for the pooled release latencies to hold at least
        // ten samples beyond p90.
        seconds: 8.0,
        trace: false,
    };
    let mut rec = cic_perfbench::spans::SpanRecorder::new(false);
    let out = workload::run(name, opts, &mut rec).expect("known workload");
    assert_eq!(out.failed, 0, "{name}: dropped or shed chunks");
    assert!(out.problems.is_empty(), "{name}: {:?}", out.problems);
    assert!(out.correct());
    assert!(out.get("pdr").expect("pdr") > 0.0);
}

#[test]
fn gw_busy_short_run_is_lossless() {
    short_lossless_run("gw_busy");
}

#[test]
fn cluster_wide_paced_short_run_is_lossless() {
    short_lossless_run("cluster_wide_paced");
}
