//! Command-line entry point; see the library docs.

use std::process::ExitCode;

use cic_perfbench::catalog::PER_LAYER;
use cic_perfbench::spans::SpanRecorder;
use cic_perfbench::workload::{self, RunOpts, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "error: {msg}\n\
         usage: cic-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => match value.parse::<u64>() {
                Ok(v) => seed = Some(v),
                Err(_) => return usage("--seed needs a non-negative integer"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v.is_finite() => seconds = Some(v),
                _ => return usage("--seconds needs a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return usage("--trace must be 0 or 1"),
            },
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    let opts = RunOpts {
        seed,
        seconds,
        trace,
    };
    let mut rec = SpanRecorder::new(trace);
    let Some(outcome) = workload::run(&workload, opts, &mut rec) else {
        return usage(&format!("unknown workload {workload}"));
    };

    for line in &outcome.notes {
        println!("# {line}");
    }
    if trace {
        for d in PER_LAYER {
            println!("# {} should move: {}", d.name, d.moves);
        }
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{workload}-seed{seed}.json");
        match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, rec.to_json())) {
            Ok(()) => println!("# {} spans written to {path}", rec.spans().len()),
            Err(e) => println!("# spans not written ({path}): {e}"),
        }
    }
    for p in &outcome.problems {
        println!("# INCORRECT: {p}");
    }
    println!("{}", outcome.result_json(trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
