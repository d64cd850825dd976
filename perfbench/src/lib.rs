//! End-to-end and per-layer benchmark of the CIC receiver stack.
//!
//! One command (`cargo run --release --manifest-path perfbench/Cargo.toml
//! -- --workload <name> --seed <n> --seconds <s> --trace <0|1>`) runs one
//! of three workloads against the public API of `lora-gateway`, `cic`
//! and `lora-dsp`:
//!
//! * `gw_busy` — one wide gateway, closed loop under external lossless
//!   backpressure;
//! * `cluster_wide_paced` — a threaded two-shard cluster, open loop at a
//!   fixed offered rate;
//! * `batch_hybrid` — `CicReceiver::receive_hybrid` over whole captures.
//!
//! Inputs are generated from the seed before any clock starts, and every
//! decoded packet is scored against the frames actually transmitted
//! ([`truth`]). The untraced run prints the end-to-end metrics; the
//! traced run records spans around each layer's public functions
//! ([`spans`]) and prints the per-layer metrics of [`catalog`].

pub mod batch;
pub mod catalog;
pub mod outcome;
pub mod probe;
pub mod replay;
pub mod serving;
pub mod spans;
pub mod stats;
pub mod truth;
pub mod workload;
