//! # li-bench — the paper's evaluation harness
//!
//! One module per table/figure of *"Cutting Learned Index into Pieces"*
//! (ICDE 2023) and per CI gate (`torture`, `recovery`, `serve_load`,
//! `bg_retrain`); each has a `run` entry point, and the
//! crate's one binary, `li-bench <name>|all [flags]`, dispatches over
//! [`figs::FIGS`]. Flags, latency samples and the gates' JSON report are
//! [`harness`]'s.
//!
//! Dataset sizes are scaled from the paper's 200M–800M down to a default
//! of 200k–800k (set `LIP_BENCH_N` to change the base size); value size
//! (200 B), workload mixes, thread counts and every qualitative knob
//! match the paper. Shapes — who wins, by what factor, where crossovers
//! sit — are the reproduction target, not absolute numbers (see
//! EXPERIMENTS.md).

pub mod figs;
pub mod harness;

pub use harness::BenchConfig;
