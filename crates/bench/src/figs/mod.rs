//! One module per reproduced table/figure and per CI gate, and the table
//! `li-bench` dispatches over.

use crate::harness::{BenchConfig, Flags};

pub mod ablation;
pub mod bg_retrain;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod hyper;
pub mod recovery;
pub mod scale;
pub mod scan;
pub mod serve_load;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod torture;

/// One runnable entry of `li-bench`.
pub struct Fig {
    pub name: &'static str,
    pub run: Run,
    /// Whether `li-bench all` includes it. The shard-count sweep and the
    /// gates are beyond the paper's evaluation and run by name only.
    pub in_all: bool,
}

#[derive(Clone, Copy)]
pub enum Run {
    /// A table/figure reproduction: prints its tables; takes no flags
    /// beyond `--telemetry`.
    Figure(fn(&BenchConfig)),
    /// A CI gate: reads its own flags, checks them with
    /// [`Flags::finish`] before measuring anything (`Err` is the usage
    /// message, exit 2), and returns the process exit code — 1 when its
    /// oracle or its `--check` condition failed.
    Gate(fn(&BenchConfig, &mut Flags) -> Result<u8, String>),
}

/// Every entry; the figures in the order `li-bench all` runs them — the
/// order `results/run_all.txt` is captured in.
pub const FIGS: [Fig; 20] = [
    Fig { name: "table1", run: Run::Figure(table1::run), in_all: true },
    Fig { name: "fig10", run: Run::Figure(fig10::run), in_all: true },
    Fig { name: "fig11", run: Run::Figure(fig11::run), in_all: true },
    Fig { name: "fig12", run: Run::Figure(fig12::run), in_all: true },
    Fig { name: "fig13", run: Run::Figure(fig13::run), in_all: true },
    Fig { name: "fig14", run: Run::Figure(fig14::run), in_all: true },
    Fig { name: "fig15", run: Run::Figure(fig15::run), in_all: true },
    Fig { name: "table2", run: Run::Figure(table2::run), in_all: true },
    Fig { name: "table3", run: Run::Figure(table3::run), in_all: true },
    Fig { name: "fig16", run: Run::Figure(fig16::run), in_all: true },
    Fig { name: "fig17", run: Run::Figure(fig17::run), in_all: true },
    Fig { name: "fig18", run: Run::Figure(fig18::run), in_all: true },
    Fig { name: "hyper", run: Run::Figure(hyper::run), in_all: true },
    Fig { name: "scan", run: Run::Figure(scan::run), in_all: true },
    Fig { name: "ablation", run: Run::Figure(ablation::run), in_all: true },
    Fig { name: "scale", run: Run::Figure(scale::run), in_all: false },
    Fig { name: "torture", run: Run::Gate(torture::run), in_all: false },
    Fig { name: "recovery", run: Run::Gate(recovery::run), in_all: false },
    Fig { name: "bg_retrain", run: Run::Gate(bg_retrain::run), in_all: false },
    Fig { name: "serve_load", run: Run::Gate(serve_load::run), in_all: false },
];
