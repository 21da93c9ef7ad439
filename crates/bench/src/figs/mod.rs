//! One module per reproduced table/figure, and the table `li-bench`
//! dispatches over.

use crate::BenchConfig;

pub mod ablation;
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
pub mod scale;
pub mod scan;
pub mod table1;
pub mod table2;
pub mod table3;

/// One runnable reproduction.
pub struct Fig {
    pub name: &'static str,
    pub run: fn(&BenchConfig),
    /// Whether `li-bench all` includes it. The shard-count sweep is
    /// beyond the paper's evaluation and runs by name only.
    pub in_all: bool,
}

/// Every reproduction, in the order `li-bench all` runs them — the order
/// `results/run_all.txt` is captured in.
pub const FIGS: [Fig; 16] = [
    Fig { name: "table1", run: table1::run, in_all: true },
    Fig { name: "fig10", run: fig10::run, in_all: true },
    Fig { name: "fig11", run: fig11::run, in_all: true },
    Fig { name: "fig12", run: fig12::run, in_all: true },
    Fig { name: "fig13", run: fig13::run, in_all: true },
    Fig { name: "fig14", run: fig14::run, in_all: true },
    Fig { name: "fig15", run: fig15::run, in_all: true },
    Fig { name: "table2", run: table2::run, in_all: true },
    Fig { name: "table3", run: table3::run, in_all: true },
    Fig { name: "fig16", run: fig16::run, in_all: true },
    Fig { name: "fig17", run: fig17::run, in_all: true },
    Fig { name: "fig18", run: fig18::run, in_all: true },
    Fig { name: "hyper", run: hyper::run, in_all: true },
    Fig { name: "scan", run: scan::run, in_all: true },
    Fig { name: "ablation", run: ablation::run, in_all: true },
    Fig { name: "scale", run: scale::run, in_all: false },
];
