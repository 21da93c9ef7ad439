//! The four workloads. Each stresses different layers, and for each layer
//! a change may target there is one workload that exercises it and one
//! that passes it by (see `perf/README.md` for the table).

pub mod store_mixed;
pub mod store_read;
pub mod wire;
