//! The repository benchmark: end-to-end and per-layer metrics of the
//! Bulk reproduction on three workloads (sim, OS threads, bulkd jobs).
//! See `perfbench/README.md`.

pub mod bench;
pub mod inputs;
pub mod jobs;
pub mod replay;
pub mod report;
pub mod units;
