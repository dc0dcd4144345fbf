//! End-to-end and per-layer benchmark of the `osd` library.
//!
//! `osd-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! generates the workload's inputs from the seed, drives the library's
//! public API the way a user does, checks every answer, and prints each
//! metric by name and unit. Its last line of output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
//! metrics when `--trace 0` and the per-layer metrics when `--trace 1`.

pub mod gen;
pub mod report;
pub mod session;
pub mod stats;
pub mod trace;
pub mod workload;
