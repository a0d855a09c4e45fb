//! The repo benchmark's harness. See README.md.

pub mod calib;
pub mod host;
pub mod json;
pub mod layers;
pub mod oracle;
pub mod probes;
pub mod run;
pub mod sets;
pub mod spans;
pub mod stats;
pub mod workload;
