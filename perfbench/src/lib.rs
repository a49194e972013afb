//! The autosens end-to-end benchmark: seeded input generation, load
//! generators for the CLI and the gateway, correctness checks, and the
//! noise-aware comparison of runs. See `README.md`.

pub mod compare;
pub mod gen;
pub mod load;
pub mod proc;
pub mod spec;
pub mod stats;
pub mod wire;
pub mod workloads;
