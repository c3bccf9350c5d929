//! The RDMC reproduction's benchmark: end-to-end metrics over real
//! loopback TCP and the simulated fabric, and per-layer metrics taken
//! from outside the program at the `verbs::Transport` boundary. See
//! `README.md` beside this package.

pub mod procfs;
pub mod report;
pub mod roofline;
pub mod stats;
pub mod timed;
pub mod workload;
