//! End-to-end, stage-attributed benchmark of the sprint job path.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! the layer → end-to-end → workload map.

pub mod calib;
pub mod check;
pub mod drive;
pub mod output;
pub mod specs;
pub mod stats;
pub mod trace;
pub mod traced;
