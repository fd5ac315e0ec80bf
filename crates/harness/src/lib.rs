#![warn(missing_docs)]

//! Experiment harness regenerating the IDEM paper's evaluation.
//!
//! This crate wires the protocol crates onto the simulator, drives
//! closed-loop YCSB clients against them, records latency/throughput/
//! traffic metrics, and packages each table and figure of the paper as a
//! reproducible experiment:
//!
//! | Experiment | Paper | Entry point |
//! |---|---|---|
//! | Existing protocols under load | Fig. 2 | [`experiments::fig2`] |
//! | Paxos_LBR leader-crash reject gap | Fig. 3 | [`experiments::fig3`] |
//! | Protocol comparison under load | Fig. 6 | [`experiments::fig6`] |
//! | Reject behaviour | Fig. 7 | [`experiments::fig7`] |
//! | Rejection network overhead | Tab. 1 | [`experiments::table1`] |
//! | Reject-threshold sweep | Fig. 8 | [`experiments::fig8`] |
//! | Misconfiguration / extreme load | Fig. 9 | [`experiments::fig9`] |
//! | Replica-crash timelines | Fig. 10a–c | [`experiments::fig10`] |
//! | Reject latency across crashes | Fig. 10d | [`experiments::fig10d`] |
//! | Open-loop load scenarios (10⁶ clients) | — | [`experiments::load`] |
//!
//! Run them all via the `repro` binary: `cargo run --release -p
//! idem-harness --bin repro -- all`.

pub mod allocs;
pub mod chaos;
pub mod cluster;
pub mod experiments;
pub mod invariants;
pub mod load;
pub mod recorder;
pub mod report;
pub mod scenario;
pub mod sweep;

pub use chaos::{run_campaign, ChaosConfig, ChaosReport, ChaosRun, Schedule};
pub use cluster::{ClusterHandles, Protocol};
pub use invariants::ViolationKind;
pub use load::{run_load_scenario, LoadRunResult, LoadSource, PhaseMetrics};
pub use recorder::{Recorder, RecorderHandle, RunMetrics};
pub use scenario::{CrashPlan, LoadScenario, RunResult, Scenario};
pub use sweep::{Cell, RunMode, SweepRunner, SweepStats};
