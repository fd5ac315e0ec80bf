#![warn(missing_docs)]

//! The repository benchmark: four long deterministic workloads, end-to-end
//! metrics a user of the replicated system would see, and an outside-in
//! per-layer ledger. See `README.md` for the contract.

pub mod replay;
pub mod report;
pub mod run;
pub mod selfcheck;
pub mod spec;
pub mod trace;
pub mod wiring;
pub mod workloads;
