#![warn(missing_docs)]

//! Measurement infrastructure for the IDEM reproduction.
//!
//! The paper's evaluation plots average latency with standard deviation,
//! throughput over time and percentile tails. This crate provides those
//! primitives (Table 1's network traffic is counted by the simulator):
//!
//! * [`Histogram`] — a log-bucketed (HDR-style) value histogram with
//!   percentile queries, mean and standard deviation; used for end-to-end
//!   latency distributions.
//! * [`TimeSeries`] — fixed-bin-width accumulation of (count, sum) pairs;
//!   used for the throughput/latency-over-time plots of Figures 3 and 10.
//!
//! All types are plain data: no global state, no interior mutability, no
//! threads. That keeps experiments deterministic and mergeable.
//!
//! # Example
//!
//! ```
//! use idem_metrics::Histogram;
//!
//! let mut h = Histogram::new();
//! for v in [100, 200, 300, 400, 1_000_000] {
//!     h.record(v);
//! }
//! assert_eq!(h.count(), 5);
//! assert!(h.percentile(50.0) >= 200 && h.percentile(50.0) <= 310);
//! assert!(h.percentile(99.9) >= 1_000_000 / 2);
//! ```

pub mod histogram;
pub mod timeseries;

pub use histogram::Histogram;
pub use timeseries::{TimeBin, TimeSeries};
