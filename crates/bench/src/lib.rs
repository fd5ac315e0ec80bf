//! The benches live under `benches/`; each gates one data structure:
//!
//! * `event_queue` — the timing wheel against a binary heap, plus
//!   multicast fan-out through the simulator.
//! * `message_arena` — slab insert/take against per-message boxing.
//! * `protocol_state` — the dense per-client and per-slot tables of the
//!   replicas against the maps they replaced.
//!
//! Whole-program timing (per-figure wall time, events per second, the
//! per-layer split) is measured from outside by the `benchmark/` crate
//! and by `repro --bench-out`, not here.
