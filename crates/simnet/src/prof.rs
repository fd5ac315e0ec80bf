//! Opt-in attribution of protocol-handler time on the dispatch path.
//!
//! The scheduler invokes node handlers (`on_message`/`on_timer`)
//! from exactly one place; these probes time those invocations so the
//! higher-level phase profiler can split "protocol handler logic" from
//! "simulator dispatch" in a cell's CPU budget. Disabled, a probe is one
//! relaxed load and a branch. Enabled with a nonzero sampling shift,
//! only every `2^shift`-th invocation pays the two `Instant::now` calls
//! and the accumulated time is scaled back up, so benchmark runs can
//! keep the probe on without moving their own numbers.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SHIFT: AtomicU32 = AtomicU32::new(0);
static NS: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// Enables handler timing for the rest of the process; one in
/// `2^shift` invocations is timed (0 = every invocation).
pub fn enable(shift: u32) {
    SHIFT.store(shift, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Clears the accumulated totals.
pub fn reset() {
    NS.store(0, Ordering::Relaxed);
    CALLS.store(0, Ordering::Relaxed);
}

/// Accumulated `(nanoseconds, invocations)`, scaled to estimated totals
/// when sampling is on.
pub fn totals() -> (u64, u64) {
    (NS.load(Ordering::Relaxed), CALLS.load(Ordering::Relaxed))
}

/// Starts a handler timer. `ticks` is the owning simulation's private
/// invocation counter, so sampling adds no shared-cache traffic.
#[inline]
pub(crate) fn begin(ticks: &mut u64) -> Option<Instant> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    *ticks = ticks.wrapping_add(1);
    let shift = SHIFT.load(Ordering::Relaxed);
    if *ticks & ((1u64 << shift) - 1) != 0 {
        return None;
    }
    Some(Instant::now())
}

/// Ends a handler timer started with [`begin`].
#[inline]
pub(crate) fn end(t: Option<Instant>) {
    if let Some(t) = t {
        let scale = 1u64 << SHIFT.load(Ordering::Relaxed);
        NS.fetch_add(t.elapsed().as_nanos() as u64 * scale, Ordering::Relaxed);
        CALLS.fetch_add(scale, Ordering::Relaxed);
    }
}
