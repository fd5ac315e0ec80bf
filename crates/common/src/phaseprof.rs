//! Opt-in phase attribution for hot-path profiling.
//!
//! Splits a cell's CPU time into coarse phases — wire/WAL *encode*,
//! state-machine *execute*, *protocol* handler logic, and (by
//! subtraction) simulator dispatch — so `profcell` can report where a
//! run actually spends its cycles.
//!
//! Disabled by default: every probe is a single relaxed load and a
//! branch, so the instrumented hot paths stay allocation- and
//! syscall-free in normal runs (the alloc-regression tests cover the
//! disabled mode). Call [`enable`] before a run to start attributing;
//! the counters are process-global atomics, so they sum over every cell
//! a `--jobs` sweep runs at once.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENCODE_NS: AtomicU64 = AtomicU64::new(0);
static ENCODE_CALLS: AtomicU64 = AtomicU64::new(0);
static EXEC_NS: AtomicU64 = AtomicU64::new(0);
static EXEC_CALLS: AtomicU64 = AtomicU64::new(0);

/// Turns encode/exec probing on for the rest of the process.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns protocol-handler probing on, timing every handler invocation.
///
/// The probe itself lives at the simulator's dispatch point
/// (`idem_simnet::prof`) — the only place that sees the handler
/// boundary; this façade controls it and folds its totals into
/// [`snapshot`].
pub fn enable_protocol() {
    idem_simnet::prof::enable(0);
}

/// Turns protocol-handler probing on in sampled mode: one in
/// `2^shift` invocations is timed and the total scaled back up, so the
/// per-event overhead on a benchmark run stays a counter increment.
pub fn enable_protocol_sampled(shift: u32) {
    idem_simnet::prof::enable(shift);
}

/// Clears the accumulated counters (e.g. after warmup).
pub fn reset() {
    ENCODE_NS.store(0, Ordering::Relaxed);
    ENCODE_CALLS.store(0, Ordering::Relaxed);
    EXEC_NS.store(0, Ordering::Relaxed);
    EXEC_CALLS.store(0, Ordering::Relaxed);
    idem_simnet::prof::reset();
}

/// Starts a phase timer; `None` (and near-zero cost) while disabled.
#[inline]
pub fn begin() -> Option<Instant> {
    if ENABLED.load(Ordering::Relaxed) {
        Some(Instant::now())
    } else {
        None
    }
}

/// Ends an encode-phase timer started with [`begin`].
#[inline]
pub fn end_encode(t: Option<Instant>) {
    if let Some(t) = t {
        ENCODE_NS.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        ENCODE_CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Ends an execute-phase timer started with [`begin`].
#[inline]
pub fn end_exec(t: Option<Instant>) {
    if let Some(t) = t {
        EXEC_NS.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        EXEC_CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Accumulated per-phase totals since the last [`reset`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseSnapshot {
    /// Nanoseconds spent encoding commands and WAL records.
    pub encode_ns: u64,
    /// Number of encode probes.
    pub encode_calls: u64,
    /// Nanoseconds spent in state-machine execution.
    pub exec_ns: u64,
    /// Number of execute probes.
    pub exec_calls: u64,
    /// Nanoseconds spent inside protocol handlers (estimated when
    /// sampling is on).
    pub protocol_ns: u64,
    /// Number of handler invocations attributed (scaled when sampled).
    pub protocol_calls: u64,
}

/// Reads the current totals.
pub fn snapshot() -> PhaseSnapshot {
    let (protocol_ns, protocol_calls) = idem_simnet::prof::totals();
    PhaseSnapshot {
        encode_ns: ENCODE_NS.load(Ordering::Relaxed),
        encode_calls: ENCODE_CALLS.load(Ordering::Relaxed),
        exec_ns: EXEC_NS.load(Ordering::Relaxed),
        exec_calls: EXEC_CALLS.load(Ordering::Relaxed),
        protocol_ns,
        protocol_calls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probes_record_nothing() {
        reset();
        let t = begin();
        // Not enabled (tests run before any enable() in this process
        // unless another test enabled it; reset afterwards either way).
        end_encode(t);
        end_exec(begin());
        // Can't assert zero unconditionally (another test may enable),
        // but the API must stay panic-free in both states.
        let _ = snapshot();
        reset();
        assert_eq!(snapshot().encode_calls, 0);
    }
}
