//! Optional counting global allocator for alloc-free hot-path regression
//! tests.
//!
//! With the `alloc-count` feature enabled, every binary and test in this
//! crate runs under a [`std::alloc::System`] wrapper that counts allocator
//! calls and live heap bytes in relaxed atomics. The counters are
//! process-global, so a measurement is a pair of [`snapshot`] calls around
//! the region of interest. With the feature disabled the module compiles to
//! nothing: [`ENABLED`] is `false` and [`snapshot`] always returns zeros, so
//! callers can stay feature-free and just skip reporting when counts are
//! absent.
//!
//! Counting (three relaxed read-modify-writes per allocator call) is cheap
//! but not free, so the feature is off by default and benchmark numbers
//! should never be taken with it on.

/// Whether the counting allocator is compiled into this build.
pub const ENABLED: bool = cfg!(feature = "alloc-count");

/// A point-in-time reading of the process-global allocation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Calls to `alloc`, `alloc_zeroed`, or `realloc` since process start.
    pub allocs: u64,
    /// Calls to `dealloc` since process start.
    pub frees: u64,
    /// Bytes allocated and not yet freed, as requested: unlike resident
    /// memory it does not depend on what the allocator gives back to the OS.
    pub live_bytes: u64,
    /// The highest `live_bytes` since the previous [`snapshot`] call.
    pub peak_live_bytes: u64,
}

impl AllocSnapshot {
    /// Counter deltas between `earlier` and `self`; the two byte gauges are
    /// those of `self`.
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs - earlier.allocs,
            frees: self.frees - earlier.frees,
            ..self
        }
    }
}

/// Read the current allocation counters (zeros when [`ENABLED`] is false)
/// and start a new peak from the current live bytes.
pub fn snapshot() -> AllocSnapshot {
    #[cfg(feature = "alloc-count")]
    {
        counting::read()
    }
    #[cfg(not(feature = "alloc-count"))]
    {
        AllocSnapshot::default()
    }
}

#[cfg(feature = "alloc-count")]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static FREES: AtomicU64 = AtomicU64::new(0);
    static LIVE: AtomicU64 = AtomicU64::new(0);
    static PEAK: AtomicU64 = AtomicU64::new(0);

    pub(super) fn read() -> super::AllocSnapshot {
        let live_bytes = LIVE.load(Relaxed);
        super::AllocSnapshot {
            allocs: ALLOCS.load(Relaxed),
            frees: FREES.load(Relaxed),
            live_bytes,
            peak_live_bytes: PEAK.swap(live_bytes, Relaxed).max(live_bytes),
        }
    }

    fn grow(bytes: usize) {
        let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
        PEAK.fetch_max(live, Relaxed);
    }

    struct Counting;

    thread_local! {
        static IN_SAMPLE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    fn maybe_sample() {
        static EVERY: AtomicU64 = AtomicU64::new(u64::MAX);
        IN_SAMPLE.with(|flag| {
            if flag.get() {
                return;
            }
            flag.set(true);
            let mut every = EVERY.load(Relaxed);
            if every == u64::MAX {
                every = std::env::var("ALLOC_SAMPLE")
                    .ok()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0);
                EVERY.store(every, Relaxed);
            }
            if every != 0 && ALLOCS.load(Relaxed).is_multiple_of(every) {
                eprintln!(
                    "--- alloc sample ---\n{}",
                    std::backtrace::Backtrace::force_capture()
                );
            }
            flag.set(false);
        });
    }

    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            grow(layout.size());
            maybe_sample();
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            grow(layout.size());
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            grow(new_size);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            FREES.fetch_add(1, Relaxed);
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static COUNTER: Counting = Counting;
}
