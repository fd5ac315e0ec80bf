//! Dev tool: times a single experiment cell and reports simulator event
//! throughput plus queue depth, for hot-path profiling without running a
//! whole experiment grid.
//!
//! Besides the one-line summary, prints the per-kind dispatch breakdown
//! (wake/deliver ratio, inline drains), a per-phase CPU attribution
//! (wire/WAL encode vs store execution vs everything else — simulator
//! dispatch, protocol logic), and per-node backlog drain-length
//! histograms: replicas individually, clients merged into one profile.
//!
//! Usage: `profcell [clients] [protocol] [seconds]`
//! protocols: idem, idem_no_pr, idem_no_aqm, paxos, paxos_lbr, smart

use std::time::{Duration, Instant};

use idem_harness::{Protocol, Scenario};
use idem_simnet::{DrainProfile, DRAIN_BUCKETS};

fn print_profile(label: &str, p: &DrainProfile) {
    let mean = if p.drains == 0 {
        0.0
    } else {
        p.items as f64 / p.drains as f64
    };
    println!(
        "  {label:<12} drains={} items={} mean={mean:.2} max={}",
        p.drains, p.items, p.max
    );
    let peak = p.buckets.iter().copied().max().unwrap_or(0);
    if peak == 0 {
        return;
    }
    for (i, &count) in p.buckets.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let (lo, hi) = DrainProfile::bucket_range(i);
        let range = if i >= DRAIN_BUCKETS - 1 {
            format!("{lo}+")
        } else if lo == hi {
            format!("{lo}")
        } else {
            format!("{lo}-{hi}")
        };
        let bar = "#".repeat(((count * 40).div_ceil(peak)) as usize);
        println!("    {range:>12} {count:>10} {bar}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let clients: u32 = args.first().and_then(|s| s.parse().ok()).unwrap_or(400);
    let protocol = match args.get(1).map(String::as_str) {
        Some("paxos") => Protocol::paxos(),
        Some("paxos_lbr") => Protocol::paxos_lbr(50),
        Some("smart") => Protocol::smart(),
        Some("idem_no_pr") => Protocol::idem_no_pr(),
        Some("idem_no_aqm") => Protocol::idem_no_aqm(),
        _ => Protocol::idem(),
    };
    let replicas = protocol.replica_count() as usize;
    let secs: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(3);
    let mut s = Scenario::new(protocol, clients, Duration::from_secs(secs));
    s.warmup = Duration::from_secs(1);
    idem_common::phaseprof::enable();
    // Every handler invocation timed: profcell is the precision tool, the
    // ~5% probe overhead is acceptable here (repro uses sampled mode).
    idem_common::phaseprof::enable_protocol();
    idem_common::phaseprof::reset();
    let before = idem_harness::allocs::snapshot();
    let start = Instant::now();
    let r = s.run();
    let wall = start.elapsed();
    let alloc_delta = idem_harness::allocs::snapshot().since(before);
    let phases = idem_common::phaseprof::snapshot();
    println!(
        "{} clients={} wall={:.2?} events={} ev/s={:.0} tput={:.0} rej/s={:.0}",
        r.name,
        clients,
        wall,
        r.events_processed,
        r.events_processed as f64 / wall.as_secs_f64(),
        r.metrics.throughput,
        r.metrics.reject_throughput,
    );
    let st = &r.event_stats;
    let wake_ratio = if st.delivers == 0 {
        0.0
    } else {
        st.wakes as f64 / st.delivers as f64
    };
    println!(
        "events: delivers={} timers={} wakes={} inline_wakes={} crashes={} \
         high_water={} wake/deliver={wake_ratio:.4}",
        st.delivers, st.timers, st.wakes, st.inline_wakes, st.crashes, st.queue_high_water,
    );
    println!(
        "arena: messages={} high_water={} shared_bodies={} shared_recipients={}",
        st.arena_messages, st.arena_high_water, st.multicast_batches, st.batched_deliveries,
    );
    // The protocol probe times whole handler invocations, which contain
    // the encode and store-exec probes; subtracting those yields pure
    // protocol logic, and what the wall clock holds beyond the handlers
    // is simulator dispatch (queue, wheel, network, arena).
    let wall_s = wall.as_secs_f64();
    let encode_s = phases.encode_ns as f64 / 1e9;
    let exec_s = phases.exec_ns as f64 / 1e9;
    let handler_s = phases.protocol_ns as f64 / 1e9;
    let protocol_s = (handler_s - encode_s - exec_s).max(0.0);
    let dispatch_s = (wall_s - handler_s).max(0.0);
    println!(
        "phases: encode={encode_s:.3}s ({:.1}%, {} calls) store-exec={exec_s:.3}s \
         ({:.1}%, {} calls) protocol={protocol_s:.3}s ({:.1}%, {} calls) \
         dispatch={dispatch_s:.3}s ({:.1}%)",
        100.0 * encode_s / wall_s,
        phases.encode_calls,
        100.0 * exec_s / wall_s,
        phases.exec_calls,
        100.0 * protocol_s / wall_s,
        phases.protocol_calls,
        100.0 * dispatch_s / wall_s,
    );
    if idem_harness::allocs::ENABLED {
        println!(
            "allocs: {} frees={} allocs/event={:.4}",
            alloc_delta.allocs,
            alloc_delta.frees,
            alloc_delta.allocs as f64 / r.events_processed.max(1) as f64,
        );
    }
    println!("drain profiles (replicas first, clients merged):");
    for (i, p) in r.drain_profiles.iter().take(replicas).enumerate() {
        print_profile(&format!("replica {i}"), p);
    }
    let mut merged = DrainProfile::default();
    for p in r.drain_profiles.iter().skip(replicas) {
        merged.merge(p);
    }
    let n_clients = r.drain_profiles.len().saturating_sub(replicas);
    print_profile(&format!("clients ({n_clients})"), &merged);
}
