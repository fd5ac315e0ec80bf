//! Property-based tests of the simulator's core guarantees: FIFO delivery
//! between node pairs, determinism, busy-queue conservation, and timer
//! semantics, plus one exact check of bounded FIFO service under a backlog.

use std::time::Duration;

use idem_simnet::{Context, LinkSpec, Network, Node, NodeId, SimTime, Simulation, TimerId, Wire};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Msg(u64);

impl Wire for Msg {
    fn wire_size(&self) -> usize {
        8
    }
}

/// Sends a batch of numbered messages to a sink with configurable CPU
/// charges on the receiving side.
struct Source {
    target: NodeId,
    count: u64,
}

impl Node<Msg> for Source {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        for i in 0..self.count {
            ctx.send(self.target, Msg(i));
        }
    }
    fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
}

/// Records arrival order, charging `busy_ns` per message.
struct Sink {
    received: Vec<u64>,
    busy_ns: u64,
}

impl Node<Msg> for Sink {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: NodeId, msg: Msg) {
        self.received.push(msg.0);
        if self.busy_ns > 0 {
            ctx.charge(Duration::from_nanos(self.busy_ns));
        }
    }
}

proptest! {
    /// Messages between one ordered pair of nodes with zero jitter arrive
    /// in FIFO order regardless of receiver busyness.
    #[test]
    fn fifo_per_pair_without_jitter(count in 1u64..200, busy_ns in 0u64..50_000) {
        let net = idem_simnet::Network::new(idem_simnet::LinkSpec::new(
            Duration::from_micros(50),
            Duration::ZERO,
        ));
        let mut sim: Simulation<Msg> = Simulation::with_network(1, net);
        let sink = sim.reserve_node();
        let source = sim.reserve_node();
        sim.install_node(sink, Box::new(Sink { received: Vec::new(), busy_ns }));
        sim.install_node(source, Box::new(Source { target: sink, count }));
        sim.run_for(Duration::from_secs(60));
        let received = &sim.node_as::<Sink>(sink).unwrap().received;
        let expected: Vec<u64> = (0..count).collect();
        prop_assert_eq!(received, &expected);
    }

    /// No message is lost or duplicated on lossless links, whatever the
    /// receiver charges.
    #[test]
    fn conservation_under_busyness(count in 1u64..300, busy_ns in 0u64..100_000, seed in any::<u64>()) {
        let mut sim: Simulation<Msg> = Simulation::new(seed);
        let sink = sim.reserve_node();
        let source = sim.reserve_node();
        sim.install_node(sink, Box::new(Sink { received: Vec::new(), busy_ns }));
        sim.install_node(source, Box::new(Source { target: sink, count }));
        sim.run_for(Duration::from_secs(120));
        let received = &sim.node_as::<Sink>(sink).unwrap().received;
        prop_assert_eq!(received.len() as u64, count);
        let mut sorted = received.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len() as u64, count, "duplicates detected");
    }

    /// Identical seeds produce bit-identical runs; traffic totals are a
    /// sensitive proxy for full-trace equality.
    #[test]
    fn determinism(count in 1u64..100, seed in any::<u64>()) {
        let run = |seed: u64| {
            let mut sim: Simulation<Msg> = Simulation::new(seed);
            let sink = sim.reserve_node();
            let source = sim.reserve_node();
            sim.install_node(sink, Box::new(Sink { received: Vec::new(), busy_ns: 777 }));
            sim.install_node(source, Box::new(Source { target: sink, count }));
            sim.run_for(Duration::from_secs(30));
            (sim.events_processed(), sim.traffic().total_bytes(), sim.now())
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// A cancelled timer never fires; an uncancelled one fires exactly
    /// once — even when the node is busy at expiry.
    #[test]
    fn timer_fire_exactly_once(delay_us in 1u64..5_000, busy_ns in 0u64..2_000_000) {
        struct Timed {
            fired: u32,
            cancel: bool,
            busy_ns: u64,
        }
        impl Node<Msg> for Timed {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                // Make the node busy so the timer may land in the backlog.
                ctx.charge(Duration::from_nanos(self.busy_ns));
                let t = ctx.set_timer(Duration::from_micros(1), Msg(0));
                if self.cancel {
                    ctx.cancel_timer(t);
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
            fn on_timer(&mut self, _: &mut Context<'_, Msg>, _: TimerId, _: Msg) {
                self.fired += 1;
            }
        }
        for cancel in [false, true] {
            let mut sim: Simulation<Msg> = Simulation::new(delay_us);
            let id = sim.add_node(Box::new(Timed { fired: 0, cancel, busy_ns }));
            sim.run_for(Duration::from_secs(10));
            let fired = sim.node_as::<Timed>(id).unwrap().fired;
            prop_assert_eq!(fired, u32::from(!cancel));
        }
    }

    /// Virtual time only moves forward and `run_until` always lands on its
    /// target.
    #[test]
    fn time_is_monotonic(chunks in prop::collection::vec(1u64..1_000_000u64, 1..20)) {
        let mut sim: Simulation<Msg> = Simulation::new(3);
        let sink = sim.reserve_node();
        let source = sim.reserve_node();
        sim.install_node(sink, Box::new(Sink { received: Vec::new(), busy_ns: 100 }));
        sim.install_node(source, Box::new(Source { target: sink, count: 50 }));
        let mut last = sim.now();
        for chunk_ns in chunks {
            sim.run_for(Duration::from_nanos(chunk_ns));
            prop_assert!(sim.now() >= last);
            prop_assert_eq!(sim.now(), last + Duration::from_nanos(chunk_ns));
            last = sim.now();
        }
    }
}

/// Records the virtual time at which each message's handler starts,
/// charging a fixed service cost per message.
struct ServiceLog {
    starts: Vec<u64>,
    cost: Duration,
}

impl Node<Msg> for ServiceLog {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: NodeId, _: Msg) {
        self.starts.push(ctx.now().as_nanos());
        ctx.charge(self.cost);
    }
}

/// A single FIFO server with deterministic service: 100 000 messages all
/// arrive at 100 µs over a zero-jitter link, and the sink charges 1 µs
/// each, so the k-th (1-based) starts at exactly 100 µs + (k − 1) µs. Every
/// message after the first waits in the node's backlog, and each of those
/// drains runs inline against the event horizon rather than as a queued
/// wake-up.
#[test]
fn backlog_drains_as_a_fifo_server_with_fixed_service() {
    const N: u64 = 100_000;
    let link = LinkSpec::new(Duration::from_micros(100), Duration::ZERO);
    let mut sim: Simulation<Msg> = Simulation::with_network(0xBAC1, Network::new(link));
    let sink = sim.add_node(Box::new(ServiceLog {
        starts: Vec::new(),
        cost: Duration::from_micros(1),
    }));
    sim.add_node(Box::new(Source {
        target: sink,
        count: N,
    }));
    sim.run_until(SimTime::from_nanos(200_000_000));

    let starts = &sim.node_as::<ServiceLog>(sink).unwrap().starts;
    assert_eq!(starts.len() as u64, N);
    for (k, &start) in starts.iter().enumerate() {
        assert_eq!(start, 100_000 + k as u64 * 1_000, "message {}", k + 1);
    }
    assert_eq!(starts.last(), Some(&100_099_000));
    assert_eq!(sim.event_stats().inline_wakes, N - 1);
}
