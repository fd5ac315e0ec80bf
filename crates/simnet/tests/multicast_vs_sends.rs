//! `ctx.multicast(targets, m)` held up against the reference that shares no
//! code with it: `for t in targets { ctx.send(t, m.clone()) }`.
//!
//! A multicast stores its body once in the message arena and files one
//! queue entry per surviving recipient; a loop of sends stores one body per
//! recipient. Both draw randomness and reserve sequence numbers at identical
//! points, so a stress scenario covering heavy fan-out, jittery and lossy
//! links, busy backlogged nodes, unicast acks landing between the members of
//! a multicast, crashes mid-flight, recoveries, and amnesia wipes must
//! produce byte-identical traces and identical observable state — only the
//! body-sharing counters may differ. Both runs must also end with zero
//! bodies left in the arena: every reference taken by a delivery, released
//! on a crashed recipient, or dropped with a wiped backlog has to be given
//! back, or the shared slot leaks.

use std::time::Duration;

use idem_simnet::{
    Context, EventStats, LinkSpec, Network, Node, NodeId, SimTime, Simulation, TimerId, Wire,
};

#[derive(Clone, Debug)]
enum Msg {
    /// Fan this out to everyone again `hops` more times.
    Gossip {
        round: u32,
        hops: u32,
    },
    /// Unicast acknowledgement, landing between the members of a multicast
    /// in the global order.
    Ack(u32),
    Tick,
}

impl Wire for Msg {
    fn wire_size(&self) -> usize {
        12
    }
}

/// How a node fans a message out: the path under test, or the reference.
#[derive(Clone, Copy)]
enum FanOut {
    Multicast,
    SendLoop,
}

impl FanOut {
    fn fan(self, ctx: &mut Context<'_, Msg>, targets: &[NodeId], msg: Msg) {
        match self {
            FanOut::Multicast => ctx.multicast(targets.iter().copied(), msg),
            FanOut::SendLoop => {
                for &t in targets {
                    ctx.send(t, msg.clone());
                }
            }
        }
    }
}

/// A gossiping worker: every received rumor is fanned out to all peers
/// again (with RNG-dependent cost, so any dispatch reordering perturbs
/// draws), plus a unicast ack back to the sender.
struct Gossiper {
    fan_out: FanOut,
    peers: Vec<NodeId>,
    digest: u64,
    received: u64,
    timer: Option<TimerId>,
}

impl Gossiper {
    fn observe(&mut self, tag: u64, at: SimTime) {
        self.digest = self
            .digest
            .wrapping_mul(0x100000001b3)
            .wrapping_add(tag ^ at.as_nanos());
    }
}

impl Node<Msg> for Gossiper {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        self.received += 1;
        match msg {
            Msg::Gossip { round, hops } => {
                self.observe(u64::from(round) << 8 | u64::from(from.0), ctx.now());
                use rand::Rng;
                let cost = ctx.rng().gen_range(15..45);
                ctx.charge(Duration::from_micros(cost));
                ctx.send(from, Msg::Ack(round));
                if hops > 0 {
                    self.fan_out.fan(
                        ctx,
                        &self.peers,
                        Msg::Gossip {
                            round,
                            hops: hops - 1,
                        },
                    );
                }
                if self.received.is_multiple_of(5) {
                    match self.timer.take() {
                        Some(t) => ctx.cancel_timer(t),
                        None => {
                            self.timer = Some(ctx.set_timer(Duration::from_micros(70), Msg::Tick))
                        }
                    }
                }
            }
            Msg::Ack(round) => {
                self.observe(0xACC00 | u64::from(round), ctx.now());
                ctx.charge(Duration::from_micros(5));
            }
            Msg::Tick => unreachable!("Tick only arrives via timers"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _id: TimerId, _msg: Msg) {
        self.timer = None;
        self.observe(0x71C, ctx.now());
        ctx.charge(Duration::from_micros(5));
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, Msg>) {
        self.observe(0x4EC, ctx.now());
    }
}

/// Seeds rumors into the mesh on a timer so fan-outs keep flowing after
/// the gossip dies down.
struct Seeder {
    fan_out: FanOut,
    workers: Vec<NodeId>,
    round: u32,
}

impl Node<Msg> for Seeder {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        ctx.set_timer(Duration::from_micros(100), Msg::Tick);
    }

    fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _id: TimerId, _msg: Msg) {
        self.round += 1;
        self.fan_out.fan(
            ctx,
            &self.workers,
            Msg::Gossip {
                round: self.round,
                hops: 2,
            },
        );
        if self.round < 120 {
            ctx.set_timer(Duration::from_micros(100), Msg::Tick);
        }
    }
}

struct Observation {
    trace: String,
    digests: Vec<u64>,
    received: Vec<u64>,
    events_processed: u64,
    pending_events: usize,
    pending_timers: usize,
    pending_messages: usize,
    total_bytes: u64,
    total_messages: u64,
    now: SimTime,
    stats: EventStats,
}

fn run(fan_out: FanOut) -> Observation {
    let link =
        LinkSpec::new(Duration::from_micros(80), Duration::from_micros(30)).with_drop_prob(0.02);
    let mut sim: Simulation<Msg> = Simulation::with_network(0xBA7C4, Network::new(link));
    sim.set_trace(1 << 16);

    let workers: Vec<NodeId> = (0..5).map(|_| sim.reserve_node()).collect();
    for &w in &workers {
        let make = {
            let peers = workers.clone();
            move || {
                Box::new(Gossiper {
                    fan_out,
                    peers: peers.clone(),
                    digest: 0,
                    received: 0,
                    timer: None,
                }) as Box<dyn Node<Msg>>
            }
        };
        sim.install_node(w, make());
        sim.set_node_factory(w, Box::new(make));
    }
    sim.add_node(Box::new(Seeder {
        fan_out,
        workers: workers.clone(),
        round: 0,
    }));

    // Crash one gossiper while multicasts addressed to it are in flight
    // (their arena refs must be released), recover it, and wipe another
    // mid-backlog.
    sim.schedule_crash(workers[2], SimTime::from_nanos(2_500_000));
    sim.schedule_recovery(workers[2], SimTime::from_nanos(7_000_000));
    sim.run_until(SimTime::from_nanos(11_000_000));
    sim.wipe_now(workers[4], true);
    // Long tail: everything in flight drains, so the arena leak check is
    // exact.
    sim.run_for(Duration::from_millis(300));

    Observation {
        trace: sim.trace().expect("tracing enabled").dump(),
        digests: workers
            .iter()
            .map(|&w| sim.node_as::<Gossiper>(w).unwrap().digest)
            .collect(),
        received: workers
            .iter()
            .map(|&w| sim.node_as::<Gossiper>(w).unwrap().received)
            .collect(),
        events_processed: sim.events_processed(),
        pending_events: sim.pending_events(),
        pending_timers: sim.pending_timers(),
        pending_messages: sim.pending_messages(),
        total_bytes: sim.traffic().total_bytes(),
        total_messages: sim.traffic().total_messages(),
        now: sim.now(),
        stats: sim.event_stats(),
    }
}

#[test]
fn multicast_is_observationally_identical_to_a_loop_of_sends() {
    let multicast = run(FanOut::Multicast);
    let sends = run(FanOut::SendLoop);

    // Byte-identical execution trace: every send (with its sampled drop),
    // delivery, timer, crash, recovery, and wipe at the same virtual time
    // in the same order.
    assert_eq!(multicast.trace, sends.trace);

    assert_eq!(multicast.digests, sends.digests);
    assert_eq!(multicast.received, sends.received);
    assert_eq!(multicast.events_processed, sends.events_processed);
    assert_eq!(multicast.pending_events, sends.pending_events);
    assert_eq!(multicast.pending_timers, sends.pending_timers);
    assert_eq!(multicast.total_bytes, sends.total_bytes);
    assert_eq!(multicast.total_messages, sends.total_messages);
    assert_eq!(multicast.now, sends.now);

    // Same dispatch mix, scheduler decisions and queue population; only
    // the body-sharing counters tell the two apart (and the send loop
    // never shares: its two multicast counters stay zero).
    let shared = EventStats {
        arena_messages: 0,
        arena_high_water: 0,
        multicast_batches: 0,
        batched_deliveries: 0,
        ..multicast.stats
    };
    assert_eq!(
        shared,
        EventStats {
            arena_messages: 0,
            arena_high_water: 0,
            ..sends.stats
        }
    );

    // The scenario does share bodies: fewer arena inserts than deliveries
    // filed, and every shared body had at least two takers.
    assert!(multicast.stats.multicast_batches > 0);
    assert!(multicast.stats.batched_deliveries >= 2 * multicast.stats.multicast_batches);
    assert_eq!(
        sends.stats.arena_messages - multicast.stats.arena_messages,
        multicast.stats.batched_deliveries - multicast.stats.multicast_batches
    );

    // No leaked bodies: every arena reference was materialized, released on
    // a crashed recipient, or dropped with a wiped backlog.
    assert_eq!(multicast.pending_messages, 0);
    assert_eq!(sends.pending_messages, 0);
}
