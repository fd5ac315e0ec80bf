//! Golden test of the run-to-completion backlog scheduler.
//!
//! The scheduler drains node backlogs inline against the queue horizon,
//! parking a wake in the wake lane only when another event comes first.
//! A stress scenario exercising every scheduler edge — deep backlogs,
//! timers firing into busy nodes and being cancelled there, multicast
//! fan-out, jittery and lossy links, crashes, recoveries, and amnesia
//! wipes — must reproduce a pinned trace digest and every pinned field of
//! the run's observable state.
//!
//! The constants were captured from a one-`Wake`-event-per-drain
//! reference scheduler, which this test used to run side by side with
//! the current one and found identical in every field below: same
//! trace, same states, same counts. That reference drained 3,348 wakes
//! through the global queue; here each is one `inline_wakes`.

use std::time::Duration;

use idem_simnet::{
    Context, EventStats, LinkSpec, Network, Node, NodeId, SimTime, Simulation, TimerId, Wire,
};

#[derive(Clone, Debug)]
enum Msg {
    /// A unit of work costing `cost_us` µs, bounced `hops` more times.
    Work {
        cost_us: u32,
        hops: u32,
    },
    /// Multicast burst marker.
    Burst(u32),
    Tick,
}

impl Wire for Msg {
    fn wire_size(&self) -> usize {
        8
    }
}

/// A worker that charges per message, occasionally bounces work onward
/// (routed by its own RNG draws, so scheduler changes that perturbed RNG
/// order would show up immediately), arms and cancels timers, and
/// accumulates a digest of everything it observed.
struct Worker {
    peers: Vec<NodeId>,
    digest: u64,
    pending_timer: Option<TimerId>,
    received: u64,
}

impl Worker {
    fn observe(&mut self, tag: u64, at: SimTime) {
        // Order-sensitive digest: any reordering of observations changes it.
        self.digest = self
            .digest
            .wrapping_mul(0x100000001b3)
            .wrapping_add(tag ^ at.as_nanos());
    }
}

impl Node<Msg> for Worker {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        self.received += 1;
        match msg {
            Msg::Work { cost_us, hops } => {
                self.observe(u64::from(cost_us) << 8 | u64::from(from.0), ctx.now());
                ctx.charge(Duration::from_micros(u64::from(cost_us)));
                if hops > 0 {
                    use rand::Rng;
                    let pick = ctx.rng().gen_range(0..self.peers.len());
                    ctx.send(
                        self.peers[pick],
                        Msg::Work {
                            cost_us,
                            hops: hops - 1,
                        },
                    );
                }
                // Every third message toggles a timer: armed timers often
                // fire into a busy node (landing in the backlog) and are
                // sometimes cancelled while parked there.
                if self.received.is_multiple_of(3) {
                    match self.pending_timer.take() {
                        Some(t) => ctx.cancel_timer(t),
                        None => {
                            self.pending_timer =
                                Some(ctx.set_timer(Duration::from_micros(50), Msg::Tick));
                        }
                    }
                }
            }
            Msg::Burst(n) => {
                self.observe(u64::from(n), ctx.now());
                ctx.charge(Duration::from_micros(20));
            }
            Msg::Tick => unreachable!("Tick only arrives via timers"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _id: TimerId, _msg: Msg) {
        self.pending_timer = None;
        self.observe(0x71C, ctx.now());
        ctx.charge(Duration::from_micros(5));
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, Msg>) {
        self.observe(0x4EC, ctx.now());
    }
}

/// Floods the workers with enough simultaneous work to keep them deeply
/// backlogged, plus periodic multicast bursts.
struct Driver {
    workers: Vec<NodeId>,
    rounds: u32,
}

impl Node<Msg> for Driver {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        for round in 0..self.rounds {
            for &w in &self.workers {
                ctx.send(
                    w,
                    Msg::Work {
                        cost_us: 30 + (round % 7),
                        hops: 3,
                    },
                );
            }
        }
        ctx.set_timer(Duration::from_millis(2), Msg::Tick);
    }

    fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _id: TimerId, _msg: Msg) {
        ctx.multicast(self.workers.iter().copied(), Msg::Burst(7));
        ctx.set_timer(Duration::from_millis(2), Msg::Tick);
    }
}

struct Observation {
    trace: String,
    digests: Vec<u64>,
    received: Vec<u64>,
    events_processed: u64,
    pending_events: usize,
    pending_timers: usize,
    total_bytes: u64,
    total_messages: u64,
    now: SimTime,
    stats: EventStats,
}

fn run() -> Observation {
    // Jitter makes link delays RNG-dependent and loss drops a deterministic
    // subset of sends — both would diverge under any dispatch reordering.
    let link =
        LinkSpec::new(Duration::from_micros(100), Duration::from_micros(40)).with_drop_prob(0.01);
    let mut sim: Simulation<Msg> = Simulation::with_network(0xD1FF, Network::new(link));
    sim.set_trace(1 << 16);

    let workers: Vec<NodeId> = (0..4).map(|_| sim.reserve_node()).collect();
    for &w in &workers {
        sim.install_node(
            w,
            Box::new(Worker {
                peers: workers.clone(),
                digest: 0,
                pending_timer: None,
                received: 0,
            }),
        );
        sim.set_node_factory(
            w,
            Box::new({
                let peers = workers.clone();
                move || {
                    Box::new(Worker {
                        peers: peers.clone(),
                        digest: 0,
                        pending_timer: None,
                        received: 0,
                    })
                }
            }),
        );
    }
    sim.add_node(Box::new(Driver {
        workers: workers.clone(),
        rounds: 400,
    }));

    // Crash one worker mid-backlog, recover it, and wipe another — the
    // transitions that reset or strand wake bookkeeping.
    sim.schedule_crash(workers[1], SimTime::from_nanos(3_000_000));
    sim.schedule_recovery(workers[1], SimTime::from_nanos(9_000_000));
    sim.run_until(SimTime::from_nanos(15_000_000));
    sim.wipe_now(workers[2], true);
    sim.run_for(Duration::from_millis(30));

    Observation {
        trace: sim.trace().expect("tracing enabled").dump(),
        digests: workers
            .iter()
            .map(|&w| sim.node_as::<Worker>(w).unwrap().digest)
            .collect(),
        received: workers
            .iter()
            .map(|&w| sim.node_as::<Worker>(w).unwrap().received)
            .collect(),
        events_processed: sim.events_processed(),
        pending_events: sim.pending_events(),
        pending_timers: sim.pending_timers(),
        total_bytes: sim.traffic().total_bytes(),
        total_messages: sim.traffic().total_messages(),
        now: sim.now(),
        stats: sim.event_stats(),
    }
}

/// 64-bit FNV-1a: a fixed, dependency-free digest of the trace dump.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn stress_run_matches_pinned_golden() {
    let obs = run();

    // The execution trace — every send (with its sampled loss), delivery,
    // timer fire, crash, recovery, and wipe, with its time, in order.
    assert_eq!(obs.trace.lines().count(), 8_109);
    assert_eq!(fnv1a(obs.trace.as_bytes()), 0x524d_eca1_380c_d972);

    assert_eq!(
        obs.digests,
        [
            0xdf4f_a251_e39b_8f6b,
            0x2309_87f8_29cc_e4ab,
            0x9adc_2824_4bd0_d689,
            0x1685_2e99_f7b2_03bd,
        ]
    );
    assert_eq!(obs.received, [1_065, 623, 290, 1_085]);
    assert_eq!(obs.events_processed, 4_095);
    assert_eq!(obs.pending_events, 1);
    assert_eq!(obs.pending_timers, 1);
    assert_eq!(obs.total_bytes, 211_344);
    assert_eq!(obs.total_messages, 3_774);
    assert_eq!(obs.now, SimTime::from_nanos(45_000_000));
    assert_eq!(
        obs.stats,
        EventStats {
            delivers: 4_407,
            timers: 659,
            wakes: 0,
            inline_wakes: 3_348,
            crashes: 3,
            queue_high_water: 1_588,
            arena_messages: 4_342,
            arena_high_water: 1_585,
            multicast_batches: 22,
            batched_deliveries: 87,
        }
    );
}
