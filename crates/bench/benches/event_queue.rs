//! Microbenchmarks of the event-queue scheduler in isolation: the
//! hierarchical timing wheel against a reference binary heap, at
//! steady-state populations of 1k / 100k / 1M pending events, plus the
//! arm/cancel timer churn that dominates IDEM's overload cells.
//!
//! The heap variants exist as the comparison baseline: the wheel's win is
//! population-independence, which shows up as flat per-op cost across the
//! three sizes where the heap's O(log K) grows.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use idem_simnet::{
    Context, LinkSpec, Network, Node, NodeId, SimTime, Simulation, TimerTable, TimingWheel, Wire,
};

const SIZES: [(usize, &str); 3] = [(1_000, "1k"), (100_000, "100k"), (1_000_000, "1M")];

/// Deterministic delay generator: spreads events over a ~130 µs window,
/// matching the simulator's link latency plus jitter regime.
fn next_delay(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    100_000 + (*state >> 33) % 33_000
}

/// Steady-state churn at fixed population: one push plus one pop per
/// iteration, the pattern the simulator's hot loop executes.
fn wheel_steady(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue/wheel");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1));
    for (n, label) in SIZES {
        group.bench_function(format!("steady_{label}"), |b| {
            let mut w = TimingWheel::new();
            let mut rng = 0x9e3779b97f4a7c15u64;
            let mut seq = 0u64;
            let mut now = 0u64;
            for _ in 0..n {
                seq += 1;
                w.push(now + next_delay(&mut rng), seq, seq);
            }
            // Warm to steady state so the measured iterations see the
            // amortized cost, not the first cascade after the bulk load.
            for _ in 0..n {
                seq += 1;
                w.push(now + next_delay(&mut rng), seq, seq);
                now = w.pop_before(u64::MAX).expect("populated").0;
            }
            b.iter(|| {
                seq += 1;
                w.push(now + next_delay(&mut rng), seq, seq);
                let popped = w.pop_before(u64::MAX).expect("populated");
                now = popped.0;
                black_box(popped.2)
            });
        });
    }
    group.finish();
}

fn heap_steady(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue/heap");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1));
    for (n, label) in SIZES {
        group.bench_function(format!("steady_{label}"), |b| {
            let mut h: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut rng = 0x9e3779b97f4a7c15u64;
            let mut seq = 0u64;
            let mut now = 0u64;
            for _ in 0..n {
                seq += 1;
                h.push(Reverse((now + next_delay(&mut rng), seq)));
            }
            b.iter(|| {
                seq += 1;
                h.push(Reverse((now + next_delay(&mut rng), seq)));
                let Reverse((t, s)) = h.pop().expect("populated");
                now = t;
                black_box(s)
            });
        });
    }
    group.finish();
}

/// IDEM's dominant timer pattern: arm a retransmit/reject timer per
/// request, cancel it shortly after (the request completed), and let the
/// stale queue entry drop at its scheduled time through the same
/// `is_live` probe the simulator's dispatch makes. One iteration is the
/// whole arm → schedule → cancel → expire lifecycle.
fn timer_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue/timer");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1));
    for (n, label) in SIZES {
        group.bench_function(format!("arm_cancel_{label}"), |b| {
            let mut w = TimingWheel::new();
            let mut table: TimerTable<u64> = TimerTable::new();
            let mut rng = 0x9e3779b97f4a7c15u64;
            let mut seq = 0u64;
            let mut now = 0u64;
            // Pending population of cancelled entries awaiting expiry.
            let mut pending = Vec::with_capacity(n);
            for i in 0..n {
                let id = table.arm(i as u64);
                seq += 1;
                w.push(now + 200_000 + next_delay(&mut rng), seq, id);
                pending.push(id);
                table.cancel(id);
            }
            // Warm to steady state (see `wheel_steady`).
            for _ in 0..n {
                let id = table.arm(seq);
                seq += 1;
                w.push(now + 200_000 + next_delay(&mut rng), seq, id);
                table.cancel(id);
                if let Some((t, _, stale)) = w.pop_before(u64::MAX) {
                    now = t;
                    black_box(table.is_live(stale));
                }
            }
            b.iter(|| {
                let id = table.arm(seq);
                seq += 1;
                w.push(now + 200_000 + next_delay(&mut rng), seq, id);
                table.cancel(id);
                // Expire one stale entry to keep the population flat.
                if let Some((t, _, stale)) = w.pop_before(u64::MAX) {
                    now = t;
                    black_box(table.is_live(stale));
                }
            });
        });
    }
    group.finish();
}

/// Wire type for the saturated-backlog scenario: a fixed-size unit of work.
#[derive(Clone, Debug)]
struct WorkUnit;

impl Wire for WorkUnit {
    fn wire_size(&self) -> usize {
        64
    }
}

/// Sink that charges a fixed CPU cost per message, so the backlog drains
/// at a bounded rate instead of collapsing into a single instant.
struct Sink;

impl Node<WorkUnit> for Sink {
    fn on_message(&mut self, ctx: &mut Context<'_, WorkUnit>, _from: NodeId, _msg: WorkUnit) {
        ctx.charge(Duration::from_micros(1));
    }
}

/// Flooder that enqueues the whole burst at start-up.
struct Flooder {
    sink: NodeId,
    count: u32,
}

impl Node<WorkUnit> for Flooder {
    fn on_start(&mut self, ctx: &mut Context<'_, WorkUnit>) {
        for _ in 0..self.count {
            ctx.send(self.sink, WorkUnit);
        }
    }

    fn on_message(&mut self, _: &mut Context<'_, WorkUnit>, _: NodeId, _: WorkUnit) {}
}

/// The scheduler's worst case without run-to-completion draining: one
/// node with 100k messages queued against it and a nonzero per-message
/// CPU charge, every backlog item a drain. The scheduler runs them inline
/// against the event horizon instead of round-tripping a wake through the
/// queue per item. One iteration builds the simulation and runs the burst
/// to completion.
fn saturated_backlog(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue/saturated");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    const BACKLOG: u32 = 100_000;
    group.bench_function("backlog_100k", |b| {
        b.iter(|| {
            let link = LinkSpec::new(Duration::from_micros(100), Duration::ZERO);
            let mut sim: Simulation<WorkUnit> =
                Simulation::with_network(0xBAC1, Network::new(link));
            let sink = sim.add_node(Box::new(Sink));
            sim.add_node(Box::new(Flooder {
                sink,
                count: BACKLOG,
            }));
            // 100k messages at 1 µs each drain in 100 ms of sim time.
            sim.run_until(SimTime::from_nanos(200_000_000));
            black_box(sim.events_processed())
        });
    });
    group.finish();
}

/// Broadcast sink: charges a small per-message cost so deliveries spread
/// out instead of collapsing into one instant.
struct FanoutSink;

impl Node<WorkUnit> for FanoutSink {
    fn on_message(&mut self, ctx: &mut Context<'_, WorkUnit>, _from: NodeId, _msg: WorkUnit) {
        ctx.charge(Duration::from_micros(2));
    }
}

/// Re-multicasts to every sink on a timer, keeping a constant stream of
/// fan-out in flight.
struct Broadcaster {
    sinks: Vec<NodeId>,
}

impl Node<WorkUnit> for Broadcaster {
    fn on_start(&mut self, ctx: &mut Context<'_, WorkUnit>) {
        ctx.set_timer(Duration::from_micros(50), WorkUnit);
    }

    fn on_message(&mut self, _: &mut Context<'_, WorkUnit>, _: NodeId, _: WorkUnit) {}

    fn on_timer(
        &mut self,
        ctx: &mut Context<'_, WorkUnit>,
        _id: idem_simnet::TimerId,
        _msg: WorkUnit,
    ) {
        ctx.multicast(self.sinks.iter().copied(), WorkUnit);
        ctx.set_timer(Duration::from_micros(50), WorkUnit);
    }
}

/// Multicast fan-out (1 sender → 3/9/27 recipients): one shared arena body
/// and one queue entry per recipient. The replication protocols fan every
/// request out to all replicas, so this is the microbenchmark of that path.
fn broadcast_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue/fanout");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for fanout in [3usize, 9, 27] {
        group.bench_function(format!("broadcast_{fanout}"), |b| {
            b.iter(|| {
                let link = LinkSpec::new(Duration::from_micros(100), Duration::ZERO);
                let mut sim: Simulation<WorkUnit> =
                    Simulation::with_network(0xFA0 + fanout as u64, Network::new(link));
                let sinks: Vec<NodeId> = (0..fanout)
                    .map(|_| sim.add_node(Box::new(FanoutSink)))
                    .collect();
                sim.add_node(Box::new(Broadcaster { sinks }));
                sim.run_until(SimTime::from_nanos(100_000_000));
                black_box(sim.events_processed())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    wheel_steady,
    heap_steady,
    timer_churn,
    saturated_backlog,
    broadcast_fanout
);
criterion_main!(benches);
