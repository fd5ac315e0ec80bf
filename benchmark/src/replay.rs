//! Host cost of the layers no wrapper can reach.
//!
//! `TimingWheel`, `MessageArena`, `Network::sample`, the WAL codec,
//! `Histogram`, `Recorder`, `ArrivalSampler`, `BackoffWheel` and the YCSB
//! generator are called from inside the simulator or a handler, so a traced
//! run sees them only as part of a larger span. Each function here replays
//! one of them through its public interface at the depth, sizes and
//! distribution the workload reached, and returns nanoseconds per
//! operation; multiplied by the workload's own count that is the layer's
//! estimated share.

use std::hint::black_box;
use std::time::{Duration, Instant};

use idem_common::driver::{OperationOutcome, OutcomeKind};
use idem_common::{
    ArrivalProcess, ArrivalSampler, BackoffWheel, ClientId, OpNumber, RequestId, WalRecord,
};
use idem_harness::cluster::experiment_network;
use idem_harness::Recorder;
use idem_kv::{Workload, WorkloadSpec};
use idem_metrics::Histogram;
use idem_simnet::{MessageArena, NodeId, SimTime, TimingWheel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Operations per replay: long enough that the two clock reads vanish.
const OPS: u64 = 400_000;

fn per_op(start: Instant, ops: u64) -> f64 {
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// One pop plus one push on a wheel holding `depth` entries, most of them
/// far-out timers and the rest one link latency ahead — the population the
/// event queue holds under load.
pub fn wheel_push_pop_ns(depth: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(1);
    let mut wheel = TimingWheel::new();
    let mut seq = 0u64;
    for _ in 0..depth {
        seq += 1;
        wheel.push(rng.gen_range(0..1_500_000_000u64), seq, seq);
    }
    let start = Instant::now();
    for _ in 0..OPS {
        let (now, _, value) = wheel.pop_before(u64::MAX).expect("wheel stays populated");
        seq += 1;
        wheel.push(
            now + rng.gen_range(100_000..150_000u64),
            seq,
            black_box(value),
        );
    }
    per_op(start, OPS)
}

/// One insert plus one take on an arena holding `depth` live bodies.
pub fn arena_insert_take_ns(depth: u64) -> f64 {
    let mut arena = MessageArena::new();
    let mut live: std::collections::VecDeque<_> =
        (0..depth.max(1)).map(|i| arena.insert([i; 4], 1)).collect();
    let start = Instant::now();
    for i in 0..OPS {
        live.push_back(arena.insert(black_box([i; 4]), 1));
        let oldest = live.pop_front().expect("ring stays populated");
        black_box(arena.materialize(oldest, |m| *m));
    }
    per_op(start, OPS)
}

/// One latency draw from the experiments' network model.
pub fn net_sample_ns() -> f64 {
    let mut rng = SmallRng::seed_from_u64(2);
    let net = experiment_network();
    let start = Instant::now();
    for i in 0..OPS {
        black_box(net.sample(&mut rng, NodeId(0), NodeId(1 + (i % 3) as u32)));
    }
    per_op(start, OPS)
}

/// `(encode ns per record, decode ns per record)` over records a replica
/// actually wrote; zeros when it wrote none.
pub fn wal_codec_ns(records: &[Vec<u8>]) -> (f64, f64) {
    if records.is_empty() {
        return (0.0, 0.0);
    }
    let start = Instant::now();
    let decoded: Vec<WalRecord> = records
        .iter()
        .filter_map(|bytes| WalRecord::decode(black_box(bytes)))
        .collect();
    let decode = per_op(start, records.len() as u64);
    let start = Instant::now();
    for record in &decoded {
        black_box(record.encode());
    }
    let encode = per_op(start, decoded.len().max(1) as u64);
    (encode, decode)
}

/// One `Histogram::record` of a latency-like value.
pub fn histogram_record_ns() -> f64 {
    let mut rng = SmallRng::seed_from_u64(3);
    let mut histogram = Histogram::new();
    let start = Instant::now();
    for _ in 0..OPS {
        histogram.record(black_box(rng.gen_range(500_000..5_000_000u64)));
    }
    black_box(histogram.count());
    per_op(start, OPS)
}

/// One `Recorder::record` of a success, over `clients` sessions.
pub fn recorder_record_ns(clients: u32) -> f64 {
    let mut recorder = Recorder::new(Duration::ZERO, Duration::from_millis(5));
    let start = Instant::now();
    for i in 0..OPS {
        recorder.record(black_box(&OperationOutcome {
            id: RequestId::new(
                ClientId((i % u64::from(clients)) as u32),
                OpNumber(1 + i / u64::from(clients)),
            ),
            kind: OutcomeKind::Success,
            latency: Duration::from_micros(800 + i % 400),
            completed_at: SimTime::from_nanos(i * 20_000),
            result: None,
        }));
    }
    black_box(recorder.successes());
    per_op(start, OPS)
}

/// One `ArrivalSampler::next_gap` of `process` at `rate` arrivals/s.
pub fn next_gap_ns(process: &ArrivalProcess, rate: f64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(4);
    let mut sampler = ArrivalSampler::new(process.clone());
    let start = Instant::now();
    for _ in 0..OPS {
        black_box(sampler.next_gap(rate, &mut rng));
    }
    per_op(start, OPS)
}

/// One client through a `BackoffWheel`: inserted with the engine's 50-100 ms
/// pause, released by the 5 ms housekeeping tick.
pub fn backoff_insert_pop_ns(rate: f64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(5);
    let mut wheel = BackoffWheel::new(Duration::from_millis(5));
    let mut out = Vec::new();
    let gap_ns = (1e9 / rate) as u64;
    let (mut now, mut next_tick) = (0u64, 5_000_000u64);
    let start = Instant::now();
    for i in 0..OPS {
        now += gap_ns;
        wheel.insert(now + rng.gen_range(50_000_000..100_000_000u64), i as u32);
        if now >= next_tick {
            next_tick += 5_000_000;
            out.clear();
            wheel.pop_due(now, &mut out);
            black_box(out.len());
        }
    }
    per_op(start, OPS)
}

/// One encoded command from the YCSB generator.
pub fn next_command_ns(spec: WorkloadSpec) -> f64 {
    let mut rng = SmallRng::seed_from_u64(6);
    let mut workload = Workload::new(spec, 0);
    let start = Instant::now();
    for _ in 0..OPS {
        black_box(workload.next_command(&mut rng));
    }
    per_op(start, OPS)
}
