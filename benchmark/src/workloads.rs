//! The four workloads: what each offers to the cluster, derived from the
//! seed alone. The program under test receives only the generated
//! `LoadScenario` / client population and the fault schedule.
//!
//! Every duration is a base value times `scale`; `scale = 1` is the size
//! `BENCHMARK.json`'s `run_seconds` was calibrated for (see the README for
//! the measured host seconds and event counts behind each constant).

use std::time::Duration;

use idem_common::{ArrivalProcess, LoadPhase, MmppState, PersistMode};
use idem_harness::experiments::load::CAPACITY_REQ_S;
use idem_harness::scenario::BASELINE_CLIENTS;
use idem_harness::{LoadScenario, Protocol};
use idem_kv::WorkloadSpec;
use idem_simnet::DiskLatency;

use crate::wiring::Durability;

/// Goodput deadline of every workload.
pub const SLA: Duration = Duration::from_millis(100);

/// A fault injected during the measured window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Crash the replica for the rest of the run.
    Crash(usize),
    /// Amnesia-wipe the replica, truncating its disk to the last fsync.
    Wipe(usize),
}

/// Who offers the load of a cell.
#[derive(Debug, Clone)]
pub enum Load {
    /// Closed loop: each client sends its next request after the previous
    /// one completed.
    Closed {
        /// Number of clients.
        clients: u32,
        /// What they issue.
        workload: WorkloadSpec,
        /// Simulated interval before measurement starts.
        warmup: Duration,
        /// The measured simulated interval.
        window: Duration,
    },
    /// Open loop: arrivals fire from a virtual-time timer whether or not
    /// the cluster keeps up.
    Open(LoadScenario),
}

/// One simulation of a workload.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The system under test.
    pub protocol: Protocol,
    /// Simulation seed.
    pub seed: u64,
    /// The offered load.
    pub load: Load,
    /// Storage discipline of the replicas.
    pub durability: Durability,
    /// Faults, as offsets from the start of the measured window, ascending.
    pub faults: Vec<(Duration, Fault)>,
}

impl Cell {
    /// Simulated interval before measurement starts.
    pub fn warmup(&self) -> Duration {
        match &self.load {
            Load::Closed { warmup, .. } => *warmup,
            Load::Open(sc) => sc.warmup,
        }
    }

    /// The measured simulated interval.
    pub fn window(&self) -> Duration {
        match &self.load {
            Load::Closed { window, .. } => *window,
            Load::Open(sc) => sc.total_duration() - sc.warmup,
        }
    }
}

/// A workload's cells; the first is the primary one, whose simulated
/// numbers are the workload's end-to-end metrics.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The cells, run back to back.
    pub cells: Vec<Cell>,
}

impl Workload {
    /// Whether the replicas persist: WAL and disk counters must read zero
    /// when they do not.
    pub fn durable(&self) -> bool {
        self.cells
            .iter()
            .any(|cell| cell.durability.persist != PersistMode::Disabled)
    }
}

fn secs(base: f64, scale: f64) -> Duration {
    Duration::from_secs_f64(base * scale)
}

fn open(protocol: Protocol, scenario: LoadScenario) -> Cell {
    Cell {
        protocol,
        seed: scenario.seed,
        load: Load::Open(scenario),
        durability: Durability::default(),
        faults: Vec::new(),
    }
}

/// The Fig. 6 overload point: 4x the client count that saturates the
/// cluster, on all three protocols at the same operating point.
fn closed_saturated(seed: u64, scale: f64) -> Workload {
    let cell = |protocol: Protocol, window: f64| Cell {
        protocol,
        seed,
        load: Load::Closed {
            clients: 4 * BASELINE_CLIENTS,
            workload: WorkloadSpec::update_heavy(),
            warmup: secs(0.6, scale),
            window: secs(window, scale),
        },
        durability: Durability::default(),
        faults: Vec::new(),
    };
    Workload {
        name: "closed_saturated",
        cells: vec![
            cell(Protocol::idem(), 10.0),
            cell(Protocol::paxos(), 10.0),
            cell(Protocol::smart(), 10.0),
        ],
    }
}

/// The paper's headline scenario: calm, a spike at 2.2x capacity, calm.
fn open_flash(seed: u64, scale: f64) -> Workload {
    let scenario = LoadScenario::new(
        "open_flash",
        100_000,
        CAPACITY_REQ_S,
        vec![
            LoadPhase::new("calm", secs(4.0, scale), 0.7),
            LoadPhase::new("spike", secs(6.0, scale), 2.2),
            LoadPhase::new("recover", secs(4.0, scale), 0.7),
        ],
    )
    .with_warmup(secs(1.5, scale))
    .with_sla(SLA)
    .with_seed(seed);
    Workload {
        name: "open_flash",
        cells: vec![open(Protocol::idem(), scenario)],
    }
}

/// Square-wave bursts at 1.9x capacity for 200 ms between lulls at 0.3x for
/// 400 ms, with a fast two-state MMPP (mean 1.0, 3 ms cycle) on top: the
/// mean is 0.83x, so the backlog builds and drains every cycle and goodput
/// stays above zero on a protocol with no reject path. The slow wave is a
/// phase schedule rather than MMPP dwells because exponential dwells of
/// 100-200 ms made every simulated metric differ by 17-49 % between seeds.
fn open_backlog(seed: u64, scale: f64) -> Workload {
    let cycles = (50.0 * scale).ceil() as usize;
    let phases = (0..cycles)
        .flat_map(|_| {
            [
                LoadPhase::new("lull", Duration::from_millis(400), 0.4),
                LoadPhase::new("burst", Duration::from_millis(200), 2.5),
            ]
        })
        .collect();
    let scenario = LoadScenario::new("open_backlog", 100_000, 0.75 * CAPACITY_REQ_S, phases)
        .with_process(ArrivalProcess::Mmpp(vec![
            MmppState {
                rate_mult: 0.8,
                mean_dwell: Duration::from_millis(2),
            },
            MmppState {
                rate_mult: 1.4,
                mean_dwell: Duration::from_millis(1),
            },
        ]))
        .with_workload(WorkloadSpec::read_heavy())
        .with_warmup(secs(8.0, scale))
        .with_sla(SLA)
        .with_seed(seed);
    Workload {
        name: "open_backlog",
        cells: vec![open(Protocol::smart(), scenario)],
    }
}

/// Arrival rate of `durable_crash`: about half of what the cluster
/// sustains with the WAL on and this disk (see the README).
pub const DURABLE_RATE_REQ_S: f64 = 4_000.0;

/// Keyspace of `durable_crash`. Every checkpoint appends a full snapshot to
/// the simulated disk, which lives in host memory and is never compacted;
/// 256 keys of 1 KiB keep a checkpoint record near the size of the 128
/// operations it covers instead of 10 MB.
pub const DURABLE_KEYS: u64 = 256;

/// The only workload where the WAL, the disk, checkpoint transfer, view
/// change and recovery run. Requests stay on schedule through the outage,
/// so the ones due while no leader exists are counted.
fn durable_crash(seed: u64, scale: f64) -> Workload {
    let window = 8.0;
    let scenario = LoadScenario::new(
        "durable_crash",
        10_000,
        DURABLE_RATE_REQ_S,
        vec![LoadPhase::new("steady", secs(window, scale), 1.0)],
    )
    .with_workload(WorkloadSpec {
        keys: DURABLE_KEYS,
        ..WorkloadSpec::write_only(1024)
    })
    .with_warmup(secs(3.5, scale))
    .with_sla(SLA)
    .with_seed(seed);
    let mut cell = open(Protocol::idem(), scenario);
    cell.durability = Durability {
        persist: PersistMode::Wal,
        disk: DiskLatency {
            append: Duration::from_micros(2),
            fsync: Duration::from_micros(25),
        },
        exec_log: true,
    };
    cell.faults = vec![
        (secs(window / 3.0, scale), Fault::Crash(0)),
        (secs(2.0 * window / 3.0, scale), Fault::Wipe(2)),
    ];
    Workload {
        name: "durable_crash",
        cells: vec![cell],
    }
}

/// Builds the named workload for `seed` at `scale`.
pub fn build(name: &str, seed: u64, scale: f64) -> Option<Workload> {
    Some(match name {
        "closed_saturated" => closed_saturated(seed, scale),
        "open_flash" => open_flash(seed, scale),
        "open_backlog" => open_backlog(seed, scale),
        "durable_crash" => durable_crash(seed, scale),
        _ => return None,
    })
}
