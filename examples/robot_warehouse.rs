//! Robot warehouse (paper Section 2.3): semi-autonomous robots ask a
//! replicated route-planning service for globally optimized routes; when
//! the service proactively rejects a request during a load burst, the
//! robot falls back to local sensor-based navigation — inferior, but
//! immediately available.
//!
//! The run has three phases: normal fleet operation, a burst phase where a
//! large second shift of robots comes online, and the tail after the burst
//! drains. The point of IDEM: during the burst the robots are *told*
//! within ~1.5 ms that they should self-navigate, instead of waiting on a
//! congested service.
//!
//! Run with:
//! ```text
//! cargo run --release -p idem-examples --bin robot_warehouse
//! ```

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use idem_common::{ClientId, Directory, QuorumSet, ReplicaId};
use idem_core::{
    ClientApp, ClientConfig, IdemClient, IdemConfig, IdemMessage, IdemReplica, OperationOutcome,
    OutcomeKind,
};
use idem_kv::{Command, KvStore};
use idem_simnet::{NodeId, SimTime, Simulation};
use rand::rngs::SmallRng;
use rand::Rng;

/// Shared fleet telemetry.
#[derive(Default)]
struct Fleet {
    planned_routes: u64,
    fallback_routes: u64,
    fallback_during_burst: u64,
    reject_latency_total: Duration,
    max_reject_latency: Duration,
}

/// One robot: requests a route update for its next waypoint; on rejection
/// it navigates by local sensors (a fallback with lower route quality).
struct Robot {
    id: u64,
    position: (f64, f64),
    fleet: Rc<RefCell<Fleet>>,
    burst_window: (Duration, Duration),
    remaining: Option<u64>,
}

impl Robot {
    /// Encodes "my position + destination" as an update to the planner's
    /// state (the planner keeps last known positions, Section 2.3).
    fn route_request(&mut self, rng: &mut SmallRng) -> Vec<u8> {
        self.position.0 += rng.gen_range(-1.0..1.0);
        self.position.1 += rng.gen_range(-1.0..1.0);
        let mut payload = Vec::with_capacity(16);
        payload.extend_from_slice(&self.position.0.to_le_bytes());
        payload.extend_from_slice(&self.position.1.to_le_bytes());
        Command::Update {
            key: self.id,
            value: payload,
        }
        .encode()
    }
}

impl ClientApp for Robot {
    fn next_command(&mut self, rng: &mut SmallRng) -> Option<Vec<u8>> {
        if let Some(rem) = &mut self.remaining {
            if *rem == 0 {
                return None;
            }
            *rem -= 1;
        }
        Some(self.route_request(rng))
    }

    fn on_outcome(&mut self, outcome: &OperationOutcome) {
        let mut fleet = self.fleet.borrow_mut();
        match outcome.kind {
            OutcomeKind::Success => fleet.planned_routes += 1,
            _ => {
                // Fallback: navigate by Lidar until the next attempt.
                fleet.fallback_routes += 1;
                let t = outcome.completed_at;
                let (b0, b1) = self.burst_window;
                if t >= SimTime::ZERO + b0 && t < SimTime::ZERO + b1 {
                    fleet.fallback_during_burst += 1;
                }
                fleet.reject_latency_total += outcome.latency;
                fleet.max_reject_latency = fleet.max_reject_latency.max(outcome.latency);
            }
        }
    }
}

fn main() {
    const BASE_ROBOTS: u32 = 30;
    const BURST_ROBOTS: u32 = 250;
    const BURST_AT: Duration = Duration::from_secs(8);
    const BURST_OPS: u64 = 400; // each burst robot performs a bounded task
    const RUN: Duration = Duration::from_secs(25);

    let mut sim: Simulation<IdemMessage> = Simulation::new(2024);
    let replicas: Vec<NodeId> = (0..3).map(|_| sim.reserve_node()).collect();
    let clients: Vec<NodeId> = (0..BASE_ROBOTS + BURST_ROBOTS)
        .map(|_| sim.reserve_node())
        .collect();
    let dir = Directory::new(replicas.clone(), clients.clone());

    let cfg = IdemConfig::for_faults(1).with_message_cost(Duration::from_nanos(500));
    for (i, &node) in replicas.iter().enumerate() {
        sim.install_node(
            node,
            Box::new(IdemReplica::new(
                cfg.clone(),
                ReplicaId(i as u32),
                dir.clone(),
                Box::new(KvStore::with_costs(
                    Duration::from_micros(20),
                    Duration::ZERO,
                )),
            )),
        );
    }

    let fleet = Rc::new(RefCell::new(Fleet::default()));
    let base_cfg = ClientConfig::for_quorum(QuorumSet::for_faults(1))
        .with_think_time(Duration::from_millis(2)); // robots replan every ~2 ms of travel
    let burst_cfg = base_cfg
        .with_start_delay(BURST_AT)
        .with_start_stagger(Duration::from_millis(500));
    for (i, &node) in clients.iter().enumerate() {
        let is_burst = (i as u32) >= BASE_ROBOTS;
        let robot = Robot {
            id: i as u64,
            position: (0.0, 0.0),
            fleet: fleet.clone(),
            burst_window: (BURST_AT, BURST_AT + Duration::from_secs(8)),
            remaining: is_burst.then_some(BURST_OPS),
        };
        let client_cfg = if is_burst { burst_cfg } else { base_cfg };
        sim.install_node(
            node,
            Box::new(IdemClient::new(
                client_cfg,
                ClientId(i as u32),
                dir.clone(),
                Box::new(robot),
            )),
        );
    }

    sim.run_for(RUN);

    let fleet = fleet.borrow();
    let total = fleet.planned_routes + fleet.fallback_routes;
    println!(
        "robot warehouse: {BASE_ROBOTS} robots + {BURST_ROBOTS} burst robots at t={BURST_AT:?}"
    );
    println!(
        "  route updates served by planner : {}",
        fleet.planned_routes
    );
    println!(
        "  local-sensor fallbacks          : {} ({:.1}% of {total})",
        fleet.fallback_routes,
        100.0 * fleet.fallback_routes as f64 / total.max(1) as f64
    );
    println!(
        "  fallbacks inside burst window   : {}",
        fleet.fallback_during_burst
    );
    if fleet.fallback_routes > 0 {
        println!(
            "  avg time-to-fallback-decision   : {:.2} ms (max {:.2} ms)",
            fleet.reject_latency_total.as_secs_f64() * 1e3 / fleet.fallback_routes as f64,
            fleet.max_reject_latency.as_secs_f64() * 1e3,
        );
    }
    println!(
        "  => robots always knew within milliseconds whether to self-navigate;\n\
         \u{20}    without proactive rejection they would have queued behind the burst."
    );
}
