//! Massive multiplayer online gaming (paper Section 2.3): only the
//! replicated game service knows the authoritative positions of all
//! players; clients can *predict* movement locally when no timely result
//! arrives, at the cost of prediction error on sudden direction changes.
//!
//! Each player moves on a random-walk-with-momentum path and posts position
//! updates. On a rejected update the client dead-reckons (extrapolates the
//! last known velocity) and we measure the resulting position error — the
//! quality gap between the replicated service and the fallback. A login
//! storm doubles the player count mid-run.
//!
//! Run with:
//! ```text
//! cargo run --release -p idem-examples --bin online_game
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
use idem_simnet::{NodeId, Simulation};
use rand::rngs::SmallRng;
use rand::Rng;

#[derive(Default)]
struct Telemetry {
    authoritative_updates: u64,
    predicted_updates: u64,
    total_prediction_error: f64,
    worst_prediction_error: f64,
    reject_decision_ms_total: f64,
}

/// One player: random walk with momentum; occasionally dodges (sudden
/// direction change), which is where dead reckoning goes wrong.
struct Player {
    id: u64,
    pos: (f64, f64),
    vel: (f64, f64),
    /// Where the *server* (and other players) last saw us.
    server_pos: (f64, f64),
    server_vel: (f64, f64),
    telemetry: Rc<RefCell<Telemetry>>,
}

impl Player {
    fn step(&mut self, rng: &mut SmallRng) {
        if rng.gen::<f64>() < 0.08 {
            // Sudden dodge: new random direction.
            let angle = rng.gen_range(0.0..std::f64::consts::TAU);
            self.vel = (angle.cos() * 2.0, angle.sin() * 2.0);
        }
        self.pos.0 += self.vel.0;
        self.pos.1 += self.vel.1;
    }

    fn encode_update(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(32);
        v.extend_from_slice(&self.pos.0.to_le_bytes());
        v.extend_from_slice(&self.pos.1.to_le_bytes());
        v.extend_from_slice(&self.vel.0.to_le_bytes());
        v.extend_from_slice(&self.vel.1.to_le_bytes());
        Command::Update {
            key: self.id,
            value: v,
        }
        .encode()
    }
}

impl ClientApp for Player {
    fn next_command(&mut self, rng: &mut SmallRng) -> Option<Vec<u8>> {
        self.step(rng);
        Some(self.encode_update())
    }

    fn on_outcome(&mut self, outcome: &OperationOutcome) {
        let mut t = self.telemetry.borrow_mut();
        match outcome.kind {
            OutcomeKind::Success => {
                t.authoritative_updates += 1;
                self.server_pos = self.pos;
                self.server_vel = self.vel;
            }
            _ => {
                // Fallback: everyone else dead-reckons us from the last
                // authoritative state. Measure how wrong that is.
                t.predicted_updates += 1;
                t.reject_decision_ms_total += outcome.latency.as_secs_f64() * 1e3;
                self.server_pos.0 += self.server_vel.0;
                self.server_pos.1 += self.server_vel.1;
                let dx = self.server_pos.0 - self.pos.0;
                let dy = self.server_pos.1 - self.pos.1;
                let err = (dx * dx + dy * dy).sqrt();
                t.total_prediction_error += err;
                t.worst_prediction_error = t.worst_prediction_error.max(err);
            }
        }
    }
}

fn main() {
    const PLAYERS: u32 = 60;
    const LOGIN_STORM: u32 = 600;
    const RUN: Duration = Duration::from_secs(20);

    let mut sim: Simulation<IdemMessage> = Simulation::new(99);
    let replicas: Vec<NodeId> = (0..3).map(|_| sim.reserve_node()).collect();
    let clients: Vec<NodeId> = (0..PLAYERS + LOGIN_STORM)
        .map(|_| sim.reserve_node())
        .collect();
    let dir = Directory::new(replicas.clone(), clients.clone());

    for (i, &node) in replicas.iter().enumerate() {
        sim.install_node(
            node,
            Box::new(IdemReplica::new(
                IdemConfig::for_faults(1).with_message_cost(Duration::from_nanos(500)),
                ReplicaId(i as u32),
                dir.clone(),
                Box::new(KvStore::with_costs(
                    Duration::from_micros(20),
                    Duration::ZERO,
                )),
            )),
        );
    }

    let telemetry = Rc::new(RefCell::new(Telemetry::default()));
    // Game clients tick every ~10 ms (100 Hz update rate would be 10 ms).
    let base = ClientConfig::for_quorum(QuorumSet::for_faults(1))
        .with_think_time(Duration::from_millis(10));
    for (i, &node) in clients.iter().enumerate() {
        let i = i as u32;
        let cfg = if i >= PLAYERS {
            base.with_start_delay(RUN / 2) // the login storm
                .with_start_stagger(Duration::from_millis(500))
        } else {
            base
        };
        let player = Player {
            id: u64::from(i),
            pos: (0.0, 0.0),
            vel: (1.0, 0.0),
            server_pos: (0.0, 0.0),
            server_vel: (1.0, 0.0),
            telemetry: telemetry.clone(),
        };
        sim.install_node(
            node,
            Box::new(IdemClient::new(
                cfg,
                ClientId(i),
                dir.clone(),
                Box::new(player),
            )),
        );
    }

    sim.run_for(RUN);

    let t = telemetry.borrow();
    let total = t.authoritative_updates + t.predicted_updates;
    println!(
        "online game: {PLAYERS} players, login storm of {LOGIN_STORM} at t={:?}",
        RUN / 2
    );
    println!(
        "  authoritative position updates : {}",
        t.authoritative_updates
    );
    println!(
        "  dead-reckoned ticks (rejected)  : {} ({:.1}% of {total})",
        t.predicted_updates,
        100.0 * t.predicted_updates as f64 / total.max(1) as f64
    );
    if t.predicted_updates > 0 {
        println!(
            "  avg / worst prediction error    : {:.2} / {:.2} world units",
            t.total_prediction_error / t.predicted_updates as f64,
            t.worst_prediction_error,
        );
        println!(
            "  avg fallback decision time      : {:.2} ms",
            t.reject_decision_ms_total / t.predicted_updates as f64
        );
    }
    println!(
        "  => the game loop switched to movement prediction within milliseconds\n\
         \u{20}    instead of stalling frames while the login storm passed."
    );
}
