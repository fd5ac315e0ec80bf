//! Leader crash walkthrough: watch IDEM's collaborative rejection stay
//! available while the leader is down and the view change runs — the
//! behaviour that rules out leader-based rejection (paper Sections 3.3
//! and 7.8).
//!
//! The cluster is driven into overload, the leader is crashed, and the
//! example prints a per-250 ms timeline of replies and rejects. Replies
//! pause for the view-change timeout (~1.5 s); rejects never do.
//!
//! Run with:
//! ```text
//! cargo run --release -p idem-examples --bin leader_crash
//! ```

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use idem_common::{ClientId, Directory, QuorumSet, ReplicaId};
use idem_core::{
    ClientApp, ClientConfig, IdemClient, IdemConfig, IdemMessage, IdemReplica, OperationOutcome,
    OutcomeKind,
};
use idem_kv::{KvStore, Workload, WorkloadSpec};
use idem_simnet::{NodeId, Simulation};
use rand::rngs::SmallRng;

const BIN: Duration = Duration::from_millis(250);

#[derive(Default)]
struct Timeline {
    replies: Vec<u64>,
    rejects: Vec<u64>,
}

impl Timeline {
    fn record(&mut self, at: idem_simnet::SimTime, success: bool) {
        let bin = (at.as_nanos() / BIN.as_nanos() as u64) as usize;
        let series = if success {
            &mut self.replies
        } else {
            &mut self.rejects
        };
        if series.len() <= bin {
            series.resize(bin + 1, 0);
        }
        series[bin] += 1;
    }

    fn at(series: &[u64], bin: usize) -> u64 {
        series.get(bin).copied().unwrap_or(0)
    }
}

struct LoadApp {
    workload: Workload,
    timeline: Rc<RefCell<Timeline>>,
}

impl ClientApp for LoadApp {
    fn next_command(&mut self, rng: &mut SmallRng) -> Option<Vec<u8>> {
        Some(self.workload.next_command(rng))
    }

    fn on_outcome(&mut self, outcome: &OperationOutcome) {
        self.timeline
            .borrow_mut()
            .record(outcome.completed_at, outcome.kind == OutcomeKind::Success);
    }
}

fn main() {
    const CLIENTS: u32 = 100; // 2x overload
    const CRASH_AT: Duration = Duration::from_secs(5);
    const RUN: Duration = Duration::from_secs(12);

    let mut sim: Simulation<IdemMessage> = Simulation::new(11);
    let replicas: Vec<NodeId> = (0..3).map(|_| sim.reserve_node()).collect();
    let clients: Vec<NodeId> = (0..CLIENTS).map(|_| sim.reserve_node()).collect();
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
    let timeline = Rc::new(RefCell::new(Timeline::default()));
    let client_cfg = ClientConfig::for_quorum(QuorumSet::for_faults(1));
    for (i, &node) in clients.iter().enumerate() {
        let app = LoadApp {
            workload: Workload::new(WorkloadSpec::update_heavy(), i as u64),
            timeline: timeline.clone(),
        };
        sim.install_node(
            node,
            Box::new(IdemClient::new(
                client_cfg,
                ClientId(i as u32),
                dir.clone(),
                Box::new(app),
            )),
        );
    }

    sim.run_until(idem_simnet::SimTime::ZERO + CRASH_AT);
    println!("crashing leader (replica 0) at t = {CRASH_AT:?}\n");
    sim.crash_now(replicas[0]);
    sim.run_until(idem_simnet::SimTime::ZERO + RUN);

    let timeline = timeline.borrow();
    println!("t [s]   replies/s   rejects/s");
    let bins = (RUN.as_nanos() / BIN.as_nanos()) as usize;
    let per_sec = 1.0 / BIN.as_secs_f64();
    for bin in 0..bins {
        let t = bin as f64 * BIN.as_secs_f64();
        let marker = if (t - CRASH_AT.as_secs_f64()).abs() < 1e-9 {
            "   <- leader crash"
        } else {
            ""
        };
        println!(
            "{t:5.2}   {:9.0}   {:9.0}{marker}",
            Timeline::at(&timeline.replies, bin) as f64 * per_sec,
            Timeline::at(&timeline.rejects, bin) as f64 * per_sec,
        );
    }

    for (i, &node) in replicas.iter().enumerate().skip(1) {
        let replica = sim.node_as::<IdemReplica>(node).expect("replica");
        println!(
            "\nreplica {i}: now in view {} ({} view change(s)), rejected {} requests",
            replica.view(),
            replica
                .stats()
                .view_changes_completed
                .max(replica.stats().view_changes_started),
            replica.stats().rejected,
        );
    }
    println!(
        "\n=> replies pause for the ~1.5 s view change, rejects continue throughout:\n\
         \u{20}  collaborative overload prevention has no single point of failure."
    );
}
