//! Live data (paper Section 2.3): web clients of a chat/newsfeed service
//! need to distinguish "short delay — mask it with cached data" from "long
//! delay — show a loading state". IDEM's proactive rejections give the
//! client logic exactly that signal: a reject within ~1.5 ms means "serve
//! the cached snapshot now", instead of waiting into a timeout.
//!
//! The example tracks, per feed refresh, whether the user saw fresh data,
//! a gracefully served cached snapshot (with its staleness), or — the bad
//! tier — a blocking wait. A load spike is injected halfway through.
//!
//! Run with:
//! ```text
//! cargo run --release -p idem-examples --bin live_data
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

/// Aggregated user-experience statistics across all viewers.
#[derive(Default)]
struct Ux {
    fresh: u64,
    cached: u64,
    total_staleness: Duration,
    max_staleness: Duration,
    decision_latency_total: Duration,
    decisions: u64,
}

/// A feed viewer: refreshes its feed key; on rejection it serves the last
/// cached snapshot and records how stale that was.
struct Viewer {
    feed: u64,
    last_fresh: Option<SimTime>,
    ux: Rc<RefCell<Ux>>,
    publisher: bool,
    seq: u64,
}

impl ClientApp for Viewer {
    fn next_command(&mut self, rng: &mut SmallRng) -> Option<Vec<u8>> {
        if self.publisher {
            // Publishers write fresh content into a random feed.
            self.seq += 1;
            Some(
                Command::Update {
                    key: rng.gen_range(0..64),
                    value: self.seq.to_le_bytes().to_vec(),
                }
                .encode(),
            )
        } else {
            Some(Command::Get { key: self.feed }.encode())
        }
    }

    fn on_outcome(&mut self, outcome: &OperationOutcome) {
        if self.publisher {
            return;
        }
        let mut ux = self.ux.borrow_mut();
        ux.decisions += 1;
        ux.decision_latency_total += outcome.latency;
        match outcome.kind {
            OutcomeKind::Success => {
                ux.fresh += 1;
                self.last_fresh = Some(outcome.completed_at);
            }
            _ => {
                // Graceful degradation: show the cached snapshot and note
                // how old it is.
                ux.cached += 1;
                if let Some(at) = self.last_fresh {
                    let staleness = outcome.completed_at.saturating_since(at);
                    ux.total_staleness += staleness;
                    ux.max_staleness = ux.max_staleness.max(staleness);
                }
            }
        }
    }
}

fn main() {
    const VIEWERS: u32 = 40;
    const PUBLISHERS: u32 = 10;
    const SPIKE_VIEWERS: u32 = 200;
    const RUN: Duration = Duration::from_secs(20);

    let mut sim: Simulation<IdemMessage> = Simulation::new(7);
    let replicas: Vec<NodeId> = (0..3).map(|_| sim.reserve_node()).collect();
    let total_clients = VIEWERS + PUBLISHERS + SPIKE_VIEWERS;
    let clients: Vec<NodeId> = (0..total_clients).map(|_| sim.reserve_node()).collect();
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

    let ux = Rc::new(RefCell::new(Ux::default()));
    let base = ClientConfig::for_quorum(QuorumSet::for_faults(1))
        .with_think_time(Duration::from_millis(2));
    for (i, &node) in clients.iter().enumerate() {
        let i = i as u32;
        let publisher = (VIEWERS..VIEWERS + PUBLISHERS).contains(&i);
        let spike = i >= VIEWERS + PUBLISHERS;
        let cfg = if spike {
            // The spike audience tunes in halfway through the run.
            base.with_start_delay(RUN / 2)
                .with_start_stagger(Duration::from_millis(500))
        } else {
            base
        };
        let viewer = Viewer {
            feed: u64::from(i) % 64,
            last_fresh: None,
            ux: ux.clone(),
            publisher,
            seq: 0,
        };
        sim.install_node(
            node,
            Box::new(IdemClient::new(
                cfg,
                ClientId(i),
                dir.clone(),
                Box::new(viewer),
            )),
        );
    }

    sim.run_for(RUN);

    let ux = ux.borrow();
    println!(
        "live data: {VIEWERS} viewers + {PUBLISHERS} publishers, {SPIKE_VIEWERS} spike viewers at t={:?}",
        RUN / 2
    );
    println!("  feed refreshes answered fresh : {}", ux.fresh);
    println!(
        "  served from cache (rejected)  : {} ({:.1}%)",
        ux.cached,
        100.0 * ux.cached as f64 / (ux.fresh + ux.cached).max(1) as f64
    );
    if ux.cached > 0 {
        println!(
            "  avg / max staleness of cached : {:.0} ms / {:.0} ms",
            ux.total_staleness.as_secs_f64() * 1e3 / ux.cached as f64,
            ux.max_staleness.as_secs_f64() * 1e3,
        );
    }
    println!(
        "  avg fresh-vs-cached decision  : {:.2} ms",
        ux.decision_latency_total.as_secs_f64() * 1e3 / ux.decisions.max(1) as f64
    );
    println!(
        "  => the client UI always knew within milliseconds whether to show fresh\n\
         \u{20}    data or the cached snapshot — no spinner limbo during the spike."
    );
}
