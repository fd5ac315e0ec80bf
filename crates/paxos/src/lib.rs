#![warn(missing_docs)]

//! Steady-leader Paxos baseline ("Paxos for System Builders" style) with
//! optional leader-based rejection.
//!
//! This crate provides the two Paxos-family systems the IDEM paper compares
//! against:
//!
//! * **Paxos** — a crash-fault-tolerant, steady-leader replication protocol
//!   in the style of Kirsch & Amir's *Paxos for System Builders*: clients
//!   submit to the leader, the leader orders full requests and distributes
//!   them to the followers, execution replies come from the leader. Request
//!   queues are **unbounded**, so under overload the end-to-end latency
//!   explodes — the two-tier behaviour of paper Figure 2.
//! * **Paxos_LBR** — the same protocol with *leader-based rejection*
//!   (paper Section 3.3): the leader rejects incoming requests while its
//!   load exceeds a threshold. Effective in the normal case, but rejection
//!   notifications stop entirely while the leader is crashed (Figures 3
//!   and 10d), which is precisely the weakness IDEM's collaborative
//!   approach removes.
//!
//! Differences from IDEM worth noting (they drive the measured contrasts):
//!
//! * Clients talk to the *presumed leader* only and fail over by timeout,
//!   so a leader crash costs multiple client timeouts plus the view change.
//! * Proposals carry **full request bodies** (the leader-distribution
//!   bottleneck of Section 4.2), not ids.
//! * No acceptance test, no forwarding, no rejected-request cache.
//!
//! # Example
//!
//! ```
//! use idem_paxos::{PaxosClient, PaxosClientConfig, PaxosConfig, PaxosMessage, PaxosReplica};
//! use idem_common::app::NullApp;
//! use idem_common::driver::{ClientApp, OperationOutcome};
//! use idem_common::{ClientId, Directory, ReplicaId};
//! use idem_simnet::{NodeId, Simulation};
//! use std::cell::Cell;
//! use std::rc::Rc;
//! use std::time::Duration;
//!
//! struct App { left: u32, ok: Rc<Cell<u32>> }
//! impl ClientApp for App {
//!     fn next_command(&mut self, _: &mut rand::rngs::SmallRng) -> Option<Vec<u8>> {
//!         if self.left == 0 { return None; }
//!         self.left -= 1;
//!         Some(b"x".to_vec())
//!     }
//!     fn on_outcome(&mut self, o: &OperationOutcome) {
//!         if o.kind.is_success() { self.ok.set(self.ok.get() + 1); }
//!     }
//! }
//!
//! let mut sim: Simulation<PaxosMessage> = Simulation::new(3);
//! let replicas: Vec<NodeId> = (0..3).map(|_| sim.reserve_node()).collect();
//! let clients = vec![sim.reserve_node()];
//! let dir = Directory::new(replicas.clone(), clients.clone());
//! for (i, &node) in replicas.iter().enumerate() {
//!     sim.install_node(node, Box::new(PaxosReplica::new(
//!         PaxosConfig::for_faults(1), ReplicaId(i as u32), dir.clone(),
//!         Box::new(NullApp::default()))));
//! }
//! let ok = Rc::new(Cell::new(0));
//! sim.install_node(clients[0], Box::new(PaxosClient::new(
//!     PaxosClientConfig::default(), ClientId(0), dir.clone(),
//!     Box::new(App { left: 5, ok: ok.clone() }))));
//! sim.run_for(Duration::from_secs(2));
//! assert_eq!(ok.get(), 5);
//! ```

pub mod client;
pub mod config;
pub mod messages;
pub mod replica;

pub use client::{PaxosClient, PaxosClientConfig, PaxosPort};
pub use config::{PaxosConfig, RejectPolicy};
pub use messages::{PaxosMessage, PaxosWindowEntry};
pub use replica::{PaxosReplica, PaxosReplicaStats};
