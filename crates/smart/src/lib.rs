#![warn(missing_docs)]

//! A BFT-SMaRt-inspired batching replication baseline, configured for
//! crash fault tolerance.
//!
//! Stands in for the production-grade BFT-SMaRt library the paper compares
//! against (run in its CFT setting). The implementation mirrors the
//! characteristics that matter for the evaluation:
//!
//! * Clients multicast requests to **all** replicas; **every** replica
//!   replies and the client uses the first reply (CFT mode).
//! * The leader runs **sequential consensus over request batches**
//!   (Mod-SMaRt style): the next batch is proposed when the previous
//!   instance decides, so batch sizes grow naturally with load and peak
//!   throughput is high.
//! * Request pools are **unbounded** — no admission control, so overload
//!   still explodes latency, just from a higher peak.
//!
//! # Example
//!
//! ```
//! use idem_smart::{SmartClient, SmartClientConfig, SmartConfig, SmartMessage, SmartReplica};
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
//! let mut sim: Simulation<SmartMessage> = Simulation::new(5);
//! let replicas: Vec<NodeId> = (0..3).map(|_| sim.reserve_node()).collect();
//! let clients = vec![sim.reserve_node()];
//! let dir = Directory::new(replicas.clone(), clients.clone());
//! for (i, &node) in replicas.iter().enumerate() {
//!     sim.install_node(node, Box::new(SmartReplica::new(
//!         SmartConfig::for_faults(1), ReplicaId(i as u32), dir.clone(),
//!         Box::new(NullApp::default()))));
//! }
//! let ok = Rc::new(Cell::new(0));
//! sim.install_node(clients[0], Box::new(SmartClient::new(
//!     SmartClientConfig::default(), ClientId(0), dir.clone(),
//!     Box::new(App { left: 5, ok: ok.clone() }))));
//! sim.run_for(Duration::from_secs(2));
//! assert_eq!(ok.get(), 5);
//! ```

pub mod client;
pub mod config;
pub mod messages;
pub mod replica;

pub use client::{SmartClient, SmartClientConfig, SmartPort};
pub use config::SmartConfig;
pub use messages::SmartMessage;
pub use replica::{SmartReplica, SmartReplicaStats};
