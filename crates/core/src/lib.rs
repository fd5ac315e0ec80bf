#![warn(missing_docs)]

//! # IDEM — state-machine replication with collaborative proactive rejection
//!
//! This crate implements the IDEM protocol from *"Targeting Tail Latency in
//! Replicated Systems with Proactive Rejection"* (Lawniczak & Distler,
//! MIDDLEWARE 2024): a crash-fault-tolerant, leader-based replication
//! protocol (`n = 2f + 1`) whose distinguishing feature is **collaborative
//! overload prevention** — every replica runs a local acceptance test on
//! each incoming client request and proactively rejects requests under high
//! load, keeping response times stable instead of letting queues (and tail
//! latency) explode.
//!
//! ## Protocol structure (paper Sections 4–5)
//!
//! 1. **Request.** Clients multicast `REQUEST⟨id, command⟩` to all replicas.
//! 2. **Acceptance test.** Each replica independently accepts or rejects
//!    ([`AcceptancePolicy`]); a rejection immediately answers the client
//!    with `REJECT⟨id⟩`. Recently rejected requests are cached.
//! 3. **Require.** Accepting replicas send `REQUIRE⟨id⟩` to the leader,
//!    which proposes an id once `f + 1` replicas vouch for it.
//! 4. **Propose / Commit.** Paxos-style two-phase agreement over request
//!    *ids* (bodies are disseminated by clients and the forwarding
//!    mechanism).
//! 5. **Execution.** In sequence order once an instance is committed and
//!    the body is held; only the leader replies.
//! 6. **Forwarding** (observable via [`ReplicaStats`]): delayed forwards,
//!    the rejected-request cache, and on-demand `FETCH` keep accepted
//!    requests available (liveness Property 5.1 of the paper).
//! 7. **Implicit GC + checkpoints** move the instance window without extra
//!    coordination; **view changes** replace crashed leaders.
//!
//! Clients ([`IdemClient`]) observe the three outcomes of Section 5.3 —
//! success, ambivalence (`n − f` rejects), failure (`n` rejects) — with
//! pessimistic or optimistic reject handling ([`RejectHandling`]).
//!
//! ## Example
//!
//! ```
//! use idem_core::{ClientApp, ClientConfig, IdemClient, IdemConfig, IdemReplica,
//!                 IdemMessage, OperationOutcome, OutcomeKind};
//! use idem_common::{Directory, QuorumSet};
//! use idem_common::app::NullApp;
//! use idem_simnet::{NodeId, Simulation};
//! use std::cell::Cell;
//! use std::rc::Rc;
//! use std::time::Duration;
//!
//! // A trivial client application issuing five commands and counting wins.
//! struct App { sent: u32, ok: Rc<Cell<u32>> }
//! impl ClientApp for App {
//!     fn next_command(&mut self, _rng: &mut rand::rngs::SmallRng) -> Option<Vec<u8>> {
//!         if self.sent == 5 { return None; }
//!         self.sent += 1;
//!         Some(b"op".to_vec())
//!     }
//!     fn on_outcome(&mut self, outcome: &OperationOutcome) {
//!         if outcome.kind == OutcomeKind::Success {
//!             self.ok.set(self.ok.get() + 1);
//!         }
//!     }
//! }
//!
//! let cfg = IdemConfig::for_faults(1);
//! let mut sim: Simulation<IdemMessage> = Simulation::new(7);
//! let replicas: Vec<NodeId> = (0..3).map(|_| sim.reserve_node()).collect();
//! let clients: Vec<NodeId> = vec![sim.reserve_node()];
//! let dir = Directory::new(replicas.clone(), clients.clone());
//! for (i, &node) in replicas.iter().enumerate() {
//!     let replica = IdemReplica::new(cfg.clone(), idem_common::ReplicaId(i as u32),
//!                                    dir.clone(), Box::new(NullApp::default()));
//!     sim.install_node(node, Box::new(replica));
//! }
//! let ok = Rc::new(Cell::new(0));
//! let client = IdemClient::new(ClientConfig::for_quorum(QuorumSet::for_faults(1)),
//!                              idem_common::ClientId(0), dir.clone(),
//!                              Box::new(App { sent: 0, ok: ok.clone() }));
//! sim.install_node(clients[0], Box::new(client));
//! sim.run_for(Duration::from_secs(2));
//! assert_eq!(ok.get(), 5);
//! ```

pub mod acceptance;
pub mod client;
pub mod config;
pub mod messages;
pub mod replica;

pub use acceptance::AcceptancePolicy;
pub use client::{
    ClientApp, ClientConfig, ClientStats, IdemClient, IdemPort, OperationOutcome, OutcomeKind,
    RejectHandling,
};
pub use config::IdemConfig;
pub use messages::{CheckpointData, IdemMessage, WindowEntry};
pub use replica::{IdemReplica, ReplicaStats};
