#![warn(missing_docs)]

//! Shared vocabulary for the IDEM replication suite.
//!
//! This crate defines the identifiers, request/reply envelope types, and
//! small protocol-agnostic abstractions (quorum arithmetic, sliding
//! sequence-number windows, the replicated [`StateMachine`] trait) that are
//! used by every protocol implementation in the workspace:
//!
//! * `idem-core` — the IDEM protocol itself,
//! * `idem-paxos` — the steady-leader Paxos baseline (plus leader-based
//!   rejection),
//! * `idem-smart` — the BFT-SMaRt-inspired batching baseline.
//!
//! Most of it is plain data or a small protocol-agnostic interface (the
//! [`driver`] module), so the protocol crates stay testable in isolation.
//! Two modules are the exception. [`replica`] is the chassis the three
//! replicas are built on — roles, sessions, recovery, state transfer,
//! view-change voting and the epoch switch, written once — over the
//! durable log of [`wal`] and the epochs of [`membership`]. [`client`] is
//! its counterpart on the other side of the wire: the one closed-loop
//! client, and the per-protocol port it and the open-loop load source
//! both talk through.
//!
//! # Example
//!
//! ```
//! use idem_common::{ClientId, OpNumber, RequestId, Request};
//!
//! let id = RequestId::new(ClientId(7), OpNumber(42));
//! let req = Request::new(id, b"SET k v".to_vec());
//! assert_eq!(req.id.client, ClientId(7));
//! assert!(req.wire_size() > 8);
//! ```

pub mod app;
pub mod client;
pub mod deadline;
pub mod dense;
pub mod directory;
pub mod driver;
pub mod exec;
pub mod ids;
pub mod load;
pub mod membership;
pub mod quorum;
pub mod replica;
pub mod request;
pub mod wal;
pub mod window;

pub use app::StateMachine;
pub use client::{Client, ClientEvent, ClientPort, ClientSetup, ClientStats, ClientTiming};
pub use deadline::DeadlineTimer;
pub use dense::{Chained, Dense, ReqHandle, ReqSlab, SessionTable};
pub use directory::Directory;
pub use driver::{ClientApp, OperationOutcome, OutcomeKind};
pub use exec::ExecRecord;
pub use ids::{ClientId, OpNumber, ReplicaId, RequestId, SeqNumber, View};
pub use load::{ArrivalProcess, ArrivalSampler, BackoffWheel, LoadCounters, LoadPhase, MmppState};
pub use membership::{Epoch, Membership, ReconfigCommand, RECONFIG_CLIENT};
pub use quorum::{QuorumSet, QuorumTracker};
pub use replica::{
    Consumed, Replayed, ReplicaBase, ReplicaWire, ViewChangeStep, VoteStore, PROGRESS_TIMEOUT,
};
pub use request::{Reply, Request, ResultBytes, INLINE_RESULT_CAP};
pub use wal::{CheckpointData, CheckpointRef, PersistMode, ReplayLog, Wal, WalRecord};
pub use window::SeqWindow;
