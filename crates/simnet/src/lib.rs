#![warn(missing_docs)]

//! A deterministic discrete-event simulator for distributed protocols.
//!
//! This crate is the substrate on which the IDEM reproduction runs its
//! replicas and clients. It replaces the paper's physical three-server
//! cluster with a model that captures exactly the phenomena the paper
//! studies:
//!
//! * **Bounded CPU service rate.** Each node owns a simulated processor;
//!   message handlers charge CPU time via [`Context::charge`], and a node
//!   processes events strictly FIFO — events arriving while the node is busy
//!   queue up. This is what produces the saturation point and the
//!   overload-induced latency explosion of Figure 2/6.
//! * **Realistic links.** Per-link base latency, jitter and loss probability
//!   ([`LinkSpec`]), dynamic blocking/partitions, and byte-accurate traffic
//!   accounting ([`Traffic`], behind Table 1).
//! * **Fault injection.** Crash a node at a scheduled virtual time
//!   ([`Simulation::schedule_crash`]) — the basis of the Figure 3/10 crash
//!   timelines.
//! * **Determinism.** Virtual time, a single global event queue — a
//!   hierarchical [timing wheel](TimingWheel) — ordered by `(time, seq)`,
//!   and one seeded RNG: the same seed always yields the same run, making
//!   every experiment and test reproducible. Timers are backed by a
//!   generation-stamped [`TimerTable`], so arming and cancelling them is
//!   O(1) with no tombstones accumulating over long runs.
//!
//! # Architecture
//!
//! Protocol code implements [`Node`] over its own message enum `M`
//! (which must implement [`Wire`] for traffic accounting). Nodes interact
//! with the world only through [`Context`]: sending messages, arming timers,
//! charging CPU time, and drawing randomness.
//!
//! # Example
//!
//! ```
//! use idem_simnet::{Context, Node, NodeId, Simulation, TimerId, Wire};
//! use std::time::Duration;
//!
//! #[derive(Clone, Debug)]
//! struct Ping(u32);
//! impl Wire for Ping {
//!     fn wire_size(&self) -> usize { 4 }
//! }
//!
//! struct Echo;
//! impl Node<Ping> for Echo {
//!     fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: NodeId, msg: Ping) {
//!         if msg.0 < 3 {
//!             ctx.send(from, Ping(msg.0 + 1));
//!         }
//!     }
//! }
//!
//! struct Kick(NodeId);
//! impl Node<Ping> for Kick {
//!     fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
//!         ctx.send(self.0, Ping(0));
//!     }
//!     fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: NodeId, msg: Ping) {
//!         ctx.send(from, Ping(msg.0 + 1));
//!     }
//! }
//!
//! let mut sim = Simulation::new(42);
//! let echo = sim.add_node(Box::new(Echo));
//! sim.add_node(Box::new(Kick(echo)));
//! sim.run_for(Duration::from_secs(1));
//! assert!(sim.traffic().total_messages() >= 4);
//! ```

pub mod arena;
pub mod disk;
pub mod event;
pub mod net;
pub mod node;
pub mod sim;
pub mod time;
pub mod trace;
pub mod traffic;
pub mod wheel;
pub mod wire;

pub use arena::{MessageArena, MsgId};
pub use disk::{Disk, DiskLatency};
pub use net::{LinkSpec, Network};
pub use node::{AsAny, Context, Node, NodeId, TimerId};
pub use sim::{EventStats, Simulation};
pub use time::SimTime;
pub use trace::{TraceBuffer, TraceEvent, TraceEventKind};
pub use traffic::Traffic;
pub use wheel::{TimerTable, TimingWheel};
pub use wire::Wire;
