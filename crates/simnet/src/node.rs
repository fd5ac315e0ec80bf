//! The node (actor) abstraction and its interaction surface.

use std::any::Any;
use std::fmt;
use std::time::Duration;

use rand::rngs::SmallRng;

use crate::sim::Core;
use crate::time::SimTime;

/// Identifier of a node inside one [`Simulation`](crate::Simulation).
///
/// Node ids are assigned densely in registration order by
/// [`Simulation::add_node`](crate::Simulation::add_node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's position as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Handle for a pending timer, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub(crate) u64);

/// Object-safe downcasting support, blanket-implemented for every `'static`
/// type so that [`Node`] implementors get it for free.
///
/// The experiment harness and tests use this to inspect protocol state after
/// a run via [`Simulation::node_as`](crate::Simulation::node_as).
pub trait AsAny {
    /// Borrows self as [`Any`].
    fn as_any(&self) -> &dyn Any;
    /// Mutably borrows self as [`Any`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A simulated process: replica, client, or auxiliary actor.
///
/// Implementations receive exclusive access to themselves plus a
/// [`Context`] granting interaction with the simulated world. All callbacks
/// run at a well-defined virtual time ([`Context::now`]); event processing
/// at a node is strictly serial and FIFO.
///
/// Handlers that model CPU work must call [`Context::charge`]; the
/// simulator defers subsequent event deliveries to this node until the
/// charged time has passed, which is how processing queues (and hence
/// overload) build up.
pub trait Node<M>: AsAny {
    /// Invoked once, at virtual time zero, before any message delivery.
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }

    /// Invoked for every message delivered to this node.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M);

    /// Invoked when a timer armed via [`Context::set_timer`] fires (unless
    /// it was cancelled first). `msg` is the payload given at arm time.
    fn on_timer(&mut self, ctx: &mut Context<'_, M>, id: TimerId, msg: M) {
        let _ = (ctx, id, msg);
    }

    /// Invoked when the simulator crashes this node. The node receives no
    /// further callbacks until (unless) it is recovered.
    fn on_crash(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Invoked when the simulator recovers this node after a crash
    /// (crash-recovery model with intact memory). Events addressed to the
    /// node while it was down are gone — including timers that fired in the
    /// crash window — so implementations should re-arm whatever timers they
    /// rely on and trigger any catch-up they need.
    fn on_recover(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }
}

/// The interaction surface handed to [`Node`] callbacks.
///
/// A `Context` is only valid for the duration of one callback.
pub struct Context<'a, M> {
    core: &'a mut Core<M>,
    id: NodeId,
}

impl<'a, M> Context<'a, M> {
    pub(crate) fn new(core: &'a mut Core<M>, id: NodeId) -> Context<'a, M> {
        Context { core, id }
    }
}

impl<M: crate::Wire> Context<'_, M> {
    /// Sends `msg` to `to` over the simulated network.
    ///
    /// The message departs once the node's currently charged CPU work is
    /// done, then experiences link latency/jitter and possibly loss. Sending
    /// to self bypasses the network (loopback) and is not counted as
    /// traffic.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.core.send(self.id, to, msg);
    }

    /// Sends `msg` to every node in `targets`.
    ///
    /// The message body is stored once in the message arena and
    /// materialized per recipient only at delivery time (the final
    /// delivery moves it out without cloning), so multicasting a large
    /// message does not pay one deep clone per recipient. Traffic
    /// accounting and delivery behaviour are identical to calling
    /// [`send`](Context::send) once per target.
    pub fn multicast(&mut self, targets: impl IntoIterator<Item = NodeId>, msg: M)
    where
        M: Clone,
    {
        self.core.multicast(self.id, targets, msg);
    }
}

impl<M> Context<'_, M> {
    /// The id of the node this callback runs on.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Arms a timer that fires after `delay`, delivering `msg` to
    /// [`Node::on_timer`]. Returns a handle for cancellation.
    pub fn set_timer(&mut self, delay: Duration, msg: M) -> TimerId {
        self.core.set_timer(self.id, delay, msg)
    }

    /// Cancels a pending timer. Cancelling an already-fired or unknown
    /// timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.core.cancel_timer(self.id, id);
    }

    /// Charges `cpu` time to this node's processor. Subsequent event
    /// deliveries to this node are deferred until the charged work
    /// completes; messages sent later in this callback depart only after
    /// it.
    pub fn charge(&mut self, cpu: Duration) {
        self.core.charge(self.id, cpu);
    }

    /// The deterministic random-number generator of the simulation.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.core.rng
    }

    /// Appends a record to this node's stable-storage device cache and
    /// returns its index (see [`Disk::append`](crate::Disk::append)). The
    /// record is not durable until [`disk_fsync`](Context::disk_fsync);
    /// the configured append latency is charged to this node's CPU.
    pub fn disk_append(&mut self, record: Vec<u8>) -> usize {
        self.core.disk_append(self.id, record)
    }

    /// Fsyncs this node's disk: everything appended so far becomes
    /// durable (survives wipe truncation). The configured fsync latency is
    /// charged to this node's CPU.
    pub fn disk_fsync(&mut self) {
        self.core.disk_fsync(self.id);
    }

    /// Frees the bytes of record `index` on this node's disk and leaves
    /// it in place as an empty record (see
    /// [`Disk::discard`](crate::Disk::discard)). Charges no latency.
    ///
    /// # Panics
    /// Panics if `index` is out of range, and so while the records are
    /// lent out through [`with_disk_records`](Context::with_disk_records).
    pub fn disk_discard(&mut self, index: usize) {
        self.core.disk_mut(self.id).discard(index);
    }

    /// All records on this node's disk, oldest first — the recovery
    /// replay surface after a wipe.
    pub fn disk_records(&self) -> &[Vec<u8>] {
        self.core.disk(self.id).records()
    }

    /// Lends this node's disk records to `f` together with the context, so
    /// recovery can replay straight from the stored bytes while it charges
    /// CPU and arms timers, instead of copying the log out first.
    ///
    /// # Panics
    /// Panics if `f` appends to the disk: the records are out on loan and
    /// the append would be lost.
    pub fn with_disk_records<R>(&mut self, f: impl FnOnce(&mut Self, &[Vec<u8>]) -> R) -> R {
        let disk = std::mem::take(self.core.disk_mut(self.id));
        let out = f(self, disk.records());
        let during = std::mem::replace(self.core.disk_mut(self.id), disk);
        assert!(
            during.is_empty(),
            "disk appended to while its records were lent out"
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(4).to_string(), "n4");
        assert_eq!(NodeId(4).index(), 4);
    }

    #[test]
    fn as_any_downcasts() {
        struct S(u8);
        let s = S(7);
        let any: &dyn AsAny = &s;
        assert_eq!(any.as_any().downcast_ref::<S>().unwrap().0, 7);
    }
}
