//! A timeout restarted by every sign of life, at the cost of one timer.
//!
//! The replica's progress timer (paper §4.5) expires only after a whole
//! timeout without an execution, and the client's retransmission timer
//! only after a whole interval without an answer. Cancelling and
//! re-arming a simulator timer at every execution or operation files one
//! queue entry each time, and almost every one of them is dead long
//! before it is due. A [`DeadlineTimer`] keeps at most one timer armed and
//! moves only its due time. When the armed timer fires before the due
//! time, it is re-armed for the remainder.
//!
//! The timeout is fixed and time only moves forward, so the armed timer
//! never fires after the due time. The expiry therefore lands at exactly
//! the instant the cancel-and-re-arm timer would have fired. Only its
//! global sequence number differs, because it is allocated at the last
//! re-arm, not at the last push. That can reorder the expiry against
//! another event at the same nanosecond. It can also move the expiry
//! ahead of work that reached the node's backlog between the armed
//! timer's instant and the deadline, when the processor is busy from the
//! one to past the other: the fire then waits in the backlog from the
//! earlier instant and expires when it is handled.

use std::time::Duration;

use idem_simnet::{Context, SimTime, TimerId};

/// A timeout that expires once no push has happened for a whole
/// [`timeout`](Self::new). See the [module docs](self).
#[derive(Debug)]
pub struct DeadlineTimer {
    timeout: Duration,
    /// The one timer this deadline has in the queue, if any.
    armed: Option<TimerId>,
    /// When the deadline expires; `None` while stopped.
    due: Option<SimTime>,
}

impl DeadlineTimer {
    /// A stopped deadline that each push sets `timeout` ahead.
    pub fn new(timeout: Duration) -> DeadlineTimer {
        DeadlineTimer {
            timeout,
            armed: None,
            due: None,
        }
    }

    /// Whether a deadline is set.
    pub fn is_running(&self) -> bool {
        self.due.is_some()
    }

    /// Moves the deadline to one timeout from now. A timer carrying `msg`
    /// is armed only if none is: an armed one fires no later than the new
    /// deadline and is re-armed then.
    pub fn push<M>(&mut self, ctx: &mut Context<'_, M>, msg: M) {
        self.due = Some(ctx.now() + self.timeout);
        if self.armed.is_none() {
            self.armed = Some(ctx.set_timer(self.timeout, msg));
        }
    }

    /// Pushes unless a deadline is set already.
    pub fn start<M>(&mut self, ctx: &mut Context<'_, M>, msg: M) {
        if !self.is_running() {
            self.push(ctx, msg);
        }
    }

    /// Clears the deadline. An armed timer stays queued and fires to no
    /// effect.
    pub fn stop(&mut self) {
        self.due = None;
    }

    /// Cancels the armed timer and pushes with a fresh one. For a node
    /// coming back from a crash: a timer due while it was down was
    /// dropped, so the handle may be stale, and a stale handle would keep
    /// every later push from arming.
    pub fn restart<M>(&mut self, ctx: &mut Context<'_, M>, msg: M) {
        if let Some(old) = self.armed.take() {
            ctx.cancel_timer(old);
        }
        self.push(ctx, msg);
    }

    /// Handles the firing of timer `id`, which carried `msg`, and returns
    /// whether the deadline expired. A timer this deadline does not hold
    /// does nothing. One fired before the deadline is re-armed, with
    /// `msg`, for the remainder.
    pub fn fired<M>(&mut self, ctx: &mut Context<'_, M>, id: TimerId, msg: M) -> bool {
        if self.armed != Some(id) {
            return false;
        }
        self.armed = None;
        let now = ctx.now();
        match self.due {
            Some(due) if due > now => {
                self.armed = Some(ctx.set_timer(due.saturating_since(now), msg));
                false
            }
            Some(_) => {
                self.due = None;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use idem_simnet::{Node, NodeId, Simulation, Wire};

    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Push,
        Stop,
        /// Arms a timer of the deadline's kind that the deadline did not
        /// arm.
        Stray,
        Tick,
    }

    impl Wire for Msg {
        fn wire_size(&self) -> usize {
            8
        }
    }

    const TIMEOUT: Duration = Duration::from_millis(10);

    /// Drives one deadline and logs when it expires.
    struct Watch {
        deadline: DeadlineTimer,
        expired: Vec<SimTime>,
    }

    impl Node<Msg> for Watch {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: NodeId, msg: Msg) {
            match msg {
                Msg::Push => self.deadline.push(ctx, Msg::Tick),
                Msg::Stop => self.deadline.stop(),
                Msg::Stray => {
                    ctx.set_timer(Duration::ZERO, Msg::Tick);
                }
                Msg::Tick => {}
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, id: TimerId, msg: Msg) {
            if self.deadline.fired(ctx, id, msg) {
                self.expired.push(ctx.now());
            }
        }

        fn on_recover(&mut self, ctx: &mut Context<'_, Msg>) {
            self.deadline.restart(ctx, Msg::Tick);
        }
    }

    fn rig() -> (Simulation<Msg>, NodeId) {
        let mut sim = Simulation::new(1);
        let node = sim.add_node(Box::new(Watch {
            deadline: DeadlineTimer::new(TIMEOUT),
            expired: Vec::new(),
        }));
        (sim, node)
    }

    /// Delivers `msg` to the node `at` (absolute milliseconds).
    fn at(sim: &mut Simulation<Msg>, node: NodeId, at: u64, msg: Msg) {
        sim.run_until(ms(at));
        sim.post(node, msg);
        sim.run_for(Duration::ZERO);
    }

    fn ms(t: u64) -> SimTime {
        SimTime::from_nanos(t * 1_000_000)
    }

    fn expired(sim: &Simulation<Msg>, node: NodeId) -> &[SimTime] {
        &sim.node_as::<Watch>(node).expect("watch").expired
    }

    #[test]
    fn pushes_keep_one_timer_armed_and_it_expires_once_after_the_last() {
        let (mut sim, node) = rig();
        for t in [0, 3, 9, 14, 21] {
            at(&mut sim, node, t, Msg::Push);
            assert_eq!(sim.pending_timers(), 1, "after the push at {t} ms");
        }
        sim.run_until(ms(30));
        assert_eq!(expired(&sim, node), [], "no whole timeout without a push");
        assert_eq!(sim.pending_timers(), 1);
        sim.run_until(ms(100));
        assert_eq!(expired(&sim, node), [ms(31)]);
        assert_eq!(sim.pending_timers(), 0);
    }

    #[test]
    fn stop_suppresses_the_expiry_and_a_later_push_reuses_the_armed_timer() {
        let (mut sim, node) = rig();
        at(&mut sim, node, 0, Msg::Push);
        at(&mut sim, node, 4, Msg::Stop);
        sim.run_until(ms(50));
        assert_eq!(expired(&sim, node), []);
        assert_eq!(sim.pending_timers(), 0, "the stopped timer fired idle");

        at(&mut sim, node, 60, Msg::Push);
        at(&mut sim, node, 62, Msg::Stop);
        at(&mut sim, node, 65, Msg::Push);
        assert_eq!(sim.pending_timers(), 1);
        sim.run_until(ms(100));
        assert_eq!(expired(&sim, node), [ms(75)]);
    }

    #[test]
    fn a_timer_the_deadline_does_not_hold_does_nothing() {
        let (mut sim, node) = rig();
        at(&mut sim, node, 0, Msg::Push);
        // Fires at 5 ms with the deadline's own payload, and neither
        // expires the deadline nor disturbs the timer it holds.
        at(&mut sim, node, 5, Msg::Stray);
        assert_eq!(sim.pending_timers(), 1);
        sim.run_until(ms(9));
        assert_eq!(expired(&sim, node), []);
        sim.run_until(ms(50));
        assert_eq!(expired(&sim, node), [ms(10)]);
        // Nor does one while the deadline is stopped: the next push still
        // finds its own timer armed.
        at(&mut sim, node, 60, Msg::Push);
        at(&mut sim, node, 62, Msg::Stop);
        at(&mut sim, node, 63, Msg::Stray);
        at(&mut sim, node, 65, Msg::Push);
        assert_eq!(sim.pending_timers(), 1);
        sim.run_until(ms(100));
        assert_eq!(expired(&sim, node), [ms(10), ms(75)]);
    }

    #[test]
    fn recovery_rearms_a_timer_lost_in_the_crash() {
        let (mut sim, node) = rig();
        at(&mut sim, node, 0, Msg::Push);
        sim.schedule_crash(node, ms(2));
        // The armed timer falls due at 10 ms, while the node is down, and
        // is dropped; the handle the deadline holds is stale.
        sim.schedule_recovery(node, ms(20));
        sim.run_until(ms(100));
        assert_eq!(expired(&sim, node), [ms(30)]);
        // A push after the expiry arms again.
        at(&mut sim, node, 100, Msg::Push);
        sim.run_until(ms(200));
        assert_eq!(expired(&sim, node), [ms(30), ms(110)]);
    }
}
