//! The client chassis: one closed-loop client for every protocol.
//!
//! A client of this suite issues one operation at a time, retransmits it
//! until a replica answers, backs off after a rejection, and follows the
//! group through `MembershipUpdate` redirects. All of that is [`Client`].
//! What differs between protocols is where a request goes and what a
//! reject means, and that sits behind [`ClientPort`], implemented once per
//! protocol crate next to its message enum: IDEM multicasts and reads
//! `n − f` rejects as ambivalence (paper Sections 4.1 and 5.3), Paxos
//! talks to one presumed leader and burns timeouts to find the next,
//! the BFT-SMaRt baseline multicasts and is never rejected.
//!
//! The port is also what the harness's aggregate open-loop `LoadSource`
//! talks through, so both drivers share one implementation per protocol.
//! Either driver multiplexes its timers over the port's single client
//! timer variant ([`tick`](ClientPort::tick)) with [`encode_tick`]; that
//! is sound because a client is the only consumer of its own timers.

use std::sync::Arc;
use std::time::Duration;

use idem_simnet::{Context, Node, NodeId, SimTime, TimerId, Wire};
use rand::Rng;

use crate::driver::{ClientApp, OperationOutcome, OutcomeKind};
use crate::{
    ClientId, DeadlineTimer, Directory, Membership, OpNumber, QuorumSet, QuorumTracker, Reply,
    Request, RequestId, ResultBytes,
};

/// What an incoming message means to a client.
#[derive(Debug, Clone)]
pub enum ClientEvent {
    /// A successful execution result.
    Reply(Reply),
    /// A proactive rejection of the identified request.
    Reject(RequestId),
    /// The group reconfigured; only the closed-loop [`Client`] follows it
    /// (load scenarios run a fixed group).
    Membership(Membership),
    /// Anything else (protocol chatter not addressed to clients).
    Other,
}

/// Protocol adapter for a client: how to put a request on the wire and
/// how to read the responses.
pub trait ClientPort: 'static {
    /// The protocol's message type.
    type Msg: Wire + Clone + 'static;

    /// Submits (or retransmits) a request.
    fn submit(&mut self, ctx: &mut Context<'_, Self::Msg>, dir: &Directory<NodeId>, req: Request);

    /// Classifies an incoming message.
    fn classify(&self, msg: Self::Msg) -> ClientEvent;

    /// Observes which replica answered, for leader-affinity protocols.
    fn note_reply_from(&mut self, dir: &Directory<NodeId>, from: NodeId) {
        let _ = (dir, from);
    }

    /// Number of distinct rejecting replicas after which an operation is
    /// abandoned, or `None` if a single reject is already conclusive.
    /// IDEM returns its ambivalence threshold `n - f`.
    fn reject_threshold(&self) -> Option<u32>;

    /// Whether an abandoned-by-rejection operation is final (leader-based
    /// rejection) or ambivalent (IDEM quorum rejection).
    fn reject_is_final(&self) -> bool;

    /// Encodes a client tick in a timer message.
    fn tick(arg: u64) -> Self::Msg;

    /// Decodes a timer message produced by [`tick`](ClientPort::tick).
    fn tick_arg(msg: &Self::Msg) -> Option<u64>;

    /// How long a closed-loop client that has collected
    /// [`reject_threshold`](ClientPort::reject_threshold) rejects keeps
    /// waiting for a late reply; `None` abandons at once. The open-loop
    /// source never waits, so its aggregate state stays one counter per
    /// in-flight request.
    fn reject_grace(&self) -> Option<Duration> {
        None
    }

    /// The retransmission timer fired unanswered; leader-affinity
    /// protocols move on to the next member.
    fn note_timeout(&mut self) {}

    /// The client adopted `group`: requests go to its members from now on.
    fn retarget(&mut self, dir: &Directory<NodeId>, group: &Membership) {
        let _ = (dir, group);
    }
}

const TICK_TAG_SHIFT: u32 = 56;

/// Packs a tick kind and its argument into one timer payload: the kind in
/// the top byte, the argument (below 2⁵⁶) under it.
pub fn encode_tick(tag: u64, arg: u64) -> u64 {
    debug_assert!(tag < 256 && arg < (1_u64 << TICK_TAG_SHIFT));
    (tag << TICK_TAG_SHIFT) | arg
}

/// Splits a payload built by [`encode_tick`] into `(tag, arg)`.
pub fn decode_tick(tick: u64) -> (u64, u64) {
    (
        tick >> TICK_TAG_SHIFT,
        tick & ((1_u64 << TICK_TAG_SHIFT) - 1),
    )
}

// The closed-loop client's tick kinds. A grace tick's argument is the
// operation number it was armed for; a retry tick carries none, because
// one retransmission deadline serves every operation in turn.
const TAG_RETRY: u64 = 0;
const TAG_GRACE: u64 = 1;
const TAG_WAKE: u64 = 2;

/// The timing of a closed-loop client, as its protocol's configuration
/// sets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientTiming {
    /// Retransmission interval for unanswered requests.
    pub retransmit_interval: Duration,
    /// Uniform random delay before the next operation after a rejection
    /// (load regulation, Section 7.1).
    pub backoff: (Duration, Duration),
    /// Fixed delay before the first operation.
    pub start_delay: Duration,
    /// The first operation is additionally delayed by a uniform random
    /// amount up to this.
    pub start_stagger: Duration,
    /// Closed-loop think time between a success and the next operation.
    pub think_time: Duration,
}

/// A protocol's client configuration, as [`Client::new`] reads it.
pub trait ClientSetup {
    /// The protocol's port.
    type Port: ClientPort;

    /// The replica group accessed.
    fn quorum(&self) -> QuorumSet;

    /// When the client starts, retransmits, backs off and thinks.
    fn timing(&self) -> ClientTiming;

    /// Builds the port towards the members of `group`.
    fn port(&self, dir: &Directory<NodeId>, group: &Membership) -> Self::Port;
}

/// Counters of one client.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct ClientStats {
    pub issued: u64,
    pub successes: u64,
    pub rejected_ambivalent: u64,
    pub rejected_final: u64,
    pub retransmissions: u64,
}

#[derive(Debug)]
struct InFlight {
    id: RequestId,
    command: Arc<[u8]>,
    issued_at: SimTime,
    rejects: QuorumTracker,
    grace_timer: Option<TimerId>,
}

/// A closed-loop client node: issues the commands of its [`ClientApp`] one
/// at a time through the protocol's port.
pub struct Client<P: ClientPort> {
    port: P,
    timing: ClientTiming,
    id: ClientId,
    dir: Directory<NodeId>,
    app: Box<dyn ClientApp>,
    next_op: OpNumber,
    current: Option<InFlight>,
    /// Retransmission of the operation in flight: running while there is
    /// one, a whole interval after its last transmission.
    retry: DeadlineTimer,
    /// The client's view of the replica group. Starts at the bootstrap
    /// membership and advances on `MembershipUpdate` redirects; reject
    /// thresholds count over the current members.
    membership: Membership,
    stats: ClientStats,
    stopped: bool,
}

impl<P: ClientPort> Client<P> {
    /// Creates a client with identity `id`, driven by `app`.
    pub fn new<C: ClientSetup<Port = P>>(
        cfg: C,
        id: ClientId,
        dir: Directory<NodeId>,
        app: Box<dyn ClientApp>,
    ) -> Client<P> {
        let membership = Membership::bootstrap(cfg.quorum().n());
        let timing = cfg.timing();
        Client {
            port: cfg.port(&dir, &membership),
            timing,
            id,
            dir,
            app,
            next_op: OpNumber(1),
            current: None,
            retry: DeadlineTimer::new(timing.retransmit_interval),
            membership,
            stats: ClientStats::default(),
            stopped: false,
        }
    }

    /// Counters.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// Whether the client has stopped issuing operations (its
    /// [`ClientApp::next_command`] returned `None`).
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }

    fn issue_next(&mut self, ctx: &mut Context<'_, P::Msg>) {
        debug_assert!(self.current.is_none(), "one pending request at a time");
        let Some(command) = self.app.next_command(ctx.rng()) else {
            self.stopped = true;
            return;
        };
        let command: Arc<[u8]> = command.into();
        let id = RequestId::new(self.id, self.next_op);
        self.next_op = self.next_op.next();
        self.stats.issued += 1;
        self.port
            .submit(ctx, &self.dir, Request::new(id, command.clone()));
        self.retry.push(ctx, P::tick(encode_tick(TAG_RETRY, 0)));
        self.current = Some(InFlight {
            id,
            command,
            issued_at: ctx.now(),
            rejects: QuorumTracker::new(self.membership.n()),
            grace_timer: None,
        });
    }

    fn finish(
        &mut self,
        ctx: &mut Context<'_, P::Msg>,
        kind: OutcomeKind,
        result: Option<ResultBytes>,
    ) {
        let flight = self.current.take().expect("operation in flight");
        self.retry.stop();
        if let Some(t) = flight.grace_timer {
            ctx.cancel_timer(t);
        }
        let outcome = OperationOutcome {
            id: flight.id,
            kind,
            latency: ctx.now().saturating_since(flight.issued_at),
            completed_at: ctx.now(),
            result,
        };
        match kind {
            OutcomeKind::Success => self.stats.successes += 1,
            OutcomeKind::RejectedAmbivalent => self.stats.rejected_ambivalent += 1,
            OutcomeKind::RejectedFinal => self.stats.rejected_final += 1,
        }
        self.app.on_outcome(&outcome);
        let delay = if kind.is_success() {
            self.timing.think_time
        } else {
            // The service is overloaded: regulate pressure by delaying the
            // next operation (Section 7.1).
            let (min, max) = self.timing.backoff;
            if max > min {
                let span = (max - min).as_nanos() as u64;
                min + Duration::from_nanos(ctx.rng().gen_range(0..=span))
            } else {
                min
            }
        };
        if kind.is_success() && delay.is_zero() {
            self.issue_next(ctx);
        } else {
            ctx.set_timer(delay, P::tick(encode_tick(TAG_WAKE, 0)));
        }
    }

    fn handle_reply(&mut self, ctx: &mut Context<'_, P::Msg>, from: NodeId, reply: Reply) {
        if self.current.as_ref().is_some_and(|f| f.id == reply.id) {
            self.port.note_reply_from(&self.dir, from);
            self.finish(ctx, OutcomeKind::Success, Some(reply.result));
        }
    }

    fn handle_reject(&mut self, ctx: &mut Context<'_, P::Msg>, from: NodeId, id: RequestId) {
        let Some(flight) = self.current.as_mut().filter(|f| f.id == id) else {
            return;
        };
        if !self.port.reject_is_final() {
            // Quorum rejection counts distinct members of the current
            // group: the thresholds are this epoch's.
            let sender = self.dir.replica_of(from);
            let Some(replica) = sender.filter(|&r| self.membership.contains(r)) else {
                return;
            };
            flight.rejects.record(replica);
            let count = flight.rejects.count();
            if count < self.membership.n() {
                let ambivalent = count >= self.port.reject_threshold().unwrap_or(1);
                if ambivalent && flight.grace_timer.is_none() {
                    match self.port.reject_grace() {
                        None => self.finish(ctx, OutcomeKind::RejectedAmbivalent, None),
                        Some(grace) => {
                            let tick = P::tick(encode_tick(TAG_GRACE, id.op.0));
                            flight.grace_timer = Some(ctx.set_timer(grace, tick));
                        }
                    }
                }
                return;
            }
        }
        // Failure state: conclusively rejected.
        self.port.note_reply_from(&self.dir, from);
        self.finish(ctx, OutcomeKind::RejectedFinal, None);
    }

    fn handle_retry_timeout(&mut self, ctx: &mut Context<'_, P::Msg>) {
        self.stats.retransmissions += 1;
        self.port.note_timeout();
        let flight = self.current.as_ref().expect("retry runs only in flight");
        let req = Request::new(flight.id, flight.command.clone());
        self.retry.push(ctx, P::tick(encode_tick(TAG_RETRY, 0)));
        self.port.submit(ctx, &self.dir, req);
    }

    /// A replica announced a newer membership: adopt it and re-target any
    /// in-flight operation at the new group — its first transmission may
    /// have reached only departed replicas. Rejects collected under the
    /// old epoch no longer count: the thresholds changed.
    fn handle_membership_update(&mut self, ctx: &mut Context<'_, P::Msg>, m: Membership) {
        if m.epoch() <= self.membership.epoch() {
            return;
        }
        self.membership = m;
        self.port.retarget(&self.dir, &self.membership);
        if let Some(flight) = self.current.as_mut() {
            flight.rejects = QuorumTracker::new(self.membership.n());
            if let Some(t) = flight.grace_timer.take() {
                ctx.cancel_timer(t);
            }
            let req = Request::new(flight.id, flight.command.clone());
            self.port.submit(ctx, &self.dir, req);
        }
    }
}

impl<P: ClientPort> Node<P::Msg> for Client<P> {
    fn on_start(&mut self, ctx: &mut Context<'_, P::Msg>) {
        let stagger = self.timing.start_stagger.as_nanos() as u64;
        let jitter = if stagger == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(ctx.rng().gen_range(0..=stagger))
        };
        let delay = self.timing.start_delay + jitter;
        if delay.is_zero() {
            self.issue_next(ctx);
        } else {
            ctx.set_timer(delay, P::tick(encode_tick(TAG_WAKE, 0)));
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, P::Msg>, from: NodeId, msg: P::Msg) {
        match self.port.classify(msg) {
            ClientEvent::Reply(reply) => self.handle_reply(ctx, from, reply),
            ClientEvent::Reject(id) => self.handle_reject(ctx, from, id),
            ClientEvent::Membership(m) => self.handle_membership_update(ctx, m),
            ClientEvent::Other => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, P::Msg>, id: TimerId, msg: P::Msg) {
        let Some((tag, op)) = P::tick_arg(&msg).map(decode_tick) else {
            return;
        };
        match tag {
            TAG_WAKE => {
                if self.current.is_none() && !self.stopped {
                    self.issue_next(ctx);
                }
            }
            TAG_RETRY => {
                if self.retry.fired(ctx, id, msg) {
                    self.handle_retry_timeout(ctx);
                }
            }
            // A grace timer armed for an operation that has finished
            // since is stale; the operation number tells.
            TAG_GRACE => {
                if self.current.as_ref().is_some_and(|f| f.id.op.0 == op) {
                    self.finish(ctx, OutcomeKind::RejectedAmbivalent, None);
                }
            }
            _ => unreachable!("unknown client tick tag"),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use idem_simnet::{LinkSpec, Network, Simulation};
    use rand::rngs::SmallRng;

    use super::*;
    use crate::ReplicaId;

    /// A message type with nothing but what a client sees, plus two test
    /// controls: `Say` makes the replica that receives it send the boxed
    /// message to the client, `Fire` makes the client node arm a
    /// zero-delay timer carrying that tick — a timer the chassis did not
    /// arm for its current state.
    #[derive(Debug, Clone, PartialEq)]
    enum Toy {
        Request(Request),
        Reply(Reply),
        Reject(RequestId),
        MembershipUpdate(Membership),
        ClientTimer(u64),
        Say(Box<Toy>),
        Fire(u64),
    }

    impl Wire for Toy {
        fn wire_size(&self) -> usize {
            8
        }
    }

    /// What a reject means to the port under test.
    #[derive(Debug, Clone, Copy)]
    struct Rule {
        threshold: Option<u32>,
        is_final: bool,
        grace: Option<Duration>,
    }

    const NEVER_REJECTED: Rule = Rule {
        threshold: None,
        is_final: true,
        grace: None,
    };

    #[derive(Debug, Clone, PartialEq)]
    enum Hook {
        Answered(NodeId),
        Timeout,
        Retarget(Vec<ReplicaId>),
    }

    /// Multicasts to the members and logs every hook the chassis calls.
    struct ToyPort {
        targets: Vec<NodeId>,
        rule: Rule,
        hooks: Rc<RefCell<Vec<Hook>>>,
    }

    impl ClientPort for ToyPort {
        type Msg = Toy;

        fn submit(&mut self, ctx: &mut Context<'_, Toy>, _: &Directory<NodeId>, req: Request) {
            ctx.multicast(self.targets.iter().copied(), Toy::Request(req));
        }
        fn classify(&self, msg: Toy) -> ClientEvent {
            match msg {
                Toy::Reply(reply) => ClientEvent::Reply(reply),
                Toy::Reject(id) => ClientEvent::Reject(id),
                Toy::MembershipUpdate(m) => ClientEvent::Membership(m),
                _ => ClientEvent::Other,
            }
        }
        fn note_reply_from(&mut self, _: &Directory<NodeId>, from: NodeId) {
            self.hooks.borrow_mut().push(Hook::Answered(from));
        }
        fn reject_threshold(&self) -> Option<u32> {
            self.rule.threshold
        }
        fn reject_is_final(&self) -> bool {
            self.rule.is_final
        }
        fn tick(arg: u64) -> Toy {
            Toy::ClientTimer(arg)
        }
        fn tick_arg(msg: &Toy) -> Option<u64> {
            match msg {
                Toy::ClientTimer(arg) => Some(*arg),
                _ => None,
            }
        }
        fn reject_grace(&self) -> Option<Duration> {
            self.rule.grace
        }
        fn note_timeout(&mut self) {
            self.hooks.borrow_mut().push(Hook::Timeout);
        }
        fn retarget(&mut self, dir: &Directory<NodeId>, group: &Membership) {
            self.targets = dir.member_addrs(group);
            let members = group.members().to_vec();
            self.hooks.borrow_mut().push(Hook::Retarget(members));
        }
    }

    #[derive(Clone)]
    struct ToySetup {
        n: u32,
        rule: Rule,
        timing: ClientTiming,
        hooks: Rc<RefCell<Vec<Hook>>>,
    }

    /// 10 ms retransmission, 1–3 ms backoff, immediate start, no thinking.
    const TIMING: ClientTiming = ClientTiming {
        retransmit_interval: Duration::from_millis(10),
        backoff: (Duration::from_millis(1), Duration::from_millis(3)),
        start_delay: Duration::ZERO,
        start_stagger: Duration::ZERO,
        think_time: Duration::ZERO,
    };

    impl ClientSetup for ToySetup {
        type Port = ToyPort;

        fn quorum(&self) -> QuorumSet {
            QuorumSet::for_replicas(self.n)
        }
        fn timing(&self) -> ClientTiming {
            self.timing
        }
        fn port(&self, dir: &Directory<NodeId>, group: &Membership) -> ToyPort {
            let mut port = ToyPort {
                targets: Vec::new(),
                rule: self.rule,
                hooks: self.hooks.clone(),
            };
            port.retarget(dir, group);
            port
        }
    }

    /// Issues `left` commands and logs how each ended.
    struct ToyApp {
        left: u32,
        outcomes: Rc<RefCell<Vec<OperationOutcome>>>,
    }

    impl ClientApp for ToyApp {
        fn next_command(&mut self, _: &mut SmallRng) -> Option<Vec<u8>> {
            self.left = self.left.checked_sub(1)?;
            Some(b"op".to_vec())
        }
        fn on_outcome(&mut self, outcome: &OperationOutcome) {
            self.outcomes.borrow_mut().push(outcome.clone());
        }
    }

    /// Logs what it receives; says what it is told to.
    struct ToyReplica {
        client: NodeId,
        seen: Vec<(SimTime, Toy)>,
    }

    impl Node<Toy> for ToyReplica {
        fn on_message(&mut self, ctx: &mut Context<'_, Toy>, _: NodeId, msg: Toy) {
            match msg {
                Toy::Say(msg) => ctx.send(self.client, *msg),
                msg => self.seen.push((ctx.now(), msg)),
            }
        }
    }

    /// The chassis under test, plus the `Fire` control.
    struct Driven(Client<ToyPort>);

    impl Node<Toy> for Driven {
        fn on_start(&mut self, ctx: &mut Context<'_, Toy>) {
            self.0.on_start(ctx);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Toy>, from: NodeId, msg: Toy) {
            match msg {
                Toy::Fire(tick) => {
                    ctx.set_timer(Duration::ZERO, Toy::ClientTimer(tick));
                }
                msg => self.0.on_message(ctx, from, msg),
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Toy>, id: TimerId, msg: Toy) {
            self.0.on_timer(ctx, id, msg);
        }
    }

    fn ms(t: u64) -> Duration {
        Duration::from_millis(t)
    }

    fn at_us(t: u64) -> SimTime {
        SimTime::from_nanos(t * 1_000)
    }

    fn op(n: u64) -> RequestId {
        RequestId::new(ClientId(0), OpNumber(n))
    }

    /// One client over `n` members and `spares` further replicas the
    /// directory knows; every hop takes exactly 100 µs.
    struct Rig {
        sim: Simulation<Toy>,
        replicas: Vec<NodeId>,
        client: NodeId,
        outcomes: Rc<RefCell<Vec<OperationOutcome>>>,
        hooks: Rc<RefCell<Vec<Hook>>>,
    }

    impl Rig {
        fn new(n: u32, spares: u32, rule: Rule, ops: u32) -> Rig {
            Rig::with_timing(n, spares, rule, ops, TIMING)
        }

        fn with_timing(n: u32, spares: u32, rule: Rule, ops: u32, timing: ClientTiming) -> Rig {
            let hop = LinkSpec::new(Duration::from_micros(100), Duration::ZERO);
            let mut sim: Simulation<Toy> = Simulation::with_network(7, Network::new(hop));
            let replicas: Vec<NodeId> = (0..n + spares).map(|_| sim.reserve_node()).collect();
            let client = sim.reserve_node();
            let dir = Directory::new(replicas.clone(), vec![client]);
            for &node in &replicas {
                let seen = Vec::new();
                sim.install_node(node, Box::new(ToyReplica { client, seen }));
            }
            let outcomes = Rc::new(RefCell::new(Vec::new()));
            let hooks = Rc::new(RefCell::new(Vec::new()));
            let app = ToyApp {
                left: ops,
                outcomes: outcomes.clone(),
            };
            let setup = ToySetup {
                n,
                rule,
                timing,
                hooks: hooks.clone(),
            };
            let chassis = Client::new(setup, ClientId(0), dir, Box::new(app));
            sim.install_node(client, Box::new(Driven(chassis)));
            Rig {
                sim,
                replicas,
                client,
                outcomes,
                hooks,
            }
        }

        /// The replica at `index` sends `msg` to the client, now; then
        /// 250 µs pass, so it has arrived and so has what the client sent
        /// in return.
        fn say(&mut self, index: usize, msg: Toy) {
            self.sim.post(self.replicas[index], Toy::Say(Box::new(msg)));
            self.sim.run_for(Duration::from_micros(250));
        }

        /// A timer carrying `tick` fires at the client, now.
        fn fire(&mut self, tick: u64) {
            self.sim.post(self.client, Toy::Fire(tick));
            self.sim.run_for(Duration::ZERO);
        }

        /// `(arrival, operation number)` of every request the replica at
        /// `index` received.
        fn requests(&self, index: usize) -> Vec<(SimTime, u64)> {
            let replica = self.sim.node_as::<ToyReplica>(self.replicas[index]);
            let seen = replica.expect("toy replica").seen.iter();
            seen.map(|(t, msg)| match msg {
                Toy::Request(req) => (*t, req.id.op.0),
                other => panic!("a replica received {other:?}"),
            })
            .collect()
        }

        fn chassis(&self) -> &Client<ToyPort> {
            &self.sim.node_as::<Driven>(self.client).expect("client").0
        }

        fn outcomes(&self) -> Vec<(u64, OutcomeKind)> {
            let outcomes = self.outcomes.borrow();
            outcomes.iter().map(|o| (o.id.op.0, o.kind)).collect()
        }

        fn hooks(&self) -> Vec<Hook> {
            self.hooks.borrow().clone()
        }
    }

    #[test]
    fn retransmission_rearms_until_answered_and_stale_timers_are_ignored() {
        let mut rig = Rig::new(3, 0, NEVER_REJECTED, 2);
        rig.sim.run_for(ms(25));
        let thrice = [(at_us(100), 1), (at_us(10_100), 1), (at_us(20_100), 1)];
        for replica in 0..3 {
            assert_eq!(rig.requests(replica), thrice);
        }
        assert_eq!(rig.chassis().stats().retransmissions, 2);
        assert_eq!(rig.hooks()[1..], [Hook::Timeout, Hook::Timeout]);

        // Posted at 25 ms, the reply arrives at 25.1 ms; the next
        // operation leaves at once and arrives at 25.2 ms.
        rig.say(0, Toy::Reply(Reply::new(op(1), &b"ok"[..])));
        assert_eq!(rig.outcomes(), [(1, OutcomeKind::Success)]);
        assert_eq!(rig.hooks().last(), Some(&Hook::Answered(rig.replicas[0])));
        assert_eq!(rig.requests(1).last(), Some(&(at_us(25_200), 2)));
        // One retry timer serves both operations.
        assert_eq!(rig.sim.pending_timers(), 1);

        // Timers of the finished operation change nothing...
        rig.fire(encode_tick(TAG_RETRY, 1));
        rig.fire(encode_tick(TAG_GRACE, 1));
        rig.sim.run_for(ms(1));
        assert_eq!(rig.outcomes().len(), 1);
        assert_eq!(rig.requests(1).len(), 4);
        assert_eq!(rig.chassis().stats().retransmissions, 2);
        // ... and neither does a wake-up while an operation is in flight.
        rig.fire(encode_tick(TAG_WAKE, 0));
        assert_eq!(rig.chassis().stats().issued, 2);
        // The second operation's own retry timer is untouched.
        rig.sim.run_for(ms(10));
        assert_eq!(rig.requests(1).last(), Some(&(at_us(35_200), 2)));
    }

    #[test]
    fn pessimistic_quorum_rejection_counts_distinct_members_only() {
        let rule = Rule {
            threshold: Some(2),
            is_final: false,
            grace: None,
        };
        let mut rig = Rig::new(3, 1, rule, 2);
        rig.sim.run_for(ms(1));
        rig.say(0, Toy::Reject(op(1)));
        // The same replica again, a replica outside the group, and a
        // reject for another operation: none of them counts.
        rig.say(0, Toy::Reject(op(1)));
        rig.say(3, Toy::Reject(op(1)));
        rig.say(1, Toy::Reject(op(7)));
        assert_eq!(rig.outcomes(), []);
        // The second distinct member makes it `n − f`: ambivalent at once.
        rig.say(1, Toy::Reject(op(1)));
        assert_eq!(rig.outcomes(), [(1, OutcomeKind::RejectedAmbivalent)]);
        let aborted = rig.outcomes.borrow()[0].clone();
        assert_eq!(aborted.completed_at, at_us(2_100));
        assert_eq!(aborted.latency, Duration::from_micros(2_100));
        assert_eq!(aborted.result, None);
        assert_eq!(rig.chassis().stats().rejected_ambivalent, 1);
        // The next operation waits out a backoff drawn from 1–3 ms.
        assert_eq!(rig.requests(0).len(), 1);
        rig.sim.run_for(ms(4));
        let (arrived, next) = rig.requests(0)[1];
        assert_eq!(next, 2);
        assert!(
            at_us(3_200) <= arrived && arrived <= at_us(5_200),
            "{arrived:?}"
        );
    }

    #[test]
    fn optimistic_client_waits_out_the_grace_period_and_a_reply_inside_it_wins() {
        let rule = Rule {
            threshold: Some(2),
            is_final: false,
            grace: Some(ms(5)),
        };
        let mut rig = Rig::new(3, 0, rule, 2);
        rig.sim.run_for(ms(1));
        rig.say(0, Toy::Reject(op(1)));
        rig.say(1, Toy::Reject(op(1)));
        // Ambivalent since 1.35 ms, and still waiting at 6.3 ms.
        rig.sim.run_for(Duration::from_micros(4_800));
        assert_eq!(rig.outcomes(), []);
        rig.sim.run_for(Duration::from_micros(100));
        assert_eq!(rig.outcomes(), [(1, OutcomeKind::RejectedAmbivalent)]);
        assert_eq!(rig.outcomes.borrow()[0].completed_at, at_us(6_350));

        // Second operation: ambivalent again, but the third replica
        // executed it and its reply arrives inside the grace period.
        rig.sim.run_for(ms(4));
        assert_eq!(rig.chassis().stats().issued, 2);
        rig.say(0, Toy::Reject(op(2)));
        rig.say(1, Toy::Reject(op(2)));
        assert_eq!(rig.sim.pending_timers(), 2);
        rig.say(2, Toy::Reply(Reply::new(op(2), &b"ok"[..])));
        assert_eq!(rig.outcomes()[1], (2, OutcomeKind::Success));
        // Its grace timer is cancelled, its retransmission deadline is
        // cleared and the app has no third operation: nothing more
        // happens, and the retry timer fires out idle.
        assert!(rig.chassis().is_stopped());
        rig.sim.run_for(ms(20));
        assert_eq!(rig.outcomes().len(), 2);
        assert_eq!(rig.chassis().stats().retransmissions, 0);
        assert_eq!(rig.requests(2).len(), 2);
        assert_eq!(rig.sim.pending_timers(), 0);
    }

    #[test]
    fn rejection_by_every_member_is_final() {
        let rule = Rule {
            threshold: Some(2),
            is_final: false,
            grace: Some(ms(5)),
        };
        let mut rig = Rig::new(3, 0, rule, 1);
        rig.sim.run_for(ms(1));
        for replica in 0..3 {
            assert_eq!(rig.outcomes(), []);
            rig.say(replica, Toy::Reject(op(1)));
        }
        // The third reject ends the grace period early, and its timer.
        assert_eq!(rig.outcomes(), [(1, OutcomeKind::RejectedFinal)]);
        assert_eq!(rig.chassis().stats().rejected_final, 1);
        // Nothing is retransmitted after the verdict, and once the backoff
        // finds the app exhausted nothing is left to fire.
        rig.sim.run_for(ms(20));
        assert_eq!(rig.chassis().stats().retransmissions, 0);
        assert_eq!(rig.requests(0).len(), 1);
        assert_eq!(rig.sim.pending_timers(), 0);
    }

    #[test]
    fn a_final_reject_ends_the_operation_and_names_who_answered() {
        let rule = Rule {
            threshold: None,
            is_final: true,
            grace: None,
        };
        let mut rig = Rig::new(3, 0, rule, 1);
        rig.sim.run_for(ms(1));
        rig.say(1, Toy::Reject(op(1)));
        assert_eq!(rig.outcomes(), [(1, OutcomeKind::RejectedFinal)]);
        assert_eq!(rig.hooks().last(), Some(&Hook::Answered(rig.replicas[1])));
    }

    #[test]
    fn newer_membership_resets_rejects_and_retargets_the_operation_in_flight() {
        let rule = Rule {
            threshold: Some(2),
            is_final: false,
            grace: Some(ms(5)),
        };
        let mut rig = Rig::new(3, 1, rule, 1);
        rig.sim.run_for(ms(1));
        rig.say(0, Toy::Reject(op(1)));
        rig.say(1, Toy::Reject(op(1)));
        assert_eq!(rig.sim.pending_timers(), 2, "retry and grace");

        // Replica 0 is swapped for the spare. The update is re-sent to
        // the new group only, the grace timer is cancelled and both
        // rejects are forgotten.
        let mut group = Membership::bootstrap(3);
        group.apply(&crate::ReconfigCommand::Replace {
            old: ReplicaId(0),
            new: ReplicaId(3),
        });
        rig.say(1, Toy::MembershipUpdate(group.clone()));
        let members = vec![ReplicaId(1), ReplicaId(2), ReplicaId(3)];
        assert_eq!(rig.hooks().last(), Some(&Hook::Retarget(members)));
        assert_eq!(rig.requests(0).len(), 1);
        assert_eq!(rig.requests(3), [(at_us(1_700), 1)]);
        assert_eq!(rig.requests(2).len(), 2);
        assert_eq!(
            rig.sim.pending_timers(),
            1,
            "the retry timer stays as armed"
        );
        // One reject under the new epoch is one, not three; one from the
        // departed replica is none.
        rig.say(1, Toy::Reject(op(1)));
        rig.say(0, Toy::Reject(op(1)));
        rig.sim.run_for(ms(6));
        assert_eq!(rig.outcomes(), []);

        // The same epoch again, or an older one, is dropped.
        let before = rig.hooks().len();
        rig.say(2, Toy::MembershipUpdate(group));
        rig.say(2, Toy::MembershipUpdate(Membership::bootstrap(3)));
        assert_eq!(rig.hooks().len(), before);
        assert_eq!(rig.requests(0).len(), 1);
        assert_eq!(rig.requests(3).len(), 1);
        // The retry armed at issue time fires on schedule, at the group
        // as it is now.
        rig.sim.run_for(ms(2));
        assert_eq!(rig.requests(3).last(), Some(&(at_us(10_100), 1)));
        assert_eq!(rig.requests(0).len(), 1);
    }

    #[test]
    fn an_exhausted_app_stops_the_client_for_good() {
        let mut rig = Rig::new(3, 0, NEVER_REJECTED, 1);
        rig.sim.run_for(ms(1));
        assert!(!rig.chassis().is_stopped());
        rig.say(0, Toy::Reply(Reply::new(op(1), &b"ok"[..])));
        assert!(rig.chassis().is_stopped());
        rig.fire(encode_tick(TAG_WAKE, 0));
        rig.sim.run_for(ms(20));
        assert_eq!(rig.chassis().stats().issued, 1);
        assert_eq!(rig.chassis().stats().retransmissions, 0);
        assert_eq!(rig.requests(0).len(), 1);
        assert_eq!(rig.sim.pending_timers(), 0);
    }

    #[test]
    fn first_operation_waits_for_start_delay_plus_stagger_and_thinks_after_a_success() {
        let timing = ClientTiming {
            start_delay: ms(2),
            think_time: ms(3),
            ..TIMING
        };
        let mut rig = Rig::with_timing(3, 0, NEVER_REJECTED, 2, timing);
        rig.sim.run_for(ms(4));
        assert_eq!(rig.requests(0), [(at_us(2_100), 1)]);
        rig.say(0, Toy::Reply(Reply::new(op(1), &b"ok"[..])));
        rig.sim.run_for(ms(4));
        // Answered at 4.1 ms, thought until 7.1 ms.
        assert_eq!(rig.requests(0)[1], (at_us(7_200), 2));

        let staggered = ClientTiming {
            start_delay: ms(2),
            start_stagger: ms(4),
            ..TIMING
        };
        let mut rig = Rig::with_timing(3, 0, NEVER_REJECTED, 1, staggered);
        rig.sim.run_for(ms(7));
        let (arrived, _) = rig.requests(0)[0];
        assert!(
            at_us(2_100) < arrived && arrived <= at_us(6_100),
            "{arrived:?}"
        );
    }

    #[test]
    fn tick_encoding_round_trips() {
        assert_eq!(encode_tick(0, 42), 42);
        assert_eq!(decode_tick(encode_tick(3, 42)), (3, 42));
        assert_eq!(
            decode_tick(encode_tick(255, (1 << 56) - 1)),
            (255, (1 << 56) - 1)
        );
    }
}
