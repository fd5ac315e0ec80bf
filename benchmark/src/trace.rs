//! Host-time spans around every call into a wrapped layer.
//!
//! The benchmark measures end-to-end metrics with the program unwrapped. A
//! separate traced run installs every replica and client (or the
//! `LoadSource`) behind a [`Traced`] node and every state machine behind a
//! [`TracedApp`], so each handler invocation and each `execute` becomes a
//! span recorded from the benchmark's own files. Spans aggregate per layer
//! in memory; the full span is kept for every 256th request id and written
//! out when the run ends.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use idem_common::{RequestId, StateMachine};
use idem_core::IdemMessage;
use idem_paxos::PaxosMessage;
use idem_simnet::{Context, Node, NodeId, TimerId};
use idem_smart::SmartMessage;

/// A layer whose calls the traced run wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `idem_core::IdemReplica` handlers.
    CoreReplica,
    /// `idem_paxos::PaxosReplica` handlers.
    PaxosReplica,
    /// `idem_smart::SmartReplica` handlers.
    SmartReplica,
    /// Closed-loop protocol clients and the apps driving them.
    Client,
    /// The aggregate open-loop `LoadSource`.
    Load,
}

impl Layer {
    /// Every wrapped layer, in ledger order.
    pub const ALL: [Layer; 5] = [
        Layer::CoreReplica,
        Layer::PaxosReplica,
        Layer::SmartReplica,
        Layer::Client,
        Layer::Load,
    ];

    /// The `<crate>.<module>` prefix of this layer's metrics.
    pub fn name(self) -> &'static str {
        match self {
            Layer::CoreReplica => "core.replica",
            Layer::PaxosReplica => "paxos.replica",
            Layer::SmartReplica => "smart.replica",
            Layer::Client => "harness.client",
            Layer::Load => "harness.load",
        }
    }
}

/// Which callback a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// `Node::on_message`.
    Message,
    /// `Node::on_timer`.
    Timer,
    /// `Node::on_recover` (WAL replay after a wipe runs here).
    Recover,
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::Message => "on_message",
            SpanKind::Timer => "on_timer",
            SpanKind::Recover => "on_recover",
        }
    }
}

/// One retained span. `app_ns` is the part of the interval covered by the
/// child `StateMachine::execute` spans; self time is `dur_ns - app_ns`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The wrapped layer.
    pub layer: Layer,
    /// The callback.
    pub kind: SpanKind,
    /// Simulator node the handler ran on.
    pub node: u32,
    /// The request every span of one operation shares.
    pub request: RequestId,
    /// Start, in host nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in host nanoseconds.
    pub dur_ns: u64,
    /// Host nanoseconds spent in child `execute` spans.
    pub app_ns: u64,
}

/// Aggregate of one layer's spans.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LayerTotals {
    /// Handler invocations.
    pub calls: u64,
    /// Host nanoseconds inside the handlers, children included.
    pub ns: u64,
    /// Host nanoseconds of that covered by child `execute` spans.
    pub app_ns: u64,
}

impl LayerTotals {
    /// Host nanoseconds spent in the layer itself.
    pub fn self_ns(&self) -> u64 {
        self.ns - self.app_ns
    }
}

/// The `execute` clock shared by a cell's [`TracedApp`]s. Atomics because
/// replicas require `StateMachine + Send`; nothing here publishes data, so
/// `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct AppClock {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl AppClock {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Total host nanoseconds inside `execute`.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Number of `execute` calls.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// A [`StateMachine`] whose `execute` calls are timed.
pub struct TracedApp {
    inner: Box<dyn StateMachine + Send>,
    clock: Arc<AppClock>,
}

impl TracedApp {
    /// Wraps `inner`, reporting to `clock`.
    pub fn new(inner: Box<dyn StateMachine + Send>, clock: Arc<AppClock>) -> TracedApp {
        TracedApp { inner, clock }
    }
}

impl StateMachine for TracedApp {
    fn execute(&mut self, command: &[u8]) -> Vec<u8> {
        let inner = &mut self.inner;
        self.clock.time(|| inner.execute(command))
    }

    fn execute_into(&mut self, command: &[u8], out: &mut Vec<u8>) {
        let inner = &mut self.inner;
        self.clock.time(|| inner.execute_into(command, out));
    }

    fn execution_cost(&self, command: &[u8]) -> Duration {
        self.inner.execution_cost(command)
    }

    fn snapshot(&self) -> Vec<u8> {
        self.inner.snapshot()
    }

    fn snapshot_len(&self) -> usize {
        self.inner.snapshot_len()
    }

    fn restore(&mut self, snapshot: &[u8]) {
        self.inner.restore(snapshot);
    }
}

/// Every 256th request id keeps its full spans.
const SAMPLE_MASK: u64 = 0xff;

/// Cap on retained spans, so a mis-sized run cannot exhaust memory.
const MAX_SPANS: usize = 1 << 20;

/// Span sink of one traced cell.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    app: Arc<AppClock>,
    totals: RefCell<[LayerTotals; Layer::ALL.len()]>,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    /// Creates an empty tracer.
    pub fn new() -> Rc<Tracer> {
        Rc::new(Tracer {
            epoch: Instant::now(),
            app: Arc::new(AppClock::default()),
            totals: RefCell::new([LayerTotals::default(); Layer::ALL.len()]),
            spans: RefCell::new(Vec::new()),
        })
    }

    /// The clock to hand to this cell's [`TracedApp`]s.
    pub fn app_clock(&self) -> Arc<AppClock> {
        self.app.clone()
    }

    /// Aggregate of `layer`'s spans so far.
    pub fn totals(&self, layer: Layer) -> LayerTotals {
        self.totals.borrow()[layer as usize]
    }

    /// Forgets everything recorded so far: the measured window starts here.
    pub fn reset(&self) {
        *self.totals.borrow_mut() = Default::default();
        self.spans.borrow_mut().clear();
        self.app.ns.store(0, Ordering::Relaxed);
        self.app.calls.store(0, Ordering::Relaxed);
    }

    /// Host nanoseconds one span costs outside the interval it measures:
    /// the part of the tracing overhead that lands in the caller's time.
    pub fn outside_ns_per_span() -> f64 {
        const SPANS: u64 = 400_000;
        let tracer = Tracer::new();
        let start = Instant::now();
        for _ in 0..SPANS {
            tracer.span(Layer::Load, SpanKind::Message, NodeId(0), None, || {});
        }
        let wall = start.elapsed().as_nanos() as u64;
        wall.saturating_sub(tracer.totals(Layer::Load).ns) as f64 / SPANS as f64
    }

    /// Takes the retained spans.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut self.spans.borrow_mut())
    }

    fn span<R>(
        &self,
        layer: Layer,
        kind: SpanKind,
        node: NodeId,
        request: Option<RequestId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let app_before = self.app.ns();
        let start = Instant::now();
        let out = f();
        let dur_ns = start.elapsed().as_nanos() as u64;
        let app_ns = self.app.ns() - app_before;
        let totals = &mut self.totals.borrow_mut()[layer as usize];
        totals.calls += 1;
        totals.ns += dur_ns;
        totals.app_ns += app_ns;
        if let Some(request) = request {
            if request.stable_hash() & SAMPLE_MASK == 0 {
                let mut spans = self.spans.borrow_mut();
                if spans.len() < MAX_SPANS {
                    spans.push(Span {
                        layer,
                        kind,
                        node: node.0,
                        request,
                        start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                        dur_ns,
                        app_ns,
                    });
                }
            }
        }
        out
    }
}

/// The request a message belongs to, if it names one: the identifier the
/// spans of one operation share.
pub trait Tagged {
    /// The request id carried by this message.
    fn request(&self) -> Option<RequestId>;
}

impl Tagged for IdemMessage {
    fn request(&self) -> Option<RequestId> {
        match self {
            IdemMessage::Request(r) | IdemMessage::Forward(r) => Some(r.id),
            IdemMessage::Reply(r) => Some(r.id),
            IdemMessage::Reject(id)
            | IdemMessage::Require(id)
            | IdemMessage::Fetch(id)
            | IdemMessage::ForwardTimer(id)
            | IdemMessage::Propose { id, .. }
            | IdemMessage::Commit { id, .. } => Some(*id),
            _ => None,
        }
    }
}

impl Tagged for PaxosMessage {
    fn request(&self) -> Option<RequestId> {
        match self {
            PaxosMessage::Request(r) => Some(r.id),
            PaxosMessage::Reply(r) => Some(r.id),
            PaxosMessage::Reject(id) | PaxosMessage::Accept { id, .. } => Some(*id),
            PaxosMessage::Propose { request, .. } => Some(request.id),
            _ => None,
        }
    }
}

impl Tagged for SmartMessage {
    fn request(&self) -> Option<RequestId> {
        match self {
            SmartMessage::Request(r) => Some(r.id),
            SmartMessage::Reply(r) => Some(r.id),
            _ => None,
        }
    }
}

/// A node whose handler invocations are timed as spans of `layer`. It
/// forwards every callback unchanged, so the simulated run is the same
/// event for event.
pub struct Traced<N> {
    inner: N,
    layer: Layer,
    tracer: Rc<Tracer>,
}

impl<N> Traced<N> {
    /// Wraps `inner`, reporting spans of `layer` to `tracer`.
    pub fn new(inner: N, layer: Layer, tracer: Rc<Tracer>) -> Traced<N> {
        Traced {
            inner,
            layer,
            tracer,
        }
    }

    /// The wrapped node.
    pub fn inner(&self) -> &N {
        &self.inner
    }
}

impl<M: Tagged + 'static, N: Node<M> + 'static> Node<M> for Traced<N> {
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M) {
        let (request, node) = (msg.request(), ctx.id());
        let inner = &mut self.inner;
        self.tracer
            .span(self.layer, SpanKind::Message, node, request, || {
                inner.on_message(ctx, from, msg)
            });
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, M>, id: TimerId, msg: M) {
        let (request, node) = (msg.request(), ctx.id());
        let inner = &mut self.inner;
        self.tracer
            .span(self.layer, SpanKind::Timer, node, request, || {
                inner.on_timer(ctx, id, msg)
            });
    }

    fn on_crash(&mut self, now: idem_simnet::SimTime) {
        self.inner.on_crash(now);
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, M>) {
        let node = ctx.id();
        let inner = &mut self.inner;
        self.tracer
            .span(self.layer, SpanKind::Recover, node, None, || {
                inner.on_recover(ctx)
            });
    }
}

/// Renders retained spans as a JSON array (one object per span).
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"layer\":\"{}\",\"kind\":\"{}\",\"node\":{},\"client\":{},\"op\":{},\
             \"start_ns\":{},\"dur_ns\":{},\"app_ns\":{}}}",
            s.layer.name(),
            s.kind.name(),
            s.node,
            s.request.client.0,
            s.request.op.0,
            s.start_ns,
            s.dur_ns,
            s.app_ns
        ));
    }
    out.push_str("\n]");
    out
}
