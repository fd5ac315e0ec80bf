//! Alloc-free hot-path regression tests, gated on the `alloc-count`
//! feature (`cargo test -p idem-harness --features alloc-count`).
//!
//! Two tiers of strictness:
//!
//! * At the pure-simnet level, the deliver path — queue pop, wheel
//!   cascade, arena materialize, backlog drain, trace push — must perform
//!   literally zero allocator calls once every buffer has reached its
//!   steady-state capacity. A hub node multicasting to three spokes (the
//!   replication fan-out shape) plus unicast replies exercises send,
//!   multicast batching, and the arena recycling paths.
//!
//! * At the protocol level a saturated 3-replica IDEM run still allocates
//!   for protocol state (BTreeMap node churn under monotone sequence
//!   numbers, command payloads, metrics recording), so literal zero is not
//!   attainable — the contract is integer allocations-per-event == 0,
//!   i.e. allocator calls are strictly rarer than simulated events.

#![cfg(feature = "alloc-count")]

use std::time::Duration;

use std::sync::{Arc, Mutex, MutexGuard};

use idem_common::load::LoadPhase;
use idem_common::{
    ClientId, ClientSetup, Directory, Membership, OpNumber, PersistMode, ReplicaId, Reply, Request,
    ResultBytes, StateMachine, Wal,
};
use idem_core::{IdemMessage, IdemReplica};
use idem_harness::allocs;
use idem_harness::cluster::{experiment_network, KV_EXEC_COST};
use idem_harness::load::{LoadEvent, LoadPort};
use idem_harness::{
    run_load_scenario, LoadScenario, LoadSource, Protocol, Recorder, RecorderHandle, Scenario,
};
use idem_kv::{Command, KvStore};
use idem_simnet::{Context, Node, NodeId, Simulation, Wire};

/// The counters are process-global and the test harness runs tests on
/// parallel threads: every test here measures under this lock.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    // A failed test poisons the lock; the guarded unit has no state.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[derive(Clone, Debug)]
struct Ping(u64);

impl Wire for Ping {
    fn wire_size(&self) -> usize {
        8
    }
}

/// Broadcasts to its spokes; after collecting all replies, broadcasts
/// again. Keeps one multicast batch in flight forever without allocating.
struct Hub {
    spokes: [NodeId; 3],
    replies: usize,
    round: u64,
}

impl Node<Ping> for Hub {
    fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
        ctx.multicast(self.spokes.iter().copied(), Ping(self.round));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Ping>, _from: NodeId, msg: Ping) {
        assert_eq!(msg.0, self.round, "a reply from another round");
        self.replies += 1;
        if self.replies == self.spokes.len() {
            self.replies = 0;
            self.round += 1;
            ctx.multicast(self.spokes.iter().copied(), Ping(self.round));
        }
    }
}

/// Echoes every ping straight back (unicast arena path).
struct Spoke;

impl Node<Ping> for Spoke {
    fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: NodeId, msg: Ping) {
        ctx.send(from, msg);
    }
}

#[test]
fn steady_state_simnet_hot_path_is_alloc_free() {
    let _serial = serial();
    let mut sim = Simulation::new(7);
    let spokes = [
        sim.add_node(Box::new(Spoke)),
        sim.add_node(Box::new(Spoke)),
        sim.add_node(Box::new(Spoke)),
    ];
    sim.add_node(Box::new(Hub {
        spokes,
        replies: 0,
        round: 0,
    }));

    // Warmup: let every Vec/VecDeque/heap/arena reach steady-state
    // capacity. Must outlast one full wrap of the highest timing-wheel
    // level this traffic touches (level 3 wraps every 2^34 ns ≈ 17 s), so
    // that no virgin slot sees its first event inside the measure window.
    sim.run_for(Duration::from_secs(20));
    let events_before = sim.events_processed();

    let before = allocs::snapshot();
    sim.run_for(Duration::from_secs(2));
    let delta = allocs::snapshot().since(before);

    let events = sim.events_processed() - events_before;
    assert!(
        events > 10_000,
        "window too quiet to be meaningful: {events}"
    );
    assert_eq!(
        delta.allocs, 0,
        "steady-state deliver path allocated {} times over {} events",
        delta.allocs, events
    );
    assert_eq!(
        delta.frees, 0,
        "steady-state deliver path freed {} times over {} events",
        delta.frees, events
    );
}

/// 400 closed-loop clients against 3 replicas is deep into saturation.
/// Empty values keep the workload from charging the simulator for payload
/// bytes it has no say over — command framing, window maps, and retransmit
/// state still churn.
fn saturated_idem_cell(measured: Duration) -> Scenario {
    let mut s = Scenario::new(Protocol::idem(), 400, measured);
    s.warmup = Duration::from_secs(1);
    s.workload = idem_kv::WorkloadSpec::write_only(0);
    s
}

#[test]
fn saturated_idem_run_allocates_less_than_once_per_event() {
    let _serial = serial();
    // Events dominate committed operations by a wide margin, so
    // protocol-state churn must stay well under one allocator call per
    // event.
    let s = saturated_idem_cell(Duration::from_secs(2));

    let before = allocs::snapshot();
    let r = s.run();
    let delta = allocs::snapshot().since(before);

    assert!(
        r.events_processed > 100_000,
        "run too small to be meaningful: {} events",
        r.events_processed
    );
    // The whole run — including setup and result assembly — must stay
    // under one allocation per four events. Measured 0.80 when the slab
    // arena landed (§6c), 0.19 after the dense protocol state (§6e)
    // removed the per-request tree-node churn; the bound leaves room for
    // noise but fails if either regression returns.
    assert!(
        delta.allocs * 4 < r.events_processed,
        "allocs/event >= 0.25: {} allocs over {} events",
        delta.allocs,
        r.events_processed
    );
}

#[test]
fn saturated_idem_heap_does_not_grow_with_simulated_time() {
    let _serial = serial();
    // Peak live heap bytes of the saturated cell above where it started,
    // for a run of `total` simulated seconds (one of them warm-up).
    let peak = |total: u64| {
        let s = saturated_idem_cell(Duration::from_secs(total - 1));
        let before = allocs::snapshot();
        let r = s.run();
        assert!(r.events_processed > 100_000 * total);
        allocs::snapshot().peak_live_bytes - before.live_bytes
    };
    let (short, long) = (peak(3), peak(9));
    eprintln!("saturated IDEM cell: peak live bytes {short} at 3 s, {long} at 9 s");
    // The pending population is the same at both lengths (400 clients, one
    // operation each); what a run of three times the length may add is the
    // recorder's per-window series. The timing wheel used to add ≈11 MB
    // per simulated second: a slot's buffer of cancelled timers moved on to
    // another slot every time one was drained (DESIGN.md §6a).
    assert!(
        long * 4 <= short * 5,
        "peak live heap grew with simulated time: {short} B at 3 s, {long} B at 9 s"
    );
    // And the level follows the population too: ≈5.2 MB since the wheel
    // files its events in one slab, ≈8.7 MB while each of its slots kept
    // the largest buffer it had ever needed.
    assert!(
        long < 7_000_000,
        "peak live heap of {long} B at 9 s, above 7 MB"
    );
}

/// Three IDEM replicas under one open-loop `LoadSource` of 10⁵ logical
/// clients at 20k req/s of `update_heavy` traffic (under capacity, so
/// nothing is rejected), for `total` simulated seconds (one of them
/// warm-up): peak live heap bytes above where it started.
fn open_loop_idem_peak(total: u64) -> u64 {
    let scenario = LoadScenario::new(
        "alloc-open-heap",
        100_000,
        20_000.0,
        vec![LoadPhase::new(
            "steady",
            Duration::from_secs(total - 1),
            1.0,
        )],
    )
    .with_workload(idem_kv::WorkloadSpec::update_heavy())
    .with_warmup(Duration::from_secs(1));
    let before = allocs::snapshot();
    let r = run_load_scenario(&Protocol::idem(), &scenario);
    let peak = allocs::snapshot().peak_live_bytes - before.live_bytes;
    assert_eq!(r.conservation, None);
    assert!(r.totals.completed > 15_000 * (total - 1));
    peak
}

/// What the replicas and the source keep follows the live state, not the
/// number of operations run: each session row holds its client's last
/// reply, and a GET reply shares the store's buffer, which an UPDATE of
/// the same bytes keeps (every workload value derives from its key). The
/// source links its retransmit deadlines through the flights they belong
/// to. While every UPDATE under a shared buffer installed a fresh copy,
/// rows pinned ever more stale copies of the same 10⁴ values, and a
/// deadline queue kept every issued operation for a second: 21.1 MB at
/// 3 s and 26.7 MB at 9 s (×1.26); 16.6 and 17.0 MB since (×1.02).
#[test]
fn open_loop_idem_heap_does_not_grow_with_simulated_time() {
    let _serial = serial();
    let (short, long) = (open_loop_idem_peak(3), open_loop_idem_peak(9));
    eprintln!("open-loop IDEM cell: peak live bytes {short} at 3 s, {long} at 9 s");
    assert!(
        long * 4 <= short * 5,
        "peak live heap grew with simulated time: {short} B at 3 s, {long} B at 9 s"
    );
    // Three 4 MB session tables for 10⁵ clients are most of the level.
    assert!(
        long < 20_000_000,
        "peak live heap of {long} B at 9 s, above 20 MB"
    );
}

/// What one WAL-on/off run of the durable cell observed.
struct DurableCell {
    allocs: u64,
    events: u64,
    checkpoints: u64,
    records: u64,
    sessions: usize,
}

/// Three IDEM replicas under one open-loop `LoadSource` with 10⁴ logical
/// clients at a calm 4k req/s, so nearly every client owns a row of each
/// replica's session table and every 128th execution checkpoints all of
/// them. Disk latency stays zero: the WAL then charges no virtual time,
/// and the run is event-for-event the same with persistence on or off.
fn durable_cell(persist: PersistMode) -> DurableCell {
    let Protocol::Idem { config, client } = Protocol::idem() else {
        unreachable!("idem() builds the Idem variant");
    };
    let scenario = LoadScenario::new(
        "alloc-durable",
        10_000,
        4_000.0,
        vec![LoadPhase::new("steady", Duration::from_secs(5), 1.0)],
    )
    .with_workload(idem_kv::WorkloadSpec::write_only(16))
    .with_warmup(Duration::ZERO);

    let mut sim: Simulation<IdemMessage> = Simulation::with_network(3, experiment_network());
    let replicas: Vec<NodeId> = (0..config.quorum.n()).map(|_| sim.reserve_node()).collect();
    let source = sim.reserve_node();
    let dir = Directory::with_client_fallback(replicas.clone(), Vec::new(), source);
    for (i, &node) in replicas.iter().enumerate() {
        let mut replica = IdemReplica::new(
            config.clone(),
            ReplicaId(i as u32),
            dir.clone(),
            Box::new(KvStore::with_costs(KV_EXEC_COST, Duration::ZERO)),
        );
        replica.set_persistence(persist);
        sim.install_node(node, Box::new(replica));
    }
    let port = client.port(&dir, &Membership::bootstrap(config.quorum.n()));
    let recorder = RecorderHandle::new(Recorder::new(Duration::ZERO, Duration::from_millis(250)));
    sim.install_node(
        source,
        Box::new(LoadSource::new(port, dir, scenario, recorder)),
    );

    // Fill the session tables and let every buffer reach its size.
    sim.run_for(Duration::from_secs(4));
    let counts = |sim: &Simulation<IdemMessage>| {
        let (mut checkpoints, mut records) = (0u64, 0u64);
        for &node in &replicas {
            let replica = sim.node_as::<IdemReplica>(node).expect("replica type");
            checkpoints += replica.stats().checkpoints_taken;
            records += sim.disk(node).len() as u64;
        }
        (checkpoints, records, sim.events_processed())
    };
    let (checkpoints0, records0, events0) = counts(&sim);
    let before = allocs::snapshot();
    sim.run_for(Duration::from_secs(1));
    let allocs = allocs::snapshot().since(before).allocs;
    let (checkpoints1, records1, events1) = counts(&sim);
    let sessions = Wal::replay(sim.disk(replicas[1]).records(), 0)
        .checkpoint
        .map_or(0, |cp| cp.clients.len());
    DurableCell {
        allocs,
        events: events1 - events0,
        checkpoints: checkpoints1 - checkpoints0,
        records: records1 - records0,
        sessions,
    }
}

#[test]
fn wal_path_allocates_once_per_record_whatever_the_session_count() {
    let _serial = serial();
    let off = durable_cell(PersistMode::Disabled);
    let on = durable_cell(PersistMode::Wal);
    // Same events either way, so the difference is the WAL's alone.
    assert_eq!(on.events, off.events, "zero-latency WAL moved the schedule");
    assert_eq!(on.checkpoints, off.checkpoints);
    assert_eq!(off.records, 0);
    assert!(on.sessions > 7_000, "only {} sessions", on.sessions);
    assert!(on.checkpoints >= 60, "only {} checkpoints", on.checkpoints);
    assert!(on.records > 20_000, "only {} records", on.records);
    let wal_allocs = on.allocs.saturating_sub(off.allocs);
    eprintln!(
        "wal allocs {wal_allocs} over {} records incl. {} checkpoints of {} sessions",
        on.records, on.checkpoints, on.sessions
    );
    // One exactly-sized buffer per record — accept, exec and checkpoint
    // alike — plus the disks' own amortized index growth. The owned-record
    // path paid about three allocator calls per session per checkpoint on
    // top: ~2·10⁶ in this window.
    assert!(
        wal_allocs <= on.records + 64,
        "{wal_allocs} allocator calls for {} records ({} checkpoints, {} sessions)",
        on.records,
        on.checkpoints,
        on.sessions
    );
}

/// Allocator calls one IDEM replica of three makes to answer a
/// `CheckpointRequest` while it holds `sessions` sessions, each with a
/// short reply. The request is posted to the replica itself, so the
/// answer comes back to it too and is refused as stale; persistence is
/// off, so the answer is all the window holds.
fn checkpoint_answer_allocs(sessions: u32) -> u64 {
    let Protocol::Idem { config, .. } = Protocol::idem() else {
        unreachable!("idem() builds the Idem variant");
    };
    let mut sim: Simulation<IdemMessage> = Simulation::with_network(3, experiment_network());
    let replicas: Vec<NodeId> = (0..config.quorum.n()).map(|_| sim.reserve_node()).collect();
    let dir = Directory::new(replicas.clone(), Vec::new());
    for (i, &node) in replicas.iter().enumerate() {
        let mut replica = IdemReplica::new(
            config.clone(),
            ReplicaId(i as u32),
            dir.clone(),
            Box::new(KvStore::new()),
        );
        if i == 0 {
            for client in 0..sessions {
                let reply = ResultBytes::from_slice(b"ok");
                replica
                    .sessions
                    .record(ClientId(client), OpNumber(1), reply);
            }
        }
        sim.install_node(node, Box::new(replica));
    }
    let answer = |sim: &mut Simulation<IdemMessage>| {
        sim.post(replicas[0], IdemMessage::CheckpointRequest);
        sim.run_for(Duration::from_millis(1));
    };
    // The first answer grows the queue and the arena to their size.
    answer(&mut sim);
    allocs_during(|| answer(&mut sim))
}

#[test]
fn answering_a_checkpoint_request_allocates_independently_of_the_session_count() {
    let _serial = serial();
    // Process-global counters: the fewest over three tries is exact.
    let fewest = |sessions| {
        (0..3)
            .map(|_| checkpoint_answer_allocs(sessions))
            .min()
            .expect("three tries")
    };
    let (few, many) = (fewest(10), fewest(10_000));
    eprintln!("checkpoint answer: {few} allocator calls at 10 sessions, {many} at 10 000");
    // One record for the wire, whatever it covers. Building the transfer
    // message row by row cost one more call per session with a reply.
    assert_eq!(many, few, "answering over 10 000 sessions");
}

/// IDEM's client messages with the cluster cut out: a submitted request
/// is answered on the spot by a reply the source sends itself. Inline
/// result bytes, so the port allocates nothing and what the window counts
/// is the source's own.
struct LoopbackPort;

impl LoadPort for LoopbackPort {
    type Msg = IdemMessage;

    fn submit(&mut self, ctx: &mut Context<'_, IdemMessage>, _: &Directory<NodeId>, req: Request) {
        let me = ctx.id();
        ctx.send(me, IdemMessage::Reply(Reply::new(req.id, &b"ok"[..])));
    }

    fn classify(&self, msg: IdemMessage) -> LoadEvent {
        match msg {
            IdemMessage::Reply(reply) => LoadEvent::Reply(reply),
            _ => LoadEvent::Other,
        }
    }

    fn reject_threshold(&self) -> Option<u32> {
        None
    }

    fn reject_is_final(&self) -> bool {
        true
    }

    fn tick(arg: u64) -> IdemMessage {
        IdemMessage::RetransmitTimer(OpNumber(arg))
    }

    fn tick_arg(msg: &IdemMessage) -> Option<u64> {
        match msg {
            IdemMessage::RetransmitTimer(op) => Some(op.0),
            _ => None,
        }
    }
}

#[test]
fn open_loop_source_allocates_once_per_issued_operation() {
    let _serial = serial();
    let measured = Duration::from_secs(3);
    let scenario = LoadScenario::new(
        "alloc-open-loop",
        10_000,
        20_000.0,
        vec![LoadPhase::new("steady", measured * 2, 1.0)],
    )
    .with_workload(idem_kv::WorkloadSpec::write_only(100))
    .with_warmup(Duration::ZERO);

    let mut sim: Simulation<IdemMessage> = Simulation::with_network(5, experiment_network());
    let source = sim.reserve_node();
    let dir = Directory::with_client_fallback(Vec::new(), Vec::new(), source);
    let recorder = RecorderHandle::new(
        Recorder::new(Duration::ZERO, Duration::from_millis(250))
            .with_expected_duration(scenario.total_duration()),
    );
    sim.install_node(
        source,
        Box::new(LoadSource::new(LoopbackPort, dir, scenario, recorder)),
    );

    // Let the flight slab, the deadline queue, the recorder's oracle and
    // the simulator's own buffers reach their size.
    sim.run_for(measured);
    let issued = |sim: &Simulation<IdemMessage>| {
        let c = sim
            .node_as::<LoadSource<LoopbackPort>>(source)
            .expect("load source type")
            .counters();
        c.offered - c.shed
    };
    let issued0 = issued(&sim);
    let before = allocs::snapshot();
    sim.run_for(measured);
    let allocs = allocs::snapshot().since(before).allocs;
    let issued = issued(&sim) - issued0;

    eprintln!("open-loop source: {allocs} allocs over {issued} issued operations");
    assert!(issued > 50_000, "window too quiet: {issued} issued");
    // The command's `Arc<[u8]>`, shared by the request and its flight —
    // the one allocation an operation needs. The `next_command` → `Vec` →
    // `Arc` route paid three for every write.
    assert!(
        (issued..=issued + 64).contains(&allocs),
        "{allocs} allocator calls for {issued} issued operations"
    );
}

/// Allocator calls made while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = allocs::snapshot();
    f();
    allocs::snapshot().since(before).allocs
}

/// A 100-byte value behind key 7: allocator calls for 10 000 GET hits
/// (the last reply held), an UPDATE while that reply is held, an UPDATE
/// once it is dropped, and an UPDATE that rewrites a held reply's bytes.
fn kv_share_and_copy_on_write() -> [u64; 4] {
    let update = |fill: u8| {
        Command::Update {
            key: 7,
            value: vec![fill; 100],
        }
        .encode()
    };
    let get = Command::Get { key: 7 }.encode();
    let (write_a, write_b, write_c) = (update(b'a'), update(b'b'), update(b'c'));
    let mut store = KvStore::new();
    let mut scratch = Vec::with_capacity(256);
    store.execute_reply(&write_a, &mut scratch);
    let mut want = vec![idem_kv::store::STATUS_OK];
    want.extend_from_slice(&[b'a'; 100]);

    // A 101-byte reply is past the inline cap: each hit is a refcount
    // bump on the store's buffer, where it used to be a fresh copy.
    let mut held = None;
    let gets = allocs_during(|| {
        for _ in 0..10_000 {
            held = Some(store.execute_reply(&get, &mut scratch));
        }
    });
    let held = held.expect("a GET ran");
    assert_eq!(&held[..], &want[..]);

    // The held reply shares the buffer, so the write copies the value
    // once and the reply keeps its bytes.
    let shared_write = allocs_during(|| {
        store.execute_reply(&write_b, &mut scratch);
    });
    assert_eq!(&held[..], &want[..], "a held reply changed");
    assert_eq!(store.get(7), Some(&[b'b'; 100][..]));

    // Nobody shares the new buffer: same length, overwritten in place.
    drop(held);
    let lone_write = allocs_during(|| {
        store.execute_reply(&write_c, &mut scratch);
    });
    assert_eq!(store.get(7), Some(&[b'c'; 100][..]));

    // The same bytes again under a held reply: the store keeps the buffer
    // the reply shares, and the next GET hands out that buffer once more.
    let ResultBytes::Shared(held) = store.execute_reply(&get, &mut scratch) else {
        panic!("a 101-byte reply was copied inline");
    };
    let same_write = allocs_during(|| {
        store.execute_reply(&write_c, &mut scratch);
    });
    let ResultBytes::Shared(next) = store.execute_reply(&get, &mut scratch) else {
        panic!("a 101-byte reply was copied inline");
    };
    assert!(
        Arc::ptr_eq(&held, &next),
        "an identical rewrite moved the value"
    );
    [gets, shared_write, lone_write, same_write]
}

#[test]
fn kv_get_hit_shares_the_stored_value_and_update_copies_only_when_shared() {
    let _serial = serial();
    // The counters are process-global, and the harness's main thread
    // allocates while it reports the test that finished before this one.
    // That can only add calls, so the fewest over three tries is exact.
    let counts = (0..3)
        .map(|_| kv_share_and_copy_on_write())
        .reduce(|a, b| std::array::from_fn(|i| a[i].min(b[i])))
        .expect("three tries");
    let [gets, shared_write, lone_write, same_write] = counts;
    assert_eq!(gets, 0, "10 000 GET hits allocated {gets} times");
    assert_eq!(shared_write, 1, "UPDATE under a held reply");
    assert_eq!(lone_write, 0, "UPDATE with no reply held");
    assert_eq!(same_write, 0, "UPDATE of a held reply's own bytes");
}

/// Allocator calls of the store's index: an UPDATE of a fresh key in a
/// page already touched, a GET and a DELETE of absent keys in an
/// untouched page and past the last page, and the first UPDATE in that
/// untouched page.
fn kv_index_allocs() -> [u64; 3] {
    let page = idem_common::dense::DENSE_PAGE as u64;
    let update = |key| {
        Command::Update {
            key,
            value: vec![b'v'; 100],
        }
        .encode()
    };
    let mut store = KvStore::new();
    let mut scratch = Vec::with_capacity(256);
    // Pages 0 and 6 touched: the page directory already reaches page 3.
    store.execute_reply(&update(1), &mut scratch);
    store.execute_reply(&update(6 * page), &mut scratch);
    let fresh_write = update(2);
    let fresh = allocs_during(|| {
        store.execute_reply(&fresh_write, &mut scratch);
    });
    let misses: Vec<Vec<u8>> = [3 * page + 5, 100 * page]
        .into_iter()
        .flat_map(|key| {
            [
                Command::Get { key }.encode(),
                Command::Delete { key }.encode(),
            ]
        })
        .collect();
    let missed = allocs_during(|| {
        for raw in &misses {
            store.execute_reply(raw, &mut scratch);
        }
    });
    // Had a miss created page 3, this write would pay for its value only.
    let first_write = update(3 * page + 6);
    let first = allocs_during(|| {
        store.execute_reply(&first_write, &mut scratch);
    });
    [fresh, missed, first]
}

#[test]
fn kv_index_allocates_only_values_and_the_pages_writes_touch() {
    let _serial = serial();
    let counts = (0..3)
        .map(|_| kv_index_allocs())
        .reduce(|a, b| std::array::from_fn(|i| a[i].min(b[i])))
        .expect("three tries");
    let [fresh, missed, first] = counts;
    assert_eq!(fresh, 1, "UPDATE of a fresh key in a touched page");
    assert_eq!(missed, 0, "GET and DELETE of absent keys");
    assert_eq!(
        first, 2,
        "first UPDATE in an untouched page: page and value"
    );
}
