//! Message-level protocol tests: a single real `IdemReplica` is driven by
//! scripted mock peers, so individual protocol rules can be asserted on the
//! exact messages exchanged (rather than on end-to-end outcomes).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use idem_common::app::NullApp;
use idem_common::{
    ClientId, Directory, OpNumber, PersistMode, ReplicaId, Request, RequestId, SeqNumber,
    StateMachine, View, WalRecord,
};
use idem_core::{AcceptancePolicy, IdemConfig, IdemMessage, IdemReplica};
use idem_kv::{Command as KvCommand, KvStore};
use idem_simnet::{Context, Node, NodeId, Simulation};

/// Mock node that records everything it receives and sends scripted
/// messages on demand.
struct Probe {
    received: Rc<RefCell<Vec<(NodeId, IdemMessage)>>>,
    script: Rc<RefCell<Vec<(NodeId, IdemMessage)>>>,
}

impl Node<IdemMessage> for Probe {
    fn on_message(&mut self, _ctx: &mut Context<'_, IdemMessage>, from: NodeId, msg: IdemMessage) {
        self.received.borrow_mut().push((from, msg));
    }

    fn on_timer(
        &mut self,
        ctx: &mut Context<'_, IdemMessage>,
        _id: idem_simnet::TimerId,
        _msg: IdemMessage,
    ) {
        // One drained script entry per tick; keep ticking so entries pushed
        // between run segments are picked up.
        let next = self.script.borrow_mut().pop();
        if let Some((to, msg)) = next {
            ctx.send(to, msg);
        }
        ctx.set_timer(Duration::from_micros(10), IdemMessage::ProgressTimer);
    }

    fn on_start(&mut self, ctx: &mut Context<'_, IdemMessage>) {
        ctx.set_timer(Duration::from_micros(10), IdemMessage::ProgressTimer);
    }
}

type Log = Rc<RefCell<Vec<(NodeId, IdemMessage)>>>;

struct Rig {
    sim: Simulation<IdemMessage>,
    replica: NodeId,
    /// Probes standing in for the two peer replicas (r1, r2).
    peer_logs: [Log; 2],
    /// Probe standing in for a client.
    client_log: Log,
    /// Push `(target, message)` pairs here; probes send them in reverse
    /// push order, one every 10 µs.
    scripts: [Log; 3],
}

/// Builds a rig where the real replica has the given id within a 3-replica
/// group; the other two replicas and one client are probes.
fn rig(cfg: IdemConfig, me: u32) -> Rig {
    rig_with(cfg, me, PersistMode::Disabled, null_app)
}

fn null_app() -> Box<dyn StateMachine + Send> {
    Box::new(NullApp::default())
}

/// [`rig`] with the real replica persisting to its disk as `persist`
/// says and running the state machine `app` builds; it can be wiped, and
/// replays that disk when it is.
fn rig_with(
    cfg: IdemConfig,
    me: u32,
    persist: PersistMode,
    app: fn() -> Box<dyn StateMachine + Send>,
) -> Rig {
    let mut sim: Simulation<IdemMessage> = Simulation::with_network(
        1,
        idem_simnet::Network::new(idem_simnet::LinkSpec::new(
            Duration::from_micros(10),
            Duration::ZERO,
        )),
    );
    let nodes: Vec<NodeId> = (0..4).map(|_| sim.reserve_node()).collect();
    let replicas = vec![nodes[0], nodes[1], nodes[2]];
    let clients = vec![nodes[3]];
    let dir = Directory::new(replicas.clone(), clients.clone());
    let mut logs = Vec::new();
    let mut scripts = Vec::new();
    for (i, &node) in nodes.iter().enumerate() {
        if i == me as usize {
            continue;
        }
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let script = Rc::new(RefCell::new(Vec::new()));
        sim.install_node(
            node,
            Box::new(Probe {
                received: log.clone(),
                script: script.clone(),
            }),
        );
        logs.push(log);
        scripts.push(script);
    }
    let make = move |wiped: bool| {
        let mut replica = IdemReplica::new(cfg.clone(), ReplicaId(me), dir.clone(), app());
        replica.set_persistence(persist);
        if wiped {
            replica.mark_wipe_recovery();
        }
        replica
    };
    sim.install_node(nodes[me as usize], Box::new(make(false)));
    sim.set_node_factory(nodes[me as usize], Box::new(move || Box::new(make(true))));
    Rig {
        sim,
        replica: nodes[me as usize],
        peer_logs: [logs[0].clone(), logs[1].clone()],
        client_log: logs[2].clone(),
        scripts: [scripts[0].clone(), scripts[1].clone(), scripts[2].clone()],
    }
}

fn request(op: u64) -> Request {
    Request::new(RequestId::new(ClientId(0), OpNumber(op)), vec![op as u8; 8])
}

fn count<F: Fn(&IdemMessage) -> bool>(log: &Log, f: F) -> usize {
    log.borrow().iter().filter(|(_, m)| f(m)).count()
}

/// The test configuration disables message costs so the probes' scripted
/// timing is exact.
fn test_cfg() -> IdemConfig {
    IdemConfig::for_faults(1)
        .with_message_cost(Duration::ZERO)
        .with_acceptance(AcceptancePolicy::AlwaysAccept)
}

#[test]
fn leader_proposes_only_after_f_plus_one_requires() {
    // Real replica is r0 = leader of view 0. A REQUIRE from r1 alone (no
    // body, no own acceptance) must NOT trigger a proposal; a second
    // REQUIRE from r2 must.
    let mut r = rig(test_cfg(), 0);
    let id = request(1).id;
    let target = r.replica;
    r.scripts[0]
        .borrow_mut()
        .push((target, IdemMessage::Require(id)));
    r.sim.run_for(Duration::from_millis(2));
    assert_eq!(
        count(&r.peer_logs[1], |m| matches!(
            m,
            IdemMessage::Propose { .. }
        )),
        0,
        "one REQUIRE must not suffice"
    );
    r.scripts[1]
        .borrow_mut()
        .push((target, IdemMessage::Require(id)));
    r.sim.run_for(Duration::from_millis(2));
    assert_eq!(
        count(&r.peer_logs[0], |m| matches!(
            m,
            IdemMessage::Propose { .. }
        )),
        1,
        "f+1 distinct REQUIREs must trigger the proposal"
    );
    assert_eq!(
        count(&r.peer_logs[1], |m| matches!(
            m,
            IdemMessage::Propose { .. }
        )),
        1
    );
}

#[test]
fn duplicate_requires_from_same_replica_do_not_count_twice() {
    let mut r = rig(test_cfg(), 0);
    let id = request(1).id;
    let target = r.replica;
    for _ in 0..5 {
        r.scripts[0]
            .borrow_mut()
            .push((target, IdemMessage::Require(id)));
    }
    r.sim.run_for(Duration::from_millis(2));
    assert_eq!(
        count(&r.peer_logs[1], |m| matches!(
            m,
            IdemMessage::Propose { .. }
        )),
        0,
        "five REQUIREs from one replica are still one endorsement"
    );
}

#[test]
fn follower_commits_on_propose_and_fetches_missing_body() {
    // Real replica is r1 (follower). The leader (probe r0) proposes an id
    // whose body r1 never saw: r1 must send COMMITs and then FETCH the
    // body from the proposal's source.
    let mut r = rig(test_cfg(), 1);
    let id = request(7).id;
    let target = r.replica;
    let leader_probe_node = NodeId(0);
    r.scripts[0].borrow_mut().push((
        target,
        IdemMessage::Propose {
            id,
            sqn: SeqNumber(0),
            view: View(0),
        },
    ));
    r.sim.run_for(Duration::from_millis(2));
    // COMMIT multicast to both peers.
    assert_eq!(
        count(&r.peer_logs[0], |m| matches!(m, IdemMessage::Commit { .. })),
        1
    );
    assert_eq!(
        count(&r.peer_logs[1], |m| matches!(m, IdemMessage::Commit { .. })),
        1
    );
    // For n=3 the leader's proposal plus the own vote commit the instance;
    // execution stalls on the missing body, so a FETCH goes to the leader.
    let fetches = r.peer_logs[0]
        .borrow()
        .iter()
        .filter(|(_, m)| matches!(m, IdemMessage::Fetch(f) if *f == id))
        .count();
    assert_eq!(fetches, 1, "missing body must be fetched from the source");
    let _ = leader_probe_node;
}

#[test]
fn forward_answers_fetch_and_unblocks_execution() {
    let mut r = rig(test_cfg(), 1);
    let req = request(9);
    let target = r.replica;
    // Propose, then (after the fetch goes out) forward the body.
    r.scripts[0].borrow_mut().push((
        target,
        IdemMessage::Propose {
            id: req.id,
            sqn: SeqNumber(0),
            view: View(0),
        },
    ));
    r.sim.run_for(Duration::from_millis(2));
    r.scripts[0]
        .borrow_mut()
        .push((target, IdemMessage::Forward(req)));
    r.sim.run_for(Duration::from_millis(2));
    let replica = r.sim.node_as::<IdemReplica>(r.replica).unwrap();
    assert_eq!(
        replica.stats().executed,
        1,
        "body arrival must unblock execution"
    );
    assert_eq!(replica.next_exec(), SeqNumber(1));
}

#[test]
fn replica_serves_fetch_from_rejected_cache() {
    // Real replica is r2 with tail-drop threshold 0 impossible — use a
    // threshold of 1 and fill it so the next request is rejected, then ask
    // for the rejected request's body via FETCH.
    let cfg = IdemConfig::for_faults(1)
        .with_message_cost(Duration::ZERO)
        .with_reject_threshold(1)
        .with_acceptance(AcceptancePolicy::TailDrop);
    let mut r = rig(cfg, 2);
    let target = r.replica;
    let first = request(1);
    let second = request(2);
    // Hmm: same client can't have two pending ops; use distinct clients.
    let second = Request::new(
        RequestId::new(ClientId(0), OpNumber(2)),
        second.command.clone(),
    );
    // The client probe sends two requests; the first occupies the only
    // slot, the second is rejected (cached).
    r.scripts[2]
        .borrow_mut()
        .push((target, IdemMessage::Request(second.clone())));
    r.scripts[2]
        .borrow_mut()
        .push((target, IdemMessage::Request(first.clone())));
    r.sim.run_for(Duration::from_millis(2));
    assert_eq!(
        count(&r.client_log, |m| matches!(m, IdemMessage::Reject(_))),
        1,
        "second request must be rejected at threshold 1"
    );
    // Now a peer fetches the rejected request's body.
    r.scripts[0]
        .borrow_mut()
        .push((target, IdemMessage::Fetch(second.id)));
    r.sim.run_for(Duration::from_millis(2));
    let forwards = r.peer_logs[0]
        .borrow()
        .iter()
        .filter(|(_, m)| matches!(m, IdemMessage::Forward(f) if f.id == second.id))
        .count();
    assert_eq!(forwards, 1, "rejected cache must serve the fetch");
}

#[test]
fn rejected_body_aged_out_of_the_cache_is_fetched_again() {
    // Follower r2 at tail-drop threshold 1 with room for one rejected
    // body: op 1 takes the only slot, op 2 and op 3 are rejected, and
    // caching op 3 evicts op 2.
    let evicted = request(2);
    let cached = request(3);
    let rejected_pair = || {
        let mut cfg = IdemConfig::for_faults(1)
            .with_message_cost(Duration::ZERO)
            .with_reject_threshold(1)
            .with_acceptance(AcceptancePolicy::TailDrop);
        cfg.rejected_cache_capacity = 1;
        let mut r = rig(cfg, 2);
        let target = r.replica;
        for req in [cached.clone(), evicted.clone(), request(1)] {
            r.scripts[2]
                .borrow_mut()
                .push((target, IdemMessage::Request(req)));
        }
        r.sim.run_for(Duration::from_millis(2));
        assert_eq!(
            count(&r.client_log, |m| matches!(m, IdemMessage::Reject(_))),
            2
        );
        r
    };
    let forwards_of = |log: &Log, id: RequestId| {
        count(log, |m| matches!(m, IdemMessage::Forward(f) if f.id == id))
    };
    let fetches_of =
        |log: &Log, id: RequestId| count(log, |m| matches!(m, IdemMessage::Fetch(f) if *f == id));
    let propose = |r: &Rig, id: RequestId| {
        r.scripts[0].borrow_mut().push((
            r.replica,
            IdemMessage::Propose {
                id,
                sqn: SeqNumber(0),
                view: View(0),
            },
        ));
    };

    // A peer's fetch is served for the cached body only.
    let mut r = rejected_pair();
    let target = r.replica;
    for id in [evicted.id, cached.id] {
        r.scripts[0]
            .borrow_mut()
            .push((target, IdemMessage::Fetch(id)));
    }
    r.sim.run_for(Duration::from_millis(2));
    assert_eq!(forwards_of(&r.peer_logs[0], evicted.id), 0, "evicted");
    assert_eq!(forwards_of(&r.peer_logs[0], cached.id), 1, "cached");

    // The leader binds the evicted id: the body is fetched from the
    // proposal's source, and once it arrives the request executes once.
    let mut r = rejected_pair();
    propose(&r, evicted.id);
    r.sim.run_for(Duration::from_millis(2));
    assert_eq!(fetches_of(&r.peer_logs[0], evicted.id), 1);
    r.scripts[0]
        .borrow_mut()
        .push((r.replica, IdemMessage::Forward(evicted.clone())));
    r.sim.run_for(Duration::from_millis(2));
    let stats = r.sim.node_as::<IdemReplica>(r.replica).unwrap().stats();
    assert_eq!(stats.executed, 1);
    assert_eq!(stats.rejected_cache_hits, 0);

    // The same binding of the still-cached id executes from the cache.
    let mut r = rejected_pair();
    propose(&r, cached.id);
    r.sim.run_for(Duration::from_millis(2));
    assert_eq!(fetches_of(&r.peer_logs[0], cached.id), 0);
    let stats = r.sim.node_as::<IdemReplica>(r.replica).unwrap().stats();
    assert_eq!(stats.executed, 1);
    assert_eq!(stats.rejected_cache_hits, 1);
}

#[test]
fn stale_view_proposals_are_ignored() {
    // Drive the real follower into view 1 via a ViewChange quorum plus a
    // view-1 proposal; a later view-0 proposal must be dropped.
    let mut r = rig(test_cfg(), 2);
    let target = r.replica;
    let vc = IdemMessage::ViewChange {
        target: View(1),
        window: Vec::new(),
    };
    r.scripts[0].borrow_mut().push((target, vc.clone()));
    r.scripts[1].borrow_mut().push((target, vc));
    r.sim.run_for(Duration::from_millis(2));
    // New leader of view 1 is replica 1 (probe index 1 = node 1).
    let id = request(5).id;
    r.scripts[1].borrow_mut().push((
        target,
        IdemMessage::Propose {
            id,
            sqn: SeqNumber(0),
            view: View(1),
        },
    ));
    r.sim.run_for(Duration::from_millis(2));
    let commits_before = count(&r.peer_logs[0], |m| matches!(m, IdemMessage::Commit { .. }));
    assert!(commits_before >= 1, "view-1 proposal must be processed");
    // Old-view proposal from the old leader (node 0) is ignored.
    r.scripts[0].borrow_mut().push((
        target,
        IdemMessage::Propose {
            id: request(6).id,
            sqn: SeqNumber(1),
            view: View(0),
        },
    ));
    r.sim.run_for(Duration::from_millis(2));
    let commits_after = count(&r.peer_logs[0], |m| matches!(m, IdemMessage::Commit { .. }));
    assert_eq!(
        commits_before, commits_after,
        "stale proposal must be dropped"
    );
}

#[test]
fn implicit_gc_advances_on_future_sequence_numbers() {
    // Feeding the follower a proposal far beyond r_max must advance its
    // window (and leave the stale slot unusable).
    let cfg = test_cfg();
    let r_max = cfg.r_max();
    let mut r = rig(cfg, 1);
    let target = r.replica;
    r.scripts[0].borrow_mut().push((
        target,
        IdemMessage::Propose {
            id: request(1).id,
            sqn: SeqNumber(r_max + 10),
            view: View(0),
        },
    ));
    r.sim.run_for(Duration::from_millis(2));
    let replica = r.sim.node_as::<IdemReplica>(r.replica).unwrap();
    assert!(replica.stats().gc_advances > 0, "window must advance");
    // The replica could not execute up to there: it must have requested a
    // checkpoint (stall path).
    assert_eq!(replica.stats().stalls, 1);
    let ckpt_reqs = count(&r.peer_logs[0], |m| {
        matches!(m, IdemMessage::CheckpointRequest)
    });
    assert!(ckpt_reqs >= 1, "stalled replica must ask for a checkpoint");
}

#[test]
fn reject_goes_only_to_the_client() {
    let cfg = IdemConfig::for_faults(1)
        .with_message_cost(Duration::ZERO)
        .with_reject_threshold(1)
        .with_acceptance(AcceptancePolicy::TailDrop);
    let mut r = rig(cfg, 0);
    let target = r.replica;
    let a = Request::new(RequestId::new(ClientId(0), OpNumber(1)), vec![1]);
    let b = Request::new(RequestId::new(ClientId(0), OpNumber(2)), vec![2]);
    r.scripts[2]
        .borrow_mut()
        .push((target, IdemMessage::Request(b)));
    r.scripts[2]
        .borrow_mut()
        .push((target, IdemMessage::Request(a)));
    r.sim.run_for(Duration::from_millis(2));
    assert_eq!(
        count(&r.client_log, |m| matches!(m, IdemMessage::Reject(_))),
        1
    );
    assert_eq!(
        count(&r.peer_logs[0], |m| matches!(m, IdemMessage::Reject(_))),
        0
    );
    assert_eq!(
        count(&r.peer_logs[1], |m| matches!(m, IdemMessage::Reject(_))),
        0
    );
}

#[test]
fn new_leader_merges_windows_and_fills_gaps_with_noops() {
    // Real replica is r1, leader of view 1. The two probes demand a view
    // change and report windows with entries at sqn 0 and sqn 2 — leaving
    // a gap at sqn 1 that the new leader must fill with a no-op.
    let mut r = rig(test_cfg(), 1);
    let target = r.replica;
    let id_a = request(11).id;
    let id_b = request(12).id;
    let vc_r0 = IdemMessage::ViewChange {
        target: View(1),
        window: vec![idem_core::WindowEntry {
            sqn: SeqNumber(0),
            id: id_a,
            view: View(0),
        }],
    };
    let vc_r2 = IdemMessage::ViewChange {
        target: View(1),
        window: vec![idem_core::WindowEntry {
            sqn: SeqNumber(2),
            id: id_b,
            view: View(0),
        }],
    };
    r.scripts[0].borrow_mut().push((target, vc_r0));
    r.scripts[1].borrow_mut().push((target, vc_r2));
    r.sim.run_for(Duration::from_millis(2));

    let replica = r.sim.node_as::<IdemReplica>(r.replica).unwrap();
    assert_eq!(replica.view(), View(1), "new leader must enter view 1");
    assert!(!replica.in_view_change());
    assert_eq!(
        replica.stats().noops_proposed,
        1,
        "gap at sqn 1 → one no-op"
    );

    // Each probe received three re-proposals: idA@0, noop@1, idB@2.
    let proposals: Vec<(SeqNumber, RequestId)> = r.peer_logs[0]
        .borrow()
        .iter()
        .filter_map(|(_, m)| match m {
            IdemMessage::Propose { id, sqn, view } if *view == View(1) => Some((*sqn, *id)),
            _ => None,
        })
        .collect();
    assert_eq!(proposals.len(), 3);
    assert_eq!(proposals[0], (SeqNumber(0), id_a));
    assert_eq!(proposals[1].0, SeqNumber(1));
    assert_eq!(
        proposals[1].1.client,
        idem_core::replica::NOOP_CLIENT,
        "gap must be filled with a no-op"
    );
    assert_eq!(proposals[2], (SeqNumber(2), id_b));
}

#[test]
fn view_change_merge_prefers_highest_view_binding() {
    // r2 is leader of view 2. Probes report conflicting bindings for the
    // same sequence number from different earlier views: the binding from
    // the higher view must win (Paxos safety).
    let mut r = rig(test_cfg(), 2);
    let target = r.replica;
    let id_old = request(21).id;
    let id_new = request(22).id;
    let vc_r0 = IdemMessage::ViewChange {
        target: View(2),
        window: vec![idem_core::WindowEntry {
            sqn: SeqNumber(0),
            id: id_old,
            view: View(0),
        }],
    };
    let vc_r1 = IdemMessage::ViewChange {
        target: View(2),
        window: vec![idem_core::WindowEntry {
            sqn: SeqNumber(0),
            id: id_new,
            view: View(1),
        }],
    };
    r.scripts[0].borrow_mut().push((target, vc_r0));
    r.scripts[1].borrow_mut().push((target, vc_r1));
    r.sim.run_for(Duration::from_millis(2));
    let proposals: Vec<RequestId> = r.peer_logs[0]
        .borrow()
        .iter()
        .filter_map(|(_, m)| match m {
            IdemMessage::Propose { id, sqn, view } if *view == View(2) && *sqn == SeqNumber(0) => {
                Some(*id)
            }
            _ => None,
        })
        .collect();
    assert_eq!(proposals, vec![id_new], "view-1 binding must beat view-0");
}

/// The accept records on the real replica's disk, in order, as
/// `(slot, view, id, command)`.
fn accepts(r: &Rig) -> Vec<(u64, u64, RequestId, Vec<u8>)> {
    let records = r.sim.disk(r.replica).records();
    let accept = |record: &Vec<u8>| match WalRecord::decode(record) {
        Some(WalRecord::Accept {
            slot,
            view,
            id,
            command,
        }) => Some((slot, view, id, command.to_vec())),
        _ => None,
    };
    records.iter().filter_map(accept).collect()
}

/// The exec records on the real replica's disk, in order, as
/// `(slot, id, command)`: `None` for an elided body, which an earlier
/// accept record holds.
fn execs(r: &Rig) -> Vec<(u64, RequestId, Option<Vec<u8>>)> {
    let records = r.sim.disk(r.replica).records();
    let exec = |record: &Vec<u8>| match WalRecord::decode(record) {
        Some(WalRecord::Exec {
            slot, id, command, ..
        }) => Some((slot, id, Some(command.to_vec()))),
        Some(WalRecord::ExecElided { slot, id, .. }) => Some((slot, id, None)),
        _ => None,
    };
    records.iter().filter_map(exec).collect()
}

const UNBOUND: u64 = u64::MAX;

#[test]
fn binding_of_an_accepted_op_is_logged_without_its_body() {
    // r1 accepts a client's request, then the leader proposes it: the body
    // is on r1's disk in the REQUIRE-stage record, so the binding omits it.
    let mut r = rig_with(test_cfg(), 1, PersistMode::Wal, null_app);
    let req = request(5);
    let target = r.replica;
    r.scripts[2]
        .borrow_mut()
        .push((target, IdemMessage::Request(req.clone())));
    r.sim.run_for(Duration::from_millis(1));
    r.scripts[0].borrow_mut().push((
        target,
        IdemMessage::Propose {
            id: req.id,
            sqn: SeqNumber(0),
            view: View(0),
        },
    ));
    r.sim.run_for(Duration::from_millis(1));
    assert_eq!(
        accepts(&r),
        vec![
            (UNBOUND, 0, req.id, req.command.to_vec()),
            (0, 0, req.id, Vec::new()),
        ]
    );
    let replica = r.sim.node_as::<IdemReplica>(r.replica).unwrap();
    assert_eq!(replica.stats().executed, 1);
    // Nor does the exec record: it names the body by its id.
    assert_eq!(execs(&r), vec![(0, req.id, None)]);
}

#[test]
fn body_arriving_after_its_proposal_is_logged_once() {
    // r1 learns the binding first (logged without a body: it has none),
    // then the body arrives as a forward and is accepted, which logs it.
    let mut r = rig_with(test_cfg(), 1, PersistMode::Wal, null_app);
    let req = request(6);
    let target = r.replica;
    r.scripts[0].borrow_mut().push((
        target,
        IdemMessage::Propose {
            id: req.id,
            sqn: SeqNumber(0),
            view: View(0),
        },
    ));
    r.sim.run_for(Duration::from_millis(1));
    r.scripts[0]
        .borrow_mut()
        .push((target, IdemMessage::Forward(req.clone())));
    r.sim.run_for(Duration::from_millis(1));
    assert_eq!(
        accepts(&r),
        vec![
            (0, 0, req.id, Vec::new()),
            (UNBOUND, 0, req.id, req.command.to_vec()),
        ]
    );
    let replica = r.sim.node_as::<IdemReplica>(r.replica).unwrap();
    assert_eq!(replica.stats().executed, 1);
    // The forward that answered the fetch accepted the body, and its
    // REQUIRE-stage record holds it before the exec record names it.
    assert_eq!(execs(&r), vec![(0, req.id, None)]);
}

#[test]
fn binding_after_a_wipe_still_omits_the_replayed_body() {
    // r1 accepts a request, loses its memory, and revives the request from
    // its REQUIRE-stage record; binding it afterwards must not log the
    // body a second time.
    let mut r = rig_with(test_cfg(), 1, PersistMode::Wal, null_app);
    let req = request(7);
    let target = r.replica;
    r.scripts[2]
        .borrow_mut()
        .push((target, IdemMessage::Request(req.clone())));
    r.sim.run_for(Duration::from_millis(1));
    r.sim.wipe_now(target, true);
    r.scripts[0].borrow_mut().push((
        target,
        IdemMessage::Propose {
            id: req.id,
            sqn: SeqNumber(0),
            view: View(0),
        },
    ));
    r.sim.run_for(Duration::from_millis(1));
    assert_eq!(
        accepts(&r),
        vec![
            (UNBOUND, 0, req.id, req.command.to_vec()),
            (0, 0, req.id, Vec::new()),
        ]
    );
    let replica = r.sim.node_as::<IdemReplica>(r.replica).unwrap();
    assert_eq!(replica.stats().executed, 1, "the replayed body executes");
    assert_eq!(execs(&r), vec![(0, req.id, None)]);
}

#[test]
fn body_known_only_from_a_retransmission_goes_with_the_next_binding() {
    // r1 leads view 1 and binds an id it holds no body for; the client's
    // retransmission then delivers the body, which no record holds yet.
    // When r1 binds the id again, in view 4, the binding carries it.
    let mut r = rig_with(test_cfg(), 1, PersistMode::Wal, null_app);
    let req = request(8);
    let target = r.replica;
    let view_change = |target: u64, view: u64| IdemMessage::ViewChange {
        target: View(target),
        window: vec![idem_core::WindowEntry {
            sqn: SeqNumber(0),
            id: req.id,
            view: View(view),
        }],
    };
    r.scripts[0].borrow_mut().push((target, view_change(1, 0)));
    r.scripts[1].borrow_mut().push((target, view_change(1, 0)));
    r.sim.run_for(Duration::from_millis(1));
    r.scripts[2]
        .borrow_mut()
        .push((target, IdemMessage::Request(req.clone())));
    r.sim.run_for(Duration::from_millis(1));
    r.scripts[0].borrow_mut().push((target, view_change(4, 1)));
    r.scripts[1].borrow_mut().push((target, view_change(4, 1)));
    r.sim.run_for(Duration::from_millis(1));
    assert_eq!(
        r.sim.node_as::<IdemReplica>(target).unwrap().view(),
        View(4)
    );
    assert_eq!(
        accepts(&r),
        vec![
            (0, 1, req.id, Vec::new()),
            (0, 4, req.id, req.command.to_vec()),
        ]
    );
    // Once a peer commits the binding, the exec record names the body
    // that binding wrote.
    r.scripts[0].borrow_mut().push((
        target,
        IdemMessage::Commit {
            id: req.id,
            sqn: SeqNumber(0),
            view: View(4),
        },
    ));
    r.sim.run_for(Duration::from_millis(1));
    let replica = r.sim.node_as::<IdemReplica>(target).unwrap();
    assert_eq!(replica.stats().executed, 1);
    assert_eq!(execs(&r), vec![(0, req.id, None)]);
}

#[test]
fn exec_of_a_body_from_the_rejected_cache_keeps_it() {
    // Follower r2 at tail-drop threshold 1 accepts op 1 and rejects op 2,
    // caching its body without logging it. When the leader binds op 2,
    // r2 runs it from the cache: no accept record holds that body, so
    // the exec record carries it.
    let cfg = IdemConfig::for_faults(1)
        .with_message_cost(Duration::ZERO)
        .with_reject_threshold(1)
        .with_acceptance(AcceptancePolicy::TailDrop);
    let mut r = rig_with(cfg, 2, PersistMode::Wal, null_app);
    let target = r.replica;
    let (accepted, rejected) = (request(1), request(2));
    for req in [rejected.clone(), accepted.clone()] {
        r.scripts[2]
            .borrow_mut()
            .push((target, IdemMessage::Request(req)));
    }
    r.sim.run_for(Duration::from_millis(1));
    r.scripts[0].borrow_mut().push((
        target,
        IdemMessage::Propose {
            id: rejected.id,
            sqn: SeqNumber(0),
            view: View(0),
        },
    ));
    r.sim.run_for(Duration::from_millis(1));
    let stats = r.sim.node_as::<IdemReplica>(target).unwrap().stats();
    assert_eq!((stats.executed, stats.rejected_cache_hits), (1, 1));
    assert_eq!(
        accepts(&r),
        vec![
            (UNBOUND, 0, accepted.id, accepted.command.to_vec()),
            (0, 0, rejected.id, Vec::new()),
        ]
    );
    assert_eq!(
        execs(&r),
        vec![(0, rejected.id, Some(rejected.command.to_vec()))]
    );
}

/// The store a replica's application holds, by its digest.
fn store_digest(r: &Rig) -> u64 {
    let replica = r.sim.node_as::<IdemReplica>(r.replica).unwrap();
    let mut kv = KvStore::new();
    kv.restore(&replica.app().snapshot());
    kv.digest()
}

#[test]
fn replay_of_named_bodies_rebuilds_the_live_store() {
    // r1 runs a key-value store and executes five updates the leader
    // binds: four it accepted (their exec records name the body) and one
    // from its rejected cache (carried in full). A wipe replays the disk
    // into the same store.
    let cfg = IdemConfig::for_faults(1)
        .with_message_cost(Duration::ZERO)
        .with_reject_threshold(4)
        .with_acceptance(AcceptancePolicy::TailDrop);
    let mut r = rig_with(cfg, 1, PersistMode::Wal, || Box::new(KvStore::new()));
    let target = r.replica;
    let update = |op: u64| {
        let value = vec![op as u8; 16];
        let command = KvCommand::Update { key: op % 3, value }.encode();
        Request::new(RequestId::new(ClientId(0), OpNumber(op)), command)
    };
    for op in (1..=5).rev() {
        r.scripts[2]
            .borrow_mut()
            .push((target, IdemMessage::Request(update(op))));
    }
    r.sim.run_for(Duration::from_millis(1));
    for op in (1..=5).rev() {
        r.scripts[0].borrow_mut().push((
            target,
            IdemMessage::Propose {
                id: update(op).id,
                sqn: SeqNumber(op - 1),
                view: View(0),
            },
        ));
    }
    r.sim.run_for(Duration::from_millis(1));
    let live = store_digest(&r);
    assert_ne!(live, KvStore::new().digest());
    let bodies: Vec<bool> = execs(&r).iter().map(|e| e.2.is_some()).collect();
    assert_eq!(bodies, [false, false, false, false, true]);
    r.sim.wipe_now(target, true);
    let replica = r.sim.node_as::<IdemReplica>(target).unwrap();
    assert_eq!(replica.next_exec(), SeqNumber(5));
    assert_eq!(store_digest(&r), live);
}
