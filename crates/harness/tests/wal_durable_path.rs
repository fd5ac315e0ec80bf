//! End-to-end pins for the durable path: what the three replicas write to
//! their disks, and what a wiped replica rebuilds from them.
//!
//! The write path streams every record straight into its disk buffer and
//! the replay path decodes only the newest intact checkpoint; both are
//! pure representation changes. The golden digests below were captured
//! from the build that still materialized owned `WalRecord`s (checkpoint
//! clone → tuple vector → encode, full decode on replay) and cover every
//! disk byte and every exec-log entry of a WAL-enabled cell with a leader
//! crash, a reconfiguration and a truncating wipe. If one changes, the
//! bytes on disk or the recovered state moved.
//!
//! A second cell feeds the same digest with what the first leaves out: the
//! leader *leaving* under load (the epoch switch promotes a follower), the
//! promoted leader replaced by the spare, and the then-leader wiped. Its
//! goldens were captured from the last build in which each replica carried
//! its own copy of recovery, state transfer and the epoch switch (commit
//! c7cb087, by running this file against it) — before any of that moved
//! into `idem_common::replica`.
//!
//! The WAL empties every checkpoint record below the two newest on its
//! disk (DESIGN.md §8), so the digest counts those records as empty ones
//! on any build. All six goldens were re-captured under that rule from
//! commit 88774c5, the last build that kept every checkpoint in full: a
//! reclaiming build writes exactly the bytes the older one kept.
//!
//! IDEM writes an accepted body once per disk: in the REQUIRE-stage accept
//! record (`slot = u64::MAX`), not again in the slot binding that follows
//! it (DESIGN.md §8). The digest therefore counts a slot-bound accept
//! whose command repeats an earlier REQUIRE-stage accept of the same id on
//! the same disk as that record with an empty command. The two IDEM
//! goldens were re-captured under that rule from commit d15fe33, the last
//! build that wrote every body twice; Paxos and SMaRt write no
//! REQUIRE-stage records, so the rule leaves their goldens as they were.
//!
//! No protocol repeats an accepted body in an exec record either: a fresh
//! execution whose body an earlier accept record of its id on the same
//! disk holds is written in its elided form (DESIGN.md §8). The digest
//! counts a fresh exec record whose non-empty command equals the body of
//! an earlier accept record of the same id on the same disk as that
//! elided form. All six goldens were re-captured under both rules from
//! commit 1de2e13, the last build that wrote every exec body.
//!
//! Once a retained checkpoint covers an execution, the WAL empties the
//! accepted body behind it (DESIGN.md §8): the body record of an id with a
//! fresh exec record below the older of its disk's two newest checkpoints,
//! when it is the REQUIRE-stage record or binds the slot the id ran at.
//! The digest counts those records as empty ones (`covered_bodies`, read
//! from the final disk alone). All six goldens were re-captured under that
//! rule from commit 2248b98, the last build that kept every accepted body.
//!
//! A checkpoint installed by state transfer covers bodies this replica
//! accepted but never ran; the WAL empties their REQUIRE-stage records
//! too. `covered_bodies` also names those (`transferred_bodies`): a
//! REQUIRE-stage body of an id the older retained checkpoint shows run,
//! with no fresh exec record on the disk. The two IDEM goldens were
//! re-captured under that rule from commit 6b7435b, the last build that
//! kept them; Paxos and SMaRt write no REQUIRE-stage records, so their
//! goldens stay as they were.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use idem_common::{
    ExecRecord, PersistMode, ReconfigCommand, ReplicaId, RequestId, StateMachine, Wal, WalRecord,
};
use idem_harness::cluster::{build_cluster, ClusterOptions};
use idem_harness::invariants::{check_agreement, check_exactly_once};
use idem_harness::{ClusterHandles, Protocol};
use idem_kv::{KvStore, WorkloadSpec};
use idem_simnet::DiskLatency;

const TAG_EXEC: u8 = 3;
const TAG_CHECKPOINT: u8 = 4;

fn protocols() -> Vec<Protocol> {
    vec![Protocol::idem(), Protocol::paxos(), Protocol::smart()]
}

fn durable_cluster(protocol: &Protocol, spares: u32) -> ClusterHandles {
    let opts = ClusterOptions {
        clients: 40,
        seed: 11,
        warmup: Duration::ZERO,
        record_exec_log: true,
        persist: PersistMode::Wal,
        disk_latency: DiskLatency {
            append: Duration::from_micros(2),
            fsync: Duration::from_micros(25),
        },
        spares,
        ..ClusterOptions::default()
    };
    build_cluster(protocol, &opts)
}

/// SplitMix64 folding, as in `protocol_state_differential.rs`.
fn mix(state: &mut u64, value: u64) {
    *state = state
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(value);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    *state = z ^ (z >> 31);
}

fn mix_exec_log(h: &mut u64, log: &[ExecRecord]) {
    mix(h, log.len() as u64);
    for r in log {
        mix(h, r.slot);
        mix(h, u64::from(r.id.client.0));
        mix(h, r.id.op.0);
        mix(h, u64::from(r.fresh));
        mix(h, r.epoch);
    }
}

/// Positions of the non-empty checkpoint records on a disk, ranked as
/// `Wal::replay` ranks them: by `next_exec` from the header, the later
/// record on ties, lowest first.
fn ranked_checkpoints(records: &[Vec<u8>]) -> Vec<usize> {
    let mut ranked: Vec<(u64, usize)> = (0..records.len())
        .filter(|&i| records[i].first() == Some(&TAG_CHECKPOINT) && records[i].len() >= 9)
        .map(|i| (u64::from_le_bytes(records[i][1..9].try_into().unwrap()), i))
        .collect();
    ranked.sort_unstable();
    ranked.into_iter().map(|(_, i)| i).collect()
}

/// How many low bits of an exec slot number position inside one decision:
/// SMaRt packs `(batch << 20) | offset`; IDEM and Paxos decide single
/// slots.
fn batch_shift(protocol: &Protocol) -> u32 {
    if matches!(protocol, Protocol::Smart { .. }) {
        20
    } else {
        0
    }
}

/// The accept records on a disk whose body the WAL reclaims: the floor is
/// the `next_exec` of the older of the two newest checkpoints
/// (`ranked_checkpoints`), and an id with a fresh exec record whose
/// decision lies below it loses its REQUIRE-stage record
/// (`slot = u64::MAX`) and the binding of the slot it ran at. So does the
/// REQUIRE-stage record of an id that checkpoint shows run with no fresh
/// exec record on the disk (`transferred_bodies`). Bindings of other
/// slots, bodiless records and every other kind stay.
fn covered_bodies(records: &[Vec<u8>], batch_shift: u32) -> BTreeSet<usize> {
    let ranked = ranked_checkpoints(records);
    let Some(older) = ranked.len().checked_sub(2).map(|i| ranked[i]) else {
        return BTreeSet::new();
    };
    let floor = u64::from_le_bytes(records[older][1..9].try_into().unwrap());
    let mut ran: BTreeMap<RequestId, BTreeSet<u64>> = BTreeMap::new();
    for record in records {
        if let Some(
            WalRecord::Exec {
                slot,
                id,
                fresh: true,
                ..
            }
            | WalRecord::ExecElided { slot, id, .. },
        ) = WalRecord::decode(record)
        {
            if slot >> batch_shift < floor {
                ran.entry(id).or_default().insert(slot);
            }
        }
    }
    (0..records.len())
        .filter(|&i| match WalRecord::decode(&records[i]) {
            Some(WalRecord::Accept {
                slot, id, command, ..
            }) => {
                !command.is_empty()
                    && ran
                        .get(&id)
                        .is_some_and(|ran_at| slot == u64::MAX || ran_at.contains(&slot))
            }
            _ => false,
        })
        .chain(transferred_bodies(records))
        .collect()
}

/// The records on a disk that repeat a body an earlier record on that
/// disk holds, each one's position with its bytes re-encoded in the form
/// that leaves the body out: a slot-bound accept whose command repeats an
/// earlier REQUIRE-stage accept of the same id, with an empty command; a
/// fresh exec whose non-empty command repeats the body of an earlier
/// accept record of the same id, as an elided exec record.
fn repeated_bodies(records: &[Vec<u8>]) -> BTreeMap<usize, Vec<u8>> {
    let mut required = BTreeSet::new();
    let mut accepted = BTreeSet::new();
    let mut repeats = BTreeMap::new();
    for (i, record) in records.iter().enumerate() {
        match WalRecord::decode(record) {
            Some(WalRecord::Accept {
                slot,
                view,
                id,
                command,
            }) => {
                if !command.is_empty() {
                    accepted.insert((id, command));
                }
                if slot == u64::MAX {
                    required.insert((id, command));
                } else if !command.is_empty() && required.contains(&(id, command)) {
                    let bodiless = WalRecord::Accept {
                        slot,
                        view,
                        id,
                        command: &[],
                    };
                    repeats.insert(i, bodiless.encode());
                }
            }
            Some(WalRecord::Exec {
                slot,
                id,
                fresh: true,
                command,
                epoch,
            }) if accepted.contains(&(id, command)) => {
                repeats.insert(i, WalRecord::ExecElided { slot, id, epoch }.encode());
            }
            _ => {}
        }
    }
    repeats
}

/// Digests every disk byte (record boundaries and fsync barrier included)
/// and every exec-log entry of every replica. A checkpoint record below
/// its disk's two newest counts as an empty record: nothing reads it
/// again, and the WAL reclaims it. So does an accepted body a retained
/// checkpoint covers (`covered_bodies`). A record that repeats a body
/// already on its disk counts as the form that leaves it out
/// (`repeated_bodies`).
fn digest(cluster: &ClusterHandles, batch_shift: u32) -> u64 {
    let mut h = 0u64;
    for index in 0..cluster.replicas.len() {
        let disk = cluster.disk(index);
        mix(&mut h, disk.len() as u64);
        mix(&mut h, disk.synced_len() as u64);
        let ranked = ranked_checkpoints(disk.records());
        let superseded = &ranked[..ranked.len().saturating_sub(2)];
        let covered = covered_bodies(disk.records(), batch_shift);
        let repeats = repeated_bodies(disk.records());
        for (i, record) in disk.records().iter().enumerate() {
            let record: &[u8] = if superseded.contains(&i) || covered.contains(&i) {
                &[]
            } else {
                repeats.get(&i).map_or(record, Vec::as_slice)
            };
            mix(&mut h, record.len() as u64);
            for chunk in record.chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                mix(&mut h, u64::from_le_bytes(word));
            }
        }
        mix_exec_log(&mut h, &cluster.exec_log(index));
    }
    h
}

/// A join (epoch tails on exec and checkpoint records, a pushed and
/// installed checkpoint), a leader crash (view change, new-view accepts),
/// a truncating wipe of a follower (replay, then catch-up by state
/// transfer) and the old leader's return.
fn crash_wipe_cell(protocol: &Protocol) -> ClusterHandles {
    let mut cluster = durable_cluster(protocol, 1);
    cluster.run_for(Duration::from_millis(300));
    cluster.inject_reconfig(1, &ReconfigCommand::Join(ReplicaId(3)));
    cluster.run_for(Duration::from_millis(300));
    cluster.crash_replica(0);
    cluster.run_for(Duration::from_millis(500));
    cluster.wipe_replica(2, true);
    cluster.run_for(Duration::from_millis(300));
    cluster.recover_replica(0);
    cluster.run_for(Duration::from_millis(500));
    cluster
}

const GOLDEN_IDEM: u64 = 0xbace606e0a72e21e;
const GOLDEN_PAXOS: u64 = 0x515af0f4c0e8125e;
const GOLDEN_SMART: u64 = 0xc9b54dfa95326275;

fn assert_golden(protocol: Protocol, golden: u64) {
    let cluster = crash_wipe_cell(&protocol);
    // The cell must actually exercise what it pins.
    assert!(
        checkpoints_taken(&cluster, 1) >= 3,
        "{}: too few checkpoints",
        protocol.name()
    );
    assert!(
        !ranked_checkpoints(cluster.disk(3).records()).is_empty(),
        "{}: joiner never installed",
        protocol.name()
    );
    assert!(
        cluster.epoch(1) >= 1,
        "{}: join never applied",
        protocol.name()
    );
    assert!(
        cluster.exec_frontier(2) > 0,
        "{}: wiped replica rebuilt nothing",
        protocol.name()
    );
    let got = digest(&cluster, batch_shift(&protocol));
    assert_eq!(
        got,
        golden,
        "{}: disk bytes or exec logs diverged from the owned-record build (got {got:#018x})",
        protocol.name()
    );
    assert_superseded_reclaimed(&cluster, protocol.name());
    assert_covered_bodies_reclaimed(&cluster, &protocol);
}

/// The WAL keeps the bytes of two checkpoints per disk, no more.
fn assert_superseded_reclaimed(cluster: &ClusterHandles, name: &str) {
    for index in 0..cluster.replicas.len() {
        let kept = ranked_checkpoints(cluster.disk(index).records()).len();
        assert!(
            kept <= 2,
            "{name}: replica {index} holds {kept} non-empty checkpoint records"
        );
    }
}

/// No disk keeps an accepted body that a retained checkpoint covers.
fn assert_covered_bodies_reclaimed(cluster: &ClusterHandles, protocol: &Protocol) {
    for index in 0..cluster.replicas.len() {
        let kept = covered_bodies(cluster.disk(index).records(), batch_shift(protocol));
        assert!(
            kept.is_empty(),
            "{}: replica {index} keeps covered bodies at {kept:?}",
            protocol.name()
        );
    }
}

#[test]
fn idem_disks_and_exec_logs_match_owned_record_golden() {
    assert_golden(Protocol::idem(), GOLDEN_IDEM);
}

#[test]
fn paxos_disks_and_exec_logs_match_owned_record_golden() {
    assert_golden(Protocol::paxos(), GOLDEN_PAXOS);
}

#[test]
fn smart_disks_and_exec_logs_match_owned_record_golden() {
    assert_golden(Protocol::smart(), GOLDEN_SMART);
}

/// No record repeats a body its disk already holds: IDEM's slot bindings
/// leave out what its REQUIRE-stage records hold, and no protocol's exec
/// records repeat what an accept record holds — through a leader crash, a
/// truncating wipe and leader churn. Elided exec records are there to see.
#[test]
fn disks_hold_each_accepted_body_once() {
    for protocol in protocols() {
        let name = protocol.name();
        let crash = crash_wipe_cell(&protocol);
        let churn = leader_churn_cell(&protocol).cluster;
        for (cell, cluster) in [("crash/wipe", &crash), ("churn", &churn)] {
            let mut elided = 0;
            for index in 0..cluster.replicas.len() {
                let records = cluster.disk(index).records();
                let repeats = repeated_bodies(records).len();
                assert_eq!(
                    repeats, 0,
                    "{name} {cell}: replica {index} repeats {repeats} bodies"
                );
                elided += records
                    .iter()
                    .filter(|r| matches!(WalRecord::decode(r), Some(WalRecord::ExecElided { .. })))
                    .count();
            }
            assert!(
                elided > 0,
                "{name} {cell}: no exec record left its body out"
            );
        }
    }
}

/// The REQUIRE-stage records (`slot = u64::MAX`) on a disk whose body a
/// transferred checkpoint covers: a non-empty one of an id with no fresh
/// exec record on the disk, which the older of the disk's two newest
/// checkpoints shows run.
fn transferred_bodies(records: &[Vec<u8>]) -> Vec<usize> {
    let ranked = ranked_checkpoints(records);
    let Some(older) = ranked.len().checked_sub(2).map(|i| ranked[i]) else {
        return Vec::new();
    };
    let Some(WalRecord::Checkpoint(cp)) = WalRecord::decode(&records[older]) else {
        panic!("a torn checkpoint");
    };
    let last_op: BTreeMap<u32, u64> = cp.clients.iter().map(|(c, op, _)| (c, op)).collect();
    let ran: BTreeSet<RequestId> = records
        .iter()
        .filter_map(|r| match WalRecord::decode(r) {
            Some(
                WalRecord::Exec {
                    id, fresh: true, ..
                }
                | WalRecord::ExecElided { id, .. },
            ) => Some(id),
            _ => None,
        })
        .collect();
    (0..records.len())
        .filter(|&i| match WalRecord::decode(&records[i]) {
            Some(WalRecord::Accept {
                slot: u64::MAX,
                id,
                command,
                ..
            }) => {
                !command.is_empty()
                    && !ran.contains(&id)
                    && last_op.get(&id.client.0).is_some_and(|&op| op >= id.op.0)
            }
            _ => false,
        })
        .collect()
}

/// A replica that catches up by state transfer holds bodies it accepted
/// but never ran: the installed checkpoint covers them. The WAL empties
/// their REQUIRE-stage records once a later checkpoint lifts the floor
/// past the installed one, as if each had run just below it. Only IDEM
/// writes REQUIRE-stage records; the crashed leader's disk kept 37 such
/// bodies while only exec records fed reclaiming. A slot binding is a
/// vote and stays, so Paxos's and SMaRt's bodies here (20 and 39, all
/// bindings) are not counted.
#[test]
fn bodies_a_transferred_checkpoint_covers_are_reclaimed() {
    for protocol in protocols() {
        let mut cluster = crash_wipe_cell(&protocol);
        cluster.run_for(Duration::from_secs(1));
        for index in 0..cluster.replicas.len() {
            let required = transferred_bodies(cluster.disk(index).records());
            assert!(
                required.is_empty(),
                "{}: replica {index} keeps transferred bodies at {required:?}",
                protocol.name()
            );
        }
    }
}

/// Proposals (IDEM, Paxos) or batches (SMaRt) the replica at `index` has
/// led so far — only a leader's counter moves.
fn led(cluster: &ClusterHandles, index: usize) -> u64 {
    let idem = cluster.idem_stats(index).map(|s| s.proposals_sent);
    let paxos = cluster.paxos_stats(index).map(|s| s.proposals_sent);
    let smart = cluster.smart_stats(index).map(|s| s.batches_proposed);
    idem.or(paxos).or(smart).expect("one protocol runs")
}

fn view_changes(cluster: &ClusterHandles, index: usize) -> u64 {
    let idem = cluster.idem_stats(index).map(|s| s.view_changes_completed);
    let paxos = cluster.paxos_stats(index).map(|s| s.view_changes_completed);
    let smart = cluster.smart_stats(index).map(|s| s.view_changes_completed);
    idem.or(paxos).or(smart).expect("one protocol runs")
}

fn checkpoints_taken(cluster: &ClusterHandles, index: usize) -> u64 {
    let idem = cluster.idem_stats(index).map(|s| s.checkpoints_taken);
    let paxos = cluster.paxos_stats(index).map(|s| s.checkpoints_taken);
    let smart = cluster.smart_stats(index).map(|s| s.checkpoints_taken);
    idem.or(paxos).or(smart).expect("one protocol runs")
}

/// The replica leading the cluster right now: the one whose proposal
/// counter moves while the closed-loop clients keep the group busy.
fn current_leader(cluster: &mut ClusterHandles) -> usize {
    let before: Vec<u64> = (0..cluster.replicas.len())
        .map(|i| led(cluster, i))
        .collect();
    cluster.run_for(Duration::from_millis(50));
    let moved: Vec<usize> = (0..cluster.replicas.len())
        .filter(|&i| led(cluster, i) > before[i])
        .collect();
    assert_eq!(moved.len(), 1, "exactly one replica leads: {moved:?}");
    moved[0]
}

/// What the leader-churn cell did besides its disks and logs.
struct Churned {
    cluster: ClusterHandles,
    /// Who led after the leader left.
    promoted: usize,
    /// The wiped leader and its frontier just before the wipe.
    wiped: usize,
    frontier_at_wipe: u64,
}

/// The leader leaves under load (the epoch switch promotes a follower —
/// the site of the leader-departure stall), the promoted leader is
/// replaced by the spare, and whichever replica leads by then is wiped
/// (replay, rotating catch-up over a two-member group) and settles.
fn leader_churn_cell(protocol: &Protocol) -> Churned {
    let mut cluster = durable_cluster(protocol, 1);
    cluster.run_for(Duration::from_millis(300));
    cluster.inject_reconfig(1, &ReconfigCommand::Leave(ReplicaId(0)));
    cluster.run_for(Duration::from_millis(350));
    let promoted = current_leader(&mut cluster);
    let replace = ReconfigCommand::Replace {
        old: ReplicaId(1),
        new: ReplicaId(3),
    };
    cluster.inject_reconfig(2, &replace);
    cluster.run_for(Duration::from_millis(350));
    let wiped = current_leader(&mut cluster);
    let frontier_at_wipe = cluster.exec_frontier(wiped);
    cluster.wipe_replica(wiped, false);
    cluster.run_for(Duration::from_millis(600));
    Churned {
        cluster,
        promoted,
        wiped,
        frontier_at_wipe,
    }
}

const GOLDEN_CHURN_IDEM: u64 = 0x043e7c8478a35f87;
const GOLDEN_CHURN_PAXOS: u64 = 0xed588c1f0a44c877;
const GOLDEN_CHURN_SMART: u64 = 0x845466a41726b887;

fn assert_churn_golden(protocol: Protocol, golden: u64) {
    let name = protocol.name();
    let Churned {
        cluster,
        promoted,
        wiped,
        frontier_at_wipe,
    } = leader_churn_cell(&protocol);
    // The cell must actually exercise what it pins.
    assert_ne!(promoted, 0, "{name}: the departed leader still leads");
    let members: Vec<usize> = (0..4).filter(|&i| cluster.is_member(i)).collect();
    assert_eq!(members, [2, 3], "{name}: membership after leave + replace");
    assert!(members.contains(&wiped), "{name}: wiped a non-member");
    for index in 1..4 {
        let epoch = cluster.epoch(index);
        assert!(epoch >= 2, "{name}: replica {index} stuck in epoch {epoch}");
    }
    let changes: u64 = (0..4).map(|i| view_changes(&cluster, i)).sum();
    assert!(
        changes >= 1 || promoted != wiped,
        "{name}: leadership never moved past the promotion"
    );
    let peer = members[usize::from(members[0] == wiped)];
    assert!(
        cluster.exec_frontier(wiped) > frontier_at_wipe
            && cluster.exec_frontier(wiped) + 64 > cluster.exec_frontier(peer),
        "{name}: wiped leader at {} (was {frontier_at_wipe}), peer at {}",
        cluster.exec_frontier(wiped),
        cluster.exec_frontier(peer)
    );
    let got = digest(&cluster, batch_shift(&protocol));
    assert_eq!(
        got, golden,
        "{name}: disk bytes or exec logs diverged from the three-copy build (got {got:#018x})"
    );
    assert_superseded_reclaimed(&cluster, name);
    assert_covered_bodies_reclaimed(&cluster, &protocol);
}

#[test]
fn idem_leader_churn_matches_three_copy_golden() {
    assert_churn_golden(Protocol::idem(), GOLDEN_CHURN_IDEM);
}

#[test]
fn paxos_leader_churn_matches_three_copy_golden() {
    assert_churn_golden(Protocol::paxos(), GOLDEN_CHURN_PAXOS);
}

#[test]
fn smart_leader_churn_matches_three_copy_golden() {
    assert_churn_golden(Protocol::smart(), GOLDEN_CHURN_SMART);
}

/// A write torn by power loss leaves the newest checkpoint record cut off
/// mid-record. Replay must pass it over, install the checkpoint before it
/// and re-execute the suffix after that one — ending in exactly the state
/// the replica held before the wipe.
#[test]
fn torn_newest_checkpoint_falls_back_to_the_previous_one() {
    for protocol in protocols() {
        let name = protocol.name();
        let shift = batch_shift(&protocol);
        let mut cluster = durable_cluster(&protocol, 0);
        cluster.run_for(Duration::from_millis(600));

        let records = cluster.disk(2).records();
        let checkpoints: Vec<usize> = (0..records.len())
            .filter(|&i| records[i].first() == Some(&TAG_CHECKPOINT))
            .collect();
        assert!(checkpoints.len() >= 2, "{name}: need two checkpoints");
        let newest = checkpoints[checkpoints.len() - 1];
        let previous = checkpoints[checkpoints.len() - 2];
        assert!(
            records[newest + 1..].len() > 3 && newest - previous > 3,
            "{name}: need an exec suffix after both checkpoints"
        );
        let header = |i: usize| u64::from_le_bytes(records[i][1..9].try_into().unwrap());
        let (newest_at, previous_at) = (header(newest), header(previous));
        assert!(newest_at > previous_at);

        let frontier = cluster.exec_frontier(2);
        let app = cluster.app_digest(2);
        let log = cluster.exec_log(2);
        assert!(frontier > newest_at, "{name}: nothing executed past it");

        // Intact, replay starts from the newest checkpoint.
        let intact = Wal::replay(cluster.disk(2).records(), shift);
        assert_eq!(intact.checkpoint.map(|cp| cp.next_exec), Some(newest_at));

        let keep = cluster.disk(2).records()[newest].len() / 2;
        cluster.disk_mut(2).tear(newest, keep);
        let torn = Wal::replay(cluster.disk(2).records(), shift);
        assert_eq!(
            torn.checkpoint.map(|cp| cp.next_exec),
            Some(previous_at),
            "{name}: replay must fall back past the torn record"
        );

        // Recovery runs inside the wipe; look before any message arrives.
        cluster.wipe_replica(2, false);
        assert_eq!(cluster.exec_frontier(2), frontier, "{name}: frontier");
        assert_eq!(cluster.app_digest(2), app, "{name}: application state");
        assert_eq!(cluster.exec_log(2), log, "{name}: exec log");

        // And the replica is live again afterwards.
        cluster.run_for(Duration::from_millis(300));
        assert!(cluster.exec_frontier(2) > frontier, "{name}: no progress");
    }
}

/// What a disk alone says its replica's state is: the newest intact
/// checkpoint plus every intact exec record past it, applied to a fresh
/// store — and, if the last decision is a batch cut short, the rest of it
/// as its accept records name it. Every exec record enters the log. An
/// elided exec record below the checkpoint runs nothing and needs no
/// body; past it, one runs the body of the first earlier accept record of
/// its id that holds one, and one with no such record ends the
/// executions, as does a torn exec record. Written against the record
/// decoder only, so it shares no code with `Wal::replay` or the replicas'
/// `replay_wal`. `batch_shift` is what the function of that name returns.
fn state_on_disk(records: &[Vec<u8>], batch_shift: u32) -> (u64, u64, Vec<ExecRecord>) {
    let checkpoint = ranked_checkpoints(records).into_iter().rev().find_map(|i| {
        match WalRecord::decode(&records[i]) {
            Some(WalRecord::Checkpoint(cp)) => Some(cp),
            _ => None,
        }
    });
    let covered = checkpoint.as_ref().map_or(0, |cp| cp.next_exec);
    let mut bodies = BTreeMap::new();
    let mut unresolved = false;
    let mut decoded = Vec::new();
    for record in records
        .iter()
        .filter(|r| r.first() != Some(&TAG_CHECKPOINT))
    {
        match WalRecord::decode(record) {
            Some(WalRecord::Exec { .. } | WalRecord::ExecElided { .. }) if unresolved => {}
            Some(rec @ WalRecord::ExecElided { slot, .. }) if slot >> batch_shift < covered => {
                decoded.push(rec);
            }
            Some(WalRecord::ExecElided { slot, id, epoch }) => match bodies.get(&id) {
                Some(&command) => decoded.push(WalRecord::Exec {
                    slot,
                    id,
                    fresh: true,
                    command,
                    epoch,
                }),
                None => unresolved = true,
            },
            Some(rec) => {
                if let WalRecord::Accept { id, command, .. } = rec {
                    if !command.is_empty() {
                        bodies.entry(id).or_insert(command);
                    }
                }
                decoded.push(rec);
            }
            None if record.first() == Some(&TAG_EXEC) => unresolved = true,
            None => {}
        }
    }
    let mut kv = KvStore::new();
    // Highest executed op per client: whether the rest of a batch is fresh.
    let mut last_op: BTreeMap<u32, u64> = BTreeMap::new();
    if let Some(cp) = &checkpoint {
        kv.restore(cp.snapshot);
        last_op.extend(cp.clients.iter().map(|(client, op, _)| (client, op)));
    }
    let mut frontier = covered;
    let mut log = Vec::new();
    for rec in &decoded {
        let (slot, id, fresh, command, epoch) = match *rec {
            WalRecord::Exec {
                slot,
                id,
                fresh,
                command,
                epoch,
            } => (slot, id, fresh, Some(command), epoch),
            WalRecord::ExecElided { slot, id, epoch } => (slot, id, true, None, epoch),
            _ => continue,
        };
        log.push(ExecRecord::at_epoch(slot, id, fresh, epoch));
        let decision = slot >> batch_shift;
        if decision >= covered {
            if fresh {
                kv.execute(command.expect("resolved past the checkpoint"));
                last_op.insert(id.client.0, id.op.0);
            }
            frontier = frontier.max(decision + 1);
        }
    }
    if frontier == covered {
        return (frontier, kv.digest(), log);
    }
    // The last decision's surviving exec records by slot, and its accept
    // records by view, then slot. A torn write can cut off its tail: the
    // live replica ran what the highest view agreeing with every survivor
    // names past the last one.
    let ours = |slot: u64| slot != u64::MAX && slot >> batch_shift == frontier - 1;
    let mut done = BTreeMap::new();
    let mut named: BTreeMap<u64, BTreeMap<u64, (RequestId, &[u8])>> = BTreeMap::new();
    for rec in &decoded {
        match *rec {
            WalRecord::Exec {
                slot, id, epoch, ..
            } if ours(slot) => {
                done.insert(slot, (id, epoch));
            }
            WalRecord::Accept {
                slot,
                view,
                id,
                command,
            } if ours(slot) => {
                let batch = named.entry(view).or_default();
                batch.entry(slot).or_insert((id, command));
            }
            _ => {}
        }
    }
    let (&cut, &(_, epoch)) = done.last_key_value().expect("an applied record");
    let agrees = |batch: &&BTreeMap<u64, (RequestId, &[u8])>| {
        done.iter()
            .all(|(slot, (id, _))| batch.get(slot).is_some_and(|(named, _)| named == id))
    };
    if let Some(batch) = named.values().rev().find(agrees) {
        for (&slot, &(id, command)) in batch.range(cut + 1..) {
            let fresh = last_op.get(&id.client.0).is_none_or(|&op| op < id.op.0);
            if fresh {
                kv.execute(command);
                last_op.insert(id.client.0, id.op.0);
            }
            log.push(ExecRecord::at_epoch(slot, id, fresh, epoch));
        }
    }
    (frontier, kv.digest(), log)
}

/// A write torn by power loss cuts the *last* record of the log — an
/// execution or an acceptance, not a checkpoint — off mid-record. Replay
/// must drop exactly that record and nothing else: the wiped replica comes
/// back as what its disk says without it, and rejoins from there.
///
/// IDEM and Paxos lose the torn slot and execute it a second time, from
/// their peers. SMaRt's frontier counts batches, and the surviving records
/// of the batch carry replay past all of it; the batch's accept records
/// name the torn request, and replay runs it from them. Either way the
/// torn execution is in the replica's log again after rejoining.
#[test]
fn torn_log_tail_loses_exactly_the_torn_record() {
    for protocol in protocols() {
        let name = protocol.name();
        let smart = name == "BFT-SMaRt";
        let batch_shift = batch_shift(&protocol);
        let mut cluster = durable_cluster(&protocol, 0);
        cluster.run_for(Duration::from_millis(600));
        let tail_tag = |cluster: &ClusterHandles| cluster.disk(2).records().last().map(|r| r[0]);
        while tail_tag(&cluster) == Some(TAG_CHECKPOINT) {
            cluster.run_for(Duration::from_micros(50));
        }

        // Intact, the disk alone reproduces the live replica.
        let (frontier, app, log) = (
            cluster.exec_frontier(2),
            cluster.app_digest(2),
            cluster.exec_log(2),
        );
        assert!(
            state_on_disk(cluster.disk(2).records(), batch_shift) == (frontier, app, log.clone()),
            "{name}: the intact disk does not say what the replica holds"
        );

        let torn_exec = (tail_tag(&cluster) == Some(TAG_EXEC)).then(|| log[log.len() - 1]);
        let last = cluster.disk(2).len() - 1;
        let keep = cluster.disk(2).records()[last].len() / 2;
        let intact_records = Wal::replay(cluster.disk(2).records(), batch_shift)
            .records
            .len();
        cluster.disk_mut(2).tear(last, keep);
        assert_eq!(
            Wal::replay(cluster.disk(2).records(), batch_shift)
                .records
                .len(),
            intact_records - 1,
            "{name}: the torn record must not decode"
        );
        let expected = state_on_disk(cluster.disk(2).records(), batch_shift);
        // An acceptance moves nothing. An execution is lost with its slot,
        // unless the rest of its batch holds the frontier and names it.
        let lost = torn_exec.is_some() && !smart;
        let kept = log.len() - usize::from(lost);
        assert!(expected.2 == log[..kept], "{name}: not exactly one record");
        assert_eq!(
            expected.0,
            frontier - u64::from(lost),
            "{name}: disk frontier"
        );

        // Recovery runs inside the wipe; look before any message arrives.
        cluster.wipe_replica(2, false);
        assert_eq!(cluster.exec_frontier(2), expected.0, "{name}: frontier");
        assert_eq!(cluster.app_digest(2), expected.1, "{name}: app state");
        assert!(cluster.exec_log(2) == expected.2, "{name}: exec log");

        // And the replica rejoins from there.
        cluster.run_for(Duration::from_millis(300));
        assert!(cluster.exec_frontier(2) > frontier, "{name}: no progress");
        let logs: Vec<_> = (0..3).map(|i| cluster.exec_log(i)).collect();
        assert_eq!(check_agreement(&logs), vec![], "{name}");
        assert_eq!(check_exactly_once(&logs), vec![], "{name}");
        if let Some(torn) = torn_exec {
            let again = logs[2][log.len() - 1..].contains(&torn);
            assert!(again, "{name}: the torn slot after rejoining");
        }
    }
}

/// A WAL-on IDEM cell of 1 KiB writes keeps few disk bytes per executed
/// operation: every accepted body a retained checkpoint covers is
/// reclaimed, so what grows with the run is exec records, bodiless slot
/// bindings and record headers. Bytes are summed over the three disks,
/// operations counted at the replica that executed most; the two retained
/// checkpoints per disk (64 keys of 1 KiB each) are in the sum too. It
/// reads 227 B; 3,388 B while every accepted body stayed on the disks.
#[test]
fn idem_disks_keep_few_bytes_per_executed_operation() {
    let opts = ClusterOptions {
        clients: 40,
        seed: 11,
        warmup: Duration::ZERO,
        workload: WorkloadSpec {
            keys: 64,
            ..WorkloadSpec::write_only(1024)
        },
        persist: PersistMode::Wal,
        disk_latency: DiskLatency {
            append: Duration::from_micros(2),
            fsync: Duration::from_micros(25),
        },
        ..ClusterOptions::default()
    };
    let mut cluster = build_cluster(&Protocol::idem(), &opts);
    cluster.run_for(Duration::from_secs(2));
    let executed = (0..3)
        .map(|i| cluster.idem_stats(i).expect("an IDEM replica").executed)
        .max()
        .unwrap_or(0);
    let bytes: usize = (0..3)
        .flat_map(|i| cluster.disk(i).records())
        .map(Vec::len)
        .sum();
    let per_op = bytes as f64 / executed as f64;
    assert!(executed > 5_000, "too little ran: {executed} operations");
    assert!(
        per_op < 400.0,
        "{per_op:.0} disk bytes per executed operation"
    );
}

/// The broken `WalNoFsync` mode syncs nothing, so it reclaims nothing: no
/// record on any disk is emptied, though every disk holds accepted bodies
/// and checkpoints the honest mode would have reclaimed.
#[test]
fn no_fsync_mode_keeps_every_body() {
    for protocol in protocols() {
        let name = protocol.name();
        let opts = ClusterOptions {
            clients: 40,
            seed: 11,
            warmup: Duration::ZERO,
            persist: PersistMode::WalNoFsync,
            ..ClusterOptions::default()
        };
        let mut cluster = build_cluster(&protocol, &opts);
        cluster.run_for(Duration::from_millis(600));
        for index in 0..cluster.replicas.len() {
            let records = cluster.disk(index).records();
            assert_eq!(cluster.disk(index).synced_len(), 0, "{name}");
            assert!(
                records.iter().all(|r| !r.is_empty()),
                "{name}: replica {index} emptied a record"
            );
            assert!(
                ranked_checkpoints(records).len() > 2,
                "{name}: replica {index} took too few checkpoints"
            );
            assert!(
                !covered_bodies(records, batch_shift(&protocol)).is_empty(),
                "{name}: replica {index} holds no covered body"
            );
        }
    }
}
