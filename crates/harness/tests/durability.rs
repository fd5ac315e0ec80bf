//! End-to-end durability and amnesia-recovery tests over the chaos
//! harness: every protocol must survive wipe faults with write-ahead
//! persistence, a deliberately broken persistence mode must be *caught*
//! by the durability invariant, and a wiped replica must rejoin even
//! when its leader guess is crashed at recovery time.

use std::collections::BTreeSet;
use std::time::Duration;

use idem_common::{PersistMode, RequestId, Wal, WalRecord, RECONFIG_CLIENT};
use idem_harness::chaos::{run_chaos, run_chaos_with_mode, Schedule};
use idem_harness::cluster::{build_cluster, ClusterOptions};
use idem_harness::invariants::ViolationKind;
use idem_harness::{ClusterHandles, Protocol};

fn protocols() -> Vec<Protocol> {
    vec![Protocol::idem(), Protocol::paxos(), Protocol::smart()]
}

/// An honest WAL survives a truncating amnesia wipe: nothing executed
/// before the wipe may be lost, and the wiped replica must catch back up.
#[test]
fn truncating_wipe_is_safe_with_wal_persistence() {
    let schedule = Schedule::parse("wipe(1,600,trunc);wipe(2,1100)").unwrap();
    for protocol in protocols() {
        let run = run_chaos(&protocol, 7, &schedule);
        assert!(
            run.ok(),
            "{}: violations: {:?}",
            protocol.name(),
            run.violations
        );
        assert!(run.successes > 0, "{}: no successes", protocol.name());
        assert!(
            run.rejoin_ms.is_some(),
            "{}: wiped replicas never rejoined",
            protocol.name()
        );
    }
}

/// The durability invariant has teeth: a WAL that skips fsync loses its
/// entire log to a truncating wipe, and the checker must flag the lost
/// executions rather than silently passing.
#[test]
fn durability_invariant_catches_missing_fsync() {
    let schedule = Schedule::parse("wipe(1,700,trunc)").unwrap();
    for protocol in protocols() {
        let run = run_chaos_with_mode(&protocol, 7, &schedule, PersistMode::WalNoFsync);
        let caught = run
            .violations
            .iter()
            .any(|v| matches!(v, ViolationKind::Durability { replica: 1, .. }));
        assert!(
            caught,
            "{}: WalNoFsync + trunc wipe was not flagged; violations: {:?}",
            protocol.name(),
            run.violations
        );
    }
}

/// Regression for quorum state transfer: a replica that wipes while the
/// leader is down must not hang on its first (dead) checkpoint target —
/// the retry loop has to reach a live peer and the replica must rejoin.
#[test]
fn wiped_replica_rejoins_while_leader_is_crashed() {
    let schedule = Schedule::parse("crash(0,400,1200);wipe(2,500)").unwrap();
    for protocol in protocols() {
        let run = run_chaos(&protocol, 11, &schedule);
        assert!(
            run.ok(),
            "{}: violations: {:?}",
            protocol.name(),
            run.violations
        );
        assert!(
            run.rejoin_ms.is_some(),
            "{}: wiped replica never rejoined with the leader down",
            protocol.name()
        );
    }
}

/// `executed` of the replica at `index`, and how many low bits of an exec
/// slot number a position inside one decision (SMaRt packs
/// `(batch << 20) | offset`; IDEM and Paxos decide single slots).
fn executed_and_shift(cluster: &ClusterHandles, index: usize) -> (u64, u32) {
    let idem = cluster.idem_stats(index).map(|s| (s.executed, 0));
    let paxos = || cluster.paxos_stats(index).map(|s| (s.executed, 0));
    let smart = || cluster.smart_stats(index).map(|s| (s.executed, 20));
    idem.or_else(paxos)
        .or_else(smart)
        .expect("one of the three")
}

/// What replaying `records` runs against the application: every fresh
/// exec record, other than a reconfiguration, at or past the newest
/// checkpoint's frontier. Past it, an elided exec record counts while an
/// earlier accept record of its id holds a body, and the first that none
/// does ends the count; below it, one needs no body (the WAL may have
/// reclaimed it) and neither counts nor ends anything. Read from the
/// record decoder, not from `Wal::replay`'s resolution of elided bodies.
fn replayed_executions(records: &[Vec<u8>], shift: u32) -> u64 {
    let covered = Wal::replay(records, shift)
        .checkpoint
        .map_or(0, |cp| cp.next_exec);
    let counts =
        |slot: u64, id: RequestId| slot >> shift >= covered && id.client != RECONFIG_CLIENT;
    let mut bodies = BTreeSet::new();
    let mut ran = 0;
    for record in records {
        match WalRecord::decode(record) {
            Some(WalRecord::Accept { id, command, .. }) if !command.is_empty() => {
                bodies.insert(id);
            }
            Some(WalRecord::Exec {
                slot,
                id,
                fresh: true,
                ..
            }) => ran += u64::from(counts(slot, id)),
            Some(WalRecord::ExecElided { slot, .. }) if slot >> shift < covered => {}
            Some(WalRecord::ExecElided { slot, id, .. }) if bodies.contains(&id) => {
                ran += u64::from(counts(slot, id));
            }
            Some(WalRecord::ExecElided { .. }) => break,
            _ => {}
        }
    }
    ran
}

/// A wiped replica counts the executions its replay ran: the rebuilt
/// object starts from zero, and recovery runs inside the wipe, so straight
/// after it `executed` is exactly the fresh exec records past the newest
/// checkpoint on the disk.
#[test]
fn a_wiped_replica_counts_what_its_replay_executed() {
    for protocol in protocols() {
        let name = protocol.name();
        let opts = ClusterOptions {
            clients: 20,
            seed: 5,
            warmup: Duration::ZERO,
            persist: PersistMode::Wal,
            ..ClusterOptions::default()
        };
        let mut cluster = build_cluster(&protocol, &opts);
        cluster.run_for(Duration::from_millis(500));
        let (live, shift) = executed_and_shift(&cluster, 1);
        let ran = replayed_executions(cluster.disk(1).records(), shift);
        assert!(ran > 0, "{name}: nothing past the newest checkpoint");
        assert!(live > ran, "{name}: no checkpoint on the disk");
        cluster.wipe_replica(1, false);
        assert_eq!(executed_and_shift(&cluster, 1).0, ran, "{name}");
    }
}
