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

use std::time::Duration;

use idem_common::{ExecRecord, PersistMode, ReconfigCommand, ReplicaId, Wal};
use idem_harness::cluster::{build_cluster, ClusterOptions};
use idem_harness::{ClusterHandles, Protocol};
use idem_simnet::DiskLatency;

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

/// Digests every disk byte (record boundaries and fsync barrier included)
/// and every exec-log entry of every replica.
fn digest(cluster: &ClusterHandles) -> u64 {
    let mut h = 0u64;
    for index in 0..cluster.replicas.len() {
        let disk = cluster.disk(index);
        mix(&mut h, disk.len() as u64);
        mix(&mut h, disk.synced_len() as u64);
        for record in disk.records() {
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

const GOLDEN_IDEM: u64 = 0x7d01d241b8778c1a;
const GOLDEN_PAXOS: u64 = 0x7e624cbcb532958a;
const GOLDEN_SMART: u64 = 0x95bd2564a896977f;

fn assert_golden(protocol: Protocol, golden: u64) {
    let cluster = crash_wipe_cell(&protocol);
    // The cell must actually exercise what it pins.
    let checkpoints = |index: usize| {
        cluster
            .disk(index)
            .records()
            .iter()
            .filter(|r| r.first() == Some(&TAG_CHECKPOINT))
            .count()
    };
    assert!(
        checkpoints(1) >= 3,
        "{}: too few checkpoints",
        protocol.name()
    );
    assert!(
        checkpoints(3) >= 1,
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
    let got = digest(&cluster);
    assert_eq!(
        got,
        golden,
        "{}: disk bytes or exec logs diverged from the owned-record build (got {got:#018x})",
        protocol.name()
    );
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

/// A write torn by power loss leaves the newest checkpoint record cut off
/// mid-record. Replay must pass it over, install the checkpoint before it
/// and re-execute the suffix after that one — ending in exactly the state
/// the replica held before the wipe.
#[test]
fn torn_newest_checkpoint_falls_back_to_the_previous_one() {
    for protocol in protocols() {
        let name = protocol.name();
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
        let intact = Wal::replay(cluster.disk(2).records());
        assert_eq!(intact.checkpoint.map(|cp| cp.next_exec), Some(newest_at));

        let keep = cluster.disk(2).records()[newest].len() / 2;
        cluster.disk_mut(2).tear(newest, keep);
        let torn = Wal::replay(cluster.disk(2).records());
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
