//! Simulated per-node stable storage.
//!
//! Every node owns one append-only [`Disk`]: a sequence of opaque records
//! plus an *fsync barrier* marking how many of them have reached stable
//! storage. Appends land in the (volatile) device cache; [`Disk::fsync`]
//! advances the barrier to cover everything appended so far. Disk contents
//! live in the simulator core — not in the `Node` object — so they survive
//! crashes and node wipes ([`Simulation::wipe_now`](crate::Simulation::wipe_now)).
//!
//! A wipe may optionally truncate the disk at the last fsync barrier,
//! modelling a power loss that destroys the un-synced tail of the device
//! cache. Protocols that follow a write-ahead discipline (append + fsync
//! *before* acting on a record) lose nothing they acted on; a broken
//! persistence layer that skips the fsync is exactly what the chaos
//! campaign's durability invariant exists to catch.
//!
//! A record can also be discarded: its bytes are freed and it stays in
//! place as an empty record, so indices, the barrier and truncation are
//! as they would have been without it.
//!
//! I/O latency is charged to the performing node's virtual CPU via
//! [`Context::disk_append`](crate::Context::disk_append) and
//! [`Context::disk_fsync`](crate::Context::disk_fsync) according to the
//! simulation-wide [`DiskLatency`]. The default latency is zero and the
//! disk allocates nothing until first use, so simulations that never touch
//! stable storage are byte-identical to runs built before it existed.

use std::time::Duration;

/// I/O latency model charged to a node's virtual CPU for disk operations.
///
/// Both components default to zero, making the disk layer free (and
/// schedule-inert) unless an experiment opts in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskLatency {
    /// CPU time charged per [`Disk::append`] (device-cache write).
    pub append: Duration,
    /// CPU time charged per [`Disk::fsync`] (stable-media barrier).
    pub fsync: Duration,
}

/// One node's append-only stable storage device.
#[derive(Debug, Default)]
pub struct Disk {
    records: Vec<Vec<u8>>,
    synced: usize,
}

impl Disk {
    /// Creates an empty disk.
    pub fn new() -> Disk {
        Disk::default()
    }

    /// Appends a record to the device cache and returns its index. The
    /// record is *not* durable until the next [`fsync`](Disk::fsync).
    pub fn append(&mut self, record: Vec<u8>) -> usize {
        self.records.push(record);
        self.records.len() - 1
    }

    /// Advances the fsync barrier over everything appended so far.
    pub fn fsync(&mut self) {
        self.synced = self.records.len();
    }

    /// All records currently on the disk, synced or not, oldest first.
    pub fn records(&self) -> &[Vec<u8>] {
        &self.records
    }

    /// Number of records on the disk (synced or not).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the disk holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of records at or below the fsync barrier.
    pub fn synced_len(&self) -> usize {
        self.synced
    }

    /// Discards every record above the fsync barrier — what a power loss
    /// does to the un-synced tail of the device cache.
    pub fn truncate_to_synced(&mut self) {
        self.records.truncate(self.synced);
    }

    /// Frees record `index`'s bytes but keeps its place: it reads as an
    /// empty record from then on, and every other record keeps its index.
    /// For a log that knows a record will never be read again.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn discard(&mut self, index: usize) {
        self.records[index] = Vec::new();
    }

    /// Fault injection: cuts record `index` down to its first `keep`
    /// bytes, as a write torn by power loss mid-record would leave it.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn tear(&mut self, index: usize, keep: usize) {
        self.records[index].truncate(keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_fsync_and_truncate() {
        let mut disk = Disk::new();
        assert!(disk.is_empty());
        assert_eq!(disk.append(vec![1]), 0);
        assert_eq!(disk.append(vec![2]), 1);
        assert_eq!(disk.synced_len(), 0);
        disk.fsync();
        assert_eq!(disk.synced_len(), 2);
        disk.append(vec![3]);
        assert_eq!(disk.len(), 3);
        // Power loss: the un-synced tail is gone, the synced prefix stays.
        disk.truncate_to_synced();
        assert_eq!(disk.records(), &[vec![1], vec![2]]);
        assert_eq!(disk.len(), 2);
    }

    #[test]
    fn tear_keeps_a_record_prefix() {
        let mut disk = Disk::new();
        disk.append(vec![1, 2, 3, 4]);
        disk.append(vec![5, 6]);
        disk.tear(0, 3);
        assert_eq!(disk.records(), &[vec![1, 2, 3], vec![5, 6]]);
    }

    #[test]
    fn discard_empties_a_record_in_place() {
        let mut disk = Disk::new();
        for b in 1..=4 {
            disk.append(vec![b; 3]);
        }
        disk.fsync();
        disk.append(vec![5; 3]);
        disk.discard(1);
        disk.discard(4);
        assert_eq!((disk.len(), disk.synced_len()), (5, 4));
        assert_eq!(disk.append(vec![6]), 5, "indices keep counting");
        disk.tear(2, 1);
        assert_eq!(
            disk.records(),
            &[vec![1; 3], vec![], vec![3], vec![4; 3], vec![], vec![6]]
        );
        // Power loss drops the same records it would have without the
        // discards: the two above the barrier, emptied or not.
        disk.truncate_to_synced();
        assert_eq!(disk.records(), &[vec![1; 3], vec![], vec![3], vec![4; 3]]);
    }

    #[test]
    fn truncate_without_fsync_wipes_everything() {
        let mut disk = Disk::new();
        disk.append(vec![9]);
        disk.truncate_to_synced();
        assert!(disk.is_empty());
    }
}
