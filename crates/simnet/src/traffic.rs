//! Byte-accurate network traffic accounting.
//!
//! Every message handed to the network (whether delivered or lost) is
//! charged to the sender/receiver pair at its wire size plus the fixed
//! transport header. The experiment harness classifies the totals into
//! client↔replica and replica↔replica traffic to reproduce Table 1 of the
//! paper.

use crate::node::NodeId;

/// Per-ordered-pair byte totals and a message count.
#[derive(Debug, Clone, Default)]
pub struct Traffic {
    nodes: usize,
    bytes: Vec<u64>,
    messages: u64,
}

impl Traffic {
    /// Creates an empty accounting matrix.
    pub fn new() -> Traffic {
        Traffic::default()
    }

    fn index(&mut self, from: NodeId, to: NodeId) -> usize {
        let needed = (from.index().max(to.index())) + 1;
        if needed > self.nodes {
            // Grow the square matrix, remapping existing entries.
            let old = self.nodes;
            let mut bytes = vec![0u64; needed * needed];
            for f in 0..old {
                for t in 0..old {
                    bytes[f * needed + t] = self.bytes[f * old + t];
                }
            }
            self.nodes = needed;
            self.bytes = bytes;
        }
        from.index() * self.nodes + to.index()
    }

    /// Records one message of `bytes` payload+header from `from` to `to`.
    pub fn record(&mut self, from: NodeId, to: NodeId, bytes: usize) {
        let i = self.index(from, to);
        self.bytes[i] += bytes as u64;
        self.messages += 1;
    }

    /// Total bytes sent from `from` to `to`.
    pub fn bytes_between(&self, from: NodeId, to: NodeId) -> u64 {
        if from.index() >= self.nodes || to.index() >= self.nodes {
            return 0;
        }
        self.bytes[from.index() * self.nodes + to.index()]
    }

    /// Total bytes across all pairs.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Total messages across all pairs.
    pub fn total_messages(&self) -> u64 {
        self.messages
    }

    /// Sums bytes over all ordered pairs `(from, to)` accepted by `filter`.
    ///
    /// # Example
    /// ```
    /// use idem_simnet::{NodeId, Traffic};
    /// let mut t = Traffic::new();
    /// t.record(NodeId(0), NodeId(1), 100);
    /// t.record(NodeId(1), NodeId(2), 50);
    /// let from_zero = t.bytes_matching(|f, _| f == NodeId(0));
    /// assert_eq!(from_zero, 100);
    /// ```
    pub fn bytes_matching(&self, mut filter: impl FnMut(NodeId, NodeId) -> bool) -> u64 {
        let mut total = 0;
        for f in 0..self.nodes {
            for t in 0..self.nodes {
                if filter(NodeId(f as u32), NodeId(t as u32)) {
                    total += self.bytes[f * self.nodes + t];
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_pair() {
        let mut t = Traffic::new();
        t.record(NodeId(0), NodeId(1), 10);
        t.record(NodeId(0), NodeId(1), 5);
        t.record(NodeId(1), NodeId(0), 3);
        assert_eq!(t.bytes_between(NodeId(0), NodeId(1)), 15);
        assert_eq!(t.bytes_between(NodeId(1), NodeId(0)), 3);
        assert_eq!(t.total_bytes(), 18);
        assert_eq!(t.total_messages(), 3);
    }

    #[test]
    fn matrix_grows_preserving_history() {
        let mut t = Traffic::new();
        t.record(NodeId(0), NodeId(1), 7);
        t.record(NodeId(9), NodeId(3), 11); // forces growth
        assert_eq!(t.bytes_between(NodeId(0), NodeId(1)), 7);
        assert_eq!(t.bytes_between(NodeId(9), NodeId(3)), 11);
    }

    #[test]
    fn empty_messages_count_without_adding_bytes() {
        let mut t = Traffic::new();
        t.record(NodeId(2), NodeId(0), 0);
        t.record(NodeId(2), NodeId(0), 0);
        assert_eq!(t.total_messages(), 2);
        assert_eq!(t.total_bytes(), 0);
        assert_eq!(t.bytes_between(NodeId(2), NodeId(0)), 0);
    }

    #[test]
    fn filtered_sums_see_pairs_recorded_before_growth() {
        let mut t = Traffic::new();
        t.record(NodeId(1), NodeId(0), 8);
        t.record(NodeId(0), NodeId(1), 4);
        t.record(NodeId(6), NodeId(6), 2); // forces growth
        assert_eq!(t.bytes_matching(|f, _| f == NodeId(1)), 8);
        assert_eq!(t.bytes_matching(|_, to| to == NodeId(1)), 4);
        assert_eq!(t.bytes_matching(|_, _| true), t.total_bytes());
        assert_eq!(t.total_bytes(), 14);
    }

    #[test]
    fn unknown_pairs_read_zero() {
        let t = Traffic::new();
        assert_eq!(t.bytes_between(NodeId(5), NodeId(6)), 0);
        assert_eq!(t.total_messages(), 0);
    }

    #[test]
    fn filtered_sums() {
        let mut t = Traffic::new();
        t.record(NodeId(0), NodeId(2), 100); // client -> replica
        t.record(NodeId(2), NodeId(3), 40); // replica -> replica
        t.record(NodeId(3), NodeId(0), 20); // replica -> client
        let replicas = |n: NodeId| n.0 >= 2;
        let inter_replica = t.bytes_matching(|f, to| replicas(f) && replicas(to));
        assert_eq!(inter_replica, 40);
        let client_side = t.bytes_matching(|f, to| !replicas(f) || !replicas(to));
        assert_eq!(client_side, 120);
    }
}
