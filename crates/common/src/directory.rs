//! Mapping between protocol roles and transport addresses.
//!
//! Replication protocols address peers by role ([`ReplicaId`], [`ClientId`])
//! while the transport (the simulator) addresses nodes by its own handle
//! type. A [`Directory`] is the static address book connecting the two; the
//! experiment harness builds one per cluster. It is generic over the node
//! handle `N` so this crate stays independent of the transport.

use crate::ids::{ClientId, ReplicaId};
use crate::membership::Membership;

/// Static address book of a replicated system deployment.
///
/// # Example
/// ```
/// use idem_common::{ClientId, Directory, ReplicaId};
/// let dir: Directory<u32> = Directory::new(vec![10, 11, 12], vec![20, 21]);
/// assert_eq!(dir.replica(ReplicaId(1)), 11);
/// assert_eq!(dir.client(ClientId(0)), 20);
/// assert_eq!(dir.replica_of(12), Some(ReplicaId(2)));
/// assert_eq!(dir.client_of(21), Some(ClientId(1)));
/// assert_eq!(dir.replica_count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directory<N> {
    replicas: Vec<N>,
    clients: Vec<N>,
    /// Address answering for every client id beyond `clients`. An
    /// aggregate open-loop source impersonates millions of logical
    /// clients from one node; enumerating them here would put a 10⁶-entry
    /// table in every replica for what is really a single address.
    client_fallback: Option<N>,
}

impl<N: Copy + PartialEq> Directory<N> {
    /// Creates a directory from replica and client address lists, indexed
    /// by `ReplicaId` / `ClientId` respectively.
    pub fn new(replicas: Vec<N>, clients: Vec<N>) -> Directory<N> {
        Directory {
            replicas,
            clients,
            client_fallback: None,
        }
    }

    /// Creates a directory where every client id not covered by the
    /// explicit `clients` list resolves to `fallback` — the address of an
    /// aggregate load source standing in for the whole logical
    /// population.
    ///
    /// ```
    /// use idem_common::{ClientId, Directory};
    /// let dir: Directory<u32> = Directory::with_client_fallback(vec![10, 11, 12], vec![], 99);
    /// assert_eq!(dir.client(ClientId(123_456)), 99);
    /// ```
    pub fn with_client_fallback(replicas: Vec<N>, clients: Vec<N>, fallback: N) -> Directory<N> {
        Directory {
            replicas,
            clients,
            client_fallback: Some(fallback),
        }
    }

    /// The address of a replica.
    ///
    /// # Panics
    /// Panics if the replica id is out of range.
    pub fn replica(&self, id: ReplicaId) -> N {
        self.replicas[id.index()]
    }

    /// The address of a client.
    ///
    /// # Panics
    /// Panics if the client id is beyond the explicit list and no
    /// fallback address is configured.
    pub fn client(&self, id: ClientId) -> N {
        match self.clients.get(id.0 as usize) {
            Some(&addr) => addr,
            None => self
                .client_fallback
                .unwrap_or_else(|| panic!("client {id} out of range and no fallback configured")),
        }
    }

    /// Reverse lookup: which replica (if any) has this address.
    pub fn replica_of(&self, addr: N) -> Option<ReplicaId> {
        self.replicas
            .iter()
            .position(|&a| a == addr)
            .map(|i| ReplicaId(i as u32))
    }

    /// Reverse lookup: which client (if any) has this address.
    pub fn client_of(&self, addr: N) -> Option<ClientId> {
        self.clients
            .iter()
            .position(|&a| a == addr)
            .map(|i| ClientId(i as u32))
    }

    /// Number of replicas.
    pub fn replica_count(&self) -> u32 {
        self.replicas.len() as u32
    }

    /// All replica addresses in id order.
    pub fn replica_addrs(&self) -> &[N] {
        &self.replicas
    }

    /// The addresses of `group`'s members, in member order — the replica
    /// slice itself at epoch 0.
    pub fn member_addrs(&self, group: &Membership) -> Vec<N> {
        group.members().iter().map(|&r| self.replica(r)).collect()
    }

    /// All client addresses in id order.
    pub fn client_addrs(&self) -> &[N] {
        &self.clients
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_reverse_lookup_agree() {
        let dir: Directory<u32> = Directory::new(vec![5, 6, 7], vec![100, 101]);
        for i in 0..3 {
            let id = ReplicaId(i);
            assert_eq!(dir.replica_of(dir.replica(id)), Some(id));
        }
        for i in 0..2 {
            let id = ClientId(i);
            assert_eq!(dir.client_of(dir.client(id)), Some(id));
        }
    }

    #[test]
    fn unknown_addresses_return_none() {
        let dir: Directory<u32> = Directory::new(vec![1], vec![2]);
        assert_eq!(dir.replica_of(99), None);
        assert_eq!(dir.client_of(99), None);
    }

    #[test]
    fn fallback_covers_unlisted_client_ids() {
        let dir: Directory<u32> = Directory::with_client_fallback(vec![1, 2, 3], vec![20], 77);
        assert_eq!(dir.client(ClientId(0)), 20, "explicit entries win");
        assert_eq!(dir.client(ClientId(1)), 77);
        assert_eq!(dir.client(ClientId(999_999)), 77);
        // Reverse lookup still only knows explicit entries.
        assert_eq!(dir.client_of(77), None);
    }

    #[test]
    #[should_panic(expected = "no fallback configured")]
    fn out_of_range_without_fallback_panics() {
        let dir: Directory<u32> = Directory::new(vec![1], vec![2]);
        let _ = dir.client(ClientId(5));
    }

    #[test]
    fn counts() {
        let dir: Directory<u8> = Directory::new(vec![1, 2, 3], vec![]);
        assert_eq!(dir.replica_count(), 3);
        assert_eq!(dir.replica_addrs(), &[1, 2, 3]);
    }
}
