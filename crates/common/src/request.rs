//! Request and reply envelopes exchanged between clients and replicas.

use std::sync::Arc;

use crate::ids::RequestId;

/// A client request: the unique id plus the opaque application command.
///
/// The command is opaque to the replication protocols; only the application
/// state machine interprets it. Keeping it as raw bytes mirrors the paper's
/// architecture where the agreement layer orders request *ids* while bodies
/// are disseminated separately.
///
/// The bytes are shared immutable (`Arc<[u8]>`): a request fans out to
/// every replica, gets parked in retransmit state, window entries, and
/// request stores, and each of those used to copy the body. With shared
/// bytes a `Request` clone is two refcount bumps, which is what keeps the
/// replication hot path allocation-free.
///
/// # Example
/// ```
/// use idem_common::{ClientId, OpNumber, Request, RequestId};
/// let req = Request::new(RequestId::new(ClientId(0), OpNumber(1)), vec![1, 2, 3]);
/// assert_eq!(&req.command[..], [1, 2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Request {
    /// Globally unique identifier `⟨cid, onr⟩`.
    pub id: RequestId,
    /// Opaque application command.
    pub command: Arc<[u8]>,
}

impl Request {
    /// Creates a request from an id and a command payload.
    pub fn new(id: RequestId, command: impl Into<Arc<[u8]>>) -> Request {
        Request {
            id,
            command: command.into(),
        }
    }

    /// Estimated size of this request on the wire, in bytes (excluding the
    /// per-message header, which the traffic model adds uniformly).
    pub fn wire_size(&self) -> usize {
        RequestId::WIRE_SIZE + self.command.len()
    }
}

/// Largest result stored inline in a [`ResultBytes`] without touching the
/// heap. Sized so the enum stays at 24 bytes — the same footprint as the
/// `Vec<u8>` it replaced: the tag and the length byte take two of them —
/// while covering every status-byte reply and all small GET values.
pub const INLINE_RESULT_CAP: usize = 22;

/// An application result, inline when small.
///
/// Replies on the replication hot path are overwhelmingly tiny — a status
/// byte, or a status byte plus a small value. Storing them as `Vec<u8>`
/// made every execution, every `last_executed` cache insert, and every
/// duplicate-reply resend a heap allocation. `ResultBytes` keeps results up
/// to [`INLINE_RESULT_CAP`] bytes in the enum itself and shares larger ones
/// behind an `Arc`, so cloning a reply is at worst a refcount bump. A
/// state machine can hand out an `Arc` it already holds (a GET hit on
/// `KvStore` shares the stored value's buffer), so neither the session
/// row nor the outgoing reply copies it.
///
/// # Example
/// ```
/// use idem_common::ResultBytes;
/// let small = ResultBytes::from_slice(b"ok");
/// assert_eq!(&small[..], b"ok");
/// let large = ResultBytes::from_slice(&[7u8; 100]);
/// assert_eq!(large.len(), 100);
/// assert_eq!(large.clone(), large); // refcount bump, not a copy
/// ```
#[derive(Clone)]
pub enum ResultBytes {
    /// Result stored inline; `len` bytes of `buf` are live.
    Inline {
        /// Number of live bytes in `buf`.
        len: u8,
        /// Inline storage; bytes past `len` are zero.
        buf: [u8; INLINE_RESULT_CAP],
    },
    /// Result too large to inline, shared immutably.
    Shared(Arc<[u8]>),
}

// A `SessionTable` row holds one per client; 32 bytes here is 8 more per
// client per replica.
const _: () = assert!(size_of::<ResultBytes>() == 24);

impl ResultBytes {
    /// Builds a result from raw bytes, inlining when they fit.
    pub fn from_slice(bytes: &[u8]) -> ResultBytes {
        if bytes.len() <= INLINE_RESULT_CAP {
            let mut buf = [0u8; INLINE_RESULT_CAP];
            buf[..bytes.len()].copy_from_slice(bytes);
            ResultBytes::Inline {
                len: bytes.len() as u8,
                buf,
            }
        } else {
            ResultBytes::Shared(Arc::from(bytes))
        }
    }

    /// The result bytes.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            ResultBytes::Inline { len, buf } => &buf[..usize::from(*len)],
            ResultBytes::Shared(bytes) => bytes,
        }
    }
}

impl std::ops::Deref for ResultBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for ResultBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Default for ResultBytes {
    fn default() -> ResultBytes {
        ResultBytes::Inline {
            len: 0,
            buf: [0u8; INLINE_RESULT_CAP],
        }
    }
}

impl std::fmt::Debug for ResultBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_slice(), f)
    }
}

// Equality and hashing are content-based: an inlined result and a shared
// result with the same bytes are the same result.
impl PartialEq for ResultBytes {
    fn eq(&self, other: &ResultBytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ResultBytes {}

impl std::hash::Hash for ResultBytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<[u8]> for ResultBytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for ResultBytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for ResultBytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for ResultBytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for ResultBytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<&[u8]> for ResultBytes {
    fn from(bytes: &[u8]) -> ResultBytes {
        ResultBytes::from_slice(bytes)
    }
}

impl From<Vec<u8>> for ResultBytes {
    fn from(bytes: Vec<u8>) -> ResultBytes {
        ResultBytes::from_slice(&bytes)
    }
}

/// A reply produced by executing a request on the application state machine.
///
/// # Example
/// ```
/// use idem_common::{ClientId, OpNumber, Reply, RequestId};
/// let rep = Reply::new(RequestId::new(ClientId(0), OpNumber(1)), b"ok".to_vec());
/// assert_eq!(rep.result, b"ok");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Reply {
    /// Id of the request this reply answers.
    pub id: RequestId,
    /// Opaque application result.
    pub result: ResultBytes,
}

impl Reply {
    /// Creates a reply for the given request id.
    pub fn new(id: RequestId, result: impl Into<ResultBytes>) -> Reply {
        Reply {
            id,
            result: result.into(),
        }
    }

    /// Estimated size of this reply on the wire, in bytes.
    pub fn wire_size(&self) -> usize {
        RequestId::WIRE_SIZE + self.result.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClientId, OpNumber};

    fn id() -> RequestId {
        RequestId::new(ClientId(1), OpNumber(2))
    }

    #[test]
    fn request_wire_size_counts_id_and_payload() {
        let req = Request::new(id(), vec![0u8; 100]);
        assert_eq!(req.wire_size(), RequestId::WIRE_SIZE + 100);
    }

    #[test]
    fn empty_command_is_permitted() {
        let req = Request::new(id(), Vec::new());
        assert_eq!(req.wire_size(), RequestId::WIRE_SIZE);
    }

    #[test]
    fn reply_wire_size_counts_id_and_result() {
        let rep = Reply::new(id(), vec![0u8; 8]);
        assert_eq!(rep.wire_size(), RequestId::WIRE_SIZE + 8);
    }

    #[test]
    fn request_equality_is_structural() {
        assert_eq!(Request::new(id(), vec![1]), Request::new(id(), vec![1]));
        assert_ne!(Request::new(id(), vec![1]), Request::new(id(), vec![2]));
    }
}
