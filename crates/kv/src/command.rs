//! Binary command encoding for the key-value store.
//!
//! Commands travel through the replication protocols as opaque byte
//! strings; this module defines the (hand-rolled, dependency-free) framing.
//!
//! Layout:
//!
//! ```text
//! GET:    [0x01][key: u64 LE]
//! UPDATE: [0x02][key: u64 LE][value bytes...]
//! DELETE: [0x03][key: u64 LE]
//! SCAN:   [0x04][key: u64 LE][count: u32 LE]
//! ```

use std::cmp::Ordering;
use std::error::Error;
use std::fmt;

pub(crate) const TAG_GET: u8 = 0x01;
pub(crate) const TAG_UPDATE: u8 = 0x02;
pub(crate) const TAG_DELETE: u8 = 0x03;
pub(crate) const TAG_SCAN: u8 = 0x04;

/// A decoded key-value store command.
///
/// # Example
/// ```
/// use idem_kv::Command;
/// let cmd = Command::Update { key: 7, value: vec![1, 2, 3] };
/// let bytes = cmd.encode();
/// assert_eq!(Command::decode(&bytes).unwrap(), cmd);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Command {
    /// Read the value of `key`.
    Get {
        /// The key to read.
        key: u64,
    },
    /// Write `value` under `key`, replacing any previous value.
    Update {
        /// The key to write.
        key: u64,
        /// The value bytes.
        value: Vec<u8>,
    },
    /// Remove `key`.
    Delete {
        /// The key to remove.
        key: u64,
    },
    /// Read up to `count` consecutive keys starting at `start`.
    Scan {
        /// First key of the range.
        start: u64,
        /// Maximum number of keys to return.
        count: u32,
    },
}

/// Encodes `UPDATE key` into `out`, replacing its previous contents, with
/// the `value_len` value bytes appended by `fill` — the bytes
/// `Command::Update { key, value }.encode_into(out)` produces, for callers
/// that generate the value and would otherwise build it only to copy it.
pub(crate) fn encode_update_with(
    key: u64,
    value_len: usize,
    out: &mut Vec<u8>,
    fill: impl FnOnce(&mut Vec<u8>),
) {
    out.clear();
    out.reserve(9 + value_len);
    out.push(TAG_UPDATE);
    out.extend_from_slice(&key.to_le_bytes());
    fill(out);
    debug_assert_eq!(out.len(), 9 + value_len);
}

impl Command {
    /// The exact byte length [`encode`](Self::encode) produces.
    pub fn encoded_len(&self) -> usize {
        match self {
            Command::Get { .. } | Command::Delete { .. } => 9,
            Command::Update { value, .. } => 9 + value.len(),
            Command::Scan { .. } => 13,
        }
    }

    /// Encodes the command into `out`, replacing its previous contents.
    ///
    /// Workload generators encode one command per issued request; routing
    /// them through a reused scratch buffer keeps that path free of
    /// per-request allocations.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(self.encoded_len());
        match self {
            Command::Get { key } => {
                out.push(TAG_GET);
                out.extend_from_slice(&key.to_le_bytes());
            }
            Command::Update { key, value } => {
                out.push(TAG_UPDATE);
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(value);
            }
            Command::Delete { key } => {
                out.push(TAG_DELETE);
                out.extend_from_slice(&key.to_le_bytes());
            }
            Command::Scan { start, count } => {
                out.push(TAG_SCAN);
                out.extend_from_slice(&start.to_le_bytes());
                out.extend_from_slice(&count.to_le_bytes());
            }
        }
        debug_assert_eq!(out.len(), self.encoded_len());
    }

    /// Encodes the command into its wire representation.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Decodes a command from its wire representation.
    ///
    /// # Errors
    /// Returns [`DecodeCommandError`] if the buffer is truncated, carries
    /// an unknown tag, or goes on past a fixed-length command: every
    /// accepted buffer is exactly the [`encode`](Self::encode) of what it
    /// decodes to.
    pub fn decode(bytes: &[u8]) -> Result<Command, DecodeCommandError> {
        let (&tag, rest) = bytes.split_first().ok_or(DecodeCommandError::Empty)?;
        // Everything after the tag has a fixed length but an Update's value.
        let body_len = match tag {
            TAG_GET | TAG_DELETE => 8,
            TAG_UPDATE => rest.len().max(8),
            TAG_SCAN => 12,
            other => return Err(DecodeCommandError::UnknownTag(other)),
        };
        match rest.len().cmp(&body_len) {
            Ordering::Less => return Err(DecodeCommandError::Truncated),
            Ordering::Greater => return Err(DecodeCommandError::TrailingBytes),
            Ordering::Equal => {}
        }
        let key = u64::from_le_bytes(rest[..8].try_into().expect("8-byte slice"));
        Ok(match tag {
            TAG_GET => Command::Get { key },
            TAG_UPDATE => Command::Update {
                key,
                value: rest[8..].to_vec(),
            },
            TAG_DELETE => Command::Delete { key },
            _ => Command::Scan {
                start: key,
                count: u32::from_le_bytes(rest[8..].try_into().expect("4-byte slice")),
            },
        })
    }
}

/// Error decoding a [`Command`] from bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeCommandError {
    /// The buffer was empty.
    Empty,
    /// The buffer ended before the fixed-size fields.
    Truncated,
    /// The buffer goes on past the end of a `Get`, `Delete` or `Scan`.
    TrailingBytes,
    /// The leading tag byte is not a known command.
    UnknownTag(u8),
}

impl fmt::Display for DecodeCommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeCommandError::Empty => write!(f, "empty command buffer"),
            DecodeCommandError::Truncated => write!(f, "truncated command buffer"),
            DecodeCommandError::TrailingBytes => write!(f, "trailing bytes after command"),
            DecodeCommandError::UnknownTag(t) => write!(f, "unknown command tag {t:#04x}"),
        }
    }
}

impl Error for DecodeCommandError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_variants() {
        let cmds = [
            Command::Get { key: 42 },
            Command::Update {
                key: u64::MAX,
                value: vec![0xAB; 100],
            },
            Command::Update {
                key: 0,
                value: Vec::new(),
            },
            Command::Delete { key: 7 },
            Command::Scan {
                start: 10,
                count: 5,
            },
        ];
        for cmd in cmds {
            assert_eq!(Command::decode(&cmd.encode()).unwrap(), cmd);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Command::decode(&[]), Err(DecodeCommandError::Empty));
        assert_eq!(
            Command::decode(&[TAG_GET, 1, 2]),
            Err(DecodeCommandError::Truncated)
        );
        assert_eq!(
            Command::decode(&[0x7F, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(DecodeCommandError::UnknownTag(0x7F))
        );
        assert_eq!(
            Command::decode(&[TAG_SCAN, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2]),
            Err(DecodeCommandError::Truncated)
        );
        for cmd in [
            Command::Get { key: 3 },
            Command::Delete { key: 3 },
            Command::Scan { start: 3, count: 1 },
        ] {
            let mut bytes = cmd.encode();
            bytes.push(0);
            assert_eq!(
                Command::decode(&bytes),
                Err(DecodeCommandError::TrailingBytes)
            );
        }
    }

    #[test]
    fn error_messages_are_lowercase_and_concise() {
        assert_eq!(
            DecodeCommandError::Empty.to_string(),
            "empty command buffer"
        );
        assert_eq!(
            DecodeCommandError::UnknownTag(0xFF).to_string(),
            "unknown command tag 0xff"
        );
    }
}
