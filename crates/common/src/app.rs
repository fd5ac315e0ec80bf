//! The replicated application abstraction.
//!
//! All protocols in this suite replicate an application implementing
//! [`StateMachine`]. The trait deliberately mirrors what the paper's
//! evaluation needs: deterministic execution, snapshot/restore for
//! checkpointing (Section 4.4), and a CPU *cost model* so that the
//! discrete-event simulator can charge realistic execution time per command
//! — that bounded service rate is what produces the saturation point and the
//! overload-induced tail latency the paper studies.

use std::time::Duration;

/// A deterministic replicated state machine.
///
/// Implementations must be deterministic: executing the same command
/// sequence from the same snapshot yields the same results on every replica.
///
/// # Example
///
/// ```
/// use idem_common::StateMachine;
/// use std::time::Duration;
///
/// /// A state machine that counts the bytes it has executed.
/// #[derive(Default)]
/// struct Counter(u64);
///
/// impl StateMachine for Counter {
///     fn execute(&mut self, command: &[u8]) -> Vec<u8> {
///         self.0 += command.len() as u64;
///         self.0.to_le_bytes().to_vec()
///     }
///     fn execution_cost(&self, _command: &[u8]) -> Duration {
///         Duration::from_micros(1)
///     }
///     fn snapshot(&self) -> Vec<u8> {
///         self.0.to_le_bytes().to_vec()
///     }
///     fn restore(&mut self, snapshot: &[u8]) {
///         self.0 = u64::from_le_bytes(snapshot.try_into().expect("8-byte snapshot"));
///     }
/// }
///
/// let mut sm = Counter::default();
/// sm.execute(b"abc");
/// let snap = sm.snapshot();
/// let mut other = Counter::default();
/// other.restore(&snap);
/// assert_eq!(other.snapshot(), snap);
/// ```
pub trait StateMachine {
    /// Executes `command`, mutating the state, and returns the result that
    /// is sent back to the client in a `REPLY`.
    fn execute(&mut self, command: &[u8]) -> Vec<u8>;

    /// Executes `command`, appending the result to `out` instead of
    /// allocating a fresh `Vec`.
    ///
    /// Replicas drive execution through this entry point with a reused
    /// scratch buffer, so a state machine that overrides it can keep the
    /// execute path allocation-free. The default delegates to
    /// [`execute`](Self::execute). `out` is cleared first; on return it
    /// holds exactly the reply bytes.
    fn execute_into(&mut self, command: &[u8], out: &mut Vec<u8>) {
        out.clear();
        let result = self.execute(command);
        out.extend_from_slice(&result);
    }

    /// The simulated CPU time that executing `command` occupies on a
    /// replica. The simulator charges this to the replica's processor, which
    /// is what bounds the service rate.
    fn execution_cost(&self, command: &[u8]) -> Duration;

    /// Serializes the full application state for a checkpoint.
    fn snapshot(&self) -> Vec<u8>;

    /// Appends exactly the bytes [`snapshot`](Self::snapshot) would
    /// return to `out`.
    ///
    /// The write-ahead log serializes periodic checkpoints through this
    /// entry point straight into the disk record, so a state machine that
    /// overrides it is never copied through an intermediate `Vec`. The
    /// default delegates to [`snapshot`](Self::snapshot).
    fn snapshot_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.snapshot());
    }

    /// The exact byte length [`snapshot`](Self::snapshot) would return,
    /// without materializing it.
    ///
    /// The write-ahead log sizes a checkpoint record with it before
    /// streaming the snapshot in through
    /// [`snapshot_into`](Self::snapshot_into). Implementations that can
    /// answer in O(1) should override the default, which serializes and
    /// measures.
    fn snapshot_len(&self) -> usize {
        self.snapshot().len()
    }

    /// Replaces the application state with a previously taken snapshot.
    fn restore(&mut self, snapshot: &[u8]);
}

/// A trivial no-op state machine for protocol-logic tests: execution echoes
/// the command, costs a configurable constant, and snapshots are empty.
///
/// # Example
/// ```
/// use idem_common::app::NullApp;
/// use idem_common::StateMachine;
/// let mut app = NullApp::default();
/// assert_eq!(app.execute(b"x"), b"x".to_vec());
/// ```
#[derive(Debug, Clone, Default)]
pub struct NullApp {
    cost: Duration,
    executed: u64,
}

impl NullApp {
    /// Creates a null app whose every execution costs `cost` CPU time.
    pub fn with_cost(cost: Duration) -> NullApp {
        NullApp { cost, executed: 0 }
    }

    /// Number of commands executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }
}

impl StateMachine for NullApp {
    fn execute(&mut self, command: &[u8]) -> Vec<u8> {
        self.executed += 1;
        command.to_vec()
    }

    fn execution_cost(&self, _command: &[u8]) -> Duration {
        self.cost
    }

    fn snapshot(&self) -> Vec<u8> {
        self.executed.to_le_bytes().to_vec()
    }

    fn restore(&mut self, snapshot: &[u8]) {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&snapshot[..8]);
        self.executed = u64::from_le_bytes(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_app_roundtrips_snapshot() {
        let mut app = NullApp::default();
        app.execute(b"a");
        app.execute(b"b");
        let snap = app.snapshot();
        let mut other = NullApp::default();
        other.restore(&snap);
        assert_eq!(other.executed(), 2);
    }

    #[test]
    fn null_app_echoes_command() {
        let mut app = NullApp::with_cost(Duration::from_micros(10));
        assert_eq!(app.execute(b"hello"), b"hello");
        assert_eq!(app.execution_cost(b"hello"), Duration::from_micros(10));
    }
}
