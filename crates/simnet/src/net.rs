//! The network model: link latency, jitter, loss, and partitions.

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::Rng;

use crate::node::NodeId;

/// Latency/loss characteristics of a point-to-point link.
///
/// Sampled delay is `base + U(0, jitter)`; each message is independently
/// dropped with probability `drop_prob`, modelling the fair-loss links of
/// the paper's system model (Section 2.1).
///
/// # Example
/// ```
/// use idem_simnet::LinkSpec;
/// use std::time::Duration;
/// let lan = LinkSpec::new(Duration::from_micros(80), Duration::from_micros(40));
/// assert_eq!(lan.base(), Duration::from_micros(80));
/// let lossy = lan.with_drop_prob(0.01);
/// assert!((lossy.drop_prob() - 0.01).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    base: Duration,
    jitter: Duration,
    /// `jitter` pre-converted to nanoseconds: sampling runs once per
    /// transmission, and `Duration::as_nanos` is 128-bit math.
    jitter_ns: u64,
    drop_prob: f64,
}

impl LinkSpec {
    /// Creates a lossless link with the given base latency and jitter.
    pub fn new(base: Duration, jitter: Duration) -> LinkSpec {
        LinkSpec {
            base,
            jitter,
            jitter_ns: jitter.as_nanos() as u64,
            drop_prob: 0.0,
        }
    }

    /// Returns a copy with the given independent drop probability.
    ///
    /// # Panics
    /// Panics if `p` is not within `0.0 ..= 1.0`.
    #[must_use]
    pub fn with_drop_prob(mut self, p: f64) -> LinkSpec {
        assert!((0.0..=1.0).contains(&p), "drop probability in 0..=1");
        self.drop_prob = p;
        self
    }

    /// Base one-way latency.
    pub fn base(&self) -> Duration {
        self.base
    }

    /// Maximum additional uniform jitter.
    pub fn jitter(&self) -> Duration {
        self.jitter
    }

    /// Independent per-message drop probability.
    pub fn drop_prob(&self) -> f64 {
        self.drop_prob
    }

    /// Samples the one-way delay for one message, or `None` if the message
    /// is lost.
    pub fn sample(&self, rng: &mut SmallRng) -> Option<Duration> {
        if self.drop_prob > 0.0 && rng.gen::<f64>() < self.drop_prob {
            return None;
        }
        let extra = if self.jitter_ns == 0 {
            0
        } else {
            rng.gen_range(0..=self.jitter_ns)
        };
        Some(self.base + Duration::from_nanos(extra))
    }
}

impl Default for LinkSpec {
    /// A data-center-grade default: 100 µs base, 50 µs jitter, no loss.
    fn default() -> LinkSpec {
        LinkSpec::new(Duration::from_micros(100), Duration::from_micros(50))
    }
}

/// The full network: a default link plus per-pair overrides, directional
/// blocking for partitions, and loopback delay.
///
/// Per-pair state lives in dense N×N matrices indexed by
/// [`NodeId`] (N is the highest node mentioned so far; the matrices grow
/// on demand), so the per-message hot path is two flag tests and at most
/// one array load — no hashing. Runs that never install an override or a
/// block skip the matrices entirely.
#[derive(Debug, Clone)]
pub struct Network {
    default: LinkSpec,
    /// Side length of the dense matrices.
    nodes: usize,
    /// Row-major N×N override matrix; `None` means "use the default".
    overrides: Vec<Option<LinkSpec>>,
    /// Sticky flag: set the first time an override is installed, never
    /// cleared, so chaos-free runs never probe the matrix at all.
    has_overrides: bool,
    /// Row-major N×N blocked matrix.
    blocked: Vec<bool>,
    /// Number of currently blocked ordered pairs; zero short-circuits the
    /// blocked probe.
    blocked_pairs: usize,
    loopback: Duration,
    global_drop: f64,
}

impl Default for Network {
    fn default() -> Network {
        Network::new(LinkSpec::default())
    }
}

impl Network {
    /// Creates a network where every link uses `default`.
    pub fn new(default: LinkSpec) -> Network {
        Network {
            default,
            nodes: 0,
            overrides: Vec::new(),
            has_overrides: false,
            blocked: Vec::new(),
            blocked_pairs: 0,
            loopback: Duration::from_micros(1),
            global_drop: 0.0,
        }
    }

    /// Grows both matrices so that `from` and `to` are in range,
    /// remapping existing entries into the wider rows.
    fn grow_to(&mut self, from: NodeId, to: NodeId) {
        let needed = from.index().max(to.index()) + 1;
        if needed <= self.nodes {
            return;
        }
        let old = self.nodes;
        let mut overrides = vec![None; needed * needed];
        let mut blocked = vec![false; needed * needed];
        for f in 0..old {
            for t in 0..old {
                overrides[f * needed + t] = self.overrides[f * old + t];
                blocked[f * needed + t] = self.blocked[f * old + t];
            }
        }
        self.nodes = needed;
        self.overrides = overrides;
        self.blocked = blocked;
    }

    /// Index of `(from, to)` if both are within the dense matrices.
    fn index(&self, from: NodeId, to: NodeId) -> Option<usize> {
        if from.index() < self.nodes && to.index() < self.nodes {
            Some(from.index() * self.nodes + to.index())
        } else {
            None
        }
    }

    /// Sets an additional network-wide drop probability applied to every
    /// non-loopback message on top of per-link loss, modelling a loss burst
    /// affecting the whole fabric. `0.0` (the default) disables it — and
    /// consumes no randomness, so runs that never touch this knob are
    /// unchanged.
    ///
    /// # Panics
    /// Panics if `p` is not within `0.0 ..= 1.0`.
    pub fn set_global_drop(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "drop probability in 0..=1");
        self.global_drop = p;
    }

    /// The current network-wide drop probability.
    pub fn global_drop(&self) -> f64 {
        self.global_drop
    }

    /// Overrides the link from `from` to `to` (one direction).
    pub fn set_link(&mut self, from: NodeId, to: NodeId, spec: LinkSpec) {
        self.grow_to(from, to);
        let i = self.index(from, to).expect("grown to cover the pair");
        self.overrides[i] = Some(spec);
        self.has_overrides = true;
    }

    /// The spec in effect from `from` to `to`.
    pub fn link(&self, from: NodeId, to: NodeId) -> LinkSpec {
        self.index(from, to)
            .and_then(|i| self.overrides[i])
            .unwrap_or(self.default)
    }

    /// Blocks the directed link `from → to` (messages silently dropped).
    pub fn block(&mut self, from: NodeId, to: NodeId) {
        self.grow_to(from, to);
        let i = self.index(from, to).expect("grown to cover the pair");
        if !self.blocked[i] {
            self.blocked[i] = true;
            self.blocked_pairs += 1;
        }
    }

    /// Unblocks the directed link `from → to`.
    pub fn unblock(&mut self, from: NodeId, to: NodeId) {
        if let Some(i) = self.index(from, to) {
            if self.blocked[i] {
                self.blocked[i] = false;
                self.blocked_pairs -= 1;
            }
        }
    }

    /// Blocks both directions between every node in `a` and every node in
    /// `b`, creating a partition between the two groups.
    pub fn partition(&mut self, a: &[NodeId], b: &[NodeId]) {
        for &x in a {
            for &y in b {
                self.block(x, y);
                self.block(y, x);
            }
        }
    }

    /// Removes all blocking, healing any partition. Keeps the matrix
    /// allocation for the next fault injection.
    pub fn heal(&mut self) {
        self.blocked.fill(false);
        self.blocked_pairs = 0;
    }

    /// Whether the directed link `from → to` is currently blocked.
    pub fn is_blocked(&self, from: NodeId, to: NodeId) -> bool {
        self.index(from, to).is_some_and(|i| self.blocked[i])
    }

    /// The loopback (self-send) delay.
    pub fn loopback(&self) -> Duration {
        self.loopback
    }

    /// Sets the loopback (self-send) delay.
    pub fn set_loopback(&mut self, d: Duration) {
        self.loopback = d;
    }

    /// Samples the delivery delay for a message `from → to`, or `None` if
    /// the message is lost or the link is blocked.
    pub fn sample(&self, rng: &mut SmallRng, from: NodeId, to: NodeId) -> Option<Duration> {
        if from == to {
            return Some(self.loopback);
        }
        // Experiments run with no blocks and no per-link overrides, so the
        // hot path must not pay the matrix loads; the flag checks consume
        // no randomness and change no sampled stream.
        if self.blocked_pairs != 0 && self.is_blocked(from, to) {
            return None;
        }
        if self.global_drop > 0.0 && rng.gen::<f64>() < self.global_drop {
            return None;
        }
        let spec = if !self.has_overrides {
            &self.default
        } else {
            match self.index(from, to) {
                Some(i) => self.overrides[i].as_ref().unwrap_or(&self.default),
                None => &self.default,
            }
        };
        spec.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn sample_within_base_plus_jitter() {
        let spec = LinkSpec::new(Duration::from_micros(100), Duration::from_micros(50));
        let mut r = rng();
        for _ in 0..1000 {
            let d = spec.sample(&mut r).expect("lossless link");
            assert!(d >= Duration::from_micros(100));
            assert!(d <= Duration::from_micros(150));
        }
    }

    #[test]
    fn zero_jitter_is_constant() {
        let spec = LinkSpec::new(Duration::from_micros(10), Duration::ZERO);
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(spec.sample(&mut r), Some(Duration::from_micros(10)));
        }
    }

    #[test]
    fn drop_probability_is_roughly_respected() {
        let spec = LinkSpec::new(Duration::ZERO, Duration::ZERO).with_drop_prob(0.3);
        let mut r = rng();
        let dropped = (0..10_000)
            .filter(|_| spec.sample(&mut r).is_none())
            .count();
        assert!((2_500..3_500).contains(&dropped), "dropped {dropped}/10000");
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn invalid_drop_prob_rejected() {
        let _ = LinkSpec::default().with_drop_prob(1.5);
    }

    #[test]
    fn overrides_take_precedence() {
        let mut net = Network::new(LinkSpec::new(Duration::from_micros(100), Duration::ZERO));
        let fast = LinkSpec::new(Duration::from_micros(1), Duration::ZERO);
        net.set_link(NodeId(0), NodeId(1), fast);
        assert_eq!(net.link(NodeId(0), NodeId(1)), fast);
        // Only one direction was overridden.
        assert_eq!(
            net.link(NodeId(1), NodeId(0)).base(),
            Duration::from_micros(100)
        );
    }

    #[test]
    fn override_matrix_grows_preserving_entries() {
        let mut net = Network::new(LinkSpec::new(Duration::from_micros(100), Duration::ZERO));
        let fast = LinkSpec::new(Duration::from_micros(1), Duration::ZERO);
        let slow = LinkSpec::new(Duration::from_millis(5), Duration::ZERO);
        net.set_link(NodeId(0), NodeId(1), fast);
        net.block(NodeId(1), NodeId(0));
        // Touching a far node forces both matrices to grow and remap.
        net.set_link(NodeId(9), NodeId(3), slow);
        assert_eq!(net.link(NodeId(0), NodeId(1)), fast);
        assert_eq!(net.link(NodeId(9), NodeId(3)), slow);
        assert!(net.is_blocked(NodeId(1), NodeId(0)));
        assert!(!net.is_blocked(NodeId(0), NodeId(1)));
        // Pairs beyond the matrix read as default/unblocked.
        assert_eq!(
            net.link(NodeId(20), NodeId(21)).base(),
            Duration::from_micros(100)
        );
        assert!(!net.is_blocked(NodeId(20), NodeId(21)));
    }

    #[test]
    fn blocking_drops_messages() {
        let mut net = Network::default();
        let mut r = rng();
        net.block(NodeId(0), NodeId(1));
        assert_eq!(net.sample(&mut r, NodeId(0), NodeId(1)), None);
        assert!(net.sample(&mut r, NodeId(1), NodeId(0)).is_some());
        net.unblock(NodeId(0), NodeId(1));
        assert!(net.sample(&mut r, NodeId(0), NodeId(1)).is_some());
    }

    #[test]
    fn partition_blocks_both_directions_and_heals() {
        let mut net = Network::default();
        let mut r = rng();
        net.partition(&[NodeId(0), NodeId(1)], &[NodeId(2)]);
        assert!(net.is_blocked(NodeId(0), NodeId(2)));
        assert!(net.is_blocked(NodeId(2), NodeId(1)));
        assert!(!net.is_blocked(NodeId(0), NodeId(1)));
        net.heal();
        assert!(net.sample(&mut r, NodeId(0), NodeId(2)).is_some());
    }

    #[test]
    fn repeated_block_unblock_keeps_pair_count_consistent() {
        let mut net = Network::default();
        net.block(NodeId(0), NodeId(1));
        net.block(NodeId(0), NodeId(1)); // double block counts once
        net.unblock(NodeId(0), NodeId(1));
        let mut r = rng();
        assert!(net.sample(&mut r, NodeId(0), NodeId(1)).is_some());
        // Unblocking an untouched pair is harmless.
        net.unblock(NodeId(5), NodeId(6));
        assert!(net.sample(&mut r, NodeId(5), NodeId(6)).is_some());
    }

    #[test]
    fn global_drop_loses_messages_everywhere() {
        let mut net = Network::new(LinkSpec::new(Duration::from_micros(10), Duration::ZERO));
        net.set_global_drop(0.5);
        let mut r = rng();
        let dropped = (0..10_000)
            .filter(|_| net.sample(&mut r, NodeId(0), NodeId(1)).is_none())
            .count();
        assert!((4_500..5_500).contains(&dropped), "dropped {dropped}/10000");
        // Loopback is exempt.
        assert!(net.sample(&mut r, NodeId(2), NodeId(2)).is_some());
        net.set_global_drop(0.0);
        assert!(net.sample(&mut r, NodeId(0), NodeId(1)).is_some());
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn invalid_global_drop_rejected() {
        Network::default().set_global_drop(-0.1);
    }

    #[test]
    fn loopback_bypasses_blocking() {
        let mut net = Network::default();
        net.block(NodeId(3), NodeId(3));
        let mut r = rng();
        assert_eq!(
            net.sample(&mut r, NodeId(3), NodeId(3)),
            Some(net.loopback())
        );
    }
}
