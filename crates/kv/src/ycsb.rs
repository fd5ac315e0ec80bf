//! YCSB-style workload generation.
//!
//! Reimplements the core of the Yahoo! Cloud Serving Benchmark generator:
//! a configurable operation mix over a fixed keyspace with zipfian or
//! uniform key popularity. The default [`WorkloadSpec::update_heavy`]
//! mirrors YCSB workload A (50 % reads, 50 % updates, zipfian θ = 0.99),
//! which is the "update-heavy workload" the paper benchmarks with.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::command::{encode_update_with, Command};

/// Key-popularity distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDistribution {
    /// Every key equally likely.
    Uniform,
    /// Zipfian with the given exponent θ (YCSB default 0.99).
    Zipfian(f64),
}

/// Parameters of a workload.
///
/// # Example
/// ```
/// use idem_kv::{KeyDistribution, WorkloadSpec};
/// let spec = WorkloadSpec {
///     keys: 1000,
///     read_fraction: 0.95,
///     value_size: 64,
///     distribution: KeyDistribution::Uniform,
/// };
/// assert!(spec.read_fraction > 0.9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Number of distinct keys in the keyspace.
    pub keys: u64,
    /// Fraction of operations that are reads (the rest are updates).
    pub read_fraction: f64,
    /// Size of written values, in bytes.
    pub value_size: usize,
    /// Key-popularity distribution.
    pub distribution: KeyDistribution,
}

impl WorkloadSpec {
    /// YCSB workload A: 50 % reads / 50 % updates, zipfian keys, 100-byte
    /// values over a 10 000-key space — the paper's benchmark workload.
    pub fn update_heavy() -> WorkloadSpec {
        WorkloadSpec {
            keys: 10_000,
            read_fraction: 0.5,
            value_size: 100,
            distribution: KeyDistribution::Zipfian(0.99),
        }
    }

    /// YCSB workload B: 95 % reads / 5 % updates.
    pub fn read_heavy() -> WorkloadSpec {
        WorkloadSpec {
            read_fraction: 0.95,
            ..WorkloadSpec::update_heavy()
        }
    }

    /// A write-only variant (used to stress value dissemination).
    pub fn write_only(value_size: usize) -> WorkloadSpec {
        WorkloadSpec {
            read_fraction: 0.0,
            value_size,
            ..WorkloadSpec::update_heavy()
        }
    }
}

impl Default for WorkloadSpec {
    fn default() -> WorkloadSpec {
        WorkloadSpec::update_heavy()
    }
}

/// Zipfian integer generator over `0 .. n` using Gray et al.'s rejection
/// inversion-free method (the same construction YCSB uses).
///
/// # Example
/// ```
/// use idem_kv::Zipfian;
/// use rand::{rngs::SmallRng, SeedableRng};
/// let mut z = Zipfian::new(100, 0.99);
/// let mut rng = SmallRng::seed_from_u64(1);
/// let v = z.sample(&mut rng);
/// assert!(v < 100);
/// ```
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    /// `1 + 0.5^θ`: `u·ζ(n)` below it (and at least 1) draws rank 1.
    second: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Creates a generator over `0 .. n` with exponent `theta`.
    ///
    /// # Panics
    /// Panics if `n` is zero or `theta` is not in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Zipfian {
        assert!(n > 0, "zipfian keyspace must not be empty");
        assert!(
            theta > 0.0 && theta < 1.0,
            "zipfian exponent must lie in (0, 1)"
        );
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            second: 1.0 + 0.5f64.powf(theta),
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // For the keyspace sizes used here (≤ ~1e6) a direct sum is fine
        // and exact.
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Draws one sample in `0 .. n`, skewed towards small values.
    pub fn sample(&mut self, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.second {
            return 1;
        }
        let raw = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        raw.min(self.n - 1)
    }

    /// The keyspace size.
    pub fn n(&self) -> u64 {
        self.n
    }
}

/// Stateful workload generator bound to one logical client.
///
/// Each client gets its own generator, so per-client operation streams
/// are independent yet reproducible from the simulation seed. Build one
/// with [`new`](Self::new) per cell and derive the clients' with
/// [`with_salt`](Self::with_salt): `new` sums ζ(n) over the keyspace (10⁴
/// `powf` calls for the paper's workload), `with_salt` reuses it.
#[derive(Debug, Clone)]
pub struct Workload {
    spec: WorkloadSpec,
    zipf: Option<Zipfian>,
    /// Scrambles zipfian ranks onto the keyspace so that popular keys are
    /// spread out (YCSB's "scrambled zipfian").
    scramble: u64,
    issued: u64,
}

impl Workload {
    /// Creates a generator for `spec`; `salt` decorrelates the scrambling
    /// between clients.
    pub fn new(spec: WorkloadSpec, salt: u64) -> Workload {
        let zipf = match spec.distribution {
            KeyDistribution::Zipfian(theta) => Some(Zipfian::new(spec.keys, theta)),
            KeyDistribution::Uniform => None,
        };
        Workload {
            spec,
            zipf,
            scramble: scramble(salt),
            issued: 0,
        }
    }

    /// The generator `Workload::new(*self.spec(), salt)` builds, derived
    /// from this one without re-summing its zipfian constants; nothing is
    /// issued yet.
    pub fn with_salt(&self, salt: u64) -> Workload {
        Workload {
            spec: self.spec,
            zipf: self.zipf.clone(),
            scramble: scramble(salt),
            issued: 0,
        }
    }

    /// The spec this generator was built from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Number of operations generated so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    fn next_key(&mut self, rng: &mut SmallRng) -> u64 {
        let rank = match &mut self.zipf {
            Some(z) => z.sample(rng),
            None => rng.gen_range(0..self.spec.keys),
        };
        // FNV-style scramble keeps the rank→key mapping bijective enough
        // for benchmarking purposes while spreading hot ranks.
        rank.wrapping_mul(self.scramble) % self.spec.keys
    }

    /// Draws the next operation: its key and whether it is a read.
    fn next_draw(&mut self, rng: &mut SmallRng) -> (u64, bool) {
        self.issued += 1;
        let key = self.next_key(rng);
        (key, rng.gen::<f64>() < self.spec.read_fraction)
    }

    /// Generates the next operation as a decoded [`Command`].
    pub fn next_operation(&mut self, rng: &mut SmallRng) -> Command {
        let (key, read) = self.next_draw(rng);
        if read {
            Command::Get { key }
        } else {
            Command::Update {
                key,
                value: self.value(key),
            }
        }
    }

    /// Generates the next operation already encoded for the wire.
    pub fn next_command(&mut self, rng: &mut SmallRng) -> Vec<u8> {
        self.next_operation(rng).encode()
    }

    /// Same operation stream and bytes as [`next_command`](Self::next_command),
    /// written into `out` (previous contents replaced) without building
    /// the [`Command`] or its value first: a caller that reuses `out`
    /// pays no allocation per operation.
    pub fn next_command_into(&mut self, rng: &mut SmallRng, out: &mut Vec<u8>) {
        let (key, read) = self.next_draw(rng);
        if read {
            Command::Get { key }.encode_into(out);
        } else {
            encode_update_with(key, self.spec.value_size, out, |out| {
                self.append_value(key, out)
            });
        }
    }

    fn value(&self, key: u64) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.spec.value_size);
        self.append_value(key, &mut v);
        v
    }

    /// Appends `value_size` bytes of deterministic content derived from
    /// the key: replicas can be compared for state equality in tests.
    fn append_value(&self, key: u64, out: &mut Vec<u8>) {
        let end = out.len() + self.spec.value_size;
        let mut x = key.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(1);
        while out.len() < end {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let bytes = x.to_le_bytes();
            let take = (end - out.len()).min(8);
            out.extend_from_slice(&bytes[..take]);
        }
    }
}

/// The rank multiplier `salt` selects: odd, so multiplying is a
/// bijection on `u64`.
fn scramble(salt: u64) -> u64 {
    salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn zipfian_samples_stay_in_range() {
        let mut z = Zipfian::new(1000, 0.99);
        let mut r = rng(3);
        for _ in 0..10_000 {
            assert!(z.sample(&mut r) < 1000);
        }
    }

    #[test]
    fn zipfian_is_skewed_towards_low_ranks() {
        let mut z = Zipfian::new(10_000, 0.99);
        let mut r = rng(5);
        let mut zero_hits = 0u32;
        let samples = 100_000;
        for _ in 0..samples {
            if z.sample(&mut r) == 0 {
                zero_hits += 1;
            }
        }
        // Rank 0 of zipf(0.99, 10000) carries ~10 % of the mass; uniform
        // would give 0.01 %.
        assert!(
            zero_hits > samples / 50,
            "rank 0 hit only {zero_hits}/{samples} times"
        );
    }

    #[test]
    fn zipfian_low_theta_is_flatter() {
        let mut hi = Zipfian::new(1000, 0.99);
        let mut lo = Zipfian::new(1000, 0.2);
        let mut r1 = rng(9);
        let mut r2 = rng(9);
        let hits =
            |z: &mut Zipfian, r: &mut SmallRng| (0..50_000).filter(|_| z.sample(r) == 0).count();
        let hh = hits(&mut hi, &mut r1);
        let hl = hits(&mut lo, &mut r2);
        assert!(hh > hl * 3, "theta=0.99 hits {hh}, theta=0.2 hits {hl}");
    }

    #[test]
    #[should_panic(expected = "keyspace must not be empty")]
    fn zipfian_rejects_empty_keyspace() {
        let _ = Zipfian::new(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "exponent must lie in (0, 1)")]
    fn zipfian_rejects_invalid_theta() {
        let _ = Zipfian::new(10, 1.0);
    }

    #[test]
    fn workload_mix_matches_read_fraction() {
        let spec = WorkloadSpec {
            keys: 100,
            read_fraction: 0.7,
            value_size: 16,
            distribution: KeyDistribution::Uniform,
        };
        let mut w = Workload::new(spec, 1);
        let mut r = rng(11);
        let total = 20_000;
        let reads = (0..total)
            .filter(|_| matches!(w.next_operation(&mut r), Command::Get { .. }))
            .count();
        let frac = reads as f64 / total as f64;
        assert!((frac - 0.7).abs() < 0.02, "observed read fraction {frac}");
        assert_eq!(w.issued(), total as u64);
    }

    #[test]
    fn update_heavy_defaults_match_paper_workload() {
        let spec = WorkloadSpec::update_heavy();
        assert_eq!(spec.read_fraction, 0.5);
        assert!(
            matches!(spec.distribution, KeyDistribution::Zipfian(t) if (t - 0.99).abs() < 1e-9)
        );
    }

    #[test]
    fn keys_stay_in_keyspace() {
        let mut w = Workload::new(WorkloadSpec::update_heavy(), 99);
        let mut r = rng(13);
        for _ in 0..10_000 {
            match w.next_operation(&mut r) {
                Command::Get { key } | Command::Update { key, .. } => {
                    assert!(key < w.spec().keys);
                }
                other => panic!("unexpected op {other:?}"),
            }
        }
    }

    #[test]
    fn values_have_configured_size_and_are_deterministic() {
        let spec = WorkloadSpec {
            value_size: 100,
            read_fraction: 0.0,
            ..WorkloadSpec::update_heavy()
        };
        let mut w1 = Workload::new(spec, 7);
        let mut w2 = Workload::new(spec, 7);
        let mut r1 = rng(17);
        let mut r2 = rng(17);
        for _ in 0..100 {
            let a = w1.next_operation(&mut r1);
            let b = w2.next_operation(&mut r2);
            assert_eq!(a, b);
            if let Command::Update { value, .. } = a {
                assert_eq!(value.len(), 100);
            }
        }
    }

    #[test]
    fn next_command_into_matches_next_command_byte_for_byte() {
        for value_size in [0, 5, 100, 1024] {
            let spec = WorkloadSpec {
                value_size,
                ..WorkloadSpec::update_heavy()
            };
            let mut w1 = Workload::new(spec, 7);
            let mut w2 = w1.clone();
            let mut r1 = rng(19);
            let mut r2 = rng(19);
            // Stale contents must be replaced, not appended to.
            let mut buf = vec![0xAA; 3];
            for _ in 0..200 {
                w2.next_command_into(&mut r2, &mut buf);
                assert_eq!(buf, w1.next_command(&mut r1));
            }
            assert_eq!(w1.issued(), w2.issued());
        }
    }

    #[test]
    fn with_salt_streams_equal_new_for_every_preset() {
        let uniform = WorkloadSpec {
            distribution: KeyDistribution::Uniform,
            ..WorkloadSpec::update_heavy()
        };
        let presets = [
            WorkloadSpec::update_heavy(),
            WorkloadSpec::read_heavy(),
            WorkloadSpec::write_only(0),
            WorkloadSpec::write_only(1024),
            uniform,
        ];
        for spec in presets {
            let mut base = Workload::new(spec, 0);
            // The base's own history does not leak into what it derives.
            let mut r = rng(29);
            for _ in 0..10 {
                base.next_command(&mut r);
            }
            for salt in [0, 1, 2, 7, 199, u64::MAX] {
                let mut derived = base.with_salt(salt);
                let mut fresh = Workload::new(spec, salt);
                assert_eq!(derived.issued(), 0);
                let (mut r1, mut r2) = (rng(salt ^ 31), rng(salt ^ 31));
                for _ in 0..500 {
                    assert_eq!(
                        derived.next_command(&mut r1),
                        fresh.next_command(&mut r2),
                        "{spec:?} salt {salt}"
                    );
                }
                assert_eq!(derived.issued(), fresh.issued());
            }
        }
    }

    #[test]
    fn different_salts_decorrelate_key_streams() {
        let spec = WorkloadSpec::update_heavy();
        let mut w1 = Workload::new(spec, 1);
        let mut w2 = Workload::new(spec, 2);
        let mut r1 = rng(23);
        let mut r2 = rng(23);
        let k1: Vec<_> = (0..50).map(|_| w1.next_operation(&mut r1)).collect();
        let k2: Vec<_> = (0..50).map(|_| w2.next_operation(&mut r2)).collect();
        assert_ne!(k1, k2);
    }
}
