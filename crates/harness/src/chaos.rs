//! Deterministic chaos campaign: seeded fault-injection with invariant
//! checking.
//!
//! A [`Schedule`] is a list of timed fault episodes — crashes with
//! recoveries, CPU-degradation intervals, replica partitions, and global
//! loss bursts — drawn from a small grammar with a stable textual form, so
//! every schedule can be printed in a CI log and replayed verbatim:
//!
//! ```text
//! crash(0,412,731);slow(2,4.0,350,600);part(0|1+2,900,1100);loss(0.080,1200,1350)
//! ```
//!
//! - `crash(R,S,E)` — replica `R` crashes at `S` ms and recovers at `E` ms.
//! - `slow(R,F,S,E)` — replica `R` runs `F`× slower between `S` and `E` ms.
//! - `part(G|G,S,E)` — the two replica groups (indexes joined by `+`)
//!   cannot exchange messages between `S` and `E` ms.
//! - `loss(P,S,E)` — every non-loopback message is dropped with
//!   probability `P` between `S` and `E` ms.
//! - `wipe(R,AT[,trunc])` — replica `R` amnesia-crashes at `AT` ms: its
//!   volatile state is destroyed and it reboots instantly from its disk
//!   (with `trunc`, records past the last fsync barrier are lost too,
//!   i.e. power-loss semantics). Wipe schedules run with write-ahead
//!   persistence enabled and non-zero disk latency.
//!
//! [`Schedule::generate`] derives a schedule deterministically from a seed,
//! with safety constraints baked in: at most one node-fault episode and one
//! network-fault episode at a time, every crash paired with a recovery, and
//! all episodes over before [`FAULT_WINDOW_END_MS`]. A campaign run
//! ([`run_campaign`]) replays each seed's schedule against IDEM, Paxos, and
//! BFT-SMaRt, force-heals everything at the end of the fault window, lets
//! the cluster run a fixed cooldown, and then checks the
//! [invariants](crate::invariants) on the artefacts. The per-seed verdict
//! report renders identically for any `--jobs` value.

use std::fmt;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use idem_common::PersistMode;
use idem_simnet::DiskLatency;

use crate::cluster::{build_cluster, ClusterOptions, Protocol};
use crate::invariants::{
    check_agreement, check_client_progress, check_durability, check_exactly_once,
    check_joiner_convergence, check_membership_safety, check_post_heal_liveness,
    check_quorum_availability, check_rejoin_liveness, check_session_order, ViolationKind,
};
use crate::recorder::Recorder;
use crate::sweep::SweepRunner;

/// Virtual time (ms) before which the generator injects no faults — the
/// cluster reaches steady state first.
pub const FAULT_WINDOW_START_MS: u64 = 300;

/// Virtual time (ms) by which every generated episode has ended; the run
/// force-heals all faults at this point regardless of the schedule.
pub const FAULT_WINDOW_END_MS: u64 = 1500;

/// Post-heal cooldown (ms) during which commits must resume and every
/// client must make progress. Must comfortably exceed the protocols'
/// [`PROGRESS_TIMEOUT`](idem_common::PROGRESS_TIMEOUT): a leader that
/// makes its last bit of progress right at the heal boundary only detects
/// the stall one full timeout later, and the view change plus client
/// retransmissions need room after that. "Comfortably" is at least twice
/// the timeout, checked at compile time.
pub const COOLDOWN_MS: u64 = 4000;

const _: () = assert!(COOLDOWN_MS >= 2 * idem_common::PROGRESS_TIMEOUT.as_millis() as u64);

/// Closed-loop clients per chaos run — enough concurrency to exercise
/// forwarding and batching without making 50-seed campaigns slow.
pub const CHAOS_CLIENTS: u32 = 8;

/// One timed fault episode. Times are virtual milliseconds from the start
/// of the run; every episode ends (`end_ms`) as well as starts.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Crash a replica at `start_ms`, recover it at `end_ms`.
    Crash {
        /// Replica index.
        replica: usize,
        /// Crash time (ms).
        start_ms: u64,
        /// Recovery time (ms).
        end_ms: u64,
    },
    /// Degrade a replica's CPU by `factor` for the interval.
    Slow {
        /// Replica index.
        replica: usize,
        /// CPU slowdown multiplier (> 1.0).
        factor: f64,
        /// Degradation start (ms).
        start_ms: u64,
        /// Degradation end (ms).
        end_ms: u64,
    },
    /// Partition two groups of replicas from each other for the interval.
    Partition {
        /// Replica indexes on one side.
        left: Vec<usize>,
        /// Replica indexes on the other side.
        right: Vec<usize>,
        /// Partition start (ms).
        start_ms: u64,
        /// Heal time (ms).
        end_ms: u64,
    },
    /// Drop every non-loopback message with probability `p` for the
    /// interval.
    Loss {
        /// Drop probability in `0..=1`.
        p: f64,
        /// Burst start (ms).
        start_ms: u64,
        /// Burst end (ms).
        end_ms: u64,
    },
    /// Amnesia-crash a replica at `at_ms`: destroy all volatile state and
    /// reboot it instantly from its stable storage.
    Wipe {
        /// Replica index.
        replica: usize,
        /// Wipe time (ms).
        at_ms: u64,
        /// Also truncate the disk at the last fsync barrier (power-loss
        /// semantics) before rebooting.
        trunc: bool,
    },
    /// Churn motion: add replica `replica` to the group at `at_ms` (ordered
    /// through the protocol; the epoch switches when the command executes).
    Join {
        /// Replica index (a spare, i.e. at or past the base cluster size).
        replica: usize,
        /// Injection time (ms).
        at_ms: u64,
    },
    /// Churn motion: remove replica `replica` from the group at `at_ms`.
    Leave {
        /// Replica index.
        replica: usize,
        /// Injection time (ms).
        at_ms: u64,
    },
    /// Churn motion: atomically swap `old` out for `new` at `at_ms` (one
    /// epoch, not two).
    Replace {
        /// The member being removed.
        old: usize,
        /// The spare taking its place.
        new: usize,
        /// Injection time (ms).
        at_ms: u64,
    },
    /// Churn motion: rolling restart of the base members under load.
    /// Expands into one crash per base member: member `i` crashes at
    /// `at_ms + i * gap_ms` and recovers `gap_ms / 2` later, so each
    /// member is back up well before the next one goes down.
    Rolling {
        /// First crash time (ms).
        at_ms: u64,
        /// Spacing between consecutive member restarts (ms).
        gap_ms: u64,
    },
}

impl Fault {
    fn start_ms(&self) -> u64 {
        match self {
            Fault::Crash { start_ms, .. }
            | Fault::Slow { start_ms, .. }
            | Fault::Partition { start_ms, .. }
            | Fault::Loss { start_ms, .. } => *start_ms,
            Fault::Wipe { at_ms, .. }
            | Fault::Join { at_ms, .. }
            | Fault::Leave { at_ms, .. }
            | Fault::Replace { at_ms, .. }
            | Fault::Rolling { at_ms, .. } => *at_ms,
        }
    }

    fn end_ms(&self) -> u64 {
        match self {
            Fault::Crash { end_ms, .. }
            | Fault::Slow { end_ms, .. }
            | Fault::Partition { end_ms, .. }
            | Fault::Loss { end_ms, .. } => *end_ms,
            // Point events; `Rolling` never reaches the edge list (it is
            // expanded into crashes first).
            Fault::Wipe { at_ms, .. }
            | Fault::Join { at_ms, .. }
            | Fault::Leave { at_ms, .. }
            | Fault::Replace { at_ms, .. }
            | Fault::Rolling { at_ms, .. } => *at_ms,
        }
    }

    /// The reconfiguration command a churn motion injects, if this is one.
    /// `Rolling` is churn but not a reconfiguration: it restarts members
    /// without changing the epoch.
    fn reconfig_command(&self) -> Option<idem_common::ReconfigCommand> {
        use idem_common::{ReconfigCommand, ReplicaId};
        match self {
            Fault::Join { replica, .. } => Some(ReconfigCommand::Join(ReplicaId(*replica as u32))),
            Fault::Leave { replica, .. } => {
                Some(ReconfigCommand::Leave(ReplicaId(*replica as u32)))
            }
            Fault::Replace { old, new, .. } => Some(ReconfigCommand::Replace {
                old: ReplicaId(*old as u32),
                new: ReplicaId(*new as u32),
            }),
            _ => None,
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Crash {
                replica,
                start_ms,
                end_ms,
            } => write!(f, "crash({replica},{start_ms},{end_ms})"),
            Fault::Slow {
                replica,
                factor,
                start_ms,
                end_ms,
            } => write!(f, "slow({replica},{factor:.1},{start_ms},{end_ms})"),
            Fault::Partition {
                left,
                right,
                start_ms,
                end_ms,
            } => {
                let join = |g: &[usize]| {
                    g.iter()
                        .map(|i| i.to_string())
                        .collect::<Vec<_>>()
                        .join("+")
                };
                write!(
                    f,
                    "part({}|{},{start_ms},{end_ms})",
                    join(left),
                    join(right)
                )
            }
            Fault::Loss {
                p,
                start_ms,
                end_ms,
            } => {
                write!(f, "loss({p:.3},{start_ms},{end_ms})")
            }
            Fault::Wipe {
                replica,
                at_ms,
                trunc,
            } => {
                let suffix = if *trunc { ",trunc" } else { "" };
                write!(f, "wipe({replica},{at_ms}{suffix})")
            }
            Fault::Join { replica, at_ms } => write!(f, "join({replica},{at_ms})"),
            Fault::Leave { replica, at_ms } => write!(f, "leave({replica},{at_ms})"),
            Fault::Replace { old, new, at_ms } => write!(f, "replace({old},{new},{at_ms})"),
            Fault::Rolling { at_ms, gap_ms } => write!(f, "rolling({at_ms},{gap_ms})"),
        }
    }
}

/// The four churn motion families a churn campaign exercises per seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnFamily {
    /// One or two spares join the group.
    Join,
    /// A member leaves the group.
    Leave,
    /// A member is atomically swapped for a spare.
    Replace,
    /// Rolling restart of every base member under load (no epoch change).
    Rolling,
}

impl ChurnFamily {
    /// All families, in campaign order.
    pub const ALL: [ChurnFamily; 4] = [
        ChurnFamily::Join,
        ChurnFamily::Leave,
        ChurnFamily::Replace,
        ChurnFamily::Rolling,
    ];
}

/// A complete fault schedule for one chaos run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    /// The episodes, in the order they were generated or parsed.
    pub faults: Vec<Fault>,
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.faults.is_empty() {
            return write!(f, "none");
        }
        let parts: Vec<String> = self.faults.iter().map(Fault::to_string).collect();
        write!(f, "{}", parts.join(";"))
    }
}

impl Schedule {
    /// Generates the schedule for `seed` over a cluster of `replicas`
    /// nodes. Deterministic: the same seed always yields the same
    /// schedule. Two independent fault tracks run over the fault window —
    /// a node track (crash / slow episodes, never concurrent with each
    /// other, so at most `f = 1` replica is ever down) and a network track
    /// (partition / loss episodes) — with idle gaps between episodes.
    pub fn generate(seed: u64, replicas: usize) -> Schedule {
        assert!(replicas >= 2, "need at least two replicas to fault");
        let mut rng =
            SmallRng::seed_from_u64(seed.wrapping_mul(0xA24B_AED4_963E_E407).wrapping_add(5));
        let mut faults = Vec::new();

        // Node-fault track: crashes and CPU degradations, one at a time.
        let mut cursor = FAULT_WINDOW_START_MS + rng.gen_range(0..200_u64);
        while cursor + 100 < FAULT_WINDOW_END_MS {
            let dur = rng
                .gen_range(100..=400_u64)
                .min(FAULT_WINDOW_END_MS - cursor);
            let replica = rng.gen_range(0..replicas);
            if rng.gen_bool(0.6) {
                faults.push(Fault::Crash {
                    replica,
                    start_ms: cursor,
                    end_ms: cursor + dur,
                });
            } else {
                let factor = f64::from(rng.gen_range(20..=80_u32)) / 10.0;
                faults.push(Fault::Slow {
                    replica,
                    factor,
                    start_ms: cursor,
                    end_ms: cursor + dur,
                });
            }
            cursor += dur + rng.gen_range(50..=250_u64);
        }

        // Network-fault track: partitions and loss bursts, one at a time.
        let mut cursor = FAULT_WINDOW_START_MS + rng.gen_range(0..300_u64);
        while cursor + 100 < FAULT_WINDOW_END_MS {
            let dur = rng
                .gen_range(100..=300_u64)
                .min(FAULT_WINDOW_END_MS - cursor);
            if rng.gen_bool(0.5) {
                // Isolate one replica from the rest.
                let isolated = rng.gen_range(0..replicas);
                let rest: Vec<usize> = (0..replicas).filter(|&i| i != isolated).collect();
                faults.push(Fault::Partition {
                    left: vec![isolated],
                    right: rest,
                    start_ms: cursor,
                    end_ms: cursor + dur,
                });
            } else {
                let p = f64::from(rng.gen_range(10..=150_u32)) / 1000.0;
                faults.push(Fault::Loss {
                    p,
                    start_ms: cursor,
                    end_ms: cursor + dur,
                });
            }
            cursor += dur + rng.gen_range(100..=400_u64);
        }

        Schedule { faults }
    }

    /// Extends [`generate`](Schedule::generate) with one or two amnesia
    /// wipes, drawn from an independent RNG stream so the wipe-free
    /// schedule of a seed is byte-identical to what `generate` yields —
    /// the wipe episodes are strictly appended. Wipe times avoid the
    /// wiped replica's own crash spans: wiping a crashed node would
    /// implicitly resurrect it and distort the crash episode.
    pub fn generate_with_wipes(seed: u64, replicas: usize) -> Schedule {
        let mut schedule = Schedule::generate(seed, replicas);
        let mut rng =
            SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(11));
        let wipes = rng.gen_range(1..=2_usize);
        for _ in 0..wipes {
            // Rejection-sample a (replica, time) clear of that replica's
            // crash spans; with crashes covering at most a third of the
            // window this converges almost immediately.
            for _attempt in 0..32 {
                let replica = rng.gen_range(0..replicas);
                let at_ms = rng.gen_range(FAULT_WINDOW_START_MS..FAULT_WINDOW_END_MS);
                let clear = schedule.faults.iter().all(|f| match f {
                    Fault::Crash {
                        replica: r,
                        start_ms,
                        end_ms,
                    } => *r != replica || at_ms < *start_ms || at_ms >= *end_ms,
                    _ => true,
                });
                if clear {
                    schedule.faults.push(Fault::Wipe {
                        replica,
                        at_ms,
                        trunc: rng.gen_bool(0.5),
                    });
                    break;
                }
            }
        }
        schedule
    }

    /// Parses the textual form produced by [`Display`](fmt::Display):
    /// `;`-separated episodes, e.g.
    /// `crash(0,412,731);part(0|1+2,900,1100)`. `none` parses to the empty
    /// schedule.
    pub fn parse(text: &str) -> Result<Schedule, String> {
        let text = text.trim();
        if text.is_empty() || text == "none" {
            return Ok(Schedule::default());
        }
        let mut faults = Vec::new();
        for part in text.split(';') {
            faults.push(Self::parse_fault(part.trim())?);
        }
        Ok(Schedule { faults })
    }

    fn parse_fault(text: &str) -> Result<Fault, String> {
        let (name, rest) = text
            .split_once('(')
            .ok_or_else(|| format!("malformed episode '{text}': expected name(args)"))?;
        let args = rest
            .strip_suffix(')')
            .ok_or_else(|| format!("malformed episode '{text}': missing ')'"))?;
        let fields: Vec<&str> = args.split(',').collect();
        let int = |s: &str| -> Result<u64, String> {
            s.trim()
                .parse::<u64>()
                .map_err(|_| format!("bad integer '{s}' in '{text}'"))
        };
        let float = |s: &str| -> Result<f64, String> {
            let v = s
                .trim()
                .parse::<f64>()
                .map_err(|_| format!("bad number '{s}' in '{text}'"))?;
            if !v.is_finite() {
                return Err(format!("non-finite number '{s}' in '{text}'"));
            }
            Ok(v)
        };
        let span = |start: u64, end: u64| -> Result<(), String> {
            if end <= start {
                Err(format!("empty interval {start}..{end} in '{text}'"))
            } else {
                Ok(())
            }
        };
        match (name.trim(), fields.as_slice()) {
            ("crash", [r, s, e]) => {
                let (start_ms, end_ms) = (int(s)?, int(e)?);
                span(start_ms, end_ms)?;
                Ok(Fault::Crash {
                    replica: int(r)? as usize,
                    start_ms,
                    end_ms,
                })
            }
            ("slow", [r, f, s, e]) => {
                let factor = float(f)?;
                if factor <= 1.0 {
                    return Err(format!("slow factor must exceed 1.0 in '{text}'"));
                }
                let (start_ms, end_ms) = (int(s)?, int(e)?);
                span(start_ms, end_ms)?;
                Ok(Fault::Slow {
                    replica: int(r)? as usize,
                    factor,
                    start_ms,
                    end_ms,
                })
            }
            ("part", [groups, s, e]) => {
                let (l, r) = groups
                    .split_once('|')
                    .ok_or_else(|| format!("partition groups need '|' in '{text}'"))?;
                let group = |g: &str| -> Result<Vec<usize>, String> {
                    g.split('+').map(|i| Ok(int(i)? as usize)).collect()
                };
                let (left, right) = (group(l)?, group(r)?);
                if left.is_empty() || right.is_empty() {
                    return Err(format!("empty partition group in '{text}'"));
                }
                let (start_ms, end_ms) = (int(s)?, int(e)?);
                span(start_ms, end_ms)?;
                Ok(Fault::Partition {
                    left,
                    right,
                    start_ms,
                    end_ms,
                })
            }
            ("loss", [p, s, e]) => {
                let p = float(p)?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("loss probability outside 0..=1 in '{text}'"));
                }
                let (start_ms, end_ms) = (int(s)?, int(e)?);
                span(start_ms, end_ms)?;
                Ok(Fault::Loss {
                    p,
                    start_ms,
                    end_ms,
                })
            }
            ("wipe", [r, at]) => Ok(Fault::Wipe {
                replica: int(r)? as usize,
                at_ms: int(at)?,
                trunc: false,
            }),
            ("wipe", [r, at, t]) => {
                if t.trim() != "trunc" {
                    return Err(format!("wipe's third argument must be 'trunc' in '{text}'"));
                }
                Ok(Fault::Wipe {
                    replica: int(r)? as usize,
                    at_ms: int(at)?,
                    trunc: true,
                })
            }
            ("join", [r, at]) => Ok(Fault::Join {
                replica: int(r)? as usize,
                at_ms: int(at)?,
            }),
            ("leave", [r, at]) => Ok(Fault::Leave {
                replica: int(r)? as usize,
                at_ms: int(at)?,
            }),
            ("replace", [old, new, at]) => {
                let (old, new) = (int(old)? as usize, int(new)? as usize);
                if old == new {
                    return Err(format!("replace needs two distinct replicas in '{text}'"));
                }
                Ok(Fault::Replace {
                    old,
                    new,
                    at_ms: int(at)?,
                })
            }
            ("rolling", [at, gap]) => {
                let gap_ms = int(gap)?;
                if gap_ms < 100 {
                    return Err(format!(
                        "rolling gap must be at least 100 ms in '{text}': each member \
                         is down for half a gap and must recover before the next restart"
                    ));
                }
                Ok(Fault::Rolling {
                    at_ms: int(at)?,
                    gap_ms,
                })
            }
            _ => Err(format!(
                "unknown episode '{text}': expected crash(R,S,E), slow(R,F,S,E), \
                 part(G|G,S,E), loss(P,S,E), wipe(R,AT[,trunc]), join(R,AT), \
                 leave(R,AT), replace(A,B,AT), or rolling(AT,GAP)"
            )),
        }
    }

    /// Checks every referenced replica index against the cluster size.
    pub fn validate(&self, replicas: usize) -> Result<(), String> {
        let check = |i: usize| -> Result<(), String> {
            if i < replicas {
                Ok(())
            } else {
                Err(format!(
                    "replica index {i} out of range for {replicas} replicas"
                ))
            }
        };
        for fault in &self.faults {
            match fault {
                Fault::Crash { replica, .. }
                | Fault::Slow { replica, .. }
                | Fault::Wipe { replica, .. }
                | Fault::Join { replica, .. }
                | Fault::Leave { replica, .. } => check(*replica)?,
                Fault::Replace { old, new, .. } => {
                    check(*old)?;
                    check(*new)?;
                    if old == new {
                        return Err(format!("replace({old},{new}): replicas must differ"));
                    }
                }
                Fault::Partition { left, right, .. } => {
                    for &i in left.iter().chain(right) {
                        check(i)?;
                    }
                }
                Fault::Loss { .. } | Fault::Rolling { .. } => {}
            }
        }
        Ok(())
    }

    /// Whether the schedule contains any churn motion (join / leave /
    /// replace / rolling). Without one, the whole membership layer stays
    /// inert and the run is byte-identical to a fixed-membership run.
    pub fn has_churn(&self) -> bool {
        self.faults.iter().any(|f| {
            matches!(
                f,
                Fault::Join { .. }
                    | Fault::Leave { .. }
                    | Fault::Replace { .. }
                    | Fault::Rolling { .. }
            )
        })
    }

    /// How many replica nodes (members plus spares) the schedule needs: the
    /// base cluster size, extended past any replica index a churn motion
    /// references — a `join(4,...)` on a 3-replica cluster needs nodes 3
    /// and 4 reserved as spares.
    pub fn required_replicas(&self, base: usize) -> usize {
        let mut need = base;
        for fault in &self.faults {
            match fault {
                Fault::Join { replica, .. } | Fault::Leave { replica, .. } => {
                    need = need.max(replica + 1);
                }
                Fault::Replace { old, new, .. } => {
                    need = need.max(old.max(new) + 1);
                }
                _ => {}
            }
        }
        need
    }

    /// Replaces every [`Fault::Rolling`] with its expansion: one crash per
    /// base member, `gap_ms` apart, each down for half a gap. Everything
    /// else passes through unchanged, so a rolling-free schedule comes back
    /// identical.
    fn expand_rolling(&self, base: usize) -> Schedule {
        let mut faults = Vec::with_capacity(self.faults.len());
        for fault in &self.faults {
            match fault {
                Fault::Rolling { at_ms, gap_ms } => {
                    for i in 0..base {
                        let start_ms = at_ms + i as u64 * gap_ms;
                        faults.push(Fault::Crash {
                            replica: i,
                            start_ms,
                            end_ms: start_ms + gap_ms / 2,
                        });
                    }
                }
                other => faults.push(other.clone()),
            }
        }
        Schedule { faults }
    }

    /// Generates a churn schedule for `seed` from one of the four motion
    /// families. Deterministic, like [`generate`](Schedule::generate), but
    /// drawn from an independent RNG stream keyed on the family so the
    /// four schedules of one seed are independent draws.
    pub fn generate_churn(seed: u64, base: usize, family: ChurnFamily) -> Schedule {
        assert!(base >= 2, "need at least two replicas to reconfigure");
        let mut rng = SmallRng::seed_from_u64(
            seed.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                .wrapping_add(23 + family as u64),
        );
        let mut faults = Vec::new();
        match family {
            ChurnFamily::Join => {
                faults.push(Fault::Join {
                    replica: base,
                    at_ms: rng.gen_range(400..=700),
                });
                if rng.gen_bool(0.5) {
                    faults.push(Fault::Join {
                        replica: base + 1,
                        at_ms: rng.gen_range(900..=1200),
                    });
                }
            }
            ChurnFamily::Leave => {
                faults.push(Fault::Leave {
                    replica: rng.gen_range(0..base),
                    at_ms: rng.gen_range(400..=700),
                });
            }
            ChurnFamily::Replace => {
                faults.push(Fault::Replace {
                    old: rng.gen_range(0..base),
                    new: base,
                    at_ms: rng.gen_range(400..=700),
                });
            }
            ChurnFamily::Rolling => {
                faults.push(Fault::Rolling {
                    at_ms: rng.gen_range(FAULT_WINDOW_START_MS..=450),
                    gap_ms: rng.gen_range(300..=500),
                });
            }
        }
        Schedule { faults }
    }

    /// The virtual time at which everything is force-healed: the end of
    /// the fault window or the last episode's end, whichever is later.
    pub fn heal_at_ms(&self) -> u64 {
        self.faults
            .iter()
            .map(Fault::end_ms)
            .max()
            .unwrap_or(0)
            .max(FAULT_WINDOW_END_MS)
    }
}

/// Timeline edge: a fault starting or ending.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Edge {
    End,
    Start,
}

/// Harness-side mirror of the group's reconfiguration history. The runner
/// replays every injected command through its own [`Membership`] copy, so
/// it can predict the epoch and member list each motion must produce —
/// that is what convergence polling waits for and what the
/// quorum-availability check compares executed epochs against.
///
/// [`Membership`]: idem_common::Membership
struct ChurnState {
    shadow: idem_common::Membership,
    /// Op number of the next reconfiguration command; they share the
    /// [`RECONFIG_CLIENT`](idem_common::RECONFIG_CLIENT) session, so each
    /// motion needs a distinct op to survive deduplication.
    next_op: u64,
    /// Injected motions not yet adopted by every expected member:
    /// `(inject_ms, expected epoch, expected member indexes)`.
    pending: Vec<(u64, u64, Vec<usize>)>,
    /// Member indexes per epoch, indexed by epoch number.
    epoch_members: Vec<Vec<usize>>,
    /// Replicas added by some motion (join targets and replace-ins).
    joiners: std::collections::BTreeSet<usize>,
    /// Worst injection-to-adoption time over all motions (ms), once every
    /// motion has converged.
    reconfig_ms: Option<u64>,
}

impl ChurnState {
    fn new(base: usize) -> ChurnState {
        ChurnState {
            shadow: idem_common::Membership::bootstrap(base as u32),
            next_op: 1,
            pending: Vec::new(),
            epoch_members: vec![(0..base).collect()],
            joiners: std::collections::BTreeSet::new(),
            reconfig_ms: None,
        }
    }

    fn inject(
        &mut self,
        cluster: &mut crate::cluster::ClusterHandles,
        now_ms: u64,
        cmd: &idem_common::ReconfigCommand,
    ) {
        cluster.inject_reconfig(self.next_op, cmd);
        self.next_op += 1;
        if let Some(j) = cmd.added() {
            self.joiners.insert(j.0 as usize);
        }
        self.shadow.apply(cmd);
        let members: Vec<usize> = self.shadow.members().iter().map(|r| r.0 as usize).collect();
        self.epoch_members.push(members.clone());
        self.pending.push((now_ms, self.shadow.epoch().0, members));
    }

    /// Retires every pending motion whose expected members have all
    /// reached (at least) its epoch, folding the elapsed time into
    /// `reconfig_ms`.
    fn poll(&mut self, cluster: &crate::cluster::ClusterHandles, now_ms: u64) {
        let reconfig_ms = &mut self.reconfig_ms;
        self.pending.retain(|(inject_ms, epoch, members)| {
            let adopted = members.iter().all(|&r| cluster.epoch(r) >= *epoch);
            if adopted {
                let ms = now_ms - inject_ms;
                *reconfig_ms = Some(reconfig_ms.map_or(ms, |m| m.max(ms)));
            }
            !adopted
        });
    }

    fn final_members(&self) -> &[usize] {
        self.epoch_members.last().expect("epoch 0 always present")
    }
}

/// Advances the cluster to `to_ms`. While reconfiguration motions are
/// pending adoption, virtual time moves in 10 ms steps with a convergence
/// poll after each, so `reconfig_ms` has 10 ms resolution; otherwise one
/// jump, which keeps churn-free runs event-for-event identical to the
/// pre-churn runner.
fn advance_to(
    cluster: &mut crate::cluster::ClusterHandles,
    now_ms: &mut u64,
    to_ms: u64,
    churn: &mut ChurnState,
) {
    while *now_ms < to_ms {
        let step = if churn.pending.is_empty() {
            to_ms - *now_ms
        } else {
            (to_ms - *now_ms).min(10)
        };
        cluster.run_for(Duration::from_millis(step));
        *now_ms += step;
        if !churn.pending.is_empty() {
            churn.poll(cluster, *now_ms);
        }
    }
}

/// The verdict of one (protocol, seed) chaos run.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// Protocol label.
    pub protocol: &'static str,
    /// The seed that produced (or replayed) the schedule.
    pub seed: u64,
    /// The schedule that was injected, in replayable textual form.
    pub schedule: String,
    /// Invariant violations (empty = verdict ok).
    pub violations: Vec<ViolationKind>,
    /// Successful operations over the whole run.
    pub successes: u64,
    /// Rejected operations over the whole run.
    pub rejections: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Per-kind dispatch breakdown and queue high-water mark.
    pub event_stats: idem_simnet::EventStats,
    /// For wipe schedules: virtual ms after the force-heal until every
    /// wiped replica had caught up to the surviving replicas' decision
    /// frontier (measured in 50 ms steps). `None` when the schedule has
    /// no wipes, or when a wiped replica never caught up.
    pub rejoin_ms: Option<u64>,
    /// For reconfiguring schedules: worst virtual ms from injecting a
    /// motion until every member of the new epoch had adopted it (measured
    /// in 10 ms steps). `None` when the schedule reconfigures nothing, or
    /// when a motion never converged.
    pub reconfig_ms: Option<u64>,
    /// Highest epoch any replica reached by the end of the run. Zero for
    /// reconfiguration-free runs.
    pub epochs_applied: u64,
    /// View changes completed, summed across replicas (whichever protocol
    /// is running). Zero when no leader was ever displaced.
    pub view_changes: u64,
}

impl ChaosRun {
    /// True when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs one protocol under one schedule and checks all invariants.
pub fn run_chaos(protocol: &Protocol, seed: u64, schedule: &Schedule) -> ChaosRun {
    run_chaos_impl(protocol, seed, schedule, None)
}

/// Like [`run_chaos`] but forcing the replicas' persistence mode. This is
/// the hook the test suite uses to prove the durability invariant has
/// teeth: a deliberately broken mode ([`PersistMode::WalNoFsync`]) under a
/// truncating wipe must produce a durability violation.
pub fn run_chaos_with_mode(
    protocol: &Protocol,
    seed: u64,
    schedule: &Schedule,
    persist: PersistMode,
) -> ChaosRun {
    run_chaos_impl(protocol, seed, schedule, Some(persist))
}

fn run_chaos_impl(
    protocol: &Protocol,
    seed: u64,
    schedule: &Schedule,
    persist_override: Option<PersistMode>,
) -> ChaosRun {
    let base = protocol.replica_count() as usize;
    // Churn motions referencing indexes past the base size need those
    // nodes reserved as spares; without churn, total == base and the
    // cluster is byte-identical to the fixed-membership build.
    let total = schedule.required_replicas(base);
    schedule
        .validate(total)
        .unwrap_or_else(|e| panic!("invalid schedule for {}: {e}", protocol.name()));
    // Rolling restarts become per-member crash sequences before anything
    // else looks at the schedule; the report keeps the original text.
    let effective = schedule.expand_rolling(base);
    // Persistence and disk latency engage only for wipe schedules, so
    // wipe-free campaigns stay byte-identical to the pre-durability runs.
    let has_wipes = effective
        .faults
        .iter()
        .any(|f| matches!(f, Fault::Wipe { .. }));
    let (persist, disk_latency) = if has_wipes {
        (
            persist_override.unwrap_or(PersistMode::Wal),
            DiskLatency {
                append: Duration::from_micros(2),
                fsync: Duration::from_micros(25),
            },
        )
    } else {
        (
            persist_override.unwrap_or(PersistMode::Disabled),
            DiskLatency::default(),
        )
    };
    let opts = ClusterOptions {
        clients: CHAOS_CLIENTS,
        seed,
        warmup: Duration::ZERO,
        record_exec_log: true,
        persist,
        disk_latency,
        spares: (total - base) as u32,
        ..ClusterOptions::default()
    };
    let mut cluster = build_cluster(protocol, &opts);

    // Flatten the schedule into a sorted edge list. Ends sort before
    // starts at equal times so back-to-back episodes on one replica do
    // not overlap; fault index breaks remaining ties deterministically.
    let mut edges: Vec<(u64, Edge, usize)> = Vec::new();
    for (i, fault) in effective.faults.iter().enumerate() {
        edges.push((fault.start_ms(), Edge::Start, i));
        edges.push((fault.end_ms(), Edge::End, i));
    }
    edges.sort();

    let mut now_ms = 0u64;
    let mut churn = ChurnState::new(base);

    // Active network faults, tracked so healing one partition can
    // re-apply any that should still hold (the generator never overlaps
    // them, but hand-written schedules may).
    let mut active_partitions: Vec<usize> = Vec::new();
    let mut active_loss: Vec<usize> = Vec::new();

    // Durability bookkeeping: each wipe snapshots the victim's execution
    // log the instant before its volatile state is destroyed — everything
    // in that snapshot must reappear in the recovered replica's log.
    let mut pre_wipe: Vec<(usize, Vec<idem_common::ExecRecord>)> = Vec::new();
    let mut wiped: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();

    for (t, edge, i) in edges {
        advance_to(&mut cluster, &mut now_ms, t, &mut churn);
        match (&effective.faults[i], edge) {
            (Fault::Crash { replica, .. }, Edge::Start) => cluster.crash_replica(*replica),
            (Fault::Crash { replica, .. }, Edge::End) => cluster.recover_replica(*replica),
            (
                Fault::Slow {
                    replica, factor, ..
                },
                Edge::Start,
            ) => {
                cluster.set_replica_cpu_factor(*replica, *factor);
            }
            (Fault::Slow { replica, .. }, Edge::End) => {
                cluster.set_replica_cpu_factor(*replica, 1.0);
            }
            (Fault::Partition { left, right, .. }, Edge::Start) => {
                active_partitions.push(i);
                cluster.partition_replicas(left, right);
            }
            (Fault::Partition { .. }, Edge::End) => {
                active_partitions.retain(|&j| j != i);
                cluster.heal_partitions();
                for &j in &active_partitions {
                    if let Fault::Partition { left, right, .. } = &effective.faults[j] {
                        cluster.partition_replicas(left, right);
                    }
                }
            }
            (Fault::Loss { p, .. }, Edge::Start) => {
                active_loss.push(i);
                cluster.set_global_loss(*p);
            }
            (Fault::Loss { .. }, Edge::End) => {
                active_loss.retain(|&j| j != i);
                let p = active_loss
                    .last()
                    .and_then(|&j| match &effective.faults[j] {
                        Fault::Loss { p, .. } => Some(*p),
                        _ => None,
                    })
                    .unwrap_or(0.0);
                cluster.set_global_loss(p);
            }
            (Fault::Wipe { replica, trunc, .. }, Edge::Start) => {
                pre_wipe.push((*replica, cluster.exec_log(*replica)));
                wiped.insert(*replica);
                cluster.wipe_replica(*replica, *trunc);
            }
            // A wipe is instantaneous; its end edge carries no action.
            (Fault::Wipe { .. }, Edge::End) => {}
            // Churn motions are point events too: inject the command like
            // a client would and let the protocol order it.
            (Fault::Join { .. }, Edge::Start)
            | (Fault::Leave { .. }, Edge::Start)
            | (Fault::Replace { .. }, Edge::Start) => {
                let cmd = effective.faults[i]
                    .reconfig_command()
                    .expect("churn motion has a command");
                churn.inject(&mut cluster, now_ms, &cmd);
            }
            (Fault::Join { .. }, Edge::End)
            | (Fault::Leave { .. }, Edge::End)
            | (Fault::Replace { .. }, Edge::End) => {}
            (Fault::Rolling { .. }, _) => {
                unreachable!("rolling motions are expanded before execution")
            }
        }
    }

    // Force-heal everything at the end of the fault window — a safety net
    // so even a hand-written schedule without recoveries yields a run
    // whose post-heal phase is meaningful.
    advance_to(
        &mut cluster,
        &mut now_ms,
        effective.heal_at_ms(),
        &mut churn,
    );
    for r in 0..total {
        cluster.recover_replica(r);
        cluster.set_replica_cpu_factor(r, 1.0);
    }
    cluster.heal_partitions();
    cluster.set_global_loss(0.0);

    let successes_at_heal = cluster.recorder.with(Recorder::successes);
    let last_ops_at_heal = cluster.recorder.with(Recorder::last_ops);

    let heal_ms = effective.heal_at_ms();
    let deadline_ms = heal_ms + COOLDOWN_MS;
    // Post-heal catch-up set: wiped replicas must regain the survivors'
    // frontier, and joiners must reach the group's frontier — both within
    // the cooldown. A wiped replica that also departed is excluded; it is
    // out of the group and only serves checkpoints from here on.
    let final_members: std::collections::BTreeSet<usize> =
        churn.final_members().iter().copied().collect();
    let rejoin_set: std::collections::BTreeSet<usize> =
        wiped.intersection(&final_members).copied().collect();
    let join_set: std::collections::BTreeSet<usize> = churn
        .joiners
        .intersection(&final_members)
        .copied()
        .collect();
    let stragglers: std::collections::BTreeSet<usize> =
        rejoin_set.union(&join_set).copied().collect();
    let mut straggler_ms = None;
    let mut catchup_goal = 0_u64;
    if stragglers.is_empty() {
        advance_to(&mut cluster, &mut now_ms, deadline_ms, &mut churn);
    } else {
        // Every straggler must catch up to the frontier the untouched
        // members had already reached at heal time, within the cooldown.
        // Polled in 50 ms steps so the report can show a per-seed
        // time-to-rejoin.
        catchup_goal = final_members
            .iter()
            .filter(|r| !stragglers.contains(r))
            .map(|&r| cluster.exec_frontier(r))
            .max()
            .unwrap_or(0);
        let mut t = heal_ms;
        loop {
            if stragglers
                .iter()
                .all(|&r| cluster.exec_frontier(r) >= catchup_goal)
            {
                straggler_ms = Some(t - heal_ms);
                break;
            }
            if t >= deadline_ms {
                break;
            }
            t = (t + 50).min(deadline_ms);
            advance_to(&mut cluster, &mut now_ms, t, &mut churn);
        }
        advance_to(&mut cluster, &mut now_ms, deadline_ms, &mut churn);
    }
    // `rejoin_ms` keeps its pre-churn meaning: reported for wipe schedules
    // only, so wipe-free chaos reports render unchanged.
    let rejoin_ms = if wiped.is_empty() { None } else { straggler_ms };
    churn.poll(&cluster, now_ms);

    let successes = cluster.recorder.with(Recorder::successes);
    let rejections = cluster.recorder.with(Recorder::rejections);
    let last_ops = cluster.recorder.with(Recorder::last_ops);
    let order_violations = cluster.recorder.with(Recorder::order_violations);
    let logs: Vec<Vec<idem_common::ExecRecord>> = (0..total).map(|i| cluster.exec_log(i)).collect();

    let mut violations = Vec::new();
    violations.extend(check_agreement(&logs));
    violations.extend(check_exactly_once(&logs));
    violations.extend(check_membership_safety(&logs));
    for (replica, pre) in &pre_wipe {
        violations.extend(check_durability(*replica, pre, &logs[*replica]));
    }
    violations.extend(check_client_progress(
        CHAOS_CLIENTS,
        &last_ops_at_heal,
        &last_ops,
    ));
    violations.extend(check_post_heal_liveness(successes_at_heal, successes));
    for &r in &rejoin_set {
        let frontier = cluster.exec_frontier(r);
        violations.extend(check_rejoin_liveness(
            r,
            frontier >= catchup_goal,
            frontier,
            catchup_goal,
            COOLDOWN_MS,
        ));
    }
    for &r in &join_set {
        let frontier = cluster.exec_frontier(r);
        violations.extend(check_joiner_convergence(
            r,
            frontier >= catchup_goal,
            frontier,
            catchup_goal,
            COOLDOWN_MS,
        ));
    }
    if churn.shadow.epoch().0 > 0 {
        violations.extend(check_quorum_availability(&logs, &churn.epoch_members));
        for (inject_ms, epoch, _) in &churn.pending {
            violations.push(ViolationKind::ReconfigStall {
                epoch: *epoch,
                waited_ms: now_ms - inject_ms,
            });
        }
    }
    violations.extend(check_session_order(order_violations));

    let epochs_applied = (0..total).map(|r| cluster.epoch(r)).max().unwrap_or(0);
    let view_changes = (0..total)
        .map(|r| {
            cluster
                .idem_stats(r)
                .map(|s| s.view_changes_completed)
                .or_else(|| cluster.paxos_stats(r).map(|s| s.view_changes_completed))
                .or_else(|| cluster.smart_stats(r).map(|s| s.view_changes_completed))
                .unwrap_or(0)
        })
        .sum();
    ChaosRun {
        protocol: protocol.name(),
        seed,
        schedule: schedule.to_string(),
        violations,
        successes,
        rejections,
        events: cluster.events_processed(),
        event_stats: cluster.event_stats(),
        rejoin_ms,
        reconfig_ms: churn.reconfig_ms,
        epochs_applied,
        view_changes,
    }
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// First seed of the campaign.
    pub start_seed: u64,
    /// Number of seeds (each runs once per protocol).
    pub seeds: u64,
    /// Fixed schedule replayed for every seed instead of generating one
    /// per seed — the repro path for a CI-reported violation.
    pub schedule: Option<Schedule>,
    /// Generate schedules with amnesia wipes
    /// ([`Schedule::generate_with_wipes`]); off by default so the
    /// standard campaign is unchanged. Ignored when `schedule` is set.
    pub wipes: bool,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            start_seed: 1,
            seeds: 50,
            schedule: None,
            wipes: false,
        }
    }
}

/// The protocols every campaign exercises.
pub fn campaign_protocols() -> Vec<Protocol> {
    vec![Protocol::idem(), Protocol::paxos(), Protocol::smart()]
}

/// A finished campaign: one [`ChaosRun`] per (seed, protocol), in
/// seed-major order.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// All runs, grouped by seed (protocols in campaign order).
    pub runs: Vec<ChaosRun>,
    /// Protocols per seed (for grouping `runs`).
    pub protocols: usize,
}

impl ChaosReport {
    /// Total invariant violations across all runs.
    pub fn total_violations(&self) -> usize {
        self.runs.iter().map(|r| r.violations.len()).sum()
    }

    /// Renders the per-seed verdict report. Byte-identical for any
    /// `--jobs` value: it depends only on the runs in declaration order.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        // One group per schedule: a seed in a plain campaign, a
        // (seed, churn family) pair in a churn campaign.
        let groups = self.runs.len() / self.protocols.max(1);
        let _ = writeln!(
            out,
            "# chaos campaign: {groups} group(s) x {} protocol(s), {} run(s)",
            self.protocols,
            self.runs.len()
        );
        for group in self.runs.chunks(self.protocols.max(1)) {
            let first = &group[0];
            let _ = writeln!(out, "\nseed {} schedule {}", first.seed, first.schedule);
            for run in group {
                let verdict = if run.ok() { "ok       " } else { "VIOLATION" };
                let rejoin = match run.rejoin_ms {
                    Some(ms) => format!(" rejoin_ms={ms}"),
                    None => String::new(),
                };
                // Churn-only fields, absent for churn-free runs so those
                // reports render byte-identically to the pre-churn layout.
                let reconfig = match run.reconfig_ms {
                    Some(ms) => format!(" reconfig_ms={ms}"),
                    None => String::new(),
                };
                let epochs = if run.epochs_applied > 0 {
                    format!(" epochs={}", run.epochs_applied)
                } else {
                    String::new()
                };
                let _ = writeln!(
                    out,
                    "  {:<10} {verdict} successes={} rejections={}{rejoin}{reconfig}{epochs}",
                    run.protocol, run.successes, run.rejections
                );
                for v in &run.violations {
                    let _ = writeln!(out, "    {v}");
                }
                if !run.ok() {
                    let _ = writeln!(
                        out,
                        "    repro: repro chaos --seed {} --schedule '{}'",
                        run.seed, run.schedule
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "\ntotal: {} run(s), {} violation(s)",
            self.runs.len(),
            self.total_violations()
        );
        out
    }
}

/// Runs the campaign on the given worker pool. Results come back in
/// seed-major declaration order regardless of the worker count, so the
/// rendered report is byte-identical for any `--jobs`.
pub fn run_campaign(cfg: &ChaosConfig, runner: &SweepRunner) -> ChaosReport {
    let protocols = campaign_protocols();
    let mut tasks: Vec<(Protocol, u64, Schedule)> = Vec::new();
    for seed in cfg.start_seed..cfg.start_seed.saturating_add(cfg.seeds) {
        let schedule = match &cfg.schedule {
            Some(s) => s.clone(),
            None if cfg.wipes => {
                Schedule::generate_with_wipes(seed, protocols[0].replica_count() as usize)
            }
            None => Schedule::generate(seed, protocols[0].replica_count() as usize),
        };
        for protocol in &protocols {
            tasks.push((protocol.clone(), seed, schedule.clone()));
        }
    }
    let runs = runner.run_tasks(tasks, |(protocol, seed, schedule)| {
        let run = run_chaos(protocol, *seed, schedule);
        runner.note_events(run.events);
        runner.note_event_stats(&run.event_stats);
        run
    });
    ChaosReport {
        runs,
        protocols: protocols.len(),
    }
}

/// Runs the churn campaign: per seed, one schedule per
/// [`ChurnFamily`] — joins, a leave, a replace, and a rolling restart —
/// each against every protocol. With a fixed `cfg.schedule` (the repro
/// path) that schedule replaces the four generated ones. Declaration
/// order is (seed, family)-major, so the report is byte-identical for any
/// `--jobs`.
pub fn run_churn_campaign(cfg: &ChaosConfig, runner: &SweepRunner) -> ChaosReport {
    let protocols = campaign_protocols();
    let base = protocols[0].replica_count() as usize;
    let mut tasks: Vec<(Protocol, u64, Schedule)> = Vec::new();
    for seed in cfg.start_seed..cfg.start_seed.saturating_add(cfg.seeds) {
        let schedules: Vec<Schedule> = match &cfg.schedule {
            Some(s) => vec![s.clone()],
            None => ChurnFamily::ALL
                .iter()
                .map(|&family| Schedule::generate_churn(seed, base, family))
                .collect(),
        };
        for schedule in schedules {
            for protocol in &protocols {
                tasks.push((protocol.clone(), seed, schedule.clone()));
            }
        }
    }
    let runs = runner.run_tasks(tasks, |(protocol, seed, schedule)| {
        let run = run_chaos(protocol, *seed, schedule);
        runner.note_events(run.events);
        runner.note_event_stats(&run.event_stats);
        run
    });
    ChaosReport {
        runs,
        protocols: protocols.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_schedules_are_deterministic_and_safe() {
        for seed in 1..=30 {
            let a = Schedule::generate(seed, 3);
            let b = Schedule::generate(seed, 3);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert!(!a.faults.is_empty() || seed > 0, "empty allowed but rare");
            a.validate(3).unwrap();
            // Every episode ends inside the fault window, crashes never
            // overlap (node track is sequential), and intervals are
            // non-empty.
            let mut crash_spans: Vec<(u64, u64)> = Vec::new();
            for fault in &a.faults {
                assert!(fault.end_ms() > fault.start_ms());
                assert!(fault.end_ms() <= FAULT_WINDOW_END_MS);
                assert!(fault.start_ms() >= FAULT_WINDOW_START_MS);
                if let Fault::Crash {
                    start_ms, end_ms, ..
                } = fault
                {
                    crash_spans.push((*start_ms, *end_ms));
                }
            }
            crash_spans.sort_unstable();
            for pair in crash_spans.windows(2) {
                assert!(
                    pair[0].1 <= pair[1].0,
                    "seed {seed}: concurrent crashes {pair:?}"
                );
            }
        }
    }

    #[test]
    fn schedule_roundtrips_through_text() {
        for seed in [1, 7, 23, 99] {
            let schedule = Schedule::generate(seed, 3);
            let text = schedule.to_string();
            let parsed = Schedule::parse(&text).unwrap();
            assert_eq!(parsed, schedule, "roundtrip failed for '{text}'");
        }
        assert_eq!(Schedule::parse("none").unwrap(), Schedule::default());
        assert_eq!(
            Schedule::parse("part(0|1+2,300,500)").unwrap().faults,
            vec![Fault::Partition {
                left: vec![0],
                right: vec![1, 2],
                start_ms: 300,
                end_ms: 500,
            }]
        );
        assert_eq!(
            Schedule::parse("wipe(1,700);wipe(2,900,trunc)")
                .unwrap()
                .faults,
            vec![
                Fault::Wipe {
                    replica: 1,
                    at_ms: 700,
                    trunc: false,
                },
                Fault::Wipe {
                    replica: 2,
                    at_ms: 900,
                    trunc: true,
                },
            ]
        );
    }

    #[test]
    fn malformed_schedules_are_rejected() {
        for bad in [
            "crash(0,500,400)",    // empty interval
            "crash(0,500)",        // missing field
            "slow(0,0.5,100,200)", // factor below 1
            "loss(1.5,100,200)",   // probability above 1
            "part(0,100,200)",     // missing groups
            "warp(0,100,200)",     // unknown episode
            "crash(x,100,200)",    // bad integer
            "wipe(0)",             // missing time
            "wipe(0,700,junk)",    // third argument must be 'trunc'
        ] {
            assert!(Schedule::parse(bad).is_err(), "'{bad}' should be rejected");
        }
        assert!(Schedule::parse("crash(9,100,200)")
            .unwrap()
            .validate(3)
            .is_err());
    }

    #[test]
    fn single_chaos_run_upholds_invariants() {
        let schedule = Schedule::parse("crash(1,400,800);loss(0.050,900,1100)").unwrap();
        let run = run_chaos(&Protocol::idem(), 42, &schedule);
        assert!(run.ok(), "violations: {:?}", run.violations);
        assert!(run.successes > 0);
        assert!(run.events > 0);
        assert_eq!(run.rejoin_ms, None, "wipe-free runs report no rejoin");
    }

    #[test]
    fn wipe_schedules_extend_the_base_deterministically() {
        for seed in 1..=30 {
            let base = Schedule::generate(seed, 3);
            let a = Schedule::generate_with_wipes(seed, 3);
            let b = Schedule::generate_with_wipes(seed, 3);
            assert_eq!(a, b, "seed {seed} not deterministic");
            // Strictly appended: the wipe-free prefix is byte-identical.
            assert_eq!(&a.faults[..base.faults.len()], &base.faults[..]);
            let wipes: Vec<&Fault> = a.faults[base.faults.len()..].iter().collect();
            assert!(!wipes.is_empty(), "seed {seed} generated no wipes");
            for wipe in wipes {
                let Fault::Wipe { replica, at_ms, .. } = wipe else {
                    panic!("appended fault is not a wipe: {wipe}");
                };
                assert!((FAULT_WINDOW_START_MS..FAULT_WINDOW_END_MS).contains(at_ms));
                // Never inside the victim's own crash span.
                for fault in &base.faults {
                    if let Fault::Crash {
                        replica: r,
                        start_ms,
                        end_ms,
                    } = fault
                    {
                        assert!(
                            r != replica || *at_ms < *start_ms || *at_ms >= *end_ms,
                            "seed {seed}: wipe at {at_ms} inside crash {start_ms}..{end_ms}"
                        );
                    }
                }
            }
            a.validate(3).unwrap();
        }
    }

    #[test]
    fn single_wipe_run_upholds_invariants_and_reports_rejoin() {
        let schedule = Schedule::parse("wipe(1,700,trunc)").unwrap();
        let run = run_chaos(&Protocol::idem(), 42, &schedule);
        assert!(run.ok(), "violations: {:?}", run.violations);
        assert!(run.successes > 0);
        assert!(run.rejoin_ms.is_some(), "wiped replica never rejoined");
        assert_eq!(run.reconfig_ms, None, "churn-free runs report no reconfig");
        assert_eq!(run.epochs_applied, 0);
    }

    #[test]
    fn churn_motions_roundtrip_through_text() {
        let text = "join(3,500);leave(0,700);replace(1,4,900);rolling(400,350)";
        let schedule = Schedule::parse(text).unwrap();
        assert_eq!(schedule.to_string(), text);
        assert_eq!(
            schedule.faults,
            vec![
                Fault::Join {
                    replica: 3,
                    at_ms: 500,
                },
                Fault::Leave {
                    replica: 0,
                    at_ms: 700,
                },
                Fault::Replace {
                    old: 1,
                    new: 4,
                    at_ms: 900,
                },
                Fault::Rolling {
                    at_ms: 400,
                    gap_ms: 350,
                },
            ]
        );
        assert!(schedule.has_churn());
        assert_eq!(schedule.required_replicas(3), 5);
        assert!(!Schedule::parse("crash(0,400,800)").unwrap().has_churn());
    }

    #[test]
    fn malformed_churn_motions_are_rejected() {
        for bad in [
            "join(3)",            // missing time
            "join(3,500,9)",      // too many fields
            "leave(x,500)",       // bad integer
            "replace(1,1,500)",   // old == new
            "replace(1,500)",     // missing field
            "rolling(400)",       // missing gap
            "rolling(400,50)",    // gap too small
            "rolling(400,350,1)", // too many fields
        ] {
            assert!(Schedule::parse(bad).is_err(), "'{bad}' should be rejected");
        }
        // Out-of-range churn indexes fail validation, and replace's
        // distinctness is re-checked there for hand-built schedules.
        assert!(Schedule::parse("join(9,500)").unwrap().validate(4).is_err());
        let twin = Schedule {
            faults: vec![Fault::Replace {
                old: 2,
                new: 2,
                at_ms: 500,
            }],
        };
        assert!(twin.validate(4).is_err());
    }

    #[test]
    fn churn_schedules_are_deterministic_and_valid() {
        for seed in 1..=30 {
            for family in ChurnFamily::ALL {
                let a = Schedule::generate_churn(seed, 3, family);
                let b = Schedule::generate_churn(seed, 3, family);
                assert_eq!(a, b, "seed {seed} family {family:?} not deterministic");
                assert!(!a.faults.is_empty());
                assert!(a.has_churn());
                let total = a.required_replicas(3);
                a.validate(total).unwrap();
                // Round-trip through the textual form.
                assert_eq!(Schedule::parse(&a.to_string()).unwrap(), a);
            }
        }
    }

    #[test]
    fn rolling_expands_into_one_crash_per_member() {
        let schedule = Schedule::parse("rolling(400,300)").unwrap();
        let expanded = schedule.expand_rolling(3);
        assert_eq!(
            expanded.faults,
            vec![
                Fault::Crash {
                    replica: 0,
                    start_ms: 400,
                    end_ms: 550,
                },
                Fault::Crash {
                    replica: 1,
                    start_ms: 700,
                    end_ms: 850,
                },
                Fault::Crash {
                    replica: 2,
                    start_ms: 1000,
                    end_ms: 1150,
                },
            ]
        );
        // Rolling-free schedules come back identical.
        let plain = Schedule::parse("crash(0,400,800);loss(0.050,900,1100)").unwrap();
        assert_eq!(plain.expand_rolling(3), plain);
    }

    #[test]
    fn single_join_run_switches_epoch_and_converges() {
        let schedule = Schedule::parse("join(3,500)").unwrap();
        let run = run_chaos(&Protocol::idem(), 42, &schedule);
        assert!(run.ok(), "violations: {:?}", run.violations);
        assert!(run.successes > 0);
        assert_eq!(run.epochs_applied, 1);
        assert!(run.reconfig_ms.is_some(), "join never adopted");
        assert_eq!(run.rejoin_ms, None, "wipe-free runs report no rejoin");
    }

    #[test]
    fn single_replace_run_swaps_the_leader_out() {
        // Replacing replica 0 moves leadership mid-run on the
        // leader-based protocols — the spiciest single motion.
        let schedule = Schedule::parse("replace(0,3,500)").unwrap();
        for protocol in campaign_protocols() {
            let run = run_chaos(&protocol, 7, &schedule);
            assert!(
                run.ok(),
                "{}: violations: {:?}",
                protocol.name(),
                run.violations
            );
            assert_eq!(run.epochs_applied, 1, "{}", protocol.name());
            assert!(run.reconfig_ms.is_some(), "{}", protocol.name());
        }
    }

    #[test]
    fn single_leave_of_leader_keeps_progress() {
        // Removing replica 0 moves leadership at the epoch switch on every
        // protocol; the promoted follower must re-anchor its proposal
        // cursor past the execution frontier or all later bindings target
        // decided slots and are refused (campaign-found regression).
        let schedule = Schedule::parse("leave(0,489)").unwrap();
        for protocol in campaign_protocols() {
            let run = run_chaos(&protocol, 1, &schedule);
            assert!(
                run.ok(),
                "{}: violations: {:?}",
                protocol.name(),
                run.violations
            );
            assert_eq!(run.epochs_applied, 1, "{}", protocol.name());
        }
    }

    #[test]
    fn single_rolling_run_restarts_every_member() {
        let schedule = Schedule::parse("rolling(400,400)").unwrap();
        let run = run_chaos(&Protocol::idem(), 42, &schedule);
        assert!(run.ok(), "violations: {:?}", run.violations);
        assert!(run.successes > 0);
        // Rolling is churn without reconfiguration.
        assert_eq!(run.epochs_applied, 0);
        assert_eq!(run.reconfig_ms, None);
    }
}
