//! Pin of every built-in refresh scheme under the full fault and
//! resilience stack: transmission loss, corruption, churn downtime and
//! crashes with state loss, exponential retry backoff with escalation,
//! the silence-based failure detector, and estimated planning with
//! periodic rebuilds and distributed re-parenting, all under strict
//! invariant oracles.
//!
//! The run must reproduce itself, and the Debug rendering of every report
//! must hash to a recorded digest: a refactor of the schemes that changes
//! any number, counter, or RNG draw on these paths changes the digest.

use omn::contacts::faults::{DowntimeConfig, FaultConfig};
use omn::contacts::synth::presets::infocom_like_with;
use omn::contacts::ContactTrace;
use omn::core::freshness::FreshnessRequirement;
use omn::core::scheme::{PlanningMode, ResilienceConfig, RetryPolicy};
use omn::core::sim::{FreshnessConfig, FreshnessReport, FreshnessSimulator, SchemeChoice};
use omn::sim::{OracleMode, RngFactory, SimDuration};

const SEED: u64 = 5;

/// FNV-1a digest of the rendered reports, recorded from the schemes as
/// they stood before the global protocol cores were folded into them.
const DIGEST: u64 = 0xf229_f9cb_7e3e_381a;

fn simulator(trace: &ContactTrace) -> FreshnessSimulator {
    let period = SimDuration::from_hours(4.0);
    let base = FreshnessConfig {
        caching_nodes: 8,
        refresh_period: period,
        requirement: FreshnessRequirement::new(0.9, period),
        query_count: 50,
        oracle_mode: OracleMode::Strict,
        ..FreshnessConfig::default()
    };
    // Exempt the source from churn and crashes so refreshes keep flowing.
    let (source, _) = FreshnessSimulator::new(base).select_roles(trace);
    let churn = |node_fraction: f64, uptime_h: f64, downtime_h: f64| DowntimeConfig {
        node_fraction,
        mean_uptime: SimDuration::from_hours(uptime_h),
        mean_downtime: SimDuration::from_hours(downtime_h),
        exempt: Some(source),
    };
    FreshnessSimulator::new(FreshnessConfig {
        planning: PlanningMode::Estimated,
        rebuild_every: Some(SimDuration::from_hours(8.0)),
        reparent: true,
        faults: Some(FaultConfig {
            transmission_loss: 0.3,
            corruption: 0.1,
            downtime: Some(churn(0.3, 12.0, 3.0)),
            crashes: Some(churn(0.3, 18.0, 2.0)),
            ..FaultConfig::default()
        }),
        resilience: Some(ResilienceConfig {
            retry: RetryPolicy {
                escalate_after: Some(1),
                ..RetryPolicy::exponential(3, SimDuration::from_mins(20.0))
            },
            suspect_after_icts: 2.0,
            min_silence: SimDuration::from_hours(1.0),
        }),
        ..base
    })
}

/// Every scheme's report, Debug-rendered (`f64` debug output is
/// round-trip exact), one per line.
fn render() -> String {
    let factory = RngFactory::new(SEED);
    let trace = infocom_like_with(30, 3.0, &factory);
    let sim = simulator(&trace);
    let reports: Vec<FreshnessReport> = SchemeChoice::ALL
        .iter()
        .map(|&choice| sim.run(&trace, choice, &factory))
        .collect();
    let hier = &reports[0];
    assert!(hier.oracle.is_clean());
    for counter in [
        "failed-transmissions",
        "corrupted-rejections",
        "crash-state-losses",
        "crash-reattaches",
        "suspected-failures",
        "failure-reparents",
        "replication-retries",
        "relay-retries",
        "retry-backoff-deferrals",
        "retry-escalations",
        "reparent-events",
        "rebuilds",
    ] {
        assert!(
            hier.extras.get(counter) > 0,
            "the pinned world must exercise {counter}"
        );
    }
    reports.iter().map(|r| format!("{r:?}\n")).collect()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn every_scheme_under_faults_and_resilience_matches_the_recorded_digest() {
    let first = render();
    assert_eq!(first, render(), "the faulted run must reproduce itself");
    assert_eq!(
        fnv1a(first.as_bytes()),
        DIGEST,
        "digest {:#x}",
        fnv1a(first.as_bytes())
    );
}
