//! Cross-crate smoke of the streamed DES kernel: sharded contact
//! generation (omn-contacts) feeding the event queue and world (omn-sim)
//! under the hierarchical scheme with estimated planning (omn-core), with
//! every invariant oracle in strict mode.
//!
//! The run must be exactly reproducible, and streaming the contacts
//! through the pull window must change nothing against replaying the same
//! stream from a materialized trace.

use omn::contacts::synth::sharded::{
    generate_sharded, ShardedCommunityConfig, ShardedCommunitySource,
};
use omn::contacts::{ContactGraph, NodeId, TraceSource};
use omn::core::freshness::FreshnessRequirement;
use omn::core::scheme::PlanningMode;
use omn::core::sim::{FreshnessConfig, FreshnessReport, FreshnessSimulator, SchemeChoice};
use omn::sim::{OracleMode, RngFactory, SimDuration, SimTime};

const NODES: usize = 316;
const SEED: u64 = 11;

/// A 316-node sharded community over one day, with cross-shard mixing
/// raised so refresh paths exist between shards.
fn world() -> ShardedCommunityConfig {
    ShardedCommunityConfig::new(NODES, NODES / 50, SimDuration::from_days(1.0))
        .bridge_rate(1.0 / (2.0 * 3600.0))
}

/// Estimated planning with 6 h rebuilds over 8 caching nodes, strict
/// oracles: the first invariant violation panics.
fn simulator() -> FreshnessSimulator {
    let period = SimDuration::from_hours(4.0);
    FreshnessSimulator::new(FreshnessConfig {
        caching_nodes: 8,
        refresh_period: period,
        requirement: FreshnessRequirement::new(0.9, period),
        lifetime: Some(period * 2.0),
        planning: PlanningMode::Estimated,
        rebuild_every: Some(SimDuration::from_hours(6.0)),
        query_count: 0,
        oracle_mode: OracleMode::Strict,
        ..FreshnessConfig::default()
    })
}

/// Roles and planning oracle from a 6 h streamed warm-up.
fn roles(sim: &FreshnessSimulator, factory: &RngFactory) -> (NodeId, Vec<NodeId>, ContactGraph) {
    let mut warmup = ShardedCommunitySource::new(&world(), factory);
    sim.select_roles_streamed(&mut warmup, SimTime::from_secs(6.0 * 3600.0))
}

/// Everything a run reports, rendered exactly (`f64` debug output is
/// round-trip exact).
fn fingerprint(report: &FreshnessReport) -> String {
    format!("{report:?}")
}

#[test]
fn streamed_run_is_reproducible_and_matches_the_materialized_trace() {
    let factory = RngFactory::new(SEED);
    let sim = simulator();
    let (source, members, oracle) = roles(&sim, &factory);

    let streamed = || {
        let mut scheme = sim.make_scheme(SchemeChoice::Hierarchical);
        sim.run_streamed(
            ShardedCommunitySource::new(&world(), &factory),
            &oracle,
            source,
            &members,
            scheme.as_mut(),
            &factory,
        )
    };
    let (first, first_stats) = streamed();
    let (second, second_stats) = streamed();
    assert!(first.oracle.is_clean());
    assert!(first.transmissions > 0, "the smoke world must refresh");
    assert_eq!(fingerprint(&first), fingerprint(&second));
    assert_eq!(first_stats.contacts_total, second_stats.contacts_total);
    assert_eq!(first_stats.peak_resident, second_stats.peak_resident);

    let trace = generate_sharded(&world(), &factory);
    assert_eq!(trace.len(), first_stats.contacts_total);
    let mut scheme = sim.make_scheme(SchemeChoice::Hierarchical);
    let (materialized, _) = sim.run_streamed(
        TraceSource::new(&trace),
        &oracle,
        source,
        &members,
        scheme.as_mut(),
        &factory,
    );
    assert_eq!(fingerprint(&first), fingerprint(&materialized));
}
