//! Property: the pure per-node protocol ([`NodeProtocol`] via
//! [`ReplayHarness`]), driven by the same recorded event sequence the DES
//! processes (version births interleaved with contacts, births first at
//! equal instants), is bit-identical to the legacy global scheme on
//! random small worlds — final member versions, transmission totals and
//! their per-node attribution, and replica counts all coincide exactly.
//!
//! This is the sans-io extraction's semantic contract for the
//! locally-decidable protocol modes; the async runtime layers real
//! serialization and scheduling on top (crates/node) and E18
//! cross-validates it end to end.

use omn_contacts::synth::{generate_pairwise, PairwiseConfig};
use omn_contacts::{ContactGraph, ContactSource, ContactTrace, NodeId, TraceSource};
use omn_core::hierarchy::HierarchyStrategy;
use omn_core::protocol::{ProtocolMode, ReplayHarness, ReplayOutcome};
use omn_core::scheme::{EpidemicRefresh, HierarchicalConfig, HierarchicalScheme, PlanningMode};
use omn_core::sim::{FreshnessConfig, FreshnessReport, FreshnessSimulator};
use omn_core::{RefreshHierarchy, UpdateSchedule};
use omn_sim::hash::FastMap;
use omn_sim::{OracleMode, RngFactory, SimDuration};
use proptest::prelude::*;

fn period() -> SimDuration {
    SimDuration::from_secs(4.0 * 3600.0)
}

fn small_world(seed: u64) -> (ContactTrace, RngFactory) {
    let factory = RngFactory::new(seed);
    let trace = generate_pairwise(
        &PairwiseConfig::new(16, SimDuration::from_days(1.0)).mean_rate(1.0 / 3600.0),
        &factory,
    );
    (trace, factory)
}

fn des_run(
    trace: &ContactTrace,
    factory: &RngFactory,
    scheme: &mut dyn omn_core::scheme::RefreshScheme,
) -> (NodeId, Vec<NodeId>, FreshnessReport) {
    let sim = FreshnessSimulator::new(FreshnessConfig {
        refresh_period: period(),
        query_count: 0,
        lifetime: None,
        oracle_mode: OracleMode::Campaign,
        ..FreshnessConfig::default()
    });
    let (root, members) = sim.select_roles(trace);
    let report = sim.run_with_roles(trace, root, &members, scheme, factory);
    (root, members, report)
}

/// Replays the DES's event sequence — births and contacts merged in time
/// order, births first at equal instants (the DES's event-class order) —
/// through one pure protocol instance per node.
fn replay(
    trace: &ContactTrace,
    root: NodeId,
    members: &[NodeId],
    mode: ProtocolMode,
    tree: Option<&RefreshHierarchy>,
) -> ReplayOutcome {
    let mut source = TraceSource::new(trace);
    let span = source.span();
    let mut harness = ReplayHarness::new(source.node_count(), root, members.to_vec(), mode);
    if let Some(tree) = tree {
        harness.install_tree(tree);
    }
    let schedule = UpdateSchedule::periodic(period(), span);
    let births = schedule.births();
    let mut next = 1; // births[0] is the pre-placed version 0
    while let Some(c) = source.next_contact() {
        while next < births.len() && births[next] <= c.start() {
            harness.birth(births[next], next as u64);
            next += 1;
        }
        harness.contact(c.start(), c.a(), c.b());
    }
    while next < births.len() {
        harness.birth(births[next], next as u64);
        next += 1;
    }
    harness.finish(span)
}

fn assert_equivalent(out: &ReplayOutcome, report: &FreshnessReport) {
    let des_versions: FastMap<NodeId, u64> = report.final_member_versions.iter().copied().collect();
    assert_eq!(out.member_versions, des_versions);
    assert_eq!(out.transmissions, report.transmissions);
    assert_eq!(out.per_node_tx, report.per_node_transmissions);
    assert_eq!(out.replicas, report.replicas);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Static-tree refreshing: the per-node protocol with the same tree
    /// the scheme builds is indistinguishable from the legacy scheme.
    #[test]
    fn tree_replay_matches_legacy_scheme(seed in any::<u64>(), fanout in 1usize..5) {
        let (trace, factory) = small_world(seed);
        let mut scheme = HierarchicalScheme::new(HierarchicalConfig {
            strategy: HierarchyStrategy::GreedySed { fanout: Some(fanout) },
            replication: None,
            max_relays: 3,
            rebuild_every: None,
            reparent: false,
            planning: PlanningMode::Oracle,
            resilience: None,
        });
        let (root, members, report) = des_run(&trace, &factory, &mut scheme);
        let tree = RefreshHierarchy::build(
            root,
            &members,
            &ContactGraph::from_trace(&trace),
            HierarchyStrategy::GreedySed { fanout: Some(fanout) },
            &mut factory.stream("scheme"),
        );
        let out = replay(&trace, root, &members, ProtocolMode::HierTree, Some(&tree));
        assert_equivalent(&out, &report);
        prop_assert!(report.oracle.is_clean());
    }

    /// Epidemic flooding: two directional passes per contact make exactly
    /// the one decision the global formulation makes, so everything
    /// coincides; the once-truncated relay-occupancy total may differ by
    /// one (the DES sums its per-node `f64` tails in hash order).
    #[test]
    fn epidemic_replay_matches_legacy_scheme(seed in any::<u64>()) {
        let (trace, factory) = small_world(seed);
        let mut scheme = EpidemicRefresh::new();
        let (root, members, report) = des_run(&trace, &factory, &mut scheme);
        let out = replay(&trace, root, &members, ProtocolMode::Epidemic, None);
        assert_equivalent(&out, &report);
        let replay_secs = out.extras.get("relay-copy-seconds") as i64;
        let des_secs = report.extras.get("relay-copy-seconds") as i64;
        prop_assert!(
            (replay_secs - des_secs).abs() <= 1,
            "relay occupancy diverges: {} vs {}",
            replay_secs,
            des_secs
        );
        prop_assert!(report.oracle.is_clean());
    }
}
