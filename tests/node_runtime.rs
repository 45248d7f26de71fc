//! Cross-crate smoke of the async node runtime (omn-node): the protocol
//! core (omn-core) run as one task per node over serialized wire frames,
//! fed by contact generators (omn-contacts).
//!
//! Lockstep mode must reproduce the DES exactly in both protocol modes.
//! Firehose mode, with one-slot inboxes so the supervisor really parks on
//! full inboxes, must deliver every frame it sends and announce every
//! contact in the stream. Every run happens under a watchdog, so a lost
//! wakeup in the executor or the channels fails the test instead of
//! hanging it.

use std::sync::mpsc;
use std::time::Duration;

use omn::contacts::synth::sharded::{ShardedCommunityConfig, ShardedCommunitySource};
use omn::contacts::synth::{generate_pairwise, PairwiseConfig};
use omn::contacts::{ContactGraph, ContactSource, NodeId, TraceSource};
use omn::core::hierarchy::HierarchyStrategy;
use omn::core::protocol::ProtocolMode;
use omn::core::scheme::{EpidemicRefresh, HierarchicalConfig, HierarchicalScheme, PlanningMode};
use omn::core::sim::{FreshnessConfig, FreshnessSimulator};
use omn::core::RefreshHierarchy;
use omn::sim::{OracleMode, RngFactory, SimDuration};
use omn_node::{run_firehose, run_lockstep, RuntimeConfig};

const SEED: u64 = 11;
const WATCHDOG: Duration = Duration::from_secs(120);

/// Runs `body` on its own thread and fails the test if it has not
/// finished within [`WATCHDOG`].
fn watchdog<R: Send + 'static>(label: &str, body: impl FnOnce() -> R + Send + 'static) -> R {
    let (done_tx, done_rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let r = body();
        let _ = done_tx.send(());
        r
    });
    // A panicking body drops `done_tx` early; the join below re-raises it.
    if let Err(mpsc::RecvTimeoutError::Timeout) = done_rx.recv_timeout(WATCHDOG) {
        panic!("{label}: hung for {WATCHDOG:?}");
    }
    handle
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

fn runtime_config(mode: ProtocolMode, period: SimDuration) -> RuntimeConfig {
    RuntimeConfig {
        oracle_mode: OracleMode::Strict,
        workers: 2,
        ..RuntimeConfig::new(mode, period)
    }
}

#[test]
fn lockstep_runtime_equals_the_des_in_both_modes() {
    let period = SimDuration::from_hours(6.0);
    let factory = RngFactory::new(SEED);
    let trace = generate_pairwise(
        &PairwiseConfig::new(24, SimDuration::from_days(2.0)),
        &factory,
    );
    let sim = FreshnessSimulator::new(FreshnessConfig {
        refresh_period: period,
        query_count: 0,
        lifetime: None,
        oracle_mode: OracleMode::Strict,
        ..FreshnessConfig::default()
    });
    let (root, members) = sim.select_roles(&trace);
    let strategy = HierarchyStrategy::GreedySed { fanout: Some(3) };

    for mode in [ProtocolMode::HierTree, ProtocolMode::Epidemic] {
        let des = if mode == ProtocolMode::HierTree {
            let mut scheme = HierarchicalScheme::new(HierarchicalConfig {
                strategy,
                replication: None,
                max_relays: 3,
                rebuild_every: None,
                reparent: false,
                planning: PlanningMode::Oracle,
                resilience: None,
            });
            sim.run_with_roles(&trace, root, &members, &mut scheme, &factory)
        } else {
            sim.run_with_roles(
                &trace,
                root,
                &members,
                &mut EpidemicRefresh::new(),
                &factory,
            )
        };
        // The tree the DES scheme builds at start: same root, members,
        // oracle graph, strategy and RNG stream.
        let tree = (mode == ProtocolMode::HierTree).then(|| {
            RefreshHierarchy::build(
                root,
                &members,
                &ContactGraph::from_trace(&trace),
                strategy,
                &mut factory.stream("scheme"),
            )
        });
        let (trace, members) = (trace.clone(), members.clone());
        let rt = watchdog("lockstep", move || {
            run_lockstep(
                TraceSource::new(&trace),
                root,
                &members,
                tree.as_ref(),
                &runtime_config(mode, period),
                &factory,
            )
        });

        assert!(
            des.transmissions > 0,
            "{mode:?}: the smoke world must refresh"
        );
        assert_eq!(
            rt.final_member_versions, des.final_member_versions,
            "{mode:?}"
        );
        assert_eq!(
            rt.mean_freshness.to_bits(),
            des.mean_freshness.to_bits(),
            "{mode:?}"
        );
        assert_eq!(rt.version_count, des.version_count, "{mode:?}");
        assert_eq!(rt.transmissions, des.transmissions, "{mode:?}");
        assert_eq!(
            rt.per_node_transmissions, des.per_node_transmissions,
            "{mode:?}"
        );
        assert_eq!(rt.replicas, des.replicas, "{mode:?}");
        assert_eq!(rt.messages_received, rt.transmissions, "{mode:?}");
        assert_eq!((rt.decode_errors, rt.channel_errors), (0, 0), "{mode:?}");
        assert!(rt.oracle.is_clean() && des.oracle.is_clean(), "{mode:?}");
    }
}

#[test]
fn firehose_with_one_slot_inboxes_delivers_every_frame() {
    // 316 nodes in 6 communities over 6 hours, with cross-community
    // bridges so versions spread.
    let world = ShardedCommunityConfig::new(316, 6, SimDuration::from_hours(6.0))
        .bridge_rate(1.0 / (2.0 * 3600.0));
    let factory = RngFactory::new(SEED);
    let mut stream = ShardedCommunitySource::new(&world, &factory);
    let mut stream_len = 0u64;
    while stream.next_contact().is_some() {
        stream_len += 1;
    }
    assert!(stream_len > 1000, "the smoke stream is too thin");
    let members: Vec<NodeId> = (1..=8).map(NodeId).collect();

    for workers in [1, 2] {
        let config = RuntimeConfig {
            workers,
            inbox_capacity: 1,
            ..runtime_config(ProtocolMode::Epidemic, SimDuration::from_hours(2.0))
        };
        let (world, members) = (world.clone(), members.clone());
        let report = watchdog("firehose", move || {
            run_firehose(
                ShardedCommunitySource::new(&world, &factory),
                NodeId(0),
                &members,
                &config,
            )
        });
        let label = format!("{workers} worker(s)");
        assert_eq!(report.nodes, 316, "{label}");
        assert_eq!(
            report.contacts, stream_len,
            "{label}: one link-up per contact"
        );
        assert!(report.births > 0, "{label}");
        assert!(
            report.messages_sent >= 2 * stream_len,
            "{label}: two announces per link-up"
        );
        assert_eq!(report.messages_received, report.messages_sent, "{label}");
        assert_eq!(
            (report.decode_errors, report.channel_errors),
            (0, 0),
            "{label}"
        );
    }
}
