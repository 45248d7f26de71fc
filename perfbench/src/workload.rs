//! The three workloads, each as one repetition that times its phases from
//! outside the library: set-up and run phase around public calls, and
//! the layers below through the [`crate::probe`] wrappers.

use std::time::Instant;

use omn_bench::experiments::e15_scalability::scale_config;
use omn_bench::experiments::e19_bandwidth::{BUDGET, LOAD, QUEUE_DEPTH, REFRESH_BYTES};
use omn_bench::experiments::{config_for, trace_for};
use omn_caching::policy::PolicyChoice;
use omn_caching::query::QueryWorkload;
use omn_caching::{CachingConfig, Catalog};
use omn_contacts::synth::presets::TracePreset;
use omn_contacts::synth::sharded::ShardedCommunitySource;
use omn_contacts::NodeId;
use omn_core::freshness::FreshnessRequirement;
use omn_core::joint::{ContentionPriority, JointConfig, JointReport, JointSimulator};
use omn_core::protocol::ProtocolMode;
use omn_core::scheme::PlanningMode;
use omn_core::sim::{
    FreshnessConfig, FreshnessReport, FreshnessSimulator, RefreshLink, SchemeChoice, StreamStats,
};
use omn_node::{run_firehose, FirehoseReport, RuntimeConfig};
use omn_sim::{LinkConfig, OracleMode, RngFactory, SimDuration, SimTime};

use crate::probe::{Probe, Span, TimedScheme};

/// Node count of `stream-10k`.
pub const STREAM_NODES: usize = 10_000;

/// Node count of `firehose-3k`.
pub const FIREHOSE_NODES: usize = 3162;

/// Consecutive seeds (worlds) in one `joint-bytes` repetition.
pub const JOINT_WORLDS: u64 = 10;

/// Bandwidth of the `joint-bytes` link, bytes/second (E19's 16 B/s rung).
pub const JOINT_BANDWIDTH: f64 = 16.0;

/// Catalog size of `joint-bytes` (E19's).
pub const JOINT_CATALOG: usize = 6;

/// Query deadline of `joint-bytes`, hours (E19's).
pub const JOINT_DEADLINE_H: f64 = 12.0;

/// Hours of stream given to role selection (E15's warm-up window).
const WARMUP_HOURS: f64 = 6.0;

/// The E15 sweep's freshness configuration — estimated planning, 6 h
/// rebuilds, 8 caching nodes, no query workload — with the oracle mode
/// pinned to campaign instead of read from the environment.
#[must_use]
pub fn stream_config() -> FreshnessConfig {
    let period = SimDuration::from_hours(4.0);
    FreshnessConfig {
        caching_nodes: 8,
        refresh_period: period,
        requirement: FreshnessRequirement::new(0.9, period),
        lifetime: Some(period * 2.0),
        planning: PlanningMode::Estimated,
        rebuild_every: Some(SimDuration::from_hours(6.0)),
        query_count: 0,
        oracle_mode: OracleMode::Campaign,
        ..FreshnessConfig::default()
    }
}

/// One `stream-10k` repetition: timings plus the run's outputs.
#[derive(Debug)]
pub struct StreamRep {
    /// Source construction plus role selection, seconds.
    pub setup_s: f64,
    /// The `run_streamed` call, seconds.
    pub run_s: f64,
    /// The `select_roles_streamed` call, seconds.
    pub select_s: f64,
    /// Warm-up generation time, seconds (0 untimed).
    pub warmup_gen_s: f64,
    /// Run stream: contacts yielded by the source.
    pub gen_calls: u64,
    /// Run-stream generation time, seconds (0 untimed).
    pub gen_s: f64,
    /// `on_contact` dispatches.
    pub scheme_calls: u64,
    /// Time in every scheme hook, seconds (0 untimed).
    pub scheme_s: f64,
    /// The freshness report.
    pub report: FreshnessReport,
    /// Driver statistics.
    pub stats: StreamStats,
}

/// Runs one repetition of the E15 point at `nodes` nodes: roles from a
/// streamed 6 h warm-up window, then the hierarchical scheme over a fresh
/// serial stream of the same world. `timed` switches the layer timers on.
#[must_use]
pub fn stream_rep(nodes: usize, seed: u64, timed: bool) -> StreamRep {
    let world = scale_config(nodes);
    let factory = RngFactory::new(seed);
    let sim = FreshnessSimulator::new(stream_config());
    let cutoff = SimTime::from_secs((WARMUP_HOURS * 3600.0).min(world.span.as_secs() / 2.0));
    let (warm_span, gen_span, scheme_span) = (Span::new(timed), Span::new(timed), Span::new(timed));

    let setup = Instant::now();
    let mut warmup = Probe::new(ShardedCommunitySource::new(&world, &factory), &warm_span);
    let select = Instant::now();
    let (source, members, oracle) = sim.select_roles_streamed(&mut warmup, cutoff);
    let select_s = select.elapsed().as_secs_f64();
    drop(warmup);
    let stream = Probe::new(ShardedCommunitySource::new(&world, &factory), &gen_span);
    let mut inner = sim.make_scheme(SchemeChoice::Hierarchical);
    let mut scheme = TimedScheme::new(inner.as_mut(), &scheme_span);
    let setup_s = setup.elapsed().as_secs_f64();

    let run = Instant::now();
    let (report, stats) =
        sim.run_streamed(stream, &oracle, source, &members, &mut scheme, &factory);
    let run_s = run.elapsed().as_secs_f64();

    StreamRep {
        setup_s,
        run_s,
        select_s,
        warmup_gen_s: warm_span.busy_s(),
        gen_calls: gen_span.calls(),
        gen_s: gen_span.busy_s(),
        scheme_calls: scheme_span.calls(),
        scheme_s: scheme_span.busy_s(),
        report,
        stats,
    }
}

/// Everything a stream run must reproduce bit for bit: the report's
/// statistics and the driver's.
#[must_use]
pub fn stream_fingerprint(r: &FreshnessReport, stats: &StreamStats) -> Vec<u64> {
    let mut fp = vec![
        r.source.0 as u64,
        r.version_count,
        r.mean_freshness.to_bits(),
        r.mean_availability.to_bits(),
        r.requirement_satisfaction.to_bits(),
        r.transmissions,
        r.replicas,
        r.queries_total as u64,
        stats.contacts_total as u64,
        stats.peak_resident as u64,
    ];
    fp.extend(r.members.iter().map(|m| m.0 as u64));
    fp.extend(r.per_node_transmissions.iter().copied());
    for (node, version) in &r.final_member_versions {
        fp.extend([node.0 as u64, *version]);
    }
    fp
}

/// The E19 joint-world configuration at `bandwidth` bytes/second, as
/// `e19_bandwidth::bandwidth_run` builds it (LRU, default cache capacity,
/// query-first), with the oracle mode pinned to campaign.
#[must_use]
pub fn joint_config(bandwidth: f64) -> JointConfig {
    let base = config_for(TracePreset::InfocomLike);
    let default_caching = CachingConfig::default();
    JointConfig {
        caching: CachingConfig {
            query_deadline: SimDuration::from_hours(JOINT_DEADLINE_H),
            ..default_caching
        },
        freshness: Some(FreshnessConfig {
            query_count: 100,
            link: Some(RefreshLink {
                refresh_bytes: REFRESH_BYTES,
                queue_depth: QUEUE_DEPTH,
            }),
            oracle_mode: OracleMode::Campaign,
            ..base
        }),
        scheme: SchemeChoice::Hierarchical,
        contact_budget: Some(BUDGET),
        link: Some(LinkConfig::with_bandwidth(bandwidth).queue_depth(QUEUE_DEPTH)),
        priority: ContentionPriority::QueryFirst,
        policy: PolicyChoice::Lru,
        demote_stale: true,
        faults: None,
    }
}

/// One `joint-bytes` world: timings plus the run's outputs.
#[derive(Debug)]
pub struct JointWorld {
    /// The world's seed.
    pub seed: u64,
    /// `trace_for`, seconds.
    pub trace_gen_s: f64,
    /// `Catalog::uniform` plus `QueryWorkload::zipf`, seconds.
    pub workload_gen_s: f64,
    /// The `JointSimulator::run` call, seconds.
    pub run_s: f64,
    /// Contacts in the materialized trace.
    pub contacts: u64,
    /// The joint report.
    pub report: JointReport,
}

/// Builds and runs one E19 16 B/s world for `seed`.
#[must_use]
pub fn joint_world(seed: u64) -> JointWorld {
    let config = joint_config(JOINT_BANDWIDTH);
    let factory = RngFactory::new(seed);
    let period = config_for(TracePreset::InfocomLike).refresh_period;

    let gen = Instant::now();
    let trace = trace_for(TracePreset::InfocomLike, seed);
    let trace_gen_s = gen.elapsed().as_secs_f64();
    let workload = Instant::now();
    let catalog = Catalog::uniform(&trace, JOINT_CATALOG, period, &factory);
    let queries = QueryWorkload::zipf(&trace, &catalog, LOAD, 1.0, &factory);
    let workload_gen_s = workload.elapsed().as_secs_f64();

    let sim = JointSimulator::new(config);
    let run = Instant::now();
    let report = sim.run(&trace, &catalog, &queries, &factory);
    let run_s = run.elapsed().as_secs_f64();

    JointWorld {
        seed,
        trace_gen_s,
        workload_gen_s,
        run_s,
        contacts: trace.len() as u64,
        report,
    }
}

/// Everything a joint run must reproduce bit for bit.
#[must_use]
pub fn joint_fingerprint(r: &JointReport) -> Vec<u64> {
    let a = &r.access;
    let mut fp = vec![
        r.mean_freshness().unwrap_or(-1.0).to_bits(),
        r.fresh_access_ratio().to_bits(),
        a.success_ratio().to_bits(),
        a.mean_delay().unwrap_or(-1.0).to_bits(),
        a.created as u64,
        a.satisfied as u64,
        a.satisfied_fresh as u64,
        a.local_hits as u64,
        a.transmissions,
        a.extras.get("budget-deferred-transmissions"),
        a.extras.get("byte-deferred-transmissions"),
        u64::from(r.max_contact_used),
        r.max_contact_bytes,
    ];
    if let Some(l) = &r.link {
        fp.extend([
            l.enqueued_msgs,
            l.enqueued_bytes,
            l.drained_msgs,
            l.drained_bytes,
            l.dropped_msgs,
            l.dropped_bytes,
            l.discarded_msgs,
            l.discarded_bytes,
            l.max_depth,
            l.delay_secs_total.to_bits(),
        ]);
    }
    for (item, f) in &r.freshness {
        fp.extend([
            item.0 as u64,
            f.mean_freshness.to_bits(),
            f.transmissions,
            f.replicas,
            f.version_count,
        ]);
    }
    fp
}

/// The firehose runtime configuration: epidemic mode (E18's traffic upper
/// bound), the oracle mode pinned to campaign, and an explicit executor
/// size instead of `available_parallelism`.
#[must_use]
pub fn firehose_config(workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        oracle_mode: OracleMode::Campaign,
        workers,
        ..RuntimeConfig::new(ProtocolMode::Epidemic, SimDuration::from_hours(6.0))
    }
}

/// One `firehose-3k` repetition: timings plus the runtime's report.
#[derive(Debug)]
pub struct FirehoseRep {
    /// Wall time of the whole `run_firehose` call, seconds.
    pub wall_s: f64,
    /// Contacts the source yielded.
    pub feed_calls: u64,
    /// Source time inside the call, seconds (0 untimed).
    pub feed_s: f64,
    /// The runtime's report.
    pub report: FirehoseReport,
}

/// Runs E18's firehose over the `nodes`-node E15 world: root 0, members
/// 1..=8, `workers` executor threads.
#[must_use]
pub fn firehose_rep(nodes: usize, seed: u64, workers: usize, timed: bool) -> FirehoseRep {
    let world = scale_config(nodes);
    let factory = RngFactory::new(seed);
    let members: Vec<NodeId> = (1..=8).map(NodeId).collect();
    let config = firehose_config(workers);
    let feed = Span::new(timed);

    let wall = Instant::now();
    let report = run_firehose(
        Probe::new(ShardedCommunitySource::new(&world, &factory), &feed),
        NodeId(0),
        &members,
        &config,
    );
    let wall_s = wall.elapsed().as_secs_f64();

    FirehoseRep {
        wall_s,
        feed_calls: feed.calls(),
        feed_s: feed.busy_s(),
        report,
    }
}
