//! E11 — Robustness to node departures (failure injection; an extension
//! beyond the reconstructed evaluation).
//!
//! At the half-way point of the trace, a fraction of nodes departs
//! permanently — including, possibly, caching nodes and planned relays.
//! Departures are injected through the fault layer
//! ([`omn_contacts::faults::FaultPlan`]): contacts involving a departed
//! node are suppressed, so no trace rewriting is needed and the departed
//! count is rounded over the eligible pool (all nodes minus the exempt
//! source). A statically planned hierarchy keeps refreshing through edges
//! whose endpoints are gone; the distributed-maintenance variant (periodic
//! rebuilds from online estimates + re-parenting) adapts around them; the
//! failure-aware variant additionally retries lost transfers and presumes
//! silent tree neighbors down.

use omn_contacts::faults::{DepartureConfig, FaultConfig};
use omn_contacts::synth::presets::TracePreset;
use omn_contacts::{ContactGraph, NodeId};
use omn_core::hierarchy::{HierarchyStrategy, RefreshHierarchy};
use omn_core::replication::ReplicationPlanner;
use omn_core::scheme::{
    EpidemicRefresh, HierarchicalConfig, HierarchicalScheme, PlanningMode, RefreshScheme,
    ResilienceConfig,
};
use omn_core::sim::FreshnessSimulator;
use omn_sim::{RngFactory, SimDuration, SimTime};

use crate::experiments::{config_for, trace_for};
use crate::scenario::CampaignPlan;
use crate::{banner, fmt_ci, per_seed, window_mean, Table};

const DEPART_FRACTIONS: [f64; 4] = [0.0, 0.1, 0.2, 0.4];

/// Parameters of E11: the departure-fraction ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Trace preset the sweep runs on.
    pub preset: TracePreset,
    /// Departed node fractions swept.
    pub depart_fractions: Vec<f64>,
    /// Replication seeds.
    pub seeds: Vec<u64>,
}

impl Params {
    /// The campaign a compiled scenario plan describes.
    #[must_use]
    pub fn from_plan(plan: &CampaignPlan) -> Params {
        Params {
            preset: plan.preset_one(),
            depart_fractions: plan.axis_or("departed", &DEPART_FRACTIONS),
            seeds: plan.seeds().to_vec(),
        }
    }
}

/// The static variant: planned once on the *healthy* network, executed
/// verbatim on the failed one (its tree edges and relay plans may point at
/// departed nodes).
fn static_scheme(
    base: &omn_core::sim::FreshnessConfig,
    healthy: &ContactGraph,
    source: NodeId,
    members: &[NodeId],
    seed: u64,
) -> HierarchicalScheme {
    let mut rng = RngFactory::new(seed).stream("e11-static-plan");
    let hierarchy = RefreshHierarchy::build(
        source,
        members,
        healthy,
        HierarchyStrategy::GreedySed {
            fanout: base.fanout,
        },
        &mut rng,
    );
    let plans = ReplicationPlanner::new(base.requirement, base.max_relays)
        .plan_hierarchy(&hierarchy, healthy);
    HierarchicalScheme::with_fixed_plan(
        HierarchicalConfig {
            strategy: HierarchyStrategy::GreedySed {
                fanout: base.fanout,
            },
            replication: Some(base.requirement),
            max_relays: base.max_relays,
            rebuild_every: None,
            reparent: false,
            planning: PlanningMode::Oracle,
            resilience: None,
        },
        hierarchy,
        plans,
    )
}

fn maintained_scheme(
    base: &omn_core::sim::FreshnessConfig,
    resilience: Option<ResilienceConfig>,
) -> HierarchicalScheme {
    HierarchicalScheme::new(HierarchicalConfig {
        strategy: HierarchyStrategy::GreedySed {
            fanout: base.fanout,
        },
        replication: Some(base.requirement),
        max_relays: base.max_relays,
        rebuild_every: Some(SimDuration::from_hours(12.0)),
        reparent: true,
        planning: PlanningMode::Estimated,
        resilience,
    })
}

/// Runs E11 as described by a compiled scenario plan.
pub fn run_plan(plan: &CampaignPlan) {
    run_with(&Params::from_plan(plan));
}

/// Runs E11: post-failure freshness (second half of the trace) per
/// departure fraction for the statically planned hierarchy, the maintained
/// hierarchy, the failure-aware maintained hierarchy, and epidemic
/// refreshing.
pub fn run_with(params: &Params) {
    banner("E11", "robustness to node departures (extension)");
    let preset = params.preset;
    println!("trace: {preset}; departures at half-span (fault-injected)\n");

    let mut table = Table::new([
        "departed",
        "hier (static)",
        "hier (maintained)",
        "hier (failure-aware)",
        "epidemic",
    ]);

    let seeds = &params.seeds;
    for &frac in &params.depart_fractions {
        let mut static_f = Vec::new();
        let mut maintained_f = Vec::new();
        let mut resilient_f = Vec::new();
        let mut epidemic_f = Vec::new();
        let per = per_seed(seeds, |seed| {
            let mut base = config_for(preset);
            let factory = RngFactory::new(seed);
            let trace = trace_for(preset, seed);
            let half = SimTime::from_secs(trace.span().as_secs() / 2.0);

            // Roles come from the healthy network; departures may hit
            // caching nodes and relays alike (only the source is exempt).
            let (source, members) = FreshnessSimulator::new(base).select_roles(&trace);
            base.faults = Some(FaultConfig {
                departures: Some(DepartureConfig {
                    fraction: frac,
                    at_frac: 0.5,
                    exempt: Some(source),
                }),
                ..FaultConfig::default()
            });
            let sim = FreshnessSimulator::new(base);
            let healthy_graph = ContactGraph::from_trace(&trace);

            let post = |scheme: &mut dyn RefreshScheme| {
                let report = sim.run_with_roles(&trace, source, &members, scheme, &factory);
                window_mean(
                    &report.freshness_timeline,
                    half.as_secs(),
                    trace.span().as_secs(),
                )
            };

            (
                post(&mut static_scheme(
                    &base,
                    &healthy_graph,
                    source,
                    &members,
                    seed,
                )),
                post(&mut maintained_scheme(&base, None)),
                post(&mut maintained_scheme(
                    &base,
                    Some(ResilienceConfig::default()),
                )),
                post(&mut EpidemicRefresh::new()),
            )
        });
        for (st, ma, re, ep) in per {
            static_f.push(st);
            maintained_f.push(ma);
            resilient_f.push(re);
            epidemic_f.push(ep);
        }
        table.row([
            format!("{:.0}%", frac * 100.0),
            fmt_ci(&static_f, 3),
            fmt_ci(&maintained_f, 3),
            fmt_ci(&resilient_f, 3),
            fmt_ci(&epidemic_f, 3),
        ]);
    }
    table.print();
    println!(
        "\n(expected shape: everything degrades — departed caching nodes \
         cannot be refreshed at all. The interesting feature is the \
         crossover: with no/low churn the oracle-planned static hierarchy \
         wins because online maintenance pays estimation noise, but from \
         ~20% departures the maintained hierarchy overtakes it — the static \
         plan's tree edges and relay sets keep pointing at dead nodes, \
         while rebuilds route around them. The failure-aware variant \
         additionally suspects silent neighbors and re-parents their \
         orphans, buying a further margin at high departure fractions)"
    );
}
