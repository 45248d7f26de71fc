//! E4 — Freshness vs the freshness requirement `q`: replication is sized
//! analytically to the requirement, so the *planned* per-hop success
//! probability tracks `q` and the replica count grows with it; measured
//! satisfaction rises accordingly until the trace's diurnal night gaps
//! bound what any deadline-limited scheme can achieve.

use omn_contacts::synth::presets::TracePreset;
use omn_contacts::ContactGraph;
use omn_core::freshness::FreshnessRequirement;
use omn_core::hierarchy::{HierarchyStrategy, RefreshHierarchy};
use omn_core::replication::ReplicationPlanner;
use omn_core::sim::{FreshnessConfig, FreshnessSimulator, SchemeChoice};
use omn_sim::RngFactory;

use crate::experiments::{config_for, trace_for};
use crate::scenario::CampaignPlan;
use crate::{banner, fmt_ci, per_seed, Table};

const REQUIREMENTS: [f64; 5] = [0.5, 0.6, 0.7, 0.8, 0.9];
const MAX_RELAYS: usize = 16;

/// Parameters of E4: the requirement sweep and the relay cap.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Trace preset the sweep runs on.
    pub preset: TracePreset,
    /// Freshness requirements `q` swept.
    pub qs: Vec<f64>,
    /// Per-edge relay cap of the replication planner.
    pub max_relays: usize,
    /// Replication seeds.
    pub seeds: Vec<u64>,
}

impl Params {
    /// The campaign a compiled scenario plan describes.
    #[must_use]
    pub fn from_plan(plan: &CampaignPlan) -> Params {
        Params {
            preset: plan.preset_one(),
            qs: plan.axis_or("q", &REQUIREMENTS),
            max_relays: plan.scalar_usize_or("max-relays", MAX_RELAYS),
            seeds: plan.seeds().to_vec(),
        }
    }
}

/// Runs E4 as described by a compiled scenario plan.
pub fn run_plan(plan: &CampaignPlan) {
    run_with(&Params::from_plan(plan));
}

/// Runs E4 on the configured trace.
pub fn run_with(params: &Params) {
    banner("E4", "freshness vs requirement q (replication sizing)");
    let preset = params.preset;
    let max_relays = params.max_relays;
    println!("trace: {preset}, max relays per edge: {max_relays}\n");

    let mut table = Table::new([
        "q",
        "relays/edge",
        "planned P(hop)",
        "satisfaction",
        "mean freshness",
        "replicas/run",
    ]);

    let seeds = &params.seeds;
    for &q in &params.qs {
        let per = per_seed(seeds, |seed| {
            let base = config_for(preset);
            let requirement = FreshnessRequirement::new(q, base.requirement.deadline);
            let config = FreshnessConfig {
                requirement,
                max_relays,
                ..base
            };
            let trace = trace_for(preset, seed);
            let sim = FreshnessSimulator::new(config);

            // Planning view: what the analytical sizing produces for q.
            let (source, members) = sim.select_roles(&trace);
            let graph = ContactGraph::from_trace(&trace);
            let mut rng = RngFactory::new(seed).stream("e4-plan");
            let hierarchy = RefreshHierarchy::build(
                source,
                &members,
                &graph,
                HierarchyStrategy::GreedySed {
                    fanout: config.fanout,
                },
                &mut rng,
            );
            let plans =
                ReplicationPlanner::new(requirement, max_relays).plan_hierarchy(&hierarchy, &graph);
            let edges = plans.len().max(1) as f64;
            let relays = plans.values().map(|p| p.relays.len() as f64).sum::<f64>() / edges;
            let hop_p = plans.values().map(|p| p.achieved_probability).sum::<f64>() / edges;

            // Measured view.
            let report = sim.run(&trace, SchemeChoice::Hierarchical, &RngFactory::new(seed));
            (
                relays,
                hop_p,
                report.requirement_satisfaction,
                report.mean_freshness,
                report.replicas as f64,
            )
        });

        let mut relays_per_edge = Vec::new();
        let mut planned = Vec::new();
        let mut sat = Vec::new();
        let mut fresh = Vec::new();
        let mut replicas = Vec::new();
        for (relays, hop_p, s, f, r) in per {
            relays_per_edge.push(relays);
            planned.push(hop_p);
            sat.push(s);
            fresh.push(f);
            replicas.push(r);
        }
        table.row([
            format!("{q:.1}"),
            fmt_ci(&relays_per_edge, 1),
            fmt_ci(&planned, 3),
            fmt_ci(&sat, 3),
            fmt_ci(&fresh, 3),
            crate::fmt_ci_count(&replicas),
        ]);
    }
    table.print();
    println!(
        "\n(expected shape: planned per-hop probability and relays/edge \
         scale with q — the analytical sizing responds to the requirement; \
         measured satisfaction rises with q but saturates below 1.0 because \
         versions born into the diurnal night cannot meet a short deadline \
         under any replication)"
    );
}
