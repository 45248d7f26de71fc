//! E12 — Refresh-load distribution (the paper's *basic idea* quantified):
//! "let each caching node be only responsible for refreshing a specific set
//! of caching nodes" exists precisely to take the refreshing load off the
//! source. This experiment measures who actually sends the refresh
//! traffic.

use omn_contacts::synth::presets::TracePreset;
use omn_core::sim::{FreshnessConfig, FreshnessSimulator, SchemeChoice};
use omn_sim::RngFactory;

use crate::experiments::{config_for, trace_for};
use crate::scenario::CampaignPlan;
use crate::{banner, fmt_ci, per_seed, Table};

const SCHEMES: [SchemeChoice; 4] = [
    SchemeChoice::Hierarchical,
    SchemeChoice::HierarchicalNoReplication,
    SchemeChoice::SourceOnly,
    SchemeChoice::Epidemic,
];

/// Parameters of E12: schemes compared at one caching-set size.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Trace preset the comparison runs on.
    pub preset: TracePreset,
    /// Schemes, one table row each.
    pub schemes: Vec<SchemeChoice>,
    /// Caching-set size (large enough that serializing at the source
    /// visibly hurts).
    pub caching_nodes: usize,
    /// Replication seeds.
    pub seeds: Vec<u64>,
}

impl Params {
    /// The campaign a compiled scenario plan describes.
    #[must_use]
    pub fn from_plan(plan: &CampaignPlan) -> Params {
        Params {
            preset: plan.preset_one(),
            schemes: plan.schemes_or(&SCHEMES),
            caching_nodes: plan.scalar_usize_or("caching-nodes", 16),
            seeds: plan.seeds().to_vec(),
        }
    }
}

/// Runs E12 as described by a compiled scenario plan.
pub fn run_plan(plan: &CampaignPlan) {
    run_with(&Params::from_plan(plan));
}

/// Runs E12: reports the source's share of refresh transmissions, the
/// busiest node's share, and the absolute per-version load on the source.
pub fn run_with(params: &Params) {
    banner("E12", "refresh-load distribution");
    let preset = params.preset;
    println!("trace: {preset}, {} caching nodes\n", params.caching_nodes);

    let mut table = Table::new([
        "scheme",
        "source share",
        "busiest-node share",
        "source tx/version",
        "mean freshness",
    ]);

    let seeds = &params.seeds;
    for &choice in &params.schemes {
        let mut src_share = Vec::new();
        let mut max_share = Vec::new();
        let mut src_per_version = Vec::new();
        let mut fresh = Vec::new();
        for report in per_seed(seeds, |seed| {
            let config = FreshnessConfig {
                caching_nodes: params.caching_nodes,
                ..config_for(preset)
            };
            let trace = trace_for(preset, seed);
            FreshnessSimulator::new(config).run(&trace, choice, &RngFactory::new(seed))
        }) {
            let total = report.transmissions.max(1) as f64;
            src_share.push(report.source_transmissions() as f64 / total);
            max_share.push(report.max_node_transmissions() as f64 / total);
            src_per_version
                .push(report.source_transmissions() as f64 / report.version_count as f64);
            fresh.push(report.mean_freshness);
        }
        table.row([
            choice.name().to_owned(),
            fmt_ci(&src_share, 2),
            fmt_ci(&max_share, 2),
            fmt_ci(&src_per_version, 1),
            fmt_ci(&fresh, 3),
        ]);
    }
    table.print();
    println!(
        "\n(expected shape: source-only puts 100% of the load on the \
         source; the hierarchical scheme caps the source's share near \
         fanout/members and spreads the rest over caching nodes; epidemic \
         spreads widest but at far higher total cost — see E6)"
    );
}
