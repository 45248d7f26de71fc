//! E7 — Scalability with the number of caching nodes: refresh delay and
//! freshness as the caching set grows.

use omn_contacts::synth::presets::TracePreset;
use omn_contacts::temporal;
use omn_core::sim::{FreshnessConfig, FreshnessSimulator, SchemeChoice};
use omn_sim::RngFactory;

use crate::experiments::{config_for, trace_for};
use crate::scenario::CampaignPlan;
use crate::{banner, fmt_ci, per_seed, Table};

const CACHING_NODES: [usize; 5] = [4, 8, 16, 24, 32];
const SCHEMES: [SchemeChoice; 3] = [
    SchemeChoice::Hierarchical,
    SchemeChoice::SourceOnly,
    SchemeChoice::RandomTree,
];

/// Parameters of E7: the caching-set-size sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Trace preset the sweep runs on.
    pub preset: TracePreset,
    /// Caching-set sizes swept.
    pub caching_nodes: Vec<usize>,
    /// Schemes compared at each size.
    pub schemes: Vec<SchemeChoice>,
    /// Replication seeds.
    pub seeds: Vec<u64>,
}

impl Params {
    /// The campaign a compiled scenario plan describes.
    #[must_use]
    pub fn from_plan(plan: &CampaignPlan) -> Params {
        Params {
            preset: plan.preset_one(),
            caching_nodes: plan.axis_usize_or("caching-nodes", &CACHING_NODES),
            schemes: plan.schemes_or(&SCHEMES),
            seeds: plan.seeds().to_vec(),
        }
    }
}

/// Runs E7 as described by a compiled scenario plan.
pub fn run_plan(plan: &CampaignPlan) {
    run_with(&Params::from_plan(plan));
}

/// Runs E7: mean and p95 refresh delay (hours) and mean freshness vs
/// caching-set size, with the *oracle* delay bound — the minimum any
/// dissemination scheme could achieve on the same trace, from
/// time-respecting path analysis — as the reference row.
pub fn run_with(params: &Params) {
    banner("E7", "scalability with caching nodes");
    let preset = params.preset;
    println!("trace: {preset}\n");
    let mut table = Table::new([
        "caching nodes",
        "scheme",
        "mean delay (h)",
        "p95 delay (h)",
        "mean freshness",
    ]);
    let seeds = &params.seeds;
    for &c in &params.caching_nodes {
        // Oracle bound: earliest possible arrival of each version at each
        // member via time-respecting contact paths.
        let oracle_mean: Vec<f64> = per_seed(seeds, |seed| {
            let config = FreshnessConfig {
                caching_nodes: c,
                ..config_for(preset)
            };
            let trace = trace_for(preset, seed);
            let sim = FreshnessSimulator::new(config);
            let (source, members) = sim.select_roles(&trace);
            let period = config.refresh_period.as_secs();
            let versions = (trace.span().as_secs() / period) as usize;
            let mut delays = Vec::new();
            for v in 1..versions {
                let birth = omn_sim::SimTime::from_secs(v as f64 * period);
                delays.extend(temporal::oracle_delays(&trace, source, birth, &members));
            }
            (!delays.is_empty()).then(|| delays.iter().sum::<f64>() / delays.len() as f64 / 3600.0)
        })
        .into_iter()
        .flatten()
        .collect();
        table.row([
            c.to_string(),
            "(oracle bound)".to_owned(),
            fmt_ci(&oracle_mean, 2),
            "-".to_owned(),
            "-".to_owned(),
        ]);

        for &choice in &params.schemes {
            let mut mean_d = Vec::new();
            let mut p95_d = Vec::new();
            let mut fresh = Vec::new();
            for mut report in per_seed(seeds, |seed| {
                let config = FreshnessConfig {
                    caching_nodes: c,
                    ..config_for(preset)
                };
                let trace = trace_for(preset, seed);
                FreshnessSimulator::new(config).run(&trace, choice, &RngFactory::new(seed))
            }) {
                if let Some(m) = report.refresh_delays.mean() {
                    mean_d.push(m / 3600.0);
                }
                if let Some(p) = report.refresh_delays.quantile(0.95) {
                    p95_d.push(p / 3600.0);
                }
                fresh.push(report.mean_freshness);
            }
            table.row([
                c.to_string(),
                choice.name().to_owned(),
                fmt_ci(&mean_d, 2),
                fmt_ci(&p95_d, 2),
                fmt_ci(&fresh, 3),
            ]);
        }
    }
    table.print();
    println!(
        "\n(expected shape: source-only delay grows with the caching set \
         as the source serializes all refreshing; the hierarchical scheme's \
         delay grows slowly because load is spread over the tree)"
    );
}
