//! E6 — Overhead: transmissions and replicas per scheme, and the
//! freshness-per-transmission trade-off.

use omn_contacts::synth::presets::TracePreset;
use omn_core::sim::{FreshnessSimulator, SchemeChoice};
use omn_sim::RngFactory;

use crate::experiments::{config_for, trace_for};
use crate::scenario::CampaignPlan;
use crate::{banner, fmt_ci, fmt_ci_count, per_seed, Table};

/// Parameters of E6: presets × schemes overhead comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Trace presets, one table each.
    pub presets: Vec<TracePreset>,
    /// Schemes, one table row each.
    pub schemes: Vec<SchemeChoice>,
    /// Replication seeds.
    pub seeds: Vec<u64>,
}

impl Params {
    /// The campaign a compiled scenario plan describes.
    #[must_use]
    pub fn from_plan(plan: &CampaignPlan) -> Params {
        Params {
            presets: plan.presets(),
            schemes: plan.schemes_or(&SchemeChoice::ALL),
            seeds: plan.seeds().to_vec(),
        }
    }
}

/// Runs E6 as described by a compiled scenario plan.
pub fn run_plan(plan: &CampaignPlan) {
    run_with(&Params::from_plan(plan));
}

/// Runs E6 on the configured traces: per scheme, total transmissions,
/// replicas, transmissions per version per caching node, and mean
/// freshness (the trade-off the paper's overhead figure makes).
pub fn run_with(params: &Params) {
    banner("E6", "overhead comparison");
    let seeds = &params.seeds;
    for &preset in &params.presets {
        println!("\ntrace: {preset}");
        let config = config_for(preset);
        let sim = FreshnessSimulator::new(config);
        let mut table = Table::new([
            "scheme",
            "transmissions",
            "replicas",
            "tx/version/node",
            "relay-buffer (copy-h)",
            "mean freshness",
        ]);
        for &choice in &params.schemes {
            let mut tx = Vec::new();
            let mut reps = Vec::new();
            let mut per = Vec::new();
            let mut buf = Vec::new();
            let mut fresh = Vec::new();
            for report in per_seed(seeds, |seed| {
                let trace = trace_for(preset, seed);
                sim.run(&trace, choice, &RngFactory::new(seed))
            }) {
                tx.push(report.transmissions as f64);
                reps.push(report.replicas as f64);
                per.push(report.overhead_per_version_per_member());
                buf.push(report.extras.get("relay-copy-seconds") as f64 / 3600.0);
                fresh.push(report.mean_freshness);
            }
            table.row([
                choice.name().to_owned(),
                fmt_ci_count(&tx),
                fmt_ci_count(&reps),
                fmt_ci(&per, 2),
                fmt_ci_count(&buf),
                fmt_ci(&fresh, 3),
            ]);
        }
        table.print();
    }
    println!(
        "\n(expected shape: epidemic pays O(network) transmissions per \
         version for its freshness; the hierarchical scheme approaches \
         epidemic freshness at a fraction of the transmissions; source-only \
         is cheap but stale)"
    );
}
