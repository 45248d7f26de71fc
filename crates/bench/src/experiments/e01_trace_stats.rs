//! E1 — Trace characteristics (the paper's Table I analogue).

use omn_contacts::synth::presets::TracePreset;
use omn_contacts::TraceStats;
use omn_sim::stats::mean_ci95;

use crate::scenario::CampaignPlan;
use crate::{banner, per_seed, Table};

/// Parameters of E1: which presets to characterize, over which seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Trace presets, one table row each.
    pub presets: Vec<TracePreset>,
    /// Replication seeds.
    pub seeds: Vec<u64>,
}

impl Params {
    /// The campaign a compiled scenario plan describes.
    #[must_use]
    pub fn from_plan(plan: &CampaignPlan) -> Params {
        Params {
            presets: plan.presets(),
            seeds: plan.seeds().to_vec(),
        }
    }
}

/// Runs E1 as described by a compiled scenario plan.
pub fn run_plan(plan: &CampaignPlan) {
    run_with(&Params::from_plan(plan));
}

/// Runs E1: prints one row per trace preset with node count, span,
/// contacts, density, inter-contact and contact-duration statistics
/// (averaged over seeds).
pub fn run_with(params: &Params) {
    banner("E1", "trace characteristics (Table I analogue)");
    let mut table = Table::new([
        "trace",
        "nodes",
        "span (days)",
        "contacts",
        "contacts/node/day",
        "mean ICT (h)",
        "mean dur (s)",
        "mean degree",
    ]);

    let seeds = &params.seeds;
    for &preset in &params.presets {
        let mut contacts = Vec::new();
        let mut per_day = Vec::new();
        let mut ict = Vec::new();
        let mut dur = Vec::new();
        let mut degree = Vec::new();
        let mut nodes = 0;
        let mut span_days = 0.0;
        let per = per_seed(seeds, |seed| {
            let trace = crate::experiments::trace_for(preset, seed);
            TraceStats::compute(&trace)
        });
        for stats in per {
            nodes = stats.node_count;
            span_days = stats.span.as_days();
            contacts.push(stats.total_contacts as f64);
            per_day.push(stats.contacts_per_node_per_day);
            if let Some(s) = stats.inter_contact {
                ict.push(s.mean / 3600.0);
            }
            if let Some(s) = stats.contact_duration {
                dur.push(s.mean);
            }
            degree.push(stats.mean_degree());
        }
        let (c, _) = mean_ci95(&contacts);
        table.row([
            preset.name().to_owned(),
            nodes.to_string(),
            format!("{span_days:.1}"),
            format!("{c:.0}"),
            crate::fmt_ci(&per_day, 1),
            crate::fmt_ci(&ict, 1),
            crate::fmt_ci(&dur, 0),
            crate::fmt_ci(&degree, 1),
        ]);
    }
    table.print();
    println!(
        "\n(calibration targets: reality-like ~5 contacts/node/day, campus \
         communities; infocom-like conference density, order-of-magnitude \
         denser)"
    );
}
