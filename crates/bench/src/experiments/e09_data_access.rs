//! E9 — Data-access validity with the full stack: the cooperative caching
//! layer decides where items are cached and answers queries; the freshness
//! layer decides whether those answers are *valid* (fresh). A fault sweep
//! re-runs the caching layer under transmission loss and node churn
//! (injected through the shared [`ContactDriver`](omn_contacts::ContactDriver)).

use omn_caching::query::QueryWorkload;
use omn_caching::{AccessReport, CachingConfig, CachingSimulator, Catalog};
use omn_contacts::faults::{DowntimeConfig, FaultConfig};
use omn_contacts::synth::presets::TracePreset;
use omn_core::sim::{FreshnessConfig, FreshnessReport, FreshnessSimulator, SchemeChoice};
use omn_sim::{RngFactory, SimDuration};

use crate::experiments::{config_for, trace_for};
use crate::scenario::CampaignPlan;
use crate::{banner, fmt_ci, fmt_ci_count, per_seed, Table};

const SCHEMES: [SchemeChoice; 4] = [
    SchemeChoice::Hierarchical,
    SchemeChoice::SourceOnly,
    SchemeChoice::Epidemic,
    SchemeChoice::NoRefresh,
];

/// Parameters of E9: the caching workload and the fault sweep knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Trace preset the stack runs on.
    pub preset: TracePreset,
    /// Freshness schemes compared on the cached items.
    pub schemes: Vec<SchemeChoice>,
    /// Catalog size (items).
    pub catalog: usize,
    /// Query count of the Zipf workload.
    pub load: usize,
    /// Transmission-loss probability of the loss fault scenario.
    pub loss: f64,
    /// Churned node fraction of the churn fault scenario.
    pub churn: f64,
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
            catalog: plan.scalar_usize_or("catalog", 6),
            load: plan.scalar_usize_or("load", 400),
            loss: plan.scalar_or("loss", 0.2),
            churn: plan.scalar_or("churn", 0.25),
            seeds: plan.seeds().to_vec(),
        }
    }
}

/// The caching-layer fault scenarios of the sweep: label plus fault
/// configuration (`None` = fault-free baseline).
fn fault_scenarios(params: &Params) -> [(String, Option<FaultConfig>); 3] {
    [
        ("fault-free".to_owned(), None),
        (
            format!("{:.0}% loss", params.loss * 100.0),
            Some(FaultConfig {
                transmission_loss: params.loss,
                ..FaultConfig::default()
            }),
        ),
        (
            format!("{:.0}% churn", params.churn * 100.0),
            Some(FaultConfig {
                downtime: Some(DowntimeConfig {
                    node_fraction: params.churn,
                    mean_uptime: SimDuration::from_hours(18.0),
                    mean_downtime: SimDuration::from_hours(6.0),
                    exempt: None,
                }),
                ..FaultConfig::default()
            }),
        ),
    ]
}

fn caching_run(
    params: &Params,
    seed: u64,
    faults: Option<FaultConfig>,
) -> (AccessReport, Catalog, QueryWorkload) {
    let factory = RngFactory::new(seed);
    let trace = trace_for(params.preset, seed);
    let base = config_for(params.preset);
    let catalog = Catalog::uniform(&trace, params.catalog, base.refresh_period, &factory);
    let queries = QueryWorkload::zipf(&trace, &catalog, params.load, 1.0, &factory);
    let report = CachingSimulator::new(CachingConfig {
        query_deadline: SimDuration::from_hours(12.0),
        faults,
        ..CachingConfig::default()
    })
    .run_seeded(&trace, &catalog, &queries, &factory);
    (report, catalog, queries)
}

/// Runs E9 as described by a compiled scenario plan.
pub fn run_plan(plan: &CampaignPlan) {
    run_with(&Params::from_plan(plan));
}

/// Runs E9: the caching layer computes per-item caching sets and raw
/// access success; each freshness scheme then maintains those sets, and
/// the fresh-access ratio is reported per scheme, averaged over items and
/// seeds. A final table sweeps the caching layer over loss and churn.
pub fn run_with(params: &Params) {
    banner("E9", "data-access validity (caching + freshness stack)");
    let preset = params.preset;
    println!("trace: {preset}\n");
    let seeds = &params.seeds;
    let schemes = &params.schemes;

    // One (access success, per-scheme item means) result per seed.
    type SchemeMeans = Vec<Option<(f64, f64)>>;
    let per: Vec<(f64, SchemeMeans)> = per_seed(seeds, |seed| {
        let factory = RngFactory::new(seed);
        let trace = trace_for(preset, seed);
        let base = config_for(preset);
        let (caching_report, catalog, _) = caching_run(params, seed, None);

        // Freshness layer per scheme, over each item's caching set.
        let per_scheme = schemes
            .iter()
            .map(|&choice| {
                let sim = FreshnessSimulator::new(FreshnessConfig {
                    query_count: 100,
                    ..base
                });
                let reports = sim.run_catalog(
                    &trace,
                    &catalog,
                    &caching_report.cachers_per_item,
                    choice,
                    &factory,
                );
                (!reports.is_empty()).then(|| {
                    let n = reports.len() as f64;
                    let fresh = reports
                        .iter()
                        .map(FreshnessReport::fresh_access_ratio)
                        .sum::<f64>()
                        / n;
                    let service = reports
                        .iter()
                        .map(FreshnessReport::service_ratio)
                        .sum::<f64>()
                        / n;
                    (fresh, service)
                })
            })
            .collect();
        (caching_report.success_ratio(), per_scheme)
    });

    let mut access_sr = Vec::new();
    let mut per_scheme_fresh: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    let mut per_scheme_service: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    for (sr, per_scheme) in per {
        access_sr.push(sr);
        for (si, entry) in per_scheme.into_iter().enumerate() {
            if let Some((fresh, service)) = entry {
                per_scheme_fresh[si].push(fresh);
                per_scheme_service[si].push(service);
            }
        }
    }

    println!(
        "caching layer raw query success ratio: {}",
        fmt_ci(&access_sr, 3)
    );
    println!();
    let mut table = Table::new(["freshness scheme", "service ratio", "fresh-access ratio"]);
    for (si, &choice) in schemes.iter().enumerate() {
        table.row([
            choice.name().to_owned(),
            fmt_ci(&per_scheme_service[si], 3),
            fmt_ci(&per_scheme_fresh[si], 3),
        ]);
    }
    table.print();
    println!(
        "\n(expected shape: service ratios are scheme-independent; the \
         *fresh*-access ratio is what freshness maintenance buys — \
         hierarchical close to epidemic, both far above no-refresh)"
    );

    // Fault sweep over the caching layer alone.
    println!("\ncaching layer under faults:");
    let mut fault_table = Table::new([
        "scenario",
        "success ratio",
        "local hits",
        "failed tx",
        "down contacts",
    ]);
    for (label, faults) in fault_scenarios(params) {
        let mut success = Vec::new();
        let mut local = Vec::new();
        let mut failed = Vec::new();
        let mut down = Vec::new();
        for (report, _, _) in per_seed(seeds, |seed| caching_run(params, seed, faults)) {
            success.push(report.success_ratio());
            local.push(report.local_hits as f64);
            failed.push(report.extras.get("failed-transmissions") as f64);
            down.push(report.extras.get("down-contacts") as f64);
        }
        fault_table.row([
            label,
            fmt_ci(&success, 3),
            fmt_ci_count(&local),
            fmt_ci_count(&failed),
            fmt_ci_count(&down),
        ]);
    }
    fault_table.print();
    println!(
        "\n(expected shape: loss lowers success as forwarded copies and \
         responses are dropped mid-path; churn suppresses whole contacts, \
         cutting both placement and query forwarding)"
    );
}
