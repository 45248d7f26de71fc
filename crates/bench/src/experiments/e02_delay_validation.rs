//! E2 — Analytical model validation: predicted refresh-delay CDFs and
//! per-node freshness against trace-driven simulation.

use omn_contacts::synth::{generate_pairwise, PairwiseConfig};
use omn_contacts::ContactGraph;
use omn_core::analysis;
use omn_core::scheme::{HierarchicalConfig, HierarchicalScheme};
use omn_core::sim::{FreshnessConfig, FreshnessSimulator};
use omn_sim::stats::EmpiricalCdf;
use omn_sim::{RngFactory, SimDuration};

use crate::scenario::{CampaignPlan, PairwiseWorld, WorldSpec};
use crate::{banner, Table};

/// Parameters of E2: the pairwise-exponential world and the validation
/// sweep shape. No seed set — the analytical comparison uses one fixed
/// world keyed by `world.world_seed`.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// The synthetic pairwise-exponential contact world.
    pub world: PairwiseWorld,
    /// Caching-node count of the validated configuration.
    pub caching_nodes: usize,
    /// Refresh period, hours.
    pub refresh_hours: f64,
    /// The CDF is tabulated at 1..=`cdf_max_k` hours.
    pub cdf_max_k: usize,
}

impl Params {
    /// The campaign a compiled scenario plan describes.
    ///
    /// # Panics
    ///
    /// Panics if the plan's world is not pairwise, which `compile`
    /// rejects for `delay-validation`.
    #[must_use]
    pub fn from_plan(plan: &CampaignPlan) -> Params {
        let WorldSpec::Pairwise(world) = &plan.spec.world else {
            unreachable!("the planner guarantees a pairwise world for delay-validation");
        };
        Params {
            world: world.clone(),
            caching_nodes: plan.scalar_usize_or("caching-nodes", 8),
            refresh_hours: plan.scalar_or("refresh-hours", 12.0),
            cdf_max_k: plan.scalar_usize_or("cdf-max-k", 12),
        }
    }
}

/// Runs E2 as described by a compiled scenario plan.
pub fn run_plan(plan: &CampaignPlan) {
    run_with(&Params::from_plan(plan));
}

/// Runs E2: prints the simulated vs analytical refresh-delay CDF series
/// and a per-node freshness comparison table.
pub fn run_with(params: &Params) {
    banner("E2", "analysis vs simulation (validation figure)");

    // Pairwise-exponential trace: the analytical assumption holds by
    // construction, so residual gaps isolate protocol idealizations.
    let w = &params.world;
    let factory = RngFactory::new(w.world_seed);
    let trace = generate_pairwise(
        &PairwiseConfig::new(w.nodes, SimDuration::from_days(w.span_days))
            .mean_rate(1.0 / w.mean_interval_secs)
            .rate_shape(w.rate_shape),
        &factory,
    );
    let config = FreshnessConfig {
        caching_nodes: params.caching_nodes,
        refresh_period: SimDuration::from_hours(params.refresh_hours),
        query_count: 0,
        ..FreshnessConfig::default()
    };
    let sim = FreshnessSimulator::new(config);
    let (source, members) = sim.select_roles(&trace);
    let graph = ContactGraph::from_trace(&trace);
    let mut scheme = HierarchicalScheme::new(HierarchicalConfig {
        replication: Some(config.requirement),
        ..HierarchicalConfig::default()
    });
    let report = sim.run_with_roles(&trace, source, &members, &mut scheme, &factory);
    let hierarchy = scheme.hierarchy().expect("built");
    let summary = analysis::analyze(
        hierarchy,
        scheme.plans(),
        &graph,
        config.refresh_period.as_secs(),
        config.requirement,
    );

    // CDF series: network-mean analytic CDF vs empirical simulated CDF.
    println!("\nrefresh-delay CDF (hours), simulated vs analytical:");
    let mut cdf_table = Table::new(["t (h)", "F_sim(t)", "F_analysis(t)"]);
    let sim_cdf = EmpiricalCdf::from_samples(report.refresh_delays.samples().to_vec());
    for k in 1..=params.cdf_max_k {
        let t_h = k as f64; // 1..cdf_max_k hours
        let t = t_h * 3600.0;
        let analytic =
            summary.nodes.iter().map(|p| p.delay.cdf(t)).sum::<f64>() / summary.nodes.len() as f64;
        cdf_table.row([
            format!("{t_h:.0}"),
            format!("{:.3}", sim_cdf.eval(t)),
            format!("{analytic:.3}"),
        ]);
    }
    cdf_table.print();

    println!("\nper-node freshness, simulated (network mean) vs analytical:");
    let mut node_table = Table::new(["node", "depth", "relays on path", "freshness (analysis)"]);
    for p in &summary.nodes {
        let depth = hierarchy.depth_of(p.node);
        let relays: usize = hierarchy
            .path_from_root(p.node)
            .windows(2)
            .map(|w| {
                scheme
                    .plans()
                    .get(&(w[0], w[1]))
                    .map_or(0, |pl| pl.relays.len())
            })
            .sum();
        node_table.row([
            p.node.to_string(),
            depth.to_string(),
            relays.to_string(),
            format!("{:.3}", p.freshness),
        ]);
    }
    node_table.print();
    println!(
        "\nnetwork mean freshness: simulated {:.3}, analytical {:.3}",
        report.mean_freshness, summary.mean_freshness
    );
    println!(
        "requirement satisfaction: simulated {:.3}, analytical {:.3}",
        report.requirement_satisfaction, summary.mean_within_deadline
    );
}
