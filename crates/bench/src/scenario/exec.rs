//! The scenario executor: dispatches a compiled [`CampaignPlan`] to the
//! experiment driver of its campaign kind.

use crate::experiments as e;
use crate::runner::CliOverrides;

use super::plan::{compile, CampaignPlan};
use super::spec::{parse, CampaignKind, ScenarioError};

/// Every committed spec, in campaign order, embedded so `omn-scn` runs
/// them by name without touching the filesystem.
pub const EMBEDDED: &[(&str, &str)] = &[
    ("e01", include_str!("../../../../specs/e01.scn")),
    ("e02", include_str!("../../../../specs/e02.scn")),
    ("e03", include_str!("../../../../specs/e03.scn")),
    ("e04", include_str!("../../../../specs/e04.scn")),
    ("e05", include_str!("../../../../specs/e05.scn")),
    ("e06", include_str!("../../../../specs/e06.scn")),
    ("e07", include_str!("../../../../specs/e07.scn")),
    ("e08", include_str!("../../../../specs/e08.scn")),
    ("e09", include_str!("../../../../specs/e09.scn")),
    ("e10", include_str!("../../../../specs/e10.scn")),
    ("e11", include_str!("../../../../specs/e11.scn")),
    ("e12", include_str!("../../../../specs/e12.scn")),
    ("e13", include_str!("../../../../specs/e13.scn")),
    ("e14", include_str!("../../../../specs/e14.scn")),
    ("e15", include_str!("../../../../specs/e15.scn")),
    ("e16", include_str!("../../../../specs/e16.scn")),
    ("e17", include_str!("../../../../specs/e17.scn")),
    ("e18", include_str!("../../../../specs/e18.scn")),
    ("e19", include_str!("../../../../specs/e19.scn")),
];

/// The embedded spec text of the named scenario.
#[must_use]
pub fn embedded(id: &str) -> Option<&'static str> {
    EMBEDDED
        .iter()
        .find(|(name, _)| *name == id)
        .map(|&(_, text)| text)
}

/// Parses and compiles one spec document under the given overrides.
///
/// # Errors
///
/// Returns the first parse or plan [`ScenarioError`].
pub fn compile_str(text: &str, overrides: &CliOverrides) -> Result<CampaignPlan, ScenarioError> {
    compile(&parse(text)?, overrides)
}

/// Runs a compiled plan on the experiment driver of its campaign kind.
pub fn execute(plan: &CampaignPlan) {
    match plan.spec.campaign {
        CampaignKind::TraceStats => e::e01_trace_stats::run_plan(plan),
        CampaignKind::DelayValidation => e::e02_delay_validation::run_plan(plan),
        CampaignKind::FreshnessTime => e::e03_freshness_time::run_plan(plan),
        CampaignKind::FreshnessRequirement => e::e04_freshness_requirement::run_plan(plan),
        CampaignKind::RefreshPeriod => e::e05_refresh_period::run_plan(plan),
        CampaignKind::Overhead => e::e06_overhead::run_plan(plan),
        CampaignKind::CachingNodes => e::e07_caching_nodes::run_plan(plan),
        CampaignKind::Ablation => e::e08_ablation::run_plan(plan),
        CampaignKind::DataAccess => e::e09_data_access::run_plan(plan),
        CampaignKind::RoutingBaselines => e::e10_routing_baselines::run_plan(plan),
        CampaignKind::Robustness => e::e11_robustness::run_plan(plan),
        CampaignKind::LoadDistribution => e::e12_load_distribution::run_plan(plan),
        CampaignKind::FaultTolerance => e::e13_fault_tolerance::run_plan(plan),
        CampaignKind::JointWorld => e::e14_joint_world::run_plan(plan),
        CampaignKind::Scalability => e::e15_scalability::run_plan(plan),
        CampaignKind::RealTraces => e::e16_real_traces::run_plan(plan),
        CampaignKind::Chaos => e::e17_chaos::run_plan(plan),
        CampaignKind::Runtime => e::e18_runtime::run_plan(plan),
        CampaignKind::Bandwidth => e::e19_bandwidth::run_plan(plan),
    }
}
