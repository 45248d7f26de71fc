//! The scenario compiler: declarative spec → validated plan → executed
//! campaign.
//!
//! The evaluation is a matrix of worlds × schemes × fault levels ×
//! metrics. Instead of hard-coding that matrix in per-experiment Rust,
//! each campaign is described by a small declarative `.scn` file under
//! `specs/` and compiled through a three-layer pipeline:
//!
//! 1. **front-end** ([`spec`]) — [`parse`] turns the text into a typed
//!    [`ScenarioSpec`] (world, schemes, fault plan, retry policy,
//!    contention, oracle mode, seeds, matrix sweeps, output selection),
//!    with line/field-numbered [`ScenarioError`] diagnostics and a
//!    canonical [`ScenarioSpec::render`] (parse → render → parse is
//!    idempotent);
//! 2. **planner** ([`plan`]) — [`compile`] validates the spec against its
//!    campaign kind, folds in the process-wide
//!    [`CliOverrides`](crate::CliOverrides) (precedence: CLI > spec >
//!    driver default; a campaign-scoped flag the campaign does not read
//!    is an error), and expands the matrix into a [`CampaignPlan`];
//! 3. **executor** ([`exec`]) — [`execute`] drives the existing
//!    simulators (freshness / caching / joint / chaos / streaming) and
//!    the [`per_seed`](crate::per_seed) runner off the plan.
//!
//! The committed specs are the experiments: `omn-scn run` is the only
//! way to execute one, and the `spec_goldens` suite pins every spec's
//! printed output. A brand-new sweep — different seeds, axes, fault
//! ladder, schemes — is a new spec file with zero new Rust.

pub mod exec;
pub mod plan;
pub mod spec;

pub use exec::{compile_str, embedded, execute, EMBEDDED};
pub use plan::{compile, scope_overrides, CampaignPlan, PlanPoint};
pub use spec::{
    parse, CampaignKind, ContentionSpec, FaultRung, LinkSpec, MatrixAxis, OutputSpec,
    PairwiseWorld, RetrySpec, RunLeg, RunSpec, ScenarioError, ScenarioSpec, TableFilter, WorldSpec,
};
