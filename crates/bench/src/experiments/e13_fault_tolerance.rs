//! E13 — Fault tolerance: transmission loss and node churn (extension
//! beyond the reconstructed evaluation).
//!
//! Two sweeps over the conference trace, both driven by the deterministic
//! fault layer ([`omn_contacts::faults::FaultPlan`]):
//!
//! 1. **Loss sweep** — every attempted transfer fails i.i.d. with
//!    probability p. Compares the hierarchical scheme with bounded retry
//!    of failed replication handoffs and relay deliveries against the
//!    fail-once ablation and the epidemic upper bound.
//! 2. **Churn sweep** — a fraction of nodes cycles through exponential
//!    up/down periods. Reports freshness for the plain maintained
//!    hierarchy vs. the failure-aware one (retry + failure detector with
//!    re-parenting), plus the recovery observability: rejoin counts, mean
//!    time for a rejoined caching node to regain the current version, and
//!    the detector's suspicion/false-suspicion tallies.

use omn_contacts::faults::{DowntimeConfig, FaultConfig};
use omn_contacts::synth::presets::TracePreset;
use omn_core::scheme::{ResilienceConfig, RetryPolicy};
use omn_core::sim::{FreshnessSimulator, SchemeChoice};
use omn_sim::{RngFactory, SimDuration};

use crate::experiments::{config_for, trace_for};
use crate::scenario::{CampaignPlan, RetrySpec};
use crate::{banner, fmt_ci, fmt_ci_count, per_seed, Table};

const LOSS_RATES: [f64; 4] = [0.0, 0.1, 0.2, 0.4];
const CHURN_FRACTIONS: [f64; 3] = [0.0, 0.25, 0.5];

/// Parameters of E13: the loss and churn ladders and the retry policy of
/// the resilient variant.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Trace preset the sweeps run on.
    pub preset: TracePreset,
    /// Transmission-loss probabilities of the loss sweep.
    pub loss_rates: Vec<f64>,
    /// Churned node fractions of the churn sweep.
    pub churn_fractions: Vec<f64>,
    /// Retry policy of the retrying variant in the loss sweep.
    pub retry: RetrySpec,
    /// Replication seeds.
    pub seeds: Vec<u64>,
}

impl Params {
    /// The campaign a compiled scenario plan describes.
    #[must_use]
    pub fn from_plan(plan: &CampaignPlan) -> Params {
        Params {
            preset: plan.preset_one(),
            loss_rates: plan.axis_or("loss", &LOSS_RATES),
            churn_fractions: plan.axis_or("churn", &CHURN_FRACTIONS),
            retry: plan.retry().unwrap_or(RetrySpec::Fixed(3)),
            seeds: plan.seeds().to_vec(),
        }
    }
}

/// Retry-only resilience: bounded retransmissions, failure detector off.
fn retry_only(policy: RetryPolicy) -> ResilienceConfig {
    ResilienceConfig {
        retry: policy,
        suspect_after_icts: f64::INFINITY,
        ..ResilienceConfig::default()
    }
}

fn loss_sweep(params: &Params) {
    let preset = params.preset;
    println!("-- transmission-loss sweep (mean cache freshness) --\n");
    let mut table = Table::new([
        "loss",
        "hier (no retry)",
        "hier (retry)",
        "epidemic",
        "failed tx",
        "retries",
    ]);

    let seeds = &params.seeds;
    let policy = params.retry.to_policy();
    for &loss in &params.loss_rates {
        let mut plain = Vec::new();
        let mut retry = Vec::new();
        let mut epidemic = Vec::new();
        let mut failed_tx = Vec::new();
        let mut retries = Vec::new();
        let per = per_seed(seeds, |seed| {
            let trace = trace_for(preset, seed);
            let factory = RngFactory::new(seed);
            let mut base = config_for(preset);
            base.faults = Some(FaultConfig {
                transmission_loss: loss,
                ..FaultConfig::default()
            });

            let p = FreshnessSimulator::new(base).run(&trace, SchemeChoice::Hierarchical, &factory);

            base.resilience = Some(retry_only(policy));
            let r = FreshnessSimulator::new(base).run(&trace, SchemeChoice::Hierarchical, &factory);

            base.resilience = None;
            let e = FreshnessSimulator::new(base).run(&trace, SchemeChoice::Epidemic, &factory);
            (
                p.mean_freshness,
                r.mean_freshness,
                r.extras.get("failed-transmissions") as f64,
                (r.extras.get("replication-retries") + r.extras.get("relay-retries")) as f64,
                e.mean_freshness,
            )
        });
        for (p, r, ft, rt, e) in per {
            plain.push(p);
            retry.push(r);
            failed_tx.push(ft);
            retries.push(rt);
            epidemic.push(e);
        }
        table.row([
            format!("{:.0}%", loss * 100.0),
            fmt_ci(&plain, 3),
            fmt_ci(&retry, 3),
            fmt_ci(&epidemic, 3),
            fmt_ci_count(&failed_tx),
            fmt_ci_count(&retries),
        ]);
    }
    table.print();
    println!(
        "\n(expected shape: freshness falls with loss for every scheme; the \
         retry variant holds a margin over the fail-once ablation because a \
         lost replication handoff or relay delivery gets another chance at a \
         later contact instead of being abandoned for that version. Epidemic \
         degrades most gracefully — every contact is a retry opportunity)"
    );
}

fn churn_sweep(params: &Params) {
    let preset = params.preset;
    println!("\n-- node-churn sweep (mean up 18 h, mean down 6 h) --\n");
    let mut table = Table::new([
        "churning",
        "hier (maintained)",
        "hier (failure-aware)",
        "rejoins",
        "recovery (h)",
        "suspected",
        "false susp.",
    ]);

    let seeds = &params.seeds;
    for &frac in &params.churn_fractions {
        let mut plain = Vec::new();
        let mut aware = Vec::new();
        let mut rejoins = Vec::new();
        let mut recovery_h = Vec::new();
        let mut suspected = Vec::new();
        let mut false_susp = Vec::new();
        let per = per_seed(seeds, |seed| {
            let trace = trace_for(preset, seed);
            let factory = RngFactory::new(seed);
            let mut base = config_for(preset);
            base.rebuild_every = Some(SimDuration::from_hours(12.0));
            base.reparent = true;
            // The data source never churns: graceful degradation when other
            // nodes vanish is the point, a dead source stalls everything.
            let (source, _) = FreshnessSimulator::new(base).select_roles(&trace);
            base.faults = Some(FaultConfig {
                downtime: Some(DowntimeConfig {
                    node_fraction: frac,
                    mean_uptime: SimDuration::from_hours(18.0),
                    mean_downtime: SimDuration::from_hours(6.0),
                    exempt: Some(source),
                }),
                ..FaultConfig::default()
            });

            let p = FreshnessSimulator::new(base).run(&trace, SchemeChoice::Hierarchical, &factory);

            base.resilience = Some(ResilienceConfig::default());
            let r = FreshnessSimulator::new(base).run(&trace, SchemeChoice::Hierarchical, &factory);
            (
                p.mean_freshness,
                r.mean_freshness,
                r.extras.get("rejoin-events") as f64,
                r.recovery_delays.mean().unwrap_or(0.0) / 3600.0,
                r.extras.get("suspected-failures") as f64,
                r.extras.get("false-suspicions") as f64,
            )
        });
        for (p, a, rj, rec, su, fs) in per {
            plain.push(p);
            aware.push(a);
            rejoins.push(rj);
            recovery_h.push(rec);
            suspected.push(su);
            false_susp.push(fs);
        }
        table.row([
            format!("{:.0}%", frac * 100.0),
            fmt_ci(&plain, 3),
            fmt_ci(&aware, 3),
            fmt_ci_count(&rejoins),
            fmt_ci(&recovery_h, 1),
            fmt_ci_count(&suspected),
            fmt_ci_count(&false_susp),
        ]);
    }
    table.print();
    println!(
        "\n(expected shape: churn suppresses contacts of down nodes, so \
         freshness falls with the churning fraction; rejoined members take \
         on the order of the refresh period to regain the current version. \
         The failure detector fires on silent neighbors — some suspicions \
         are false when a quiet-but-alive pair simply has a long \
         inter-contact gap, which is why suspicion only re-parents and \
         never evicts)"
    );
}

/// Runs E13 as described by a compiled scenario plan.
pub fn run_plan(plan: &CampaignPlan) {
    run_with(&Params::from_plan(plan));
}

/// Runs E13: the loss sweep, then the churn sweep.
pub fn run_with(params: &Params) {
    banner("E13", "fault tolerance: loss and churn (extension)");
    let preset = params.preset;
    println!("trace: {preset}; faults injected via seeded FaultPlan\n");
    loss_sweep(params);
    churn_sweep(params);
}
