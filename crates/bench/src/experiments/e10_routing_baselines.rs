//! E10 — Routing-substrate sanity: classic DTN protocols on both traces
//! (the background the opportunistic data-access stack assumes), with
//! delivery under transmission loss and node churn alongside the
//! fault-free baseline (faults injected through the shared
//! [`ContactDriver`](omn_contacts::ContactDriver)).

use omn_contacts::faults::{DowntimeConfig, FaultConfig};
use omn_contacts::synth::presets::TracePreset;
use omn_net::routing::{
    DirectDelivery, Epidemic, FirstContact, Prophet, RoutingProtocol, SprayAndWait,
};
use omn_net::{workload, NetworkSimulator, SimConfig};
use omn_sim::{RngFactory, SimDuration};

use crate::experiments::trace_for;
use crate::scenario::CampaignPlan;
use crate::{banner, fmt_ci, per_seed, Table};

/// Parameters of E10: the unicast workload and the fault columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Trace presets, one table each.
    pub presets: Vec<TracePreset>,
    /// Unicast messages per run.
    pub messages: usize,
    /// Transmission-loss probability of the loss column.
    pub loss: f64,
    /// Churned node fraction of the churn column.
    pub churn: f64,
    /// Replication seeds.
    pub seeds: Vec<u64>,
}

impl Params {
    /// The campaign a compiled scenario plan describes.
    #[must_use]
    pub fn from_plan(plan: &CampaignPlan) -> Params {
        Params {
            presets: plan.presets(),
            messages: plan.scalar_usize_or("messages", 200),
            loss: plan.scalar_or("loss", 0.2),
            churn: plan.scalar_or("churn", 0.25),
            seeds: plan.seeds().to_vec(),
        }
    }
}

fn loss_faults(loss: f64) -> FaultConfig {
    FaultConfig {
        transmission_loss: loss,
        ..FaultConfig::default()
    }
}

fn churn_faults(churn: f64) -> FaultConfig {
    FaultConfig {
        downtime: Some(DowntimeConfig {
            node_fraction: churn,
            mean_uptime: SimDuration::from_hours(18.0),
            mean_downtime: SimDuration::from_hours(6.0),
            exempt: None,
        }),
        ..FaultConfig::default()
    }
}

/// Runs E10 as described by a compiled scenario plan.
pub fn run_plan(plan: &CampaignPlan) {
    run_with(&Params::from_plan(plan));
}

/// Runs E10: delivery ratio, mean delay and overhead ratio for each
/// protocol on each trace, plus delivery under transmission loss and node
/// churn.
pub fn run_with(params: &Params) {
    banner("E10", "routing baselines (substrate sanity)");
    let seeds = &params.seeds;
    for &preset in &params.presets {
        println!("\ntrace: {preset}");
        let mut table = Table::new([
            "protocol".to_owned(),
            "delivery ratio".to_owned(),
            "mean delay (h)".to_owned(),
            "tx per delivery".to_owned(),
            format!("delivery ({:.0}% loss)", params.loss * 100.0),
            format!("delivery ({:.0}% churn)", params.churn * 100.0),
        ]);

        type ProtocolFactory = fn() -> Box<dyn RoutingProtocol>;
        let protocols: [(&str, ProtocolFactory); 5] = [
            ("epidemic", || Box::new(Epidemic::new())),
            ("spray-and-wait (L=8)", || Box::new(SprayAndWait::new(8))),
            ("prophet", || Box::new(Prophet::new())),
            ("first-contact", || Box::new(FirstContact::new())),
            ("direct", || Box::new(DirectDelivery::new())),
        ];

        for (name, make) in protocols {
            let mut ratio = Vec::new();
            let mut delay = Vec::new();
            let mut overhead = Vec::new();
            let mut lossy = Vec::new();
            let mut churned = Vec::new();
            let per = per_seed(seeds, |seed| {
                let factory = RngFactory::new(seed);
                let trace = trace_for(preset, seed);
                let demands = workload::uniform_unicast(&trace, params.messages, &factory)
                    .expect("routing trace has enough nodes");
                let run_with = |faults: Option<FaultConfig>| {
                    let mut protocol = make();
                    NetworkSimulator::new(SimConfig {
                        faults,
                        ..SimConfig::default()
                    })
                    .run_seeded(&trace, protocol.as_mut(), &demands, &factory)
                };
                let clean = run_with(None);
                let loss = run_with(Some(loss_faults(params.loss)));
                let churn = run_with(Some(churn_faults(params.churn)));
                (
                    clean.delivery_ratio(),
                    clean.mean_delay(),
                    clean.overhead_ratio(),
                    loss.delivery_ratio(),
                    churn.delivery_ratio(),
                )
            });
            for (r, d, o, l, c) in per {
                ratio.push(r);
                if let Some(d) = d {
                    delay.push(d / 3600.0);
                }
                if let Some(o) = o {
                    overhead.push(o);
                }
                lossy.push(l);
                churned.push(c);
            }
            table.row([
                name.to_owned(),
                fmt_ci(&ratio, 3),
                fmt_ci(&delay, 2),
                fmt_ci(&overhead, 1),
                fmt_ci(&lossy, 3),
                fmt_ci(&churned, 3),
            ]);
        }
        table.print();
    }
    println!(
        "\n(expected shape: epidemic best delivery/delay at highest \
         overhead; spray-and-wait near-epidemic delivery at bounded \
         overhead; direct worst delivery, overhead exactly 1. Under loss, \
         multi-copy protocols degrade gracefully — every later contact is a \
         retry — while single-copy handoffs suffer; churn removes whole \
         contact opportunities and hits everything)"
    );
}
