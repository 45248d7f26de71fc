//! The batched pair-rate table against a reference model.
//!
//! `PairRateTable` logs each contact with an append and folds the log into
//! a key-sorted table in batches. This test streams four hours of a
//! 1000-node sharded community, so the log crosses both the fold floor and
//! the half-table threshold several times, and checks the table, between
//! records, against a `BTreeMap` model that recomputes every estimate from
//! scratch.

use std::collections::BTreeMap;

use omn::contacts::estimate::{EstimatorKind, PairRateTable};
use omn::contacts::synth::sharded::{ShardedCommunityConfig, ShardedCommunitySource};
use omn::contacts::{ContactGraph, ContactSource, NodeId};
use omn::sim::{RngFactory, SimDuration, SimTime};

const NODES: usize = 1000;
const START: SimTime = SimTime::ZERO;

// The table stays plain data that worlds can clone and move between
// threads.
const _: fn() = || {
    fn send_clone<T: Send + Clone>() {}
    send_clone::<PairRateTable>();
};

/// Per-pair state of the reference model: every contact time seen.
type Model = BTreeMap<(NodeId, NodeId), Vec<SimTime>>;

/// The cumulative maximum-likelihood rate: contacts over elapsed time.
fn cumulative(times: &[SimTime], now: SimTime) -> f64 {
    let elapsed = now.saturating_since(START).as_secs();
    if elapsed <= 0.0 {
        0.0
    } else {
        times.len() as f64 / elapsed
    }
}

/// The EWMA rate: the inverse of the smoothed positive inter-contact time.
fn ewma(times: &[SimTime], alpha: f64) -> f64 {
    let mut smoothed: Option<f64> = None;
    for w in times.windows(2) {
        let ict = w[1].saturating_since(w[0]).as_secs();
        if ict > 0.0 {
            smoothed = Some(smoothed.map_or(ict, |prev| alpha * ict + (1.0 - alpha) * prev));
        }
    }
    smoothed.map_or(0.0, |ict| 1.0 / ict)
}

fn model_rate(kind: EstimatorKind, times: &[SimTime], now: SimTime) -> f64 {
    match kind {
        EstimatorKind::Cumulative => cumulative(times, now),
        EstimatorKind::Ewma(alpha) => ewma(times, alpha),
        EstimatorKind::Window(_) => unreachable!("not modelled here"),
    }
}

/// The model's planning graph, built pair by pair with `set_rate`.
fn model_graph(model: &Model, kind: EstimatorKind, now: SimTime) -> ContactGraph {
    let mut g = ContactGraph::new(NODES);
    for (&(a, b), times) in model {
        g.set_rate(a, b, model_rate(kind, times, now));
    }
    g
}

/// A 1000-node community over four hours, with the E15 sweep's bridge
/// rate so pairs span shards.
fn source(seed: u64) -> ShardedCommunitySource {
    let config = ShardedCommunityConfig::new(NODES, 20, SimDuration::from_hours(4.0))
        .bridge_rate(1.0 / (2.0 * 3600.0));
    ShardedCommunitySource::new(&config, &RngFactory::new(seed))
}

fn check_against_model(kind: EstimatorKind) {
    let mut src = source(7);
    let mut table = PairRateTable::new(kind, START);
    let mut model = Model::new();
    // The warm-up graph's rule: each contact adds 1/window to its pair.
    let per_contact = 1.0 / 3600.0;
    let mut accumulated = ContactGraph::new(NODES);
    let mut contacts = 0usize;
    let mut next_read = SimTime::from_secs(1800.0);
    let mut last = START;
    while let Some(c) = src.next_contact() {
        let (a, b) = c.pair();
        if c.start() > next_read {
            // Reads between records: each folds the pending log.
            let now = c.start();
            assert_eq!(table.observed_pairs(), model.len());
            for (&(a, b), times) in model.iter().step_by(97) {
                let expected = model_rate(kind, times, now);
                assert_eq!(table.rate(b, a, now).to_bits(), expected.to_bits());
            }
            assert_eq!(table.to_graph(NODES, now), model_graph(&model, kind, now));
            next_read += SimDuration::from_secs(1800.0);
        }
        table.record_contact(a, b, c.start());
        model
            .entry((a.min(b), a.max(b)))
            .or_default()
            .push(c.start());
        let rate = accumulated.rate(a, b) + per_contact;
        accumulated.set_rate(a, b, rate);
        contacts += 1;
        last = c.start();
    }
    // About 50k contacts over 23k pairs: the log folds at its floor while
    // the table is young and at half the table's size after that.
    assert!(contacts > 40_000, "only {contacts} contacts");
    assert!(model.len() > 20_000, "only {} pairs", model.len());
    assert_eq!(table.observed_pairs(), model.len());
    assert_eq!(table.to_graph(NODES, last), model_graph(&model, kind, last));
    assert_eq!(table.count_graph(NODES, per_contact), accumulated);
}

#[test]
fn cumulative_table_matches_the_model() {
    check_against_model(EstimatorKind::Cumulative);
}

#[test]
fn ewma_table_matches_the_model() {
    check_against_model(EstimatorKind::Ewma(0.3));
}
