//! Online pairwise contact-rate estimation.
//!
//! Protocol nodes do not know the true contact rates; they estimate `λij`
//! from the contacts they observe. Three estimators are provided:
//!
//! * [`CumulativeMle`] — the maximum-likelihood estimate over the whole
//!   observation window, `λ̂ = contacts / elapsed`. Converges to the true
//!   rate for stationary processes; slow to adapt.
//! * [`EwmaRate`] — exponentially weighted moving average over observed
//!   inter-contact times; adapts to non-stationary mobility.
//! * [`SlidingWindowRate`] — contacts within a fixed recent window.
//!
//! [`PairRateTable`] maintains one estimator per node pair, which is the
//! state each node carries in the distributed protocols.

use std::collections::VecDeque;

use omn_sim::hash::FastMap;
use omn_sim::{SimDuration, SimTime};

use crate::contact::NodeId;

/// An online estimator of a pairwise contact rate.
pub trait RateEstimator: std::fmt::Debug {
    /// Records that a contact began at `t`.
    ///
    /// Contacts must be reported in non-decreasing time order.
    fn record_contact(&mut self, t: SimTime);

    /// The current rate estimate (contacts per second) as of `now`.
    /// Returns 0 before any contact has been observed.
    fn rate(&self, now: SimTime) -> f64;

    /// Number of contacts observed so far.
    fn count(&self) -> u64;
}

/// Maximum-likelihood rate over the full observation window:
/// `λ̂ = n / (now − start)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CumulativeMle {
    start: SimTime,
    count: u64,
}

impl CumulativeMle {
    /// Creates an estimator whose observation window starts at `start`.
    #[must_use]
    pub fn new(start: SimTime) -> CumulativeMle {
        CumulativeMle { start, count: 0 }
    }
}

impl RateEstimator for CumulativeMle {
    fn record_contact(&mut self, _t: SimTime) {
        self.count += 1;
    }

    fn rate(&self, now: SimTime) -> f64 {
        let elapsed = now.saturating_since(self.start).as_secs();
        if elapsed <= 0.0 {
            0.0
        } else {
            self.count as f64 / elapsed
        }
    }

    fn count(&self) -> u64 {
        self.count
    }
}

/// EWMA over observed inter-contact times.
///
/// After each contact the smoothed inter-contact time is updated as
/// `ict ← α·sample + (1−α)·ict`; the rate estimate is `1/ict`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EwmaRate {
    alpha: f64,
    last_contact: Option<SimTime>,
    smoothed_ict: Option<f64>,
    count: u64,
}

impl EwmaRate {
    /// Creates an EWMA estimator with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    #[must_use]
    pub fn new(alpha: f64) -> EwmaRate {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EwmaRate::new: alpha must be in (0, 1], got {alpha}"
        );
        EwmaRate {
            alpha,
            last_contact: None,
            smoothed_ict: None,
            count: 0,
        }
    }
}

impl RateEstimator for EwmaRate {
    fn record_contact(&mut self, t: SimTime) {
        if let Some(last) = self.last_contact {
            let ict = t.saturating_since(last).as_secs();
            if ict > 0.0 {
                self.smoothed_ict = Some(match self.smoothed_ict {
                    None => ict,
                    Some(prev) => self.alpha * ict + (1.0 - self.alpha) * prev,
                });
            }
        }
        self.last_contact = Some(t);
        self.count += 1;
    }

    fn rate(&self, _now: SimTime) -> f64 {
        match self.smoothed_ict {
            Some(ict) if ict > 0.0 => 1.0 / ict,
            _ => 0.0,
        }
    }

    fn count(&self) -> u64 {
        self.count
    }
}

/// Rate over a sliding window of recent history.
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingWindowRate {
    window: SimDuration,
    times: VecDeque<SimTime>,
    total: u64,
}

impl SlidingWindowRate {
    /// Creates an estimator over the trailing `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(window: SimDuration) -> SlidingWindowRate {
        assert!(!window.is_zero(), "SlidingWindowRate: zero window");
        SlidingWindowRate {
            window,
            times: VecDeque::new(),
            total: 0,
        }
    }
}

impl RateEstimator for SlidingWindowRate {
    fn record_contact(&mut self, t: SimTime) {
        self.times.push_back(t);
        self.total += 1;
    }

    fn rate(&self, now: SimTime) -> f64 {
        let cutoff_secs = (now.as_secs() - self.window.as_secs()).max(0.0);
        let in_window = self
            .times
            .iter()
            .filter(|t| t.as_secs() >= cutoff_secs)
            .count();
        let effective_window = now.as_secs().min(self.window.as_secs());
        if effective_window <= 0.0 {
            0.0
        } else {
            in_window as f64 / effective_window
        }
    }

    fn count(&self) -> u64 {
        self.total
    }
}

/// Which estimator a [`PairRateTable`] uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimatorKind {
    /// [`CumulativeMle`].
    Cumulative,
    /// [`EwmaRate`] with the given alpha.
    Ewma(f64),
    /// [`SlidingWindowRate`] with the given window.
    Window(SimDuration),
}

/// One pair's estimator state, as a [`PairRateTable`] stores it.
///
/// A table holds one entry per pair ever seen (hundreds of thousands at
/// 10⁴ nodes), so entries are kept to 16 bytes: a cumulative entry is just
/// its count (every pair shares the table's observation start), and the
/// larger, rarely used estimators are boxed.
#[derive(Debug, Clone, PartialEq)]
enum AnyEstimator {
    Cumulative(u64),
    Ewma(Box<EwmaRate>),
    Window(Box<SlidingWindowRate>),
}

impl AnyEstimator {
    fn new(kind: EstimatorKind) -> AnyEstimator {
        match kind {
            EstimatorKind::Cumulative => AnyEstimator::Cumulative(0),
            EstimatorKind::Ewma(alpha) => AnyEstimator::Ewma(Box::new(EwmaRate::new(alpha))),
            EstimatorKind::Window(w) => AnyEstimator::Window(Box::new(SlidingWindowRate::new(w))),
        }
    }

    fn record(&mut self, t: SimTime) {
        match self {
            AnyEstimator::Cumulative(count) => *count += 1,
            AnyEstimator::Ewma(e) => e.record_contact(t),
            AnyEstimator::Window(e) => e.record_contact(t),
        }
    }

    fn rate(&self, start: SimTime, now: SimTime) -> f64 {
        match self {
            &AnyEstimator::Cumulative(count) => CumulativeMle { start, count }.rate(now),
            AnyEstimator::Ewma(e) => e.rate(now),
            AnyEstimator::Window(e) => e.rate(now),
        }
    }
}

/// A table of per-pair rate estimates, as maintained by each protocol node
/// (or globally by the simulator on behalf of all nodes).
///
/// # Example
///
/// ```
/// use omn_contacts::estimate::{EstimatorKind, PairRateTable};
/// use omn_contacts::NodeId;
/// use omn_sim::SimTime;
///
/// let mut table = PairRateTable::new(EstimatorKind::Cumulative, SimTime::ZERO);
/// table.record_contact(NodeId(0), NodeId(1), SimTime::from_secs(10.0));
/// table.record_contact(NodeId(0), NodeId(1), SimTime::from_secs(30.0));
/// let rate = table.rate(NodeId(1), NodeId(0), SimTime::from_secs(100.0));
/// assert!((rate - 0.02).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct PairRateTable {
    kind: EstimatorKind,
    start: SimTime,
    pairs: FastMap<(NodeId, NodeId), AnyEstimator>,
}

impl PairRateTable {
    /// Creates an empty table; new pairs get estimators of `kind` whose
    /// observation windows start at `start`.
    #[must_use]
    pub fn new(kind: EstimatorKind, start: SimTime) -> PairRateTable {
        PairRateTable {
            kind,
            start,
            pairs: FastMap::default(),
        }
    }

    fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a < b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Records a contact between `a` and `b` at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn record_contact(&mut self, a: NodeId, b: NodeId, t: SimTime) {
        assert!(a != b, "PairRateTable::record_contact: self contact");
        let kind = self.kind;
        self.pairs
            .entry(PairRateTable::key(a, b))
            .or_insert_with(|| AnyEstimator::new(kind))
            .record(t);
    }

    /// The estimated rate between `a` and `b` as of `now` (0 if never met).
    #[must_use]
    pub fn rate(&self, a: NodeId, b: NodeId, now: SimTime) -> f64 {
        self.pairs
            .get(&PairRateTable::key(a, b))
            .map_or(0.0, |e| e.rate(self.start, now))
    }

    /// Number of pairs with at least one observed contact.
    #[must_use]
    pub fn observed_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Feeds every contact start of a materialized trace into the table,
    /// in trace order.
    ///
    /// This is how offline calibration replays an ingested dataset through
    /// the same estimator the protocol nodes run online.
    pub fn observe_trace(&mut self, trace: &crate::ContactTrace) {
        for c in trace.contacts() {
            self.record_contact(c.a(), c.b(), c.start());
        }
    }

    /// Exports the table into a [`crate::ContactGraph`] snapshot as of
    /// `now`, for use by centralized planners.
    #[must_use]
    pub fn to_graph(&self, node_count: usize, now: SimTime) -> crate::ContactGraph {
        let mut g = crate::ContactGraph::new(node_count);
        for (&(a, b), est) in &self.pairs {
            if a.index() < node_count && b.index() < node_count {
                g.set_rate(a, b, est.rate(self.start, now));
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn cumulative_mle_converges() {
        let mut e = CumulativeMle::new(SimTime::ZERO);
        assert_eq!(e.rate(t(0.0)), 0.0);
        for i in 1..=10 {
            e.record_contact(t(f64::from(i) * 10.0));
        }
        // 10 contacts in 100s
        assert!((e.rate(t(100.0)) - 0.1).abs() < 1e-12);
        assert_eq!(e.count(), 10);
    }

    #[test]
    fn ewma_tracks_recent_rates() {
        let mut e = EwmaRate::new(0.5);
        assert_eq!(e.rate(t(0.0)), 0.0);
        e.record_contact(t(0.0));
        assert_eq!(e.rate(t(1.0)), 0.0); // one contact: no ICT yet
        e.record_contact(t(10.0)); // ict 10
        assert!((e.rate(t(10.0)) - 0.1).abs() < 1e-12);
        e.record_contact(t(12.0)); // ict 2 -> smoothed 0.5*2+0.5*10 = 6
        assert!((e.rate(t(12.0)) - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        let _ = EwmaRate::new(0.0);
    }

    #[test]
    fn sliding_window_forgets_old_contacts() {
        let mut e = SlidingWindowRate::new(SimDuration::from_secs(100.0));
        e.record_contact(t(10.0));
        e.record_contact(t(20.0));
        // At t=50, both in window of effective length 50.
        assert!((e.rate(t(50.0)) - 2.0 / 50.0).abs() < 1e-12);
        // At t=111, the contact at t=10 has left the window [11, 111].
        assert!((e.rate(t(111.0)) - 1.0 / 100.0).abs() < 1e-12);
        // At t=300, window [200, 300] is empty.
        assert_eq!(e.rate(t(300.0)), 0.0);
        assert_eq!(e.count(), 2);
    }

    #[test]
    fn table_is_symmetric() {
        let mut table = PairRateTable::new(EstimatorKind::Cumulative, SimTime::ZERO);
        table.record_contact(NodeId(3), NodeId(1), t(10.0));
        assert_eq!(
            table.rate(NodeId(1), NodeId(3), t(100.0)),
            table.rate(NodeId(3), NodeId(1), t(100.0))
        );
        assert_eq!(table.observed_pairs(), 1);
        assert_eq!(table.rate(NodeId(0), NodeId(1), t(100.0)), 0.0);
    }

    #[test]
    fn table_exports_graph() {
        let mut table = PairRateTable::new(EstimatorKind::Cumulative, SimTime::ZERO);
        table.record_contact(NodeId(0), NodeId(1), t(10.0));
        table.record_contact(NodeId(0), NodeId(1), t(20.0));
        let g = table.to_graph(3, t(100.0));
        assert!((g.rate(NodeId(0), NodeId(1)) - 0.02).abs() < 1e-12);
        assert_eq!(g.rate(NodeId(1), NodeId(2)), 0.0);
    }

    #[test]
    fn observe_trace_matches_manual_feed() {
        use crate::contact::Contact;
        use crate::trace::TraceBuilder;

        let trace = TraceBuilder::new(3)
            .span(t(100.0))
            .contact(Contact::new(NodeId(0), NodeId(1), t(10.0), t(12.0)).unwrap())
            .contact(Contact::new(NodeId(1), NodeId(2), t(20.0), t(25.0)).unwrap())
            .contact(Contact::new(NodeId(0), NodeId(1), t(60.0), t(61.0)).unwrap())
            .build()
            .unwrap();
        let mut table = PairRateTable::new(EstimatorKind::Cumulative, SimTime::ZERO);
        table.observe_trace(&trace);
        assert_eq!(table.observed_pairs(), 2);
        assert!((table.rate(NodeId(0), NodeId(1), t(100.0)) - 0.02).abs() < 1e-12);
        assert!((table.rate(NodeId(1), NodeId(2), t(100.0)) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn table_with_ewma_kind() {
        let mut table = PairRateTable::new(EstimatorKind::Ewma(0.5), SimTime::ZERO);
        table.record_contact(NodeId(0), NodeId(1), t(0.0));
        table.record_contact(NodeId(0), NodeId(1), t(10.0));
        assert!((table.rate(NodeId(0), NodeId(1), t(10.0)) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn table_entries_stay_compact() {
        assert!(std::mem::size_of::<AnyEstimator>() <= 16);
    }

    #[test]
    fn table_with_window_kind() {
        let mut table = PairRateTable::new(
            EstimatorKind::Window(SimDuration::from_secs(10.0)),
            SimTime::ZERO,
        );
        table.record_contact(NodeId(0), NodeId(1), t(1.0));
        assert!(table.rate(NodeId(0), NodeId(1), t(5.0)) > 0.0);
        assert_eq!(table.rate(NodeId(0), NodeId(1), t(50.0)), 0.0);
    }
}
