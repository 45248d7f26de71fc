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
//! state each node carries in the distributed protocols. It logs each
//! contact with an append and folds the log into a key-sorted table in
//! batches, so recording stays off the per-contact cache-miss path.

use std::cell::{Ref, RefCell};
use std::collections::VecDeque;

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

/// Observations a table logs before folding, however small the table: a
/// young table would otherwise fold after every few contacts.
const FOLD_FLOOR: usize = 4096;

/// The pair key of `(a, b)`: the smaller id in the high half, so keys
/// sort by `(lo, hi)`.
fn pair_key(a: NodeId, b: NodeId) -> u64 {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    (u64::from(lo.0) << 32) | u64::from(hi.0)
}

/// The `(lo, hi)` node indices of a pair key.
fn pair_of(key: u64) -> (usize, usize) {
    ((key >> 32) as usize, (key & u64::from(u32::MAX)) as usize)
}

/// Per-pair estimator state, parallel to a [`PairRateTable`]'s sorted
/// keys. A cumulative entry is just its count: every pair shares the
/// table's observation start. The timed kinds carry the fresh estimator a
/// new pair starts from.
#[derive(Debug, Clone)]
enum Estimates {
    Cumulative(Vec<u64>),
    Ewma(EwmaRate, Vec<EwmaRate>),
    Window(SlidingWindowRate, Vec<SlidingWindowRate>),
}

/// A [`PairRateTable`]'s storage: the folded table plus the log of
/// observations not yet folded into it.
#[derive(Debug, Clone)]
struct Store {
    /// Pair keys of every observed pair, ascending.
    keys: Vec<u64>,
    /// One estimator per key.
    estimates: Estimates,
    /// Pair keys of unfolded observations, in arrival order.
    log: Vec<u64>,
    /// Arrival times of `log`; empty for the cumulative kind, whose
    /// state does not depend on them.
    log_times: Vec<SimTime>,
}

impl Store {
    fn new(kind: EstimatorKind) -> Store {
        let estimates = match kind {
            EstimatorKind::Cumulative => Estimates::Cumulative(Vec::new()),
            EstimatorKind::Ewma(alpha) => Estimates::Ewma(EwmaRate::new(alpha), Vec::new()),
            EstimatorKind::Window(w) => Estimates::Window(SlidingWindowRate::new(w), Vec::new()),
        };
        Store {
            keys: Vec::new(),
            estimates,
            log: Vec::new(),
            log_times: Vec::new(),
        }
    }

    fn record(&mut self, key: u64, t: SimTime) {
        self.log.push(key);
        if !matches!(self.estimates, Estimates::Cumulative(_)) {
            self.log_times.push(t);
        }
        if self.log.len() >= (self.keys.len() / 2).max(FOLD_FLOOR) {
            self.fold();
        }
    }

    /// Applies every logged observation to the table, each pair's in
    /// arrival order, and empties the log.
    fn fold(&mut self) {
        if self.log.is_empty() {
            return;
        }
        let Store {
            keys,
            estimates,
            log,
            log_times,
        } = self;
        match estimates {
            Estimates::Cumulative(counts) => {
                // Counts commute, so the log is sorted by key alone.
                log.sort_unstable();
                merge_runs(
                    keys,
                    counts,
                    log,
                    |&k| k,
                    || 0,
                    |c, run| {
                        *c += run.len() as u64;
                    },
                );
            }
            Estimates::Ewma(fresh, est) => fold_timed(keys, est, log, log_times, || *fresh),
            Estimates::Window(fresh, est) => {
                fold_timed(keys, est, log, log_times, || fresh.clone());
            }
        }
        log.clear();
        log_times.clear();
    }

    fn count_at(&self, i: usize) -> u64 {
        match &self.estimates {
            Estimates::Cumulative(c) => c[i],
            Estimates::Ewma(_, e) => e[i].count(),
            Estimates::Window(_, e) => e[i].count(),
        }
    }

    fn rate_at(&self, i: usize, start: SimTime, now: SimTime) -> f64 {
        match &self.estimates {
            Estimates::Cumulative(c) => CumulativeMle { start, count: c[i] }.rate(now),
            Estimates::Ewma(_, e) => e[i].rate(now),
            Estimates::Window(_, e) => e[i].rate(now),
        }
    }

    /// Builds the graph over nodes `0..node_count` with rate `rate(i)` for
    /// the `i`-th pair, in one pass over the sorted keys. Pairs leave in
    /// `(lo, hi)` order, so every row receives its peers in ascending
    /// order: first the lower peers (as `hi`), then the higher (as `lo`).
    fn graph(&self, node_count: usize, rate: impl Fn(usize) -> f64) -> crate::ContactGraph {
        let mut degree = vec![0usize; node_count];
        for &key in &self.keys {
            let (lo, hi) = pair_of(key);
            if hi < node_count {
                degree[lo] += 1;
                degree[hi] += 1;
            }
        }
        let mut adj: Vec<Vec<(u32, f64)>> = degree.into_iter().map(Vec::with_capacity).collect();
        for (i, &key) in self.keys.iter().enumerate() {
            let (lo, hi) = pair_of(key);
            if hi >= node_count {
                continue;
            }
            let r = rate(i);
            if r > 0.0 {
                adj[lo].push((hi as u32, r));
                adj[hi].push((lo as u32, r));
            }
        }
        crate::ContactGraph::from_sorted_rows(adj)
    }
}

/// Folds a timed kind's log: sorting `(key, arrival)` keeps each pair's
/// records in arrival order.
fn fold_timed<E: RateEstimator>(
    keys: &mut Vec<u64>,
    est: &mut Vec<E>,
    log: &[u64],
    log_times: &[SimTime],
    fresh: impl Fn() -> E,
) {
    let mut order: Vec<(u64, usize)> = log.iter().copied().zip(0..).collect();
    order.sort_unstable();
    merge_runs(
        keys,
        est,
        &order,
        |&(k, _)| k,
        fresh,
        |e, run| {
            for &(_, arrival) in run {
                e.record_contact(log_times[arrival]);
            }
        },
    );
}

/// Folds `log`, sorted by key with one run of records per key, into the
/// sorted table `keys`/`vals`: each run updates its key's entry through
/// `apply`, which a new key first gets from `fresh`. Runs are located by
/// galloping forward from the previous one, so m runs over n keys cost
/// O(m·log(n/m)). New keys are then spliced in by a second, backward pass
/// that moves each old entry past them once, with no staging buffer.
fn merge_runs<R, E>(
    keys: &mut Vec<u64>,
    vals: &mut Vec<E>,
    log: &[R],
    key_of: impl Fn(&R) -> u64,
    fresh: impl Fn() -> E,
    mut apply: impl FnMut(&mut E, &[R]),
) {
    let runs = || log.chunk_by(|x, y| key_of(x) == key_of(y));
    let mut new_keys = 0;
    let mut pos = 0;
    for run in runs() {
        let key = key_of(&run[0]);
        pos = gallop(keys, pos, key);
        if keys.get(pos) == Some(&key) {
            apply(&mut vals[pos], run);
        } else {
            new_keys += 1;
        }
    }
    if new_keys == 0 {
        return;
    }
    let mut old = keys.len();
    let mut slot = old + new_keys;
    keys.resize(slot, 0);
    vals.resize_with(slot, &fresh);
    for run in runs().rev() {
        let key = key_of(&run[0]);
        while old > 0 && keys[old - 1] > key {
            old -= 1;
            slot -= 1;
            keys[slot] = keys[old];
            vals.swap(slot, old);
        }
        if old > 0 && keys[old - 1] == key {
            continue; // an existing pair, updated by the first pass
        }
        slot -= 1;
        keys[slot] = key;
        vals[slot] = fresh();
        apply(&mut vals[slot], run);
        if slot == old {
            break; // every new key is placed; the prefix has not moved
        }
    }
}

/// The first index at or after `from` whose key is not below `key`,
/// found by exponential search from `from` (every key before `from` is
/// below `key`).
fn gallop(keys: &[u64], from: usize, key: u64) -> usize {
    let mut lo = from;
    let mut step = 1;
    while lo + step <= keys.len() && keys[lo + step - 1] < key {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(keys.len());
    lo + keys[lo..hi].partition_point(|&k| k < key)
}

/// A table of per-pair rate estimates, as maintained by each protocol node
/// (or globally by the simulator on behalf of all nodes).
///
/// Recording is an append to a log of pending observations. The log is
/// folded into a table sorted by pair key before any read, and whenever it
/// reaches half the table's size (or a small floor), so its memory stays
/// a fraction of the table's. A fold applies each pair's observations in
/// arrival order, so every estimator ends in exactly the state that
/// recording contact by contact would leave. Reads take `&self`: the fold
/// they trigger goes through interior mutability.
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
    start: SimTime,
    store: RefCell<Store>,
}

impl PairRateTable {
    /// Creates an empty table; new pairs get estimators of `kind` whose
    /// observation windows start at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` carries an invalid parameter (an EWMA alpha
    /// outside `(0, 1]`, a zero window).
    #[must_use]
    pub fn new(kind: EstimatorKind, start: SimTime) -> PairRateTable {
        PairRateTable {
            start,
            store: RefCell::new(Store::new(kind)),
        }
    }

    /// The store with every logged observation folded in.
    fn folded(&self) -> Ref<'_, Store> {
        self.store.borrow_mut().fold();
        self.store.borrow()
    }

    /// Records a contact between `a` and `b` at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn record_contact(&mut self, a: NodeId, b: NodeId, t: SimTime) {
        assert!(a != b, "PairRateTable::record_contact: self contact");
        self.store.get_mut().record(pair_key(a, b), t);
    }

    /// The estimated rate between `a` and `b` as of `now` (0 if never met).
    #[must_use]
    pub fn rate(&self, a: NodeId, b: NodeId, now: SimTime) -> f64 {
        let store = self.folded();
        store
            .keys
            .binary_search(&pair_key(a, b))
            .map_or(0.0, |i| store.rate_at(i, self.start, now))
    }

    /// Number of pairs with at least one observed contact.
    #[must_use]
    pub fn observed_pairs(&self) -> usize {
        self.folded().keys.len()
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
    /// `now`, for use by centralized planners. Pairs outside
    /// `0..node_count` and pairs whose estimate is 0 are left out.
    #[must_use]
    pub fn to_graph(&self, node_count: usize, now: SimTime) -> crate::ContactGraph {
        let store = self.folded();
        store.graph(node_count, |i| store.rate_at(i, self.start, now))
    }

    /// Exports the table's contact counts into a [`crate::ContactGraph`]:
    /// each observed pair's rate is `per_contact` added once per observed
    /// contact, starting from 0.0. That is the same floating-point sum,
    /// bit for bit, as accumulating the rate contact by contact the way
    /// [`crate::ContactGraph::from_trace`] does.
    #[must_use]
    pub fn count_graph(&self, node_count: usize, per_contact: f64) -> crate::ContactGraph {
        let store = self.folded();
        store.graph(node_count, |i| {
            let mut rate = 0.0;
            for _ in 0..store.count_at(i) {
                rate += per_contact;
            }
            rate
        })
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
    fn table_log_stays_bounded() {
        let mut table = PairRateTable::new(EstimatorKind::Cumulative, SimTime::ZERO);
        for i in 0..50_000u32 {
            let a = NodeId(i % 400);
            let b = NodeId((i * 7 + 1) % 401);
            if a != b {
                table.record_contact(a, b, t(f64::from(i)));
            }
            let store = table.store.get_mut();
            assert!(store.log.len() < (store.keys.len() / 2).max(FOLD_FLOOR));
            assert!(store.log_times.is_empty());
        }
        let store = table.folded();
        assert!(store.keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn gallop_finds_the_insertion_point() {
        let keys = [2, 4, 4, 6, 8, 10, 12, 14, 16];
        for from in 0..keys.len() {
            for key in 0..20 {
                if from > 0 && keys[from - 1] >= key {
                    continue;
                }
                assert_eq!(
                    gallop(&keys, from, key),
                    keys.partition_point(|&k| k < key),
                    "from {from}, key {key}"
                );
            }
        }
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
