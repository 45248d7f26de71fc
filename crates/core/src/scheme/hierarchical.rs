//! The paper's scheme: hierarchical refreshing with probabilistic
//! replication and distributed maintenance.
//!
//! The protocol logic lives in the sans-io
//! [`HierarchicalCore`](crate::protocol::HierarchicalCore); this adapter
//! drives it with [`SchemeCtx`] as the [`ProtocolEnv`](crate::protocol::ProtocolEnv),
//! one core call per scheme callback, so the DES path is bit-identical to
//! the historical in-place implementation.

use omn_contacts::NodeId;
use omn_sim::hash::FastMap;

use crate::hierarchy::RefreshHierarchy;
use crate::protocol::HierarchicalCore;
use crate::replication::ReplicationPlan;

pub use crate::protocol::{HierarchicalConfig, PlanningMode, ResilienceConfig, RetryPolicy};

use super::{RefreshScheme, SchemeCtx};

/// Hierarchical cache refreshing with probabilistic replication
/// (the reproduced paper's scheme), as a DES scheme.
///
/// * Each caching node refreshes exactly its children in the refresh tree.
/// * When a parent holding the current version meets a relay from one of
///   its edges' replication plans, it hands the relay a copy; the relay
///   delivers it to the designated child at their next meeting and then
///   drops it.
/// * Optionally the tree is rebuilt every epoch from (estimated or oracle)
///   contact rates, and members re-parent distributively when they meet a
///   strictly better parent.
#[derive(Debug)]
pub struct HierarchicalScheme {
    core: HierarchicalCore,
}

impl HierarchicalScheme {
    /// Creates the scheme.
    #[must_use]
    pub fn new(config: HierarchicalConfig) -> HierarchicalScheme {
        HierarchicalScheme {
            core: HierarchicalCore::new(config),
        }
    }

    /// Creates the scheme with an externally planned hierarchy and
    /// replication plans, installed verbatim at start. Used to evaluate
    /// *stale* plans (e.g. planned on a pre-failure network and executed
    /// after node departures); combine with `rebuild_every: None` and
    /// `reparent: false` for a fully static plan.
    #[must_use]
    pub fn with_fixed_plan(
        config: HierarchicalConfig,
        hierarchy: RefreshHierarchy,
        plans: FastMap<(NodeId, NodeId), ReplicationPlan>,
    ) -> HierarchicalScheme {
        HierarchicalScheme {
            core: HierarchicalCore::with_fixed_plan(config, hierarchy, plans),
        }
    }

    /// The *source-only* baseline: a star with no replication — the source
    /// refreshes every caching node itself on direct contact.
    #[must_use]
    pub fn source_only() -> HierarchicalScheme {
        HierarchicalScheme {
            core: HierarchicalCore::source_only(),
        }
    }

    /// The *random hierarchy* baseline: random parents under the same
    /// fanout bound, no replication, no maintenance.
    #[must_use]
    pub fn random_tree(fanout: Option<usize>) -> HierarchicalScheme {
        HierarchicalScheme {
            core: HierarchicalCore::random_tree(fanout),
        }
    }

    /// The current hierarchy (after `on_start`).
    #[must_use]
    pub fn hierarchy(&self) -> Option<&RefreshHierarchy> {
        self.core.hierarchy()
    }

    /// The current replication plans, keyed by `(parent, child)`.
    #[must_use]
    pub fn plans(&self) -> &FastMap<(NodeId, NodeId), ReplicationPlan> {
        self.core.plans()
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &HierarchicalConfig {
        self.core.config()
    }
}

impl RefreshScheme for HierarchicalScheme {
    fn name(&self) -> &'static str {
        self.core.name()
    }

    fn on_start(&mut self, ctx: &mut SchemeCtx<'_>) {
        self.core.on_start(ctx);
    }

    fn on_version_birth(&mut self, version: u64, ctx: &mut SchemeCtx<'_>) {
        self.core.on_version_birth(version, ctx);
    }

    fn on_contact(&mut self, a: NodeId, b: NodeId, ctx: &mut SchemeCtx<'_>) {
        self.core.on_contact(a, b, ctx);
    }

    fn on_state_loss(&mut self, n: NodeId, ctx: &mut SchemeCtx<'_>) {
        self.core.on_state_loss(n, ctx);
    }

    fn on_finish(&mut self, ctx: &mut SchemeCtx<'_>) {
        self.core.on_finish(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freshness::FreshnessRequirement;
    use crate::hierarchy::HierarchyStrategy;
    use crate::scheme::testutil::CtxHarness;
    use omn_contacts::ContactGraph;
    use omn_sim::{SimDuration, SimTime};

    /// Graph: source 0, members 1 (fast link) and 2 (slow direct link but
    /// fast path via 1); node 3 is a good relay between 0 and 2.
    fn graph() -> ContactGraph {
        let mut g = ContactGraph::new(4);
        g.set_rate(NodeId(0), NodeId(1), 1.0);
        g.set_rate(NodeId(1), NodeId(2), 1.0);
        g.set_rate(NodeId(0), NodeId(2), 0.001);
        g.set_rate(NodeId(0), NodeId(3), 0.5);
        g.set_rate(NodeId(3), NodeId(2), 0.5);
        g
    }

    fn default_scheme() -> HierarchicalScheme {
        HierarchicalScheme::new(HierarchicalConfig {
            strategy: HierarchyStrategy::GreedySed { fanout: Some(2) },
            replication: Some(FreshnessRequirement::new(0.9, SimDuration::from_secs(10.0))),
            max_relays: 2,
            ..HierarchicalConfig::default()
        })
    }

    #[test]
    fn builds_tree_on_start() {
        let mut h = CtxHarness::new(graph(), NodeId(0), vec![NodeId(1), NodeId(2)]);
        let mut s = default_scheme();
        s.on_start(&mut h.ctx());
        let tree = s.hierarchy().unwrap();
        tree.validate(Some(2)).unwrap();
        // Fast chain 0→1→2 wins over the slow direct 0→2.
        assert_eq!(tree.parent_of(NodeId(1)), Some(NodeId(0)));
        assert_eq!(tree.parent_of(NodeId(2)), Some(NodeId(1)));
    }

    #[test]
    fn parent_refreshes_only_its_children() {
        let mut h = CtxHarness::new(graph(), NodeId(0), vec![NodeId(1), NodeId(2)]);
        let mut s = default_scheme();
        s.on_start(&mut h.ctx());
        h.current_version = 1;

        // Source meets member 2 — but 2's parent is 1, so no delivery.
        h.now = SimTime::from_secs(10.0);
        s.on_contact(NodeId(0), NodeId(2), &mut h.ctx());
        assert_eq!(h.member_versions[&NodeId(2)], 0);

        // Source meets its child 1: refresh.
        s.on_contact(NodeId(0), NodeId(1), &mut h.ctx());
        assert_eq!(h.member_versions[&NodeId(1)], 1);

        // 1 meets its child 2: refresh cascades.
        h.now = SimTime::from_secs(20.0);
        s.on_contact(NodeId(1), NodeId(2), &mut h.ctx());
        assert_eq!(h.member_versions[&NodeId(2)], 1);
        assert_eq!(h.transmissions, 2);
    }

    #[test]
    fn relays_carry_versions_to_their_target() {
        // Source 0, single member 2 with a slow direct link; node 3 is the
        // only useful relay (node 1 is kept disconnected here so the relay
        // choice is forced).
        let mut g = ContactGraph::new(4);
        g.set_rate(NodeId(0), NodeId(2), 0.001);
        g.set_rate(NodeId(0), NodeId(3), 0.5);
        g.set_rate(NodeId(3), NodeId(2), 0.5);
        let mut h = CtxHarness::new(g, NodeId(0), vec![NodeId(2)]);
        let mut s = HierarchicalScheme::new(HierarchicalConfig {
            strategy: HierarchyStrategy::GreedySed { fanout: None },
            replication: Some(FreshnessRequirement::new(
                0.95,
                SimDuration::from_secs(10.0),
            )),
            max_relays: 2,
            ..HierarchicalConfig::default()
        });
        s.on_start(&mut h.ctx());
        let tree = s.hierarchy().unwrap();
        // Only member is 2; its parent is the root.
        assert_eq!(tree.parent_of(NodeId(2)), Some(NodeId(0)));
        let plan = &s.plans()[&(NodeId(0), NodeId(2))];
        assert!(
            plan.relays.contains(&NodeId(3)),
            "relay 3 should be selected, got {:?}",
            plan.relays
        );

        h.current_version = 1;
        h.now = SimTime::from_secs(5.0);
        // Source meets relay 3: replica handed over.
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        assert_eq!(h.replicas, 1);
        assert_eq!(h.member_versions[&NodeId(2)], 0);

        // Relay 3 meets child 2: delivery.
        h.now = SimTime::from_secs(8.0);
        s.on_contact(NodeId(3), NodeId(2), &mut h.ctx());
        assert_eq!(h.member_versions[&NodeId(2)], 1);

        // Relay copy dropped: meeting 2 again transfers nothing.
        let tx = h.transmissions;
        s.on_contact(NodeId(3), NodeId(2), &mut h.ctx());
        assert_eq!(h.transmissions, tx);
    }

    #[test]
    fn stale_relay_copies_are_garbage_collected() {
        let mut h = CtxHarness::new(graph(), NodeId(0), vec![NodeId(2)]);
        let mut s = HierarchicalScheme::new(HierarchicalConfig {
            strategy: HierarchyStrategy::GreedySed { fanout: None },
            replication: Some(FreshnessRequirement::new(
                0.95,
                SimDuration::from_secs(10.0),
            )),
            max_relays: 2,
            ..HierarchicalConfig::default()
        });
        s.on_start(&mut h.ctx());
        h.current_version = 1;
        h.now = SimTime::from_secs(5.0);
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        // A new version supersedes the relay's copy; on its next contact
        // the stale copy is dropped without delivery.
        h.current_version = 2;
        h.now = SimTime::from_secs(6.0);
        s.on_contact(NodeId(3), NodeId(1), &mut h.ctx());
        h.now = SimTime::from_secs(8.0);
        s.on_contact(NodeId(3), NodeId(2), &mut h.ctx());
        assert_eq!(
            h.member_versions[&NodeId(2)],
            0,
            "stale copy must not deliver"
        );
    }

    #[test]
    fn source_only_is_a_star() {
        let mut h = CtxHarness::new(graph(), NodeId(0), vec![NodeId(1), NodeId(2)]);
        let mut s = HierarchicalScheme::source_only();
        s.on_start(&mut h.ctx());
        assert_eq!(s.name(), "source-only");
        let tree = s.hierarchy().unwrap();
        assert_eq!(tree.parent_of(NodeId(2)), Some(NodeId(0)));
        assert!(s.plans().is_empty());

        h.current_version = 1;
        h.now = SimTime::from_secs(1.0);
        // Member-to-member contact does nothing under source-only.
        s.on_contact(NodeId(1), NodeId(2), &mut h.ctx());
        assert_eq!(h.transmissions, 0);
        s.on_contact(NodeId(0), NodeId(2), &mut h.ctx());
        assert_eq!(h.member_versions[&NodeId(2)], 1);
    }

    #[test]
    fn reparenting_switches_to_better_parent() {
        let mut h = CtxHarness::new(graph(), NodeId(0), vec![NodeId(1), NodeId(2)]);
        let mut s = HierarchicalScheme::new(HierarchicalConfig {
            strategy: HierarchyStrategy::Star, // start from the bad tree
            replication: None,
            reparent: true,
            ..HierarchicalConfig::default()
        });
        // Force the star name check not to matter; enable reparenting.
        s.on_start(&mut h.ctx());
        assert_eq!(s.hierarchy().unwrap().parent_of(NodeId(2)), Some(NodeId(0)));
        // Feed the estimator: 0–1 and 1–2 meet often; 0–2 rarely.
        for k in 0..50 {
            let t = SimTime::from_secs(10.0 + f64::from(k) * 10.0);
            h.rates.record_contact(NodeId(0), NodeId(1), t);
            h.rates.record_contact(NodeId(1), NodeId(2), t);
        }
        h.rates
            .record_contact(NodeId(0), NodeId(2), SimTime::from_secs(400.0));
        h.now = SimTime::from_secs(510.0);
        // 2 meets 1: via-1 delay ≈ 10 + 10, current ≈ 500 → switch.
        s.on_contact(NodeId(2), NodeId(1), &mut h.ctx());
        assert_eq!(
            s.hierarchy().unwrap().parent_of(NodeId(2)),
            Some(NodeId(1)),
            "2 should re-parent under 1"
        );
        s.hierarchy().unwrap().validate(None).unwrap();
    }

    #[test]
    fn fixed_plan_is_installed_verbatim() {
        let g = graph();
        let mut rng = omn_sim::RngFactory::new(7).stream("plan");
        // A deliberately bad (star) hierarchy planned externally.
        let hierarchy = RefreshHierarchy::build(
            NodeId(0),
            &[NodeId(1), NodeId(2)],
            &g,
            HierarchyStrategy::Star,
            &mut rng,
        );
        let planner = crate::replication::ReplicationPlanner::new(
            FreshnessRequirement::new(0.9, SimDuration::from_secs(10.0)),
            2,
        );
        let plans = planner.plan_hierarchy(&hierarchy, &g);
        let mut h = CtxHarness::new(g, NodeId(0), vec![NodeId(1), NodeId(2)]);
        let mut s = HierarchicalScheme::with_fixed_plan(
            HierarchicalConfig {
                strategy: HierarchyStrategy::GreedySed { fanout: Some(2) },
                ..HierarchicalConfig::default()
            },
            hierarchy.clone(),
            plans.clone(),
        );
        s.on_start(&mut h.ctx());
        // The installed tree is the star we passed, not a fresh GreedySed
        // build.
        assert_eq!(s.hierarchy(), Some(&hierarchy));
        assert_eq!(s.plans(), &plans);
    }

    #[test]
    fn epoch_rebuild_happens() {
        let mut h = CtxHarness::new(graph(), NodeId(0), vec![NodeId(1), NodeId(2)]);
        let mut s = HierarchicalScheme::new(HierarchicalConfig {
            strategy: HierarchyStrategy::GreedySed { fanout: Some(2) },
            replication: None,
            rebuild_every: Some(SimDuration::from_secs(100.0)),
            planning: PlanningMode::Estimated,
            ..HierarchicalConfig::default()
        });
        s.on_start(&mut h.ctx());
        // With no observations, the estimated tree is arbitrary. Observe
        // contacts, pass the epoch, and the tree adapts.
        for k in 0..30 {
            let t = SimTime::from_secs(f64::from(k) * 5.0);
            h.rates.record_contact(NodeId(0), NodeId(1), t);
            h.rates.record_contact(NodeId(1), NodeId(2), t);
        }
        h.now = SimTime::from_secs(150.0);
        s.on_contact(NodeId(0), NodeId(1), &mut h.ctx());
        let tree = s.hierarchy().unwrap();
        assert_eq!(tree.parent_of(NodeId(2)), Some(NodeId(1)));
    }

    /// Source 0, lone member 2 reachable mainly through relay 3 (same
    /// shape as `relays_carry_versions_to_their_target`).
    fn relay_graph() -> ContactGraph {
        let mut g = ContactGraph::new(4);
        g.set_rate(NodeId(0), NodeId(2), 0.001);
        g.set_rate(NodeId(0), NodeId(3), 0.5);
        g.set_rate(NodeId(3), NodeId(2), 0.5);
        g
    }

    fn relay_scheme(resilience: Option<ResilienceConfig>) -> HierarchicalScheme {
        HierarchicalScheme::new(HierarchicalConfig {
            strategy: HierarchyStrategy::GreedySed { fanout: None },
            replication: Some(FreshnessRequirement::new(
                0.95,
                SimDuration::from_secs(10.0),
            )),
            max_relays: 2,
            resilience,
            ..HierarchicalConfig::default()
        })
    }

    /// Detection disabled; only the retry half of resilience active.
    fn retry_only(max_attempts: u32) -> ResilienceConfig {
        ResilienceConfig {
            retry: RetryPolicy::fixed(max_attempts),
            suspect_after_icts: f64::INFINITY,
            min_silence: SimDuration::from_hours(1.0),
        }
    }

    #[test]
    fn replication_handoff_retries_until_exhausted() {
        let mut h = CtxHarness::new(relay_graph(), NodeId(0), vec![NodeId(2)]);
        let mut s = relay_scheme(Some(retry_only(2)));
        s.on_start(&mut h.ctx());
        h.current_version = 1;
        h.fail_all_transfers();

        // Initial handoff attempt is lost on the air.
        h.now = SimTime::from_secs(5.0);
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        assert_eq!((h.transmissions, h.replicas), (1, 0));
        // Two bounded retries at later contacts, also lost.
        h.now = SimTime::from_secs(6.0);
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        h.now = SimTime::from_secs(7.0);
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        assert_eq!(h.transmissions, 3);
        assert_eq!(h.extras.get("replication-retries"), 2);
        // Retry budget spent: no further attempts even once loss clears.
        h.now = SimTime::from_secs(8.0);
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        h.faults = None;
        h.now = SimTime::from_secs(9.0);
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        assert_eq!((h.transmissions, h.replicas), (3, 0));
    }

    #[test]
    fn non_resilient_handoff_fails_once_and_gives_up() {
        let mut h = CtxHarness::new(relay_graph(), NodeId(0), vec![NodeId(2)]);
        let mut s = relay_scheme(None);
        s.on_start(&mut h.ctx());
        h.current_version = 1;
        h.fail_all_transfers();
        h.now = SimTime::from_secs(5.0);
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        assert_eq!((h.transmissions, h.replicas), (1, 0));
        h.faults = None;
        h.now = SimTime::from_secs(6.0);
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        assert_eq!((h.transmissions, h.replicas), (1, 0), "fail-once: no retry");
    }

    #[test]
    fn resilient_relay_retries_failed_delivery() {
        let mut h = CtxHarness::new(relay_graph(), NodeId(0), vec![NodeId(2)]);
        let mut s = relay_scheme(Some(retry_only(1)));
        s.on_start(&mut h.ctx());
        h.current_version = 1;
        // Clean handoff to the relay...
        h.now = SimTime::from_secs(5.0);
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        assert_eq!(h.replicas, 1);
        // ...then the delivery to the child is lost; the copy is retained.
        h.fail_all_transfers();
        h.now = SimTime::from_secs(8.0);
        s.on_contact(NodeId(3), NodeId(2), &mut h.ctx());
        assert_eq!(h.member_versions[&NodeId(2)], 0);
        assert_eq!(h.extras.get("relay-retries"), 1);
        // Next meeting retries and succeeds.
        h.faults = None;
        h.now = SimTime::from_secs(9.0);
        s.on_contact(NodeId(3), NodeId(2), &mut h.ctx());
        assert_eq!(h.member_versions[&NodeId(2)], 1);
    }

    #[test]
    fn non_resilient_relay_drops_copy_on_failed_delivery() {
        let mut h = CtxHarness::new(relay_graph(), NodeId(0), vec![NodeId(2)]);
        let mut s = relay_scheme(None);
        s.on_start(&mut h.ctx());
        h.current_version = 1;
        h.now = SimTime::from_secs(5.0);
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        assert_eq!(h.replicas, 1);
        h.fail_all_transfers();
        h.now = SimTime::from_secs(8.0);
        s.on_contact(NodeId(3), NodeId(2), &mut h.ctx());
        h.faults = None;
        let tx = h.transmissions;
        h.now = SimTime::from_secs(9.0);
        s.on_contact(NodeId(3), NodeId(2), &mut h.ctx());
        assert_eq!(h.transmissions, tx, "copy was dropped on first failure");
        assert_eq!(h.member_versions[&NodeId(2)], 0);
    }

    #[test]
    fn failure_detector_reparents_around_silent_parent() {
        let mut h = CtxHarness::new(graph(), NodeId(0), vec![NodeId(1), NodeId(2)]);
        let mut s = HierarchicalScheme::new(HierarchicalConfig {
            strategy: HierarchyStrategy::GreedySed { fanout: Some(2) },
            replication: None,
            resilience: Some(ResilienceConfig {
                retry: RetryPolicy::fixed(0),
                suspect_after_icts: 1.0,
                min_silence: SimDuration::from_secs(50.0),
            }),
            ..HierarchicalConfig::default()
        });
        s.on_start(&mut h.ctx());
        // Oracle build: chain 0→1→2.
        assert_eq!(s.hierarchy().unwrap().parent_of(NodeId(2)), Some(NodeId(1)));
        // Give the detector rate estimates (ICT ≈ 10 s on both edges).
        for k in 0..11 {
            let t = SimTime::from_secs(f64::from(k) * 10.0);
            h.rates.record_contact(NodeId(0), NodeId(1), t);
            h.rates.record_contact(NodeId(1), NodeId(2), t);
        }
        // Edge clocks start at the 1–2 meeting at t = 100.
        h.now = SimTime::from_secs(100.0);
        s.on_contact(NodeId(1), NodeId(2), &mut h.ctx());
        assert_eq!(h.extras.get("suspected-failures"), 0);
        // Node 1 then falls silent. At t = 200, 2 meets the root directly:
        // silence (100 s) far exceeds both the 50 s floor and one expected
        // ICT, so 2 presumes its parent 1 dead and re-parents under the
        // root; the root likewise suspects its silent child 1.
        h.now = SimTime::from_secs(200.0);
        s.on_contact(NodeId(2), NodeId(0), &mut h.ctx());
        let tree = s.hierarchy().unwrap();
        assert_eq!(tree.parent_of(NodeId(2)), Some(NodeId(0)));
        tree.validate(Some(2)).unwrap();
        assert_eq!(h.extras.get("failure-reparents"), 1);
        assert_eq!(h.extras.get("suspected-failures"), 2);
        // No fault plan is installed, so both suspicions are false alarms.
        assert_eq!(h.extras.get("false-suspicions"), 2);
        // Repeat contacts do not re-count standing suspicions.
        h.now = SimTime::from_secs(300.0);
        s.on_contact(NodeId(2), NodeId(0), &mut h.ctx());
        assert_eq!(h.extras.get("suspected-failures"), 2);
    }

    #[test]
    fn fixed_policy_has_no_backoff_and_no_escalation() {
        let p = RetryPolicy::fixed(3);
        let t = SimTime::from_secs(40.0);
        assert_eq!(p.next_attempt_at(t, 0, 123), t);
        assert_eq!(p.next_attempt_at(t, 5, 99), t);
        assert_eq!(p.escalate_after, None);
        assert_eq!(RetryPolicy::default(), RetryPolicy::fixed(2));
    }

    #[test]
    fn exponential_backoff_grows_and_jitter_is_deterministic() {
        let p = RetryPolicy::exponential(4, SimDuration::from_secs(100.0));
        let t = SimTime::from_secs(0.0);
        let w0 = p.next_attempt_at(t, 0, 7).as_secs();
        let w1 = p.next_attempt_at(t, 1, 7).as_secs();
        let w2 = p.next_attempt_at(t, 2, 7).as_secs();
        // Each wait lands in [base·2^k, base·2^k·1.25).
        assert!((100.0..125.0).contains(&w0), "w0 = {w0}");
        assert!((200.0..250.0).contains(&w1), "w1 = {w1}");
        assert!((400.0..500.0).contains(&w2), "w2 = {w2}");
        // Same key, same attempt: bit-identical. Different key: different
        // jitter (with overwhelming probability for these constants).
        assert_eq!(p.next_attempt_at(t, 1, 7).as_secs(), w1);
        assert_ne!(p.next_attempt_at(t, 1, 8).as_secs(), w1);
        assert_eq!(p.escalate_after, Some(4));
    }

    #[test]
    fn relay_backoff_defers_retries_until_the_window_passes() {
        let mut h = CtxHarness::new(relay_graph(), NodeId(0), vec![NodeId(2)]);
        let res = ResilienceConfig {
            retry: RetryPolicy {
                max_attempts: 2,
                base_backoff: SimDuration::from_secs(10.0),
                backoff_factor: 2.0,
                jitter: 0.0,
                escalate_after: None,
            },
            suspect_after_icts: f64::INFINITY,
            min_silence: SimDuration::from_hours(1.0),
        };
        let mut s = relay_scheme(Some(res));
        s.on_start(&mut h.ctx());
        h.current_version = 1;
        // Clean handoff to the relay, then the delivery fails at t = 8.
        h.now = SimTime::from_secs(5.0);
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        h.fail_all_transfers();
        h.now = SimTime::from_secs(8.0);
        s.on_contact(NodeId(3), NodeId(2), &mut h.ctx());
        assert_eq!(h.extras.get("relay-retries"), 1);
        // A meeting 5 s later is inside the 10 s backoff window: deferred,
        // no transmission spent.
        h.faults = None;
        let tx = h.transmissions;
        h.now = SimTime::from_secs(13.0);
        s.on_contact(NodeId(3), NodeId(2), &mut h.ctx());
        assert_eq!(h.transmissions, tx, "backoff must defer the attempt");
        assert_eq!(h.extras.get("retry-backoff-deferrals"), 1);
        assert_eq!(h.member_versions[&NodeId(2)], 0);
        // Past the window the retry goes out and succeeds.
        h.now = SimTime::from_secs(19.0);
        s.on_contact(NodeId(3), NodeId(2), &mut h.ctx());
        assert_eq!(h.member_versions[&NodeId(2)], 1);
    }

    #[test]
    fn escalation_reparents_after_consecutive_direct_failures() {
        let mut h = CtxHarness::new(graph(), NodeId(0), vec![NodeId(1), NodeId(2)]);
        let mut s = HierarchicalScheme::new(HierarchicalConfig {
            strategy: HierarchyStrategy::GreedySed { fanout: Some(2) },
            replication: None,
            resilience: Some(ResilienceConfig {
                retry: RetryPolicy {
                    escalate_after: Some(2),
                    ..RetryPolicy::fixed(0)
                },
                suspect_after_icts: f64::INFINITY,
                min_silence: SimDuration::from_hours(1.0),
            }),
            ..HierarchicalConfig::default()
        });
        s.on_start(&mut h.ctx());
        assert_eq!(s.hierarchy().unwrap().parent_of(NodeId(2)), Some(NodeId(1)));
        // Parent 1 holds version 1; its two direct deliveries to child 2
        // are lost on the air.
        h.current_version = 1;
        h.member_versions.insert(NodeId(1), 1);
        h.fail_all_transfers();
        h.now = SimTime::from_secs(10.0);
        s.on_contact(NodeId(1), NodeId(2), &mut h.ctx());
        h.now = SimTime::from_secs(20.0);
        s.on_contact(NodeId(1), NodeId(2), &mut h.ctx());
        assert_eq!(h.extras.get("failed-transmissions"), 2);
        // The child then meets the root: with two consecutive failures on
        // its parent edge it escalates and re-parents under the root.
        h.faults = None;
        h.now = SimTime::from_secs(30.0);
        s.on_contact(NodeId(2), NodeId(0), &mut h.ctx());
        let tree = s.hierarchy().unwrap();
        assert_eq!(tree.parent_of(NodeId(2)), Some(NodeId(0)));
        tree.validate(Some(2)).unwrap();
        assert_eq!(h.extras.get("retry-escalations"), 1);
        assert!(h.world.oracle_report().is_clean());
    }

    #[test]
    fn state_loss_reattaches_the_amnesiac_node_under_the_root() {
        let mut h = CtxHarness::new(graph(), NodeId(0), vec![NodeId(1), NodeId(2)]);
        let mut s = default_scheme();
        s.on_start(&mut h.ctx());
        assert_eq!(s.hierarchy().unwrap().parent_of(NodeId(2)), Some(NodeId(1)));
        h.now = SimTime::from_secs(100.0);
        s.on_state_loss(NodeId(2), &mut h.ctx());
        let tree = s.hierarchy().unwrap();
        assert_eq!(tree.parent_of(NodeId(2)), Some(NodeId(0)));
        tree.validate(Some(2)).unwrap();
        assert_eq!(h.extras.get("crash-state-losses"), 1);
        assert_eq!(h.extras.get("crash-reattaches"), 1);
        // A node already under the root keeps its attachment.
        s.on_state_loss(NodeId(1), &mut h.ctx());
        assert_eq!(s.hierarchy().unwrap().parent_of(NodeId(1)), Some(NodeId(0)));
        assert_eq!(h.extras.get("crash-state-losses"), 2);
        assert_eq!(h.extras.get("crash-reattaches"), 1);
        assert!(h.world.oracle_report().is_clean());
    }

    /// E17-shaped regression: a *stale* fixed plan (planned on a
    /// pre-failure network) never placed member 2, and 2 later rejoins
    /// from a crash with state loss. The lookup of the orphan used to be
    /// the `"{cur} is not in the hierarchy"` panic path; now the contact
    /// is survived, and the state-loss rejoin inserts the orphan back
    /// into the tree.
    #[test]
    fn state_loss_inserts_a_member_the_stale_plan_orphaned() {
        let g = graph();
        let mut rng = omn_sim::RngFactory::new(1).stream("h");
        // The plan was drawn while node 2 was down: it only covers [1].
        let stale = crate::hierarchy::RefreshHierarchy::build(
            NodeId(0),
            &[NodeId(1)],
            &g,
            HierarchyStrategy::Star,
            &mut rng,
        );
        let mut h = CtxHarness::new(g, NodeId(0), vec![NodeId(1), NodeId(2)]);
        let mut s = HierarchicalScheme::with_fixed_plan(
            HierarchicalConfig {
                strategy: HierarchyStrategy::GreedySed { fanout: Some(2) },
                reparent: true,
                resilience: Some(ResilienceConfig::default()),
                ..HierarchicalConfig::default()
            },
            stale,
            FastMap::default(),
        );
        s.on_start(&mut h.ctx());
        assert!(!s.hierarchy().unwrap().contains(NodeId(2)));

        // Contacts involving the orphan must not panic (they used to trip
        // hierarchy path lookups mid-maintenance).
        h.current_version = 1;
        h.now = SimTime::from_secs(50.0);
        s.on_contact(NodeId(1), NodeId(2), &mut h.ctx());
        s.on_contact(NodeId(2), NodeId(1), &mut h.ctx());

        // The crash rejoin re-inserts the orphan under the root.
        h.now = SimTime::from_secs(100.0);
        s.on_state_loss(NodeId(2), &mut h.ctx());
        let tree = s.hierarchy().unwrap();
        assert_eq!(tree.parent_of(NodeId(2)), Some(NodeId(0)));
        assert!(tree.members().contains(&NodeId(2)));
        tree.validate(Some(2)).unwrap();
        assert_eq!(h.extras.get("crash-reattaches"), 1);
        // The install-time membership sweep correctly flagged the stale
        // plan's orphan; after the repair, no further violation accrues.
        let before = h.world.oracle_report().total();
        s.on_finish(&mut h.ctx());
        assert_eq!(h.world.oracle_report().total(), before);
    }

    /// The other half of the re-attachment race: the root is at its
    /// fanout bound when the amnesiac node tries to come home. It must
    /// attach under the shallowest open host instead of being skipped.
    #[test]
    fn state_loss_falls_back_to_an_open_host_when_the_root_is_full() {
        let g = graph();
        let mut rng = omn_sim::RngFactory::new(1).stream("h");
        // 0→{1, 2}, 2→{3}: the root is full at fanout 2.
        let mut tree = crate::hierarchy::RefreshHierarchy::build(
            NodeId(0),
            &[NodeId(1), NodeId(2)],
            &g,
            HierarchyStrategy::Star,
            &mut rng,
        );
        tree.attach_member(NodeId(3), NodeId(2), Some(2)).unwrap();
        let mut h = CtxHarness::new(g, NodeId(0), vec![NodeId(1), NodeId(2), NodeId(3)]);
        let mut s = HierarchicalScheme::with_fixed_plan(
            HierarchicalConfig {
                strategy: HierarchyStrategy::GreedySed { fanout: Some(2) },
                ..HierarchicalConfig::default()
            },
            tree,
            FastMap::default(),
        );
        s.on_start(&mut h.ctx());
        h.now = SimTime::from_secs(100.0);
        s.on_state_loss(NodeId(3), &mut h.ctx());
        let tree = s.hierarchy().unwrap();
        // Root full → breadth-first fallback lands on child 1.
        assert_eq!(tree.parent_of(NodeId(3)), Some(NodeId(1)));
        tree.validate(Some(2)).unwrap();
        assert_eq!(h.extras.get("crash-reattaches"), 1);
        assert!(h.world.oracle_report().is_clean());
    }
}
