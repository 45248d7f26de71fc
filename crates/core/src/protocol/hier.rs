//! The paper's scheme as a pure protocol core: hierarchical refreshing
//! with probabilistic replication and distributed maintenance, driven
//! entirely through [`ProtocolEnv`].
//!
//! [`HierarchicalCore`] holds every piece of protocol state — the refresh
//! tree, replication plans, relay copies, retry ledgers, failure-detector
//! clocks — and exposes the same transition points the DES scheme trait
//! has (`on_start` / `on_version_birth` / `on_contact` / `on_state_loss` /
//! `on_finish`), but against any environment. The `scheme::HierarchicalScheme`
//! adapter drives it from `SchemeCtx` with an identical call sequence, so
//! the DES path is bit-identical to the historical in-place scheme.

use omn_contacts::{ContactGraph, NodeId};
use omn_sim::hash::{FastMap, FastSet};
use omn_sim::{split_mix64, SimDuration, SimTime};

use crate::freshness::FreshnessRequirement;
use crate::hierarchy::{HierarchyStrategy, RefreshHierarchy};
use crate::replication::{ReplicationPlan, ReplicationPlanner};

use super::env::{Delivery, ProtocolEnv};

/// Which contact-rate knowledge planning uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanningMode {
    /// Plan from the true trace-wide rates (upper bound; the common
    /// evaluation setting for structure-building decisions).
    Oracle,
    /// Plan from the rates estimated online from observed contacts
    /// (the deployable setting; needs periodic rebuilds to warm up).
    Estimated,
}

/// When — and how soon — the hierarchical core re-attempts a transfer
/// lost to transmission failure, corruption, or budget contention.
///
/// The classic protocol retried at the very next contact, a bounded number
/// of times; [`RetryPolicy::fixed`] reproduces that behavior exactly (zero
/// backoff, no jitter, no escalation) and is the default. Configurable
/// backoff spaces retries out so a flaky edge is not hammered at every
/// meeting, and optional escalation gives up on a tree edge whose direct
/// deliveries keep failing and re-parents around it instead of waiting for
/// the silence detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// How many *extra* attempts a failed replication handoff or relay
    /// delivery gets at later contacts. `0` keeps the transfer logic
    /// fail-once (the non-resilient ablation).
    pub max_attempts: u32,
    /// Minimum wait after a failed attempt before the next try is allowed;
    /// [`SimDuration::ZERO`] retries at the very next contact (the classic
    /// behavior).
    pub base_backoff: SimDuration,
    /// Multiplier applied to the wait per consecutive failure (values
    /// below 1 are treated as 1).
    pub backoff_factor: f64,
    /// Deterministic jitter fraction in `[0, 1]`: each wait is stretched
    /// by up to this fraction, keyed by hashing the (endpoints, version,
    /// attempt) tuple through SplitMix64. No RNG stream is consumed, so
    /// enabling jitter never perturbs any other randomness in the run.
    pub jitter: f64,
    /// After this many consecutive failed direct refresh deliveries on a
    /// tree edge, the child stops waiting for the silence detector and
    /// re-parents under the next live member (or the root) it meets.
    /// `None` never escalates.
    pub escalate_after: Option<u32>,
}

impl RetryPolicy {
    /// The classic fixed-bound policy: up to `max_attempts` retries, each
    /// allowed at the very next contact. Bit-identical to the historical
    /// bounded-retry protocol.
    #[must_use]
    pub fn fixed(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_backoff: SimDuration::ZERO,
            backoff_factor: 1.0,
            jitter: 0.0,
            escalate_after: None,
        }
    }

    /// Exponential backoff: the k-th retry waits `base · 2^k`, stretched
    /// by up to 25% deterministic jitter, and an edge failing
    /// `max_attempts` direct deliveries in a row escalates to
    /// re-parenting.
    #[must_use]
    pub fn exponential(max_attempts: u32, base: SimDuration) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_backoff: base,
            backoff_factor: 2.0,
            jitter: 0.25,
            escalate_after: Some(max_attempts.max(1)),
        }
    }

    /// The earliest instant the attempt after `attempt` failures may go
    /// out, given the latest failure happened at `failed_at`. `key`
    /// seeds the deterministic jitter; pass anything stable for the
    /// retried transfer (e.g. a hash of its endpoints and version).
    #[must_use]
    pub fn next_attempt_at(&self, failed_at: SimTime, attempt: u32, key: u64) -> SimTime {
        if self.base_backoff.is_zero() {
            return failed_at;
        }
        let exp = i32::try_from(attempt.min(30)).unwrap_or(30);
        let mut wait = self.base_backoff.as_secs() * self.backoff_factor.max(1.0).powi(exp);
        if self.jitter > 0.0 {
            let mixed = split_mix64(key ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            #[allow(clippy::cast_precision_loss)]
            let frac = (mixed >> 11) as f64 / (1u64 << 53) as f64;
            wait *= 1.0 + self.jitter.min(1.0) * frac;
        }
        failed_at + SimDuration::from_secs(wait)
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::fixed(2)
    }
}

/// A stable per-transfer hash key for [`RetryPolicy`] jitter, built from
/// the transfer's endpoints and version.
#[must_use]
fn retry_key(a: NodeId, b: NodeId, version: u64) -> u64 {
    (u64::from(a.0) << 48) ^ (u64::from(b.0) << 32) ^ version
}

/// Failure-awareness knobs for the hierarchical core (used with the
/// fault-injection layer; see `omn_contacts::faults`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Retry behavior for failed replication handoffs and relay
    /// deliveries.
    pub retry: RetryPolicy,
    /// A tree neighbor unheard-from for this many expected inter-contact
    /// times is presumed down. Set to `f64::INFINITY` to disable the
    /// failure detector (retry-only resilience).
    pub suspect_after_icts: f64,
    /// Silence must also exceed this floor before a suspicion fires, which
    /// guards against over-eager verdicts from noisy early rate estimates.
    pub min_silence: SimDuration,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            retry: RetryPolicy::fixed(2),
            suspect_after_icts: 3.0,
            min_silence: SimDuration::from_hours(1.0),
        }
    }
}

/// Configuration of the hierarchical core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchicalConfig {
    /// Tree construction strategy.
    pub strategy: HierarchyStrategy,
    /// Probabilistic replication, or `None` to disable (tree-only
    /// ablation).
    pub replication: Option<FreshnessRequirement>,
    /// Maximum relays per edge when replication is enabled.
    pub max_relays: usize,
    /// Rebuild the tree (and replication plans) every so often; `None`
    /// builds once at start.
    pub rebuild_every: Option<SimDuration>,
    /// Enable distributed re-parenting between rebuilds: a member that
    /// repeatedly meets a strictly better parent switches to it.
    pub reparent: bool,
    /// Rate knowledge used for planning.
    pub planning: PlanningMode,
    /// Failure awareness (bounded retry + failure detector), or `None` for
    /// the classic fail-once protocol. With `None` — or with no fault plan
    /// installed — behavior is bit-identical to the pre-resilience scheme.
    pub resilience: Option<ResilienceConfig>,
}

impl Default for HierarchicalConfig {
    fn default() -> HierarchicalConfig {
        HierarchicalConfig {
            strategy: HierarchyStrategy::GreedySed { fanout: Some(3) },
            replication: Some(FreshnessRequirement::new(0.9, SimDuration::from_hours(6.0))),
            max_relays: 3,
            rebuild_every: None,
            reparent: false,
            planning: PlanningMode::Oracle,
            resilience: None,
        }
    }
}

/// A planned hierarchy with its per-edge replication plans.
type PlannedStructure = (RefreshHierarchy, FastMap<(NodeId, NodeId), ReplicationPlan>);

/// A relay copy of a version, owned by a non-caching relay node, destined
/// for a specific child.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RelayCopy {
    version: u64,
    target: NodeId,
    /// When the relay received the copy (for buffer-occupancy accounting).
    acquired: SimTime,
    /// Delivery attempts already lost to transmission failure; bounded by
    /// [`RetryPolicy::max_attempts`].
    retries: u32,
    /// The earliest instant the next delivery attempt may go out (retry
    /// backoff; [`SimTime::ZERO`] = no restriction).
    not_before: SimTime,
}

/// Hierarchical cache refreshing with probabilistic replication
/// (the reproduced paper's scheme), as an environment-generic state
/// machine.
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
pub struct HierarchicalCore {
    config: HierarchicalConfig,
    hierarchy: Option<RefreshHierarchy>,
    plans: FastMap<(NodeId, NodeId), ReplicationPlan>,
    relay_copies: FastMap<NodeId, Vec<RelayCopy>>,
    /// `(relay, target, version)` triples already handed out, so a relay is
    /// preloaded at most once per version per child even after its copy is
    /// delivered or garbage-collected.
    handled: FastSet<(NodeId, NodeId, u64)>,
    /// `(relay, target, version)` handoffs lost to transmission failure:
    /// how many attempts they have consumed (so retries stay bounded) and
    /// when the next attempt is allowed (retry backoff).
    attempts: FastMap<(NodeId, NodeId, u64), (u32, SimTime)>,
    /// Consecutive failed *direct* refresh deliveries per tree edge
    /// `(parent, child)`; feeds [`RetryPolicy::escalate_after`]. Reset on
    /// a successful delivery.
    edge_failures: FastMap<(NodeId, NodeId), u32>,
    /// When each tree edge `(parent, child)` last saw its endpoints meet;
    /// the failure detector's silence clock (resilience only).
    edge_heard: FastMap<(NodeId, NodeId), SimTime>,
    /// Standing suspicions `(watcher, watched)`, so each detected failure
    /// is counted once until the watched node is heard from again.
    suspects: FastSet<(NodeId, NodeId)>,
    next_rebuild: Option<SimTime>,
    /// Re-parenting improvement threshold: the new path delay must be below
    /// this fraction of the current one (hysteresis against flapping).
    reparent_factor: f64,
    /// A pre-computed hierarchy and plan set installed at start instead of
    /// planning from the run's contact knowledge (see
    /// [`HierarchicalCore::with_fixed_plan`]).
    fixed: Option<PlannedStructure>,
}

impl HierarchicalCore {
    /// Creates the core.
    #[must_use]
    pub fn new(config: HierarchicalConfig) -> HierarchicalCore {
        HierarchicalCore {
            config,
            hierarchy: None,
            plans: FastMap::default(),
            relay_copies: FastMap::default(),
            handled: FastSet::default(),
            attempts: FastMap::default(),
            edge_failures: FastMap::default(),
            edge_heard: FastMap::default(),
            suspects: FastSet::default(),
            next_rebuild: None,
            reparent_factor: 0.7,
            fixed: None,
        }
    }

    /// Creates the core with an externally planned hierarchy and
    /// replication plans, installed verbatim at start. Used to evaluate
    /// *stale* plans (e.g. planned on a pre-failure network and executed
    /// after node departures); combine with `rebuild_every: None` and
    /// `reparent: false` for a fully static plan.
    #[must_use]
    pub fn with_fixed_plan(
        config: HierarchicalConfig,
        hierarchy: RefreshHierarchy,
        plans: FastMap<(NodeId, NodeId), ReplicationPlan>,
    ) -> HierarchicalCore {
        let mut s = HierarchicalCore::new(config);
        s.fixed = Some((hierarchy, plans));
        s
    }

    /// The *source-only* baseline: a star with no replication — the source
    /// refreshes every caching node itself on direct contact.
    #[must_use]
    pub fn source_only() -> HierarchicalCore {
        let mut s = HierarchicalCore::new(HierarchicalConfig {
            strategy: HierarchyStrategy::Star,
            replication: None,
            rebuild_every: None,
            reparent: false,
            ..HierarchicalConfig::default()
        });
        s.reparent_factor = 0.0;
        s
    }

    /// The *random hierarchy* baseline: random parents under the same
    /// fanout bound, no replication, no maintenance.
    #[must_use]
    pub fn random_tree(fanout: Option<usize>) -> HierarchicalCore {
        HierarchicalCore::new(HierarchicalConfig {
            strategy: HierarchyStrategy::Random { fanout },
            replication: None,
            rebuild_every: None,
            reparent: false,
            ..HierarchicalConfig::default()
        })
    }

    /// The core's report name (matches the historical scheme names).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match (&self.config.strategy, self.config.replication.is_some()) {
            (HierarchyStrategy::Star, _) => "source-only",
            (HierarchyStrategy::Random { .. }, _) => "random-tree",
            (HierarchyStrategy::GreedySed { .. }, true) => "hierarchical",
            (HierarchyStrategy::GreedySed { .. }, false) => "hier-no-repl",
        }
    }

    /// The current hierarchy (after `on_start`).
    #[must_use]
    pub fn hierarchy(&self) -> Option<&RefreshHierarchy> {
        self.hierarchy.as_ref()
    }

    /// The current replication plans, keyed by `(parent, child)`.
    #[must_use]
    pub fn plans(&self) -> &FastMap<(NodeId, NodeId), ReplicationPlan> {
        &self.plans
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &HierarchicalConfig {
        &self.config
    }

    fn planning_graph<E: ProtocolEnv>(&self, env: &E) -> ContactGraph {
        match self.config.planning {
            PlanningMode::Oracle => env.oracle_graph().clone(),
            PlanningMode::Estimated => env.estimated_graph(),
        }
    }

    fn rebuild<E: ProtocolEnv>(&mut self, env: &mut E) {
        env.count("rebuilds", 1);
        // Fresh structure, fresh failure-detection state.
        self.edge_heard.clear();
        self.suspects.clear();
        self.attempts.clear();
        self.edge_failures.clear();
        if let Some((hierarchy, plans)) = self.fixed.take() {
            self.hierarchy = Some(hierarchy);
            self.plans = plans;
        } else {
            let graph = self.planning_graph(env);
            let members: Vec<NodeId> = env.members().to_vec();
            let hierarchy = RefreshHierarchy::build(
                env.root(),
                &members,
                &graph,
                self.config.strategy,
                env.rng(),
            );
            self.plans = match self.config.replication {
                Some(requirement) => ReplicationPlanner::new(requirement, self.config.max_relays)
                    .plan_hierarchy(&hierarchy, &graph),
                None => FastMap::default(),
            };
            self.hierarchy = Some(hierarchy);
        }
        // Old relay copies address the old tree; drop them.
        self.relay_copies.clear();
        self.check_tree(env, None);
        self.check_membership(env);
    }

    fn fanout_bound(&self) -> Option<usize> {
        match self.config.strategy {
            HierarchyStrategy::GreedySed { fanout } | HierarchyStrategy::Random { fanout } => {
                fanout
            }
            HierarchyStrategy::Star => None,
        }
    }

    fn maybe_reparent<E: ProtocolEnv>(&mut self, x: NodeId, y: NodeId, env: &mut E) {
        let fanout = self.fanout_bound();
        let Some(h) = self.hierarchy.as_mut() else {
            return;
        };
        // x considers y as a new parent.
        if h.parent_of(x).is_none() || !h.contains(y) || h.parent_of(x) == Some(y) {
            return;
        }
        let rate = |a: NodeId, b: NodeId| env.estimated_rate(a, b);
        let hop = {
            let r = rate(y, x);
            if r > 0.0 {
                1.0 / r
            } else {
                return; // never observed to meet: no basis to switch
            }
        };
        // Fallible lookups: x or y may sit on a chain a crash with state
        // loss broke and re-attachment has not repaired yet. A failed
        // lookup just means "no basis to switch this contact".
        let (Ok(current), Ok(via_parent)) = (
            h.try_expected_path_delay_with(x, rate),
            h.try_expected_path_delay_with(y, rate),
        ) else {
            return;
        };
        let via_y = via_parent + hop;
        if via_y < current * self.reparent_factor && h.reparent(x, y, fanout).is_ok() {
            env.count("reparent-events", 1);
            // The plan for the old edge no longer applies.
            self.plans.retain(|&(_, c), _| c != x);
            self.check_tree(env, Some(x));
        }
    }

    /// In-place structural invariant check: after any tree mutation the
    /// hierarchy must still be an acyclic, fanout-bounded tree. Reported
    /// through the environment's oracle sink; a no-op when oracles are off.
    fn check_tree<E: ProtocolEnv>(&self, env: &mut E, node: Option<NodeId>) {
        if !env.oracle_active() {
            return;
        }
        if let Some(h) = self.hierarchy.as_ref() {
            if let Err(e) = h.validate(self.fanout_bound()) {
                env.oracle_check(false, "tree-structure", node, || e.to_string());
            }
        }
    }

    /// In-place membership invariant check: every caching member must be
    /// attached somewhere in the refresh tree (no orphan beyond the
    /// detector's reach). Reported through the environment's oracle sink.
    fn check_membership<E: ProtocolEnv>(&self, env: &mut E) {
        if !env.oracle_active() {
            return;
        }
        let Some(h) = self.hierarchy.as_ref() else {
            return;
        };
        let orphans: Vec<NodeId> = env
            .members()
            .iter()
            .copied()
            .filter(|&m| !h.contains(m))
            .collect();
        for m in orphans {
            env.oracle_check(false, "member-orphaned", Some(m), || {
                "caching member not attached to the refresh tree".to_string()
            });
        }
    }

    /// Retry-policy escalation: when the direct parent→child edge toward
    /// `x` has failed `esc` consecutive deliveries, `x` stops waiting for
    /// the silence detector and re-parents under the live peer `y` it is
    /// meeting right now (fanout permitting, root never abandoned).
    fn maybe_escalate<E: ProtocolEnv>(&mut self, x: NodeId, y: NodeId, esc: u32, env: &mut E) {
        let Some(p) = self.hierarchy.as_ref().and_then(|h| h.parent_of(x)) else {
            return;
        };
        if p == y || p == env.root() {
            return;
        }
        if self.edge_failures.get(&(p, x)).copied().unwrap_or(0) < esc {
            return;
        }
        if y != env.root() && !env.is_member(y) {
            return;
        }
        let fanout = self.fanout_bound();
        let reparented = self
            .hierarchy
            .as_mut()
            .is_some_and(|h| h.contains(y) && h.reparent(x, y, fanout).is_ok());
        if reparented {
            env.count("retry-escalations", 1);
            self.edge_failures.remove(&(p, x));
            self.plans.retain(|&(_, ch), _| ch != x);
            self.edge_heard.insert((y, x), env.now());
            self.check_tree(env, Some(x));
        }
    }

    /// Checks whether the silence on tree edge `edge` has exceeded the
    /// detection threshold, and if so registers the `(watcher, watched)`
    /// suspicion. Returns true only for a *new* suspicion, so each detected
    /// failure is counted once until the watched node is heard from again.
    /// Pairs with no rate estimate are never suspected: silence is only
    /// meaningful relative to an expected inter-contact time.
    fn silence_exceeded<E: ProtocolEnv>(
        &mut self,
        edge: (NodeId, NodeId),
        watcher: NodeId,
        watched: NodeId,
        now: SimTime,
        res: &ResilienceConfig,
        env: &E,
    ) -> bool {
        let heard = *self.edge_heard.entry(edge).or_insert(now);
        let rate = env.estimated_rate(edge.0, edge.1);
        if rate <= 0.0 {
            return false;
        }
        let threshold = res.min_silence.as_secs().max(res.suspect_after_icts / rate);
        now.saturating_since(heard).as_secs() > threshold
            && self.suspects.insert((watcher, watched))
    }

    /// The failure detector, run by `x` while it meets `peer`: a tree
    /// neighbor (child or parent) unheard-from for too long is presumed
    /// down. A presumed-down child stops receiving replication effort; a
    /// presumed-down parent is routed around by adopting the live `peer`
    /// as the new parent when the tree allows it. The root is never
    /// abandoned — when the source itself is down, the tree is kept intact
    /// so members keep serving (stale-degrading) cached versions and
    /// recovery is immediate at the source's first contact after rejoin.
    fn detect_failures<E: ProtocolEnv>(&mut self, x: NodeId, peer: NodeId, env: &mut E) {
        let Some(res) = self.config.resilience else {
            return;
        };
        let now = env.now();
        let (parent, children) = {
            let Some(h) = self.hierarchy.as_ref() else {
                return;
            };
            if !h.contains(x) {
                return;
            }
            (h.parent_of(x), h.children_of(x).to_vec())
        };

        // Parent side: stop spending relays on a presumed-dead child.
        for c in children {
            if c == peer {
                continue;
            }
            if self.silence_exceeded((x, c), x, c, now, &res, env) {
                env.count("suspected-failures", 1);
                if !env.node_is_down(c) {
                    env.count("false-suspicions", 1);
                }
                self.plans.retain(|&(p, ch), _| !(p == x && ch == c));
            }
        }

        // Child side: route around a presumed-dead parent via the node we
        // are actually meeting right now.
        if let Some(p) = parent {
            if p != peer && self.silence_exceeded((p, x), x, p, now, &res, env) {
                env.count("suspected-failures", 1);
                if !env.node_is_down(p) {
                    env.count("false-suspicions", 1);
                }
                if p != env.root() && (peer == env.root() || env.is_member(peer)) {
                    let fanout = self.fanout_bound();
                    let reparented = self
                        .hierarchy
                        .as_mut()
                        .is_some_and(|h| h.contains(peer) && h.reparent(x, peer, fanout).is_ok());
                    if reparented {
                        env.count("failure-reparents", 1);
                        self.plans.retain(|&(_, ch), _| ch != x);
                        self.edge_heard.insert((peer, x), now);
                        self.check_tree(env, Some(x));
                    }
                }
            }
        }
    }

    /// Called once before the first event: plan the initial structure.
    pub fn on_start<E: ProtocolEnv>(&mut self, env: &mut E) {
        self.rebuild(env);
        self.next_rebuild = self.config.rebuild_every.map(|every| env.now() + every);
    }

    /// Called when the source produces `version` (strictly increasing).
    pub fn on_version_birth<E: ProtocolEnv>(&mut self, version: u64, _env: &mut E) {
        // Bookkeeping for superseded versions is no longer needed.
        self.handled.retain(|&(_, _, v)| v >= version);
        self.attempts.retain(|&(_, _, v), _| v >= version);
    }

    /// Called at the start of every contact.
    pub fn on_contact<E: ProtocolEnv>(&mut self, a: NodeId, b: NodeId, env: &mut E) {
        if let (Some(every), Some(at)) = (self.config.rebuild_every, self.next_rebuild) {
            if env.now() >= at {
                self.rebuild(env);
                self.next_rebuild = Some(env.now() + every);
            }
        }

        let current = env.current_version();
        let resilient = self.config.resilience.is_some();
        let retry = self
            .config
            .resilience
            .map_or(RetryPolicy::fixed(0), |r| r.retry);
        for (x, y) in [(a, b), (b, a)] {
            let Some(h) = self.hierarchy.as_ref() else {
                continue;
            };

            // 0. Failure-detector clocks: meeting y clears any standing
            // suspicion of it and restarts the silence clock on a tree
            // edge between them (resilience only).
            if resilient {
                self.suspects.remove(&(x, y));
                if h.parent_of(y) == Some(x) {
                    self.edge_heard.insert((x, y), env.now());
                }
            }

            // 1. Tree responsibility: x refreshes its child y. A delivery
            // lost to transmission failure retries implicitly: y's cache is
            // unchanged, so the next x–y contact attempts again. Consecutive
            // direct-delivery failures per edge feed retry escalation.
            if h.parent_of(y) == Some(x) {
                if let Some(vx) = env.version_of(x) {
                    if env.version_of(y).is_none_or(|vy| vy < vx) {
                        if env.try_deliver(x, y, vx) == Delivery::Failed {
                            *self.edge_failures.entry((x, y)).or_insert(0) += 1;
                        } else {
                            self.edge_failures.remove(&(x, y));
                        }
                    }
                }
            }

            // 2. Replication spawn: x holds the current version and meets a
            // relay y designated for one of its child edges. Under
            // resilience, a handoff lost to transmission failure may be
            // re-attempted at later contacts, up to the retry bound and
            // respecting the policy's backoff.
            if env.version_of(x) == Some(current) && !env.is_member(y) && y != env.root() {
                for &c in h.children_of(x) {
                    let Some(plan) = self.plans.get(&(x, c)) else {
                        continue;
                    };
                    if !plan.relays.contains(&y) {
                        continue;
                    }
                    let key = (y, c, current);
                    if self.handled.contains(&key) {
                        continue;
                    }
                    let (prior, not_before) = self
                        .attempts
                        .get(&key)
                        .copied()
                        .unwrap_or((0, SimTime::ZERO));
                    if env.now() < not_before {
                        env.count("retry-backoff-deferrals", 1);
                        continue;
                    }
                    self.handled.insert(key);
                    if prior > 0 {
                        env.count("replication-retries", 1);
                    }
                    if env.attempt_transfer(x) {
                        self.attempts.remove(&key);
                        self.relay_copies.entry(y).or_default().push(RelayCopy {
                            version: current,
                            target: c,
                            acquired: env.now(),
                            retries: 0,
                            not_before: SimTime::ZERO,
                        });
                        env.record_replica();
                    } else if prior < retry.max_attempts {
                        // Unmark so a later contact (past the backoff
                        // window) tries again.
                        let next =
                            retry.next_attempt_at(env.now(), prior, retry_key(y, c, current));
                        self.attempts.insert(key, (prior + 1, next));
                        self.handled.remove(&key);
                    }
                }
            }

            // 3. Relay delivery: x carries copies destined for y; stale
            // copies (superseded versions) are garbage-collected. Dropped
            // copies contribute to relay buffer-occupancy accounting.
            if let Some(copies) = self.relay_copies.get_mut(&x) {
                let mut kept = Vec::with_capacity(copies.len());
                let mut occupancy_secs = 0.0;
                for mut copy in copies.drain(..) {
                    if copy.target == y {
                        if env.now() < copy.not_before {
                            // Still inside the backoff window: hold the copy
                            // without spending an attempt.
                            env.count("retry-backoff-deferrals", 1);
                            kept.push(copy);
                            continue;
                        }
                        match env.try_deliver(x, y, copy.version) {
                            Delivery::Failed if copy.retries < retry.max_attempts => {
                                // Keep the copy for another try at a later
                                // x–y contact (resilience only).
                                let prior = copy.retries;
                                copy.retries += 1;
                                copy.not_before = retry.next_attempt_at(
                                    env.now(),
                                    prior,
                                    retry_key(x, y, copy.version),
                                );
                                env.count("relay-retries", 1);
                                kept.push(copy);
                            }
                            _ => {
                                // Duty toward y done either way (delivered,
                                // already superseded, or out of retries).
                                occupancy_secs +=
                                    env.now().saturating_since(copy.acquired).as_secs();
                            }
                        }
                    } else if copy.version != env.current_version() {
                        occupancy_secs += env.now().saturating_since(copy.acquired).as_secs();
                    } else {
                        kept.push(copy);
                    }
                }
                *copies = kept;
                if occupancy_secs > 0.0 {
                    env.count("relay-copy-seconds", occupancy_secs as u64);
                }
            }

            // 4. Distributed maintenance.
            if self.config.reparent {
                self.maybe_reparent(x, y, env);
            }

            // 5. Failure detection: prolonged silence on a tree edge marks
            // the far endpoint as presumed down (resilience only).
            if resilient {
                self.detect_failures(x, y, env);
            }

            // 5b. Retry escalation: an edge whose direct deliveries keep
            // failing is routed around without waiting for silence.
            if let Some(esc) = retry.escalate_after {
                if esc > 0 {
                    self.maybe_escalate(x, y, esc, env);
                }
            }
        }
    }

    /// Called when a caching node rejoins after a crash that wiped its
    /// state (cache contents *and* protocol state): drop everything the
    /// core believed about `n` and re-attach it under the root.
    pub fn on_state_loss<E: ProtocolEnv>(&mut self, n: NodeId, env: &mut E) {
        env.count("crash-state-losses", 1);
        // The crashed node's protocol state is gone: drop every suspicion,
        // silence clock, failure streak, and pending retry that involves it.
        self.suspects.retain(|&(w, s)| w != n && s != n);
        self.edge_heard.retain(|&(a, b), _| a != n && b != n);
        self.edge_failures.retain(|&(a, b), _| a != n && b != n);
        self.attempts.retain(|&(_, target, _), _| target != n);
        self.handled.retain(|&(_, target, _)| target != n);
        // Re-attach the amnesiac node directly under the root: it
        // remembers nothing about its old parent, and the root is the one
        // address every member knows. Three cases need repairing, all
        // reachable from the E17 fault ladder:
        //
        //  * the common one — n is attached under some non-root parent and
        //    simply moves to the root;
        //  * the root (or fallback host) is at its fanout bound — attach
        //    under the shallowest node with spare capacity instead of
        //    leaving n behind a possibly-dead chain;
        //  * n is not in the tree at all (a stale fixed plan never placed
        //    it, or its chain was severed) — it must be *inserted*, not
        //    re-parented; skipping it here is what used to leave orphans
        //    for later lookups to trip over.
        let root = env.root();
        let fanout = self.fanout_bound();
        let mut reattached = false;
        let mut parent = root;
        if let Some(h) = self.hierarchy.as_mut() {
            if h.contains(n) {
                if h.parent_of(n).is_some_and(|p| p != root) {
                    reattached = h.reparent(n, root, fanout).is_ok();
                    if !reattached {
                        // Root full: any node with spare capacity outside
                        // n's own subtree keeps n reachable.
                        if let Some(host) = h.first_open_host(fanout) {
                            parent = host;
                            reattached = host != n && h.reparent(n, host, fanout).is_ok();
                        }
                    }
                }
            } else if n != root && env.is_member(n) {
                reattached = h.attach_member(n, root, fanout).is_ok();
                if !reattached {
                    if let Some(host) = h.first_open_host(fanout) {
                        parent = host;
                        reattached = h.attach_member(n, host, fanout).is_ok();
                    }
                }
            }
        }
        if reattached {
            env.count("crash-reattaches", 1);
            self.plans.retain(|&(_, c), _| c != n);
            self.edge_heard.insert((parent, n), env.now());
            self.check_tree(env, Some(n));
        }
    }

    /// Called once after the last event (with `env.now()` at the trace
    /// end): flush occupancy accounting and run the final structural sweep.
    pub fn on_finish<E: ProtocolEnv>(&mut self, env: &mut E) {
        // Copies still sitting at relays occupy buffers until the end.
        let mut occupancy_secs = 0.0;
        for copies in self.relay_copies.values() {
            for copy in copies {
                occupancy_secs += env.now().saturating_since(copy.acquired).as_secs();
            }
        }
        self.relay_copies.clear();
        if occupancy_secs > 0.0 {
            env.count("relay-copy-seconds", occupancy_secs as u64);
        }
        // End-of-run structural sweep: the tree must still be sound and no
        // member may have been left orphaned.
        self.check_tree(env, None);
        self.check_membership(env);
    }
}
