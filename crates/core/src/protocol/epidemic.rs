//! The epidemic baseline as a pure protocol core.

use omn_contacts::NodeId;
use omn_sim::hash::FastMap;
use omn_sim::SimTime;

use super::env::ProtocolEnv;

/// Epidemic refreshing: every node in the network (caching or not) carries
/// the newest version it has seen and hands it to anyone with an older one.
///
/// Minimizes staleness at maximal transmission cost — the freshness upper
/// bound and overhead upper bound of the evaluation. Like
/// [`HierarchicalCore`](super::HierarchicalCore), the core is driven
/// entirely through [`ProtocolEnv`]; the DES adapter preserves the
/// historical call sequence exactly.
#[derive(Debug, Default)]
pub struct EpidemicCore {
    /// Newest version carried by each non-member node, with the time it
    /// was acquired (for buffer-occupancy accounting).
    carried: FastMap<NodeId, (u64, SimTime)>,
}

impl EpidemicCore {
    /// Creates the core.
    #[must_use]
    pub fn new() -> EpidemicCore {
        EpidemicCore::default()
    }

    fn effective_version<E: ProtocolEnv>(&self, node: NodeId, env: &E) -> Option<u64> {
        env.version_of(node)
            .or_else(|| self.carried.get(&node).map(|&(v, _)| v))
    }

    /// Called at the start of every contact: the newest effective version
    /// between the endpoints flows to the older side.
    pub fn on_contact<E: ProtocolEnv>(&mut self, a: NodeId, b: NodeId, env: &mut E) {
        let va = self.effective_version(a, env);
        let vb = self.effective_version(b, env);
        let (from, to, v) = match (va, vb) {
            (Some(x), Some(y)) if x > y => (a, b, x),
            (Some(x), Some(y)) if y > x => (b, a, y),
            (Some(x), None) => (a, b, x),
            (None, Some(y)) => (b, a, y),
            _ => return,
        };
        if env.is_member(to) {
            // Under injected transmission loss the delivery may fail; the
            // flood retries naturally at the pair's next contact.
            env.deliver_version(from, to, v);
        } else if to != env.root() {
            let now = env.now();
            match self.carried.get(&to).copied() {
                Some((ov, _)) if ov == v => {}
                old => {
                    // The relay handoff rides the same lossy channel as
                    // member deliveries; a lost handoff leaves the old
                    // carried copy in place.
                    if env.attempt_transfer(from) {
                        if let Some((_, acquired)) = old {
                            env.count(
                                "relay-copy-seconds",
                                now.saturating_since(acquired).as_secs() as u64,
                            );
                        }
                        self.carried.insert(to, (v, now));
                        env.record_replica();
                    }
                }
            }
        }
    }

    /// Called once after the last event: flush occupancy accounting for
    /// copies still carried.
    pub fn on_finish<E: ProtocolEnv>(&mut self, env: &mut E) {
        let mut occupancy_secs = 0.0;
        for &(_, acquired) in self.carried.values() {
            occupancy_secs += env.now().saturating_since(acquired).as_secs();
        }
        self.carried.clear();
        if occupancy_secs > 0.0 {
            env.count("relay-copy-seconds", occupancy_secs as u64);
        }
    }
}
