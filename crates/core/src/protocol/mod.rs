//! The per-node formulation of the refresh protocol: one sans-io state
//! machine per node, ready to run over a real transport.
//!
//! The protocol exists in two formulations:
//!
//! * the *global* one in [`crate::scheme`]: one state machine per scheme
//!   that observes every contact, driven by the discrete-event
//!   [`crate::sim::FreshnessSimulator`] through `SchemeCtx`. It carries
//!   the full protocol: replication, retry policies, failure detection,
//!   re-parenting and planning modes.
//! * the *per-node* one here: [`NodeProtocol`], one instance per node,
//!   `on_contact_up / on_message / on_timer → Vec<`[`Effect`]`>`, run by
//!   the async `omn-node` runtime or the synchronous [`ReplayHarness`].
//!   It covers the locally decidable variants (tree refreshing and
//!   epidemic flooding), which proptests keep equal to the global ones.
//!
//! The effect vocabulary ([`Effect`]) is the complete set of things the
//! protocol may ask a runtime to do: send a message, record a cache
//! write, create a replica, set a timer, re-parent, bump a counter.

pub mod node;
pub mod replay;

pub use node::{Effect, NodeProtocol, PeerSummary, ProtocolMode, ProtocolMsg, TimerKind};
pub use replay::{ReplayHarness, ReplayOutcome};
