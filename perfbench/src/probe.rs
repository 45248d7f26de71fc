//! Delegating timers around the workspace's two public extension points,
//! [`ContactSource`] and [`RefreshScheme`].
//!
//! A [`Span`] aggregates one layer boundary: how many calls crossed it and
//! how long they were busy. Spans are aggregated rather than recorded one
//! by one because a 10⁴-node run crosses the source boundary about three
//! million times. An untimed span only counts, so the untraced run goes
//! through exactly the same code path minus the clock reads.

use std::cell::Cell;
use std::time::Instant;

use omn_contacts::{Contact, ContactSource, LastContact, NodeId};
use omn_core::scheme::{RefreshScheme, SchemeCtx};
use omn_sim::SimTime;

/// Call count and busy time of one layer boundary.
#[derive(Debug, Default)]
pub struct Span {
    timed: bool,
    calls: Cell<u64>,
    busy_ns: Cell<u64>,
}

impl Span {
    /// A span that counts calls and, when `timed`, also their busy time.
    #[must_use]
    pub fn new(timed: bool) -> Span {
        Span {
            timed,
            ..Span::default()
        }
    }

    /// Calls counted so far.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Busy time so far, seconds (0 for an untimed span).
    #[must_use]
    pub fn busy_s(&self) -> f64 {
        self.busy_ns.get() as f64 * 1e-9
    }

    fn count(&self) {
        self.calls.set(self.calls.get() + 1);
    }

    /// Runs `f`, adding its duration to the span when timed.
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.timed {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.busy_ns.set(self.busy_ns.get().saturating_add(ns));
        out
    }
}

/// A [`ContactSource`] that delegates to `inner` and records every
/// `next_contact` call on `span`; the span's call count is the number of
/// contacts the stream yielded.
#[derive(Debug)]
pub struct Probe<'a, S> {
    inner: S,
    span: &'a Span,
}

impl<'a, S: ContactSource> Probe<'a, S> {
    /// Wraps `inner`, recording on `span`.
    pub fn new(inner: S, span: &'a Span) -> Probe<'a, S> {
        Probe { inner, span }
    }
}

impl<S: ContactSource> ContactSource for Probe<'_, S> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn span(&self) -> SimTime {
        self.inner.span()
    }

    fn next_contact(&mut self) -> Option<Contact> {
        let next = self.span.time(|| self.inner.next_contact());
        if next.is_some() {
            self.span.count();
        }
        next
    }

    fn last_contact(&self) -> LastContact {
        self.inner.last_contact()
    }

    fn resident_hint(&self) -> usize {
        self.inner.resident_hint()
    }
}

/// A [`RefreshScheme`] that delegates to `inner`. Every hook's busy time
/// goes to `span`; the span's call count is the number of `on_contact`
/// dispatches.
#[derive(Debug)]
pub struct TimedScheme<'a> {
    inner: &'a mut dyn RefreshScheme,
    span: &'a Span,
}

impl<'a> TimedScheme<'a> {
    /// Wraps `inner`, recording on `span`.
    pub fn new(inner: &'a mut dyn RefreshScheme, span: &'a Span) -> TimedScheme<'a> {
        TimedScheme { inner, span }
    }
}

impl RefreshScheme for TimedScheme<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_start(&mut self, ctx: &mut SchemeCtx<'_>) {
        self.span.time(|| self.inner.on_start(ctx));
    }

    fn on_version_birth(&mut self, version: u64, ctx: &mut SchemeCtx<'_>) {
        self.span.time(|| self.inner.on_version_birth(version, ctx));
    }

    fn on_contact(&mut self, a: NodeId, b: NodeId, ctx: &mut SchemeCtx<'_>) {
        self.span.count();
        self.span.time(|| self.inner.on_contact(a, b, ctx));
    }

    fn on_state_loss(&mut self, node: NodeId, ctx: &mut SchemeCtx<'_>) {
        self.span.time(|| self.inner.on_state_loss(node, ctx));
    }

    fn on_finish(&mut self, ctx: &mut SchemeCtx<'_>) {
        self.span.time(|| self.inner.on_finish(ctx));
    }
}
