//! Bounded multi-producer single-consumer channels usable from both async
//! tasks (futures polled by [`rt::Executor`](crate::rt::Executor)) and
//! plain threads (the blocking link supervisor).
//!
//! The capacity bounds every node's inbox, so a runtime with 10⁴ node
//! tasks has O(nodes × capacity) worst-case buffering, not unbounded
//! growth. Senders block (or return `Pending`) when the queue is full;
//! receivers when it is empty. Closure is bidirectional: dropping the
//! receiver fails subsequent sends, dropping the last sender drains the
//! receiver to `None`.
//!
//! Wake discipline: an async waiter registers a [`Waker`], a blocking
//! waiter parks on a [`Condvar`] after counting itself in `recv_parked` /
//! `send_parked` under the lock. Every state change wakes the registered
//! wakers and notifies a condvar only when its parked count, read under
//! the same lock, is non-zero. On Linux a `notify_*` is a futex syscall
//! even with nobody waiting, and the node runtime sends and receives
//! millions of messages whose peers are almost never parked. The check
//! cannot lose a wakeup: a waiter counts itself and re-checks the queue
//! while holding the lock, and `Condvar::wait` releases that lock
//! atomically, so a notifier that sees a zero count ran strictly before
//! the waiter's re-check.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Waker};

/// The send side of the channel was used after the receiver went away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

impl std::fmt::Display for Closed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel closed")
    }
}

impl std::error::Error for Closed {}

struct State<T> {
    queue: VecDeque<T>,
    capacity: usize,
    senders: usize,
    receiver_alive: bool,
    recv_waker: Option<Waker>,
    send_wakers: Vec<Waker>,
    /// Blocking receivers waiting on `recv_ready` (0 or 1: single consumer).
    recv_parked: usize,
    /// Blocking senders waiting on `send_ready`.
    send_parked: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Signalled when an item arrives or all senders are gone.
    recv_ready: Condvar,
    /// Signalled when space frees up or the receiver is gone.
    send_ready: Condvar,
}

impl<T> Shared<T> {
    /// Locks the channel state, recovering from a poisoned mutex. Every
    /// critical section in this module finishes its queue/counter
    /// mutation before touching anything that can panic, so the state a
    /// panicking peer left behind is still coherent — cascading its
    /// panic into every other task sharing the channel would turn one
    /// task failure into a whole-runtime abort.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Releases `state` and wakes the receiver: its registered waker, and
    /// the condvar only if a blocking receiver is parked.
    fn wake_receiver(&self, mut state: MutexGuard<'_, State<T>>) {
        let waker = state.recv_waker.take();
        let parked = state.recv_parked > 0;
        drop(state);
        if let Some(w) = waker {
            w.wake();
        }
        if parked {
            self.recv_ready.notify_one();
        }
    }

    /// Releases `state` and wakes every sender: the registered wakers, and
    /// the condvar only if a blocking sender is parked.
    fn wake_senders(&self, mut state: MutexGuard<'_, State<T>>) {
        let wakers = std::mem::take(&mut state.send_wakers);
        let parked = state.send_parked > 0;
        drop(state);
        for w in wakers {
            w.wake();
        }
        if parked {
            self.send_ready.notify_all();
        }
    }
}

/// Creates a bounded channel with room for `capacity` queued items
/// (at least one).
#[must_use]
pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            capacity: capacity.max(1),
            senders: 1,
            receiver_alive: true,
            recv_waker: None,
            send_wakers: Vec::new(),
            recv_parked: 0,
            send_parked: 0,
        }),
        recv_ready: Condvar::new(),
        send_ready: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// The sending half. Cloneable; the channel closes for the receiver when
/// the last clone drops.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sender").finish_non_exhaustive()
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        self.shared.lock().senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.senders -= 1;
        if state.senders == 0 {
            self.shared.wake_receiver(state);
        }
    }
}

impl<T> Sender<T> {
    /// Sends `value`, waiting asynchronously for space. Fails if the
    /// receiver has been dropped.
    pub fn send(&self, value: T) -> SendFuture<'_, T> {
        SendFuture {
            shared: &self.shared,
            value: Some(value),
        }
    }

    /// Enqueues immediately, ignoring the capacity bound. Node tasks use
    /// this lane for peer-to-peer wire frames: a task that blocked on a
    /// peer's full inbox while its own inbox is full would deadlock any
    /// cyclic traffic pattern, so peer traffic trades strict boundedness
    /// for liveness (it stays transitively bounded because the
    /// supervisor's dispatch lane *is* capacity-bounded). Fails if the
    /// receiver has been dropped.
    pub fn send_relaxed(&self, value: T) -> Result<(), Closed> {
        let mut state = self.shared.lock();
        if !state.receiver_alive {
            return Err(Closed);
        }
        state.queue.push_back(value);
        self.shared.wake_receiver(state);
        Ok(())
    }

    /// Sends `value` from a plain thread, blocking while the queue is
    /// full. Fails if the receiver has been dropped.
    pub fn send_blocking(&self, value: T) -> Result<(), Closed> {
        let mut state = self.shared.lock();
        loop {
            if !state.receiver_alive {
                return Err(Closed);
            }
            if state.queue.len() < state.capacity {
                state.queue.push_back(value);
                self.shared.wake_receiver(state);
                return Ok(());
            }
            state.send_parked += 1;
            state = self
                .shared
                .send_ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.send_parked -= 1;
        }
    }
}

/// Future returned by [`Sender::send`].
pub struct SendFuture<'a, T> {
    shared: &'a Shared<T>,
    value: Option<T>,
}

impl<T> std::fmt::Debug for SendFuture<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SendFuture").finish_non_exhaustive()
    }
}

// The future never projects a pin into `value`; it moves it out whole
// under `&mut self` access, so unconditional `Unpin` is sound.
impl<T> Unpin for SendFuture<'_, T> {}

impl<T> Future for SendFuture<'_, T> {
    type Output = Result<(), Closed>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut state = this.shared.lock();
        if !state.receiver_alive {
            this.value = None;
            return Poll::Ready(Err(Closed));
        }
        if state.queue.len() < state.capacity {
            // Polling again after completion is a caller bug, but a
            // recoverable one: the value is long gone, so report the
            // send as failed instead of tearing the task down.
            let Some(value) = this.value.take() else {
                return Poll::Ready(Err(Closed));
            };
            state.queue.push_back(value);
            this.shared.wake_receiver(state);
            Poll::Ready(Ok(()))
        } else {
            state.send_wakers.push(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// The receiving half (single consumer).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receiver").finish_non_exhaustive()
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.receiver_alive = false;
        self.shared.wake_senders(state);
    }
}

impl<T> Receiver<T> {
    /// Receives the next item, waiting asynchronously; `None` once every
    /// sender has dropped and the queue is drained.
    pub fn recv(&mut self) -> RecvFuture<'_, T> {
        RecvFuture {
            shared: &self.shared,
        }
    }

    /// Receives from a plain thread, blocking while the queue is empty;
    /// `None` once every sender has dropped and the queue is drained.
    pub fn recv_blocking(&mut self) -> Option<T> {
        let mut state = self.shared.lock();
        loop {
            if let Some(v) = state.queue.pop_front() {
                self.shared.wake_senders(state);
                return Some(v);
            }
            if state.senders == 0 {
                return None;
            }
            state.recv_parked += 1;
            state = self
                .shared
                .recv_ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.recv_parked -= 1;
        }
    }

    /// Pops an item if one is queued, without waiting.
    pub fn try_recv(&mut self) -> Option<T> {
        let mut state = self.shared.lock();
        let v = state.queue.pop_front()?;
        self.shared.wake_senders(state);
        Some(v)
    }
}

/// Future returned by [`Receiver::recv`].
pub struct RecvFuture<'a, T> {
    shared: &'a Shared<T>,
}

impl<T> std::fmt::Debug for RecvFuture<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecvFuture").finish_non_exhaustive()
    }
}

impl<T> Future for RecvFuture<'_, T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut state = self.shared.lock();
        if let Some(v) = state.queue.pop_front() {
            self.shared.wake_senders(state);
            return Poll::Ready(Some(v));
        }
        if state.senders == 0 {
            return Poll::Ready(None);
        }
        state.recv_waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn blocking_send_and_recv_round_trip() {
        let (tx, mut rx) = channel::<u64>(2);
        let h = std::thread::spawn(move || {
            for v in 0..100 {
                tx.send_blocking(v).unwrap();
            }
        });
        let mut got = Vec::new();
        while let Some(v) = rx.recv_blocking() {
            got.push(v);
        }
        h.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = channel::<u64>(1);
        drop(rx);
        assert_eq!(tx.send_blocking(1), Err(Closed));
    }

    #[test]
    fn try_recv_is_non_blocking() {
        let (tx, mut rx) = channel::<u64>(4);
        assert_eq!(rx.try_recv(), None);
        tx.send_blocking(7).unwrap();
        assert_eq!(rx.try_recv(), Some(7));
        assert_eq!(rx.try_recv(), None);
    }

    /// Runs `f` with a context whose waker does nothing.
    fn noop_context<R>(f: impl FnOnce(&mut Context<'_>) -> R) -> R {
        struct Noop;
        impl std::task::Wake for Noop {
            fn wake(self: Arc<Self>) {}
        }
        let waker = Waker::from(Arc::new(Noop));
        f(&mut Context::from_waker(&waker))
    }

    #[test]
    fn send_future_reports_closed_when_polled_after_completion() {
        let (tx, mut rx) = channel::<u64>(2);
        let mut fut = tx.send(5);
        noop_context(|cx| {
            assert_eq!(Pin::new(&mut fut).poll(cx), Poll::Ready(Ok(())));
            // The value was consumed by the first poll; a second poll is a
            // caller bug and reports failure instead of panicking.
            assert_eq!(Pin::new(&mut fut).poll(cx), Poll::Ready(Err(Closed)));
        });
        assert_eq!(rx.try_recv(), Some(5));
    }

    const TIMEOUT: Duration = Duration::from_secs(10);

    /// Polls until `done()` holds, failing after [`TIMEOUT`] instead of
    /// hanging.
    fn within_timeout(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + TIMEOUT;
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Waits until `parked` holds for the channel's state, so the waking
    /// call under test really finds a thread waiting on the condvar.
    fn await_parked<T>(shared: &Shared<T>, parked: impl Fn(&State<T>) -> bool) {
        within_timeout("the waiter never parked", || parked(&shared.lock()));
    }

    /// Joins a thread blocked in the channel; a lost wakeup fails here.
    fn join_woken<R>(handle: std::thread::JoinHandle<R>) -> R {
        within_timeout("lost wakeup: the thread stayed parked", || {
            handle.is_finished()
        });
        handle.join().expect("the woken thread panicked")
    }

    /// A blocking sender parked on a full capacity-1 channel, released by
    /// `pop` on the receiver side.
    fn parked_sender_is_woken_by(pop: impl FnOnce(&mut Receiver<u64>) -> Option<u64>) {
        let (tx, mut rx) = channel::<u64>(1);
        tx.send_blocking(0).unwrap();
        let shared = Arc::clone(&tx.shared);
        let sender = std::thread::spawn(move || tx.send_blocking(1));
        await_parked(&shared, |s| s.send_parked == 1);
        assert_eq!(pop(&mut rx), Some(0));
        assert_eq!(join_woken(sender), Ok(()));
        assert_eq!(rx.try_recv(), Some(1));
    }

    #[test]
    fn parked_sender_wakes_on_async_recv() {
        parked_sender_is_woken_by(|rx| {
            noop_context(|cx| match Pin::new(&mut rx.recv()).poll(cx) {
                Poll::Ready(v) => v,
                Poll::Pending => None,
            })
        });
    }

    #[test]
    fn parked_sender_wakes_on_try_recv() {
        parked_sender_is_woken_by(Receiver::try_recv);
    }

    /// A blocking receiver parked on an empty channel, released by `wake`
    /// on the sender side; `expect` is what the receiver then returns.
    fn parked_receiver_is_woken_by(wake: impl FnOnce(Sender<u64>), expect: Option<u64>) {
        let (tx, mut rx) = channel::<u64>(1);
        let shared = Arc::clone(&tx.shared);
        let receiver = std::thread::spawn(move || rx.recv_blocking());
        await_parked(&shared, |s| s.recv_parked == 1);
        wake(tx);
        assert_eq!(join_woken(receiver), expect);
    }

    #[test]
    fn parked_receiver_wakes_on_send_relaxed() {
        parked_receiver_is_woken_by(|tx| tx.send_relaxed(3).unwrap(), Some(3));
    }

    #[test]
    fn parked_receiver_wakes_on_async_send() {
        parked_receiver_is_woken_by(
            |tx| {
                let sent = noop_context(|cx| Pin::new(&mut tx.send(4)).poll(cx));
                assert_eq!(sent, Poll::Ready(Ok(())));
            },
            Some(4),
        );
    }

    #[test]
    fn parked_receiver_wakes_when_the_last_sender_drops() {
        parked_receiver_is_woken_by(
            |tx| {
                // Dropping a clone leaves a sender alive: no wake is due.
                drop(tx.clone());
                drop(tx);
            },
            None,
        );
    }

    #[test]
    fn capacity_bounds_the_queue() {
        let (tx, mut rx) = channel::<u64>(3);
        for v in 0..3 {
            tx.send_blocking(v).unwrap();
        }
        // A fourth send must wait for the receiver to make room.
        let t = std::thread::spawn(move || tx.send_blocking(3));
        assert_eq!(rx.recv_blocking(), Some(0));
        t.join().unwrap().unwrap();
        assert_eq!(rx.recv_blocking(), Some(1));
        assert_eq!(rx.recv_blocking(), Some(2));
        assert_eq!(rx.recv_blocking(), Some(3));
    }
}
