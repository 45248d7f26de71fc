//! A minimal multi-threaded async executor.
//!
//! The container this workspace builds in has no async runtime crate, so
//! `omn-node` brings its own: a classic wake-queue executor built from
//! `std::task::Wake`, a `Mutex`/`Condvar` injector queue, and a fixed pool
//! of worker threads. It supports exactly what the node runtime needs —
//! `spawn` + cooperative wakeups from the bounded channels in
//! [`chan`](crate::chan) — and nothing more (no IO reactor, no timers;
//! simulated time is driven by the link supervisor).
//!
//! Wake discipline: a worker that finds the ready queue empty counts
//! itself `idle` under the queue lock before it waits on the condvar, and
//! a task wake notifies only when that count is non-zero. Node tasks
//! wake each other on almost every message while the workers are busy,
//! and an unconditional `notify_one` is a futex syscall per wake. The
//! same lock orders the count against the push, so no wakeup is lost
//! (see [`chan`](crate::chan) for the argument).

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::JoinHandle;

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// Shared executor state: the ready queue and shutdown flag.
struct Shared {
    ready: Mutex<Ready>,
    available: Condvar,
    shutdown: AtomicBool,
}

/// The ready queue plus the number of workers parked on `available`.
struct Ready {
    tasks: VecDeque<Arc<Task>>,
    idle: usize,
}

impl Shared {
    /// Locks the ready queue, recovering from a poisoned mutex: a worker
    /// that panicked inside a task poll never leaves the queue itself
    /// half-mutated (pushes and pops are single operations), so the
    /// remaining workers can keep scheduling the surviving tasks.
    fn ready(&self) -> MutexGuard<'_, Ready> {
        self.ready.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One spawned task. `queued` deduplicates wakeups: a task is pushed onto
/// the ready queue at most once until a worker picks it up.
struct Task {
    future: Mutex<Option<BoxFuture>>,
    queued: AtomicBool,
    shared: Arc<Shared>,
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        if !self.queued.swap(true, Ordering::AcqRel) {
            let shared = Arc::clone(&self.shared);
            let mut ready = shared.ready();
            ready.tasks.push_back(self);
            let idle = ready.idle > 0;
            drop(ready);
            if idle {
                shared.available.notify_one();
            }
        }
    }
}

/// The executor: spawn futures, then [`Executor::shutdown`] to join the
/// workers once all communication has quiesced.
pub struct Executor {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Executor {
    /// Starts a pool of `threads` workers (at least one).
    #[must_use]
    pub fn new(threads: usize) -> Executor {
        let shared = Arc::new(Shared {
            ready: Mutex::new(Ready {
                tasks: VecDeque::new(),
                idle: 0,
            }),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("omn-node-worker-{i}"))
                    .spawn(move || worker(&shared))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor { shared, workers }
    }

    /// Spawns a future onto the pool.
    pub fn spawn<F>(&self, future: F)
    where
        F: Future<Output = ()> + Send + 'static,
    {
        let task = Arc::new(Task {
            future: Mutex::new(Some(Box::pin(future))),
            queued: AtomicBool::new(false),
            shared: Arc::clone(&self.shared),
        });
        task.wake();
    }

    /// Stops the workers after the ready queue drains of running work and
    /// joins them. Tasks still pending on a channel are dropped in place
    /// (their futures are simply never polled again).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Pass through the queue lock before notifying: a worker that read
        // the flag as unset under the lock is then already waiting, so the
        // notify reaches it.
        drop(self.shared.ready());
        self.shared.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker(shared: &Arc<Shared>) {
    loop {
        let task = {
            let mut ready = shared.ready();
            loop {
                if let Some(t) = ready.tasks.pop_front() {
                    break t;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                ready.idle += 1;
                ready = shared
                    .available
                    .wait(ready)
                    .unwrap_or_else(PoisonError::into_inner);
                ready.idle -= 1;
            }
        };
        // Clear the dedup flag *before* polling: a wake that lands during
        // the poll re-queues the task (the second worker then briefly
        // blocks on the future mutex, which is fine).
        task.queued.store(false, Ordering::Release);
        let waker = Waker::from(Arc::clone(&task));
        let mut cx = Context::from_waker(&waker);
        let mut slot = match task.future.lock() {
            Ok(slot) => slot,
            // The task panicked mid-poll on another worker: its future
            // is in an unknown state and must never be polled again.
            // Drop it in place; the rest of the pool keeps running.
            Err(poisoned) => {
                let mut slot = poisoned.into_inner();
                *slot = None;
                slot
            }
        };
        if let Some(fut) = slot.as_mut() {
            if let Poll::Ready(()) = fut.as_mut().poll(&mut cx) {
                *slot = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[test]
    fn spawned_futures_run_to_completion() {
        let exec = Executor::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            exec.spawn(async move {
                counter.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            });
        }
        for _ in 0..64 {
            rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 64);
        exec.shutdown();
    }

    #[test]
    fn tasks_resume_after_cross_task_wakeups() {
        let exec = Executor::new(2);
        let (tx, rx) = crate::chan::channel::<u32>(4);
        let (done_tx, done_rx) = mpsc::channel();
        exec.spawn(async move {
            let mut sum = 0;
            let mut rx = rx;
            while let Some(v) = rx.recv().await {
                sum += v;
            }
            done_tx.send(sum).unwrap();
        });
        exec.spawn(async move {
            for v in 1..=100u32 {
                tx.send(v).await.unwrap();
            }
        });
        let sum = done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap();
        assert_eq!(sum, 5050);
        exec.shutdown();
    }

    #[test]
    fn idle_worker_wakes_on_a_spawn_from_another_thread() {
        let exec = Executor::new(1);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while exec.shared.ready().idle != 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "the worker never parked"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                exec.spawn(async move {
                    tx.send(()).unwrap();
                });
            });
        });
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("lost wakeup: the idle worker never ran the task");
        exec.shutdown();
    }
}
