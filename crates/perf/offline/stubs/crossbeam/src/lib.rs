//! Offline stand-in for the two `crossbeam` modules `bighouse-sim` uses.
//!
//! [`channel`] wraps `std::sync::mpsc` (itself a port of crossbeam's
//! channel since Rust 1.67), so the parallel runner's master/slave
//! traffic runs for real. [`deque`] backs the injector and the per-worker
//! queues with mutex-guarded `VecDeque`s: correct, not lock-free. The
//! sweep orchestrator takes one task per simulated configuration, so the
//! queues see a handful of operations per run.

/// Multi-producer single-consumer channels.
pub mod channel {
    use std::sync::{mpsc, Mutex, PoisonError};
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};

    /// Sending half.
    #[derive(Debug)]
    pub struct Sender<T>(mpsc::Sender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        /// Sends a message; fails once the receiver is gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            self.0.send(msg)
        }
    }

    /// Receiving half. The mutex makes it `Sync`, as crossbeam's is.
    #[derive(Debug)]
    pub struct Receiver<T>(Mutex<mpsc::Receiver<T>>);

    impl<T> Receiver<T> {
        fn with<R>(&self, f: impl FnOnce(&mpsc::Receiver<T>) -> R) -> R {
            f(&self.0.lock().unwrap_or_else(PoisonError::into_inner))
        }

        /// Blocks until a message arrives or every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.with(mpsc::Receiver::recv)
        }

        /// Blocks for at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.with(|rx| rx.recv_timeout(timeout))
        }

        /// Returns a waiting message, if any.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.with(mpsc::Receiver::try_recv)
        }
    }

    /// Creates a channel of unbounded capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(Mutex::new(rx)))
    }
}

/// Work-stealing queues.
pub mod deque {
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex, PoisonError};

    type Shared<T> = Arc<Mutex<VecDeque<T>>>;

    fn pop_front<T>(queue: &Shared<T>) -> Option<T> {
        queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front()
    }

    fn push_back<T>(queue: &Shared<T>, task: T) {
        queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(task);
    }

    /// Outcome of a steal attempt.
    #[derive(Debug)]
    pub enum Steal<T> {
        /// The queue was empty.
        Empty,
        /// One task was stolen.
        Success(T),
        /// Lost a race; try again. Never produced by this stand-in.
        Retry,
    }

    impl<T> Steal<T> {
        /// Whether the attempt should be retried.
        pub fn is_retry(&self) -> bool {
            matches!(self, Steal::Retry)
        }

        /// The stolen task, if any.
        pub fn success(self) -> Option<T> {
            match self {
                Steal::Success(task) => Some(task),
                _ => None,
            }
        }

        /// Keeps a success, otherwise tries `f`.
        pub fn or_else(self, f: impl FnOnce() -> Steal<T>) -> Steal<T> {
            match self {
                Steal::Success(_) => self,
                Steal::Empty => f(),
                Steal::Retry => match f() {
                    Steal::Empty => Steal::Retry,
                    other => other,
                },
            }
        }
    }

    impl<T> FromIterator<Steal<T>> for Steal<T> {
        /// First success wins; otherwise `Retry` if any attempt asked for one.
        fn from_iter<I: IntoIterator<Item = Steal<T>>>(iter: I) -> Self {
            let mut retry = false;
            for steal in iter {
                match steal {
                    Steal::Success(_) => return steal,
                    Steal::Retry => retry = true,
                    Steal::Empty => {}
                }
            }
            if retry {
                Steal::Retry
            } else {
                Steal::Empty
            }
        }
    }

    /// Global queue every worker can take from.
    #[derive(Debug)]
    pub struct Injector<T>(Shared<T>);

    impl<T> Default for Injector<T> {
        fn default() -> Self {
            Injector(Arc::default())
        }
    }

    impl<T> Injector<T> {
        /// Creates an empty injector.
        pub fn new() -> Self {
            Self::default()
        }

        /// Adds a task.
        pub fn push(&self, task: T) {
            push_back(&self.0, task);
        }

        /// Takes one task.
        pub fn steal(&self) -> Steal<T> {
            pop_front(&self.0).map_or(Steal::Empty, Steal::Success)
        }

        /// Takes one task; the stand-in moves no batch into `_dest`.
        pub fn steal_batch_and_pop(&self, _dest: &Worker<T>) -> Steal<T> {
            self.steal()
        }
    }

    /// A worker's own FIFO queue.
    #[derive(Debug)]
    pub struct Worker<T>(Shared<T>);

    impl<T> Worker<T> {
        /// Creates an empty FIFO queue.
        pub fn new_fifo() -> Self {
            Worker(Arc::default())
        }

        /// Adds a task.
        pub fn push(&self, task: T) {
            push_back(&self.0, task);
        }

        /// Takes the oldest task.
        pub fn pop(&self) -> Option<T> {
            pop_front(&self.0)
        }

        /// A handle other workers steal through.
        pub fn stealer(&self) -> Stealer<T> {
            Stealer(Arc::clone(&self.0))
        }
    }

    /// Handle for stealing from another worker's queue.
    #[derive(Debug)]
    pub struct Stealer<T>(Shared<T>);

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Self {
            Stealer(Arc::clone(&self.0))
        }
    }

    impl<T> Stealer<T> {
        /// Takes one task.
        pub fn steal(&self) -> Steal<T> {
            pop_front(&self.0).map_or(Steal::Empty, Steal::Success)
        }
    }
}
