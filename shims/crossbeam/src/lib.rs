//! Offline stand-in for `crossbeam`, covering `deque`, the
//! Chase-Lev-style work-stealing deque trio (`Worker` / `Stealer` /
//! `Injector`) the driver's scheduler is built on — the API surface
//! the workspace uses. It is implemented with a `Mutex` (no unsafe),
//! preserving the upstream API and semantics rather than the lock-free
//! implementation.

pub mod deque {
    //! Work-stealing deques, after `crossbeam-deque`.
    //!
    //! A [`Worker`] is an owner-side queue: its thread pushes and pops
    //! locally, while any number of [`Stealer`] handles take work from
    //! the opposite end. An [`Injector`] is a shared FIFO every worker
    //! can steal from — the global entry queue of a scheduler.
    //!
    //! The upstream crate is lock-free (the Chase-Lev algorithm); this
    //! shim keeps the exact API and the FIFO/LIFO flavor semantics on a
    //! mutex, which is plenty for the handful of workers the compiler
    //! drives and keeps the workspace free of unsafe code.

    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex};

    /// Result of a steal attempt.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Steal<T> {
        /// The queue was empty.
        Empty,
        /// One task was stolen.
        Success(T),
        /// The attempt lost a race and should be retried. (This shim's
        /// mutex implementation never returns it, but callers written
        /// against the upstream API must handle it.)
        Retry,
    }

    impl<T> Steal<T> {
        /// The stolen task, if the attempt succeeded.
        pub fn success(self) -> Option<T> {
            match self {
                Steal::Success(t) => Some(t),
                _ => None,
            }
        }

        /// `true` if the queue was observed empty.
        pub fn is_empty(&self) -> bool {
            matches!(self, Steal::Empty)
        }

        /// `true` if a task was stolen.
        pub fn is_success(&self) -> bool {
            matches!(self, Steal::Success(_))
        }
    }

    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Flavor {
        Fifo,
        Lifo,
    }

    /// The owner side of a work-stealing deque.
    ///
    /// Not cloneable: exactly one thread owns the push/pop end. Create
    /// [`Stealer`]s with [`Worker::stealer`] for everyone else.
    pub struct Worker<T> {
        shared: Arc<Mutex<VecDeque<T>>>,
        flavor: Flavor,
    }

    /// The thief side of a [`Worker`]'s deque; cloneable and shareable.
    pub struct Stealer<T> {
        shared: Arc<Mutex<VecDeque<T>>>,
    }

    impl<T> Worker<T> {
        /// A FIFO worker: `pop` takes the oldest task, same end the
        /// stealers take from (fair queue order).
        pub fn new_fifo() -> Worker<T> {
            Worker {
                shared: Arc::new(Mutex::new(VecDeque::new())),
                flavor: Flavor::Fifo,
            }
        }

        /// A LIFO worker: `pop` takes the newest task (depth-first),
        /// stealers still take the oldest.
        pub fn new_lifo() -> Worker<T> {
            Worker {
                shared: Arc::new(Mutex::new(VecDeque::new())),
                flavor: Flavor::Lifo,
            }
        }

        /// Creates a stealer handle for this worker's deque.
        pub fn stealer(&self) -> Stealer<T> {
            Stealer {
                shared: self.shared.clone(),
            }
        }

        /// Pushes a task onto the owner end.
        pub fn push(&self, task: T) {
            self.shared.lock().unwrap().push_back(task);
        }

        /// Pops a task from the owner end (`None` when empty).
        pub fn pop(&self) -> Option<T> {
            let mut q = self.shared.lock().unwrap();
            match self.flavor {
                Flavor::Fifo => q.pop_front(),
                Flavor::Lifo => q.pop_back(),
            }
        }

        /// `true` if the deque currently holds no tasks.
        pub fn is_empty(&self) -> bool {
            self.shared.lock().unwrap().is_empty()
        }

        /// Number of tasks currently queued.
        pub fn len(&self) -> usize {
            self.shared.lock().unwrap().len()
        }
    }

    impl<T> Stealer<T> {
        /// Steals the oldest task from the deque.
        pub fn steal(&self) -> Steal<T> {
            match self.shared.lock().unwrap().pop_front() {
                Some(t) => Steal::Success(t),
                None => Steal::Empty,
            }
        }

        /// `true` if the deque was observed empty.
        pub fn is_empty(&self) -> bool {
            self.shared.lock().unwrap().is_empty()
        }

        /// Number of tasks observed queued.
        pub fn len(&self) -> usize {
            self.shared.lock().unwrap().len()
        }
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Stealer<T> {
            Stealer {
                shared: self.shared.clone(),
            }
        }
    }

    /// A shared FIFO injection queue every worker steals from.
    pub struct Injector<T> {
        shared: Mutex<VecDeque<T>>,
    }

    impl<T> Default for Injector<T> {
        fn default() -> Self {
            Injector::new()
        }
    }

    impl<T> Injector<T> {
        /// Creates an empty injector.
        pub fn new() -> Injector<T> {
            Injector {
                shared: Mutex::new(VecDeque::new()),
            }
        }

        /// Pushes a task onto the back of the queue.
        pub fn push(&self, task: T) {
            self.shared.lock().unwrap().push_back(task);
        }

        /// Steals the oldest task.
        pub fn steal(&self) -> Steal<T> {
            match self.shared.lock().unwrap().pop_front() {
                Some(t) => Steal::Success(t),
                None => Steal::Empty,
            }
        }

        /// `true` if the queue currently holds no tasks.
        pub fn is_empty(&self) -> bool {
            self.shared.lock().unwrap().is_empty()
        }

        /// Number of tasks currently queued.
        pub fn len(&self) -> usize {
            self.shared.lock().unwrap().len()
        }
    }
}

#[cfg(test)]
mod deque_tests {
    use super::deque::{Injector, Steal, Worker};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn fifo_pop_and_steal_take_oldest() {
        let w = Worker::new_fifo();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(w.len(), 3);
        assert_eq!(w.pop(), Some(1));
        let s = w.stealer();
        assert_eq!(s.steal(), Steal::Success(2));
        assert_eq!(w.pop(), Some(3));
        assert_eq!(w.pop(), None);
        assert!(s.steal().is_empty());
        assert!(w.is_empty() && s.is_empty());
    }

    #[test]
    fn lifo_pop_takes_newest_but_steal_takes_oldest() {
        let w = Worker::new_lifo();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(w.pop(), Some(3));
        assert_eq!(w.stealer().steal(), Steal::Success(1));
        assert_eq!(w.pop(), Some(2));
    }

    #[test]
    fn injector_is_shared_fifo() {
        let inj = Injector::new();
        inj.push(10);
        inj.push(11);
        assert_eq!(inj.len(), 2);
        assert_eq!(inj.steal().success(), Some(10));
        assert_eq!(inj.steal().success(), Some(11));
        assert!(inj.steal().is_empty());
        assert!(inj.is_empty());
    }

    #[test]
    fn concurrent_stealing_loses_no_tasks() {
        const N: usize = 10_000;
        let w = Worker::new_fifo();
        for i in 0..N {
            w.push(i);
        }
        let taken = AtomicUsize::new(0);
        let sum = AtomicUsize::new(0);
        thread::scope(|scope| {
            for _ in 0..4 {
                let s = w.stealer();
                let taken = &taken;
                let sum = &sum;
                scope.spawn(move || {
                    while let Some(v) = s.steal().success() {
                        taken.fetch_add(1, Ordering::Relaxed);
                        sum.fetch_add(v, Ordering::Relaxed);
                    }
                });
            }
            // The owner drains its own end at the same time.
            while let Some(v) = w.pop() {
                taken.fetch_add(1, Ordering::Relaxed);
                sum.fetch_add(v, Ordering::Relaxed);
            }
        });
        assert_eq!(taken.load(Ordering::Relaxed), N);
        assert_eq!(sum.load(Ordering::Relaxed), N * (N - 1) / 2);
    }
}
