//! Offline shim for `crossbeam`.
//!
//! Provides `crossbeam::channel::{unbounded, Sender, Receiver}` with the
//! multi-producer **multi-consumer** semantics the worker pool relies on
//! (std's `mpsc::Receiver` is single-consumer, so it cannot be used
//! directly).

/// Multi-producer multi-consumer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        /// Receivers inside `recv`'s wait. Written by the receiver around
        /// its wait and read by `send`, both under the `state` mutex, so
        /// `send` skips the `futex_wake` (which `std`'s `notify_one` issues
        /// whether or not anybody waits) when every worker is busy. A
        /// receiver holds the mutex from its emptiness check until the wait
        /// releases it, so a `send` that follows always sees it counted; a
        /// woken receiver not yet re-locked is over-counted, which costs one
        /// spare notify.
        parked: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is drained
    /// and all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty but senders remain.
        Empty,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    /// The sending half of an unbounded channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of an unbounded channel. Clonable: clones share
    /// the queue (each message is delivered to exactly one receiver).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Sender").finish_non_exhaustive()
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Receiver").finish_non_exhaustive()
        }
    }

    /// Creates an unbounded MPMC channel.
    #[must_use]
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                parked: 0,
            }),
            ready: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Sends a message, never blocking.
        ///
        /// # Errors
        ///
        /// This shim keeps the queue alive as long as any endpoint exists,
        /// so `send` only fails if every `Receiver` *and* the queue are
        /// gone — which cannot be observed through safe use; the `Result`
        /// mirrors the crossbeam signature.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            state.queue.push_back(value);
            let parked = state.parked > 0;
            drop(state);
            if parked {
                self.shared.ready.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            let mut state = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            state.senders += 1;
            drop(state);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            state.senders -= 1;
            let disconnected = state.senders == 0;
            drop(state);
            if disconnected {
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Receives a message, blocking until one arrives.
        ///
        /// # Errors
        ///
        /// Returns [`RecvError`] once the channel is empty and every
        /// sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(value) = state.queue.pop_front() {
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state.parked += 1;
                state = self
                    .shared
                    .ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                state.parked -= 1;
            }
        }

        /// Receives a message without blocking.
        ///
        /// # Errors
        ///
        /// [`TryRecvError::Empty`] if no message is queued,
        /// [`TryRecvError::Disconnected`] if additionally all senders are
        /// gone.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            match state.queue.pop_front() {
                Some(value) => Ok(value),
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, RecvError};
    use std::thread;

    #[test]
    fn fifo_single_consumer() {
        let (tx, rx) = unbounded();
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        drop(tx);
        assert_eq!(rx.recv(), Ok(0));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn multi_consumer_drains_everything() {
        let (tx, rx) = unbounded();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || {
                    let mut n = 0u32;
                    while rx.recv().is_ok() {
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        drop(rx);
        let total: u32 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 100);
    }

    /// `send` skips the notify unless a receiver is parked. Two threads
    /// bounce a token so each parks almost every round; `recv` has no
    /// timeout, so one wrongly skipped notify hangs the pair and the
    /// watchdog fails the test.
    #[test]
    fn ping_pong_loses_no_wakeup() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let (ping_tx, ping_rx) = unbounded();
            let (pong_tx, pong_rx) = unbounded();
            let echo = thread::spawn(move || {
                while let Ok(v) = ping_rx.recv() {
                    pong_tx.send(v).unwrap();
                }
            });
            for v in 0..100_000u32 {
                ping_tx.send(v).unwrap();
                assert_eq!(pong_rx.recv(), Ok(v));
            }
            drop(ping_tx);
            echo.join().unwrap();
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a receiver stalled: lost wake-up");
    }

    #[test]
    fn cloned_sender_keeps_channel_open() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(7).unwrap();
        drop(tx2);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
    }
}
