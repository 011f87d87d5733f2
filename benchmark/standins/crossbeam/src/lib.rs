//! Offline stand-in for the `crossbeam` crate.
//!
//! The container has no registry, so the benchmark package patches
//! `crossbeam` to this std-only implementation of the one module the
//! Helios workspace uses: [`channel`], multi-producer multi-consumer
//! channels with the published crate's types, errors and disconnection
//! rules. The queue is a `Mutex<VecDeque>` with two condition variables,
//! not the published lock-free design.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Threads blocked in a receive / a send. std's `notify_one` is a
        /// futex syscall even with nobody waiting, so wake only when
        /// someone is.
        recv_waiting: usize,
        send_waiting: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
        /// `None` for an unbounded channel.
        cap: Option<usize>,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            // The queue is valid after every step of every critical
            // section, so a panicking holder leaves nothing to repair.
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }

        fn is_full(&self, state: &State<T>) -> bool {
            self.cap.is_some_and(|cap| state.queue.len() >= cap)
        }

        fn push(&self, state: &mut State<T>, value: T) {
            state.queue.push_back(value);
            if state.recv_waiting > 0 {
                self.not_empty.notify_one();
            }
        }

        fn pop(&self, state: &mut State<T>) -> Option<T> {
            let value = state.queue.pop_front()?;
            if state.send_waiting > 0 {
                self.not_full.notify_one();
            }
            Some(value)
        }
    }

    /// A channel holding at most `cap` messages; `send` blocks when full.
    ///
    /// The published crate makes `bounded(0)` a rendezvous channel; this
    /// stand-in gives it room for one message instead.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        new_channel(Some(cap.max(1)))
    }

    /// A channel of unlimited capacity; `send` never blocks.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        new_channel(None)
    }

    fn new_channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                recv_waiting: 0,
                send_waiting: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap,
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// The sending half; clone it for more producers.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; clone it for more consumers (each message is
    /// delivered to exactly one of them).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Sender<T> {
        /// Block until there is room, then enqueue. Fails once every
        /// receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            match self.send_until(value, None) {
                Ok(()) => Ok(()),
                Err(SendTimeoutError::Disconnected(v)) | Err(SendTimeoutError::Timeout(v)) => {
                    Err(SendError(v))
                }
            }
        }

        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut state = self.shared.lock();
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if self.shared.is_full(&state) {
                return Err(TrySendError::Full(value));
            }
            self.shared.push(&mut state, value);
            Ok(())
        }

        pub fn send_timeout(&self, value: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
            self.send_until(value, Some(Instant::now() + timeout))
        }

        fn send_until(
            &self,
            value: T,
            deadline: Option<Instant>,
        ) -> Result<(), SendTimeoutError<T>> {
            let mut state = self.shared.lock();
            loop {
                if state.receivers == 0 {
                    return Err(SendTimeoutError::Disconnected(value));
                }
                if !self.shared.is_full(&state) {
                    self.shared.push(&mut state, value);
                    return Ok(());
                }
                state.send_waiting += 1;
                state = match deadline {
                    None => self
                        .shared
                        .not_full
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner),
                    Some(deadline) => {
                        let left = deadline.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            state.send_waiting -= 1;
                            return Err(SendTimeoutError::Timeout(value));
                        }
                        self.shared
                            .not_full
                            .wait_timeout(state, left)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0
                    }
                };
                state.send_waiting -= 1;
            }
        }

        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        pub fn is_full(&self) -> bool {
            self.shared.is_full(&self.shared.lock())
        }

        pub fn capacity(&self) -> Option<usize> {
            self.shared.cap
        }

        /// Whether both halves belong to the same channel.
        pub fn same_channel(&self, other: &Sender<T>) -> bool {
            Arc::ptr_eq(&self.shared, &other.shared)
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
                // Blocked receivers must observe the disconnect.
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives. Fails once the channel is empty
        /// and every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.recv_until(None).map_err(|_| RecvError)
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.shared.lock();
            match self.shared.pop(&mut state) {
                Some(value) => Ok(value),
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.recv_until(Some(Instant::now() + timeout))
        }

        pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
            self.recv_until(Some(deadline))
        }

        fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
            let mut state = self.shared.lock();
            loop {
                if let Some(value) = self.shared.pop(&mut state) {
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                state.recv_waiting += 1;
                state = match deadline {
                    None => self
                        .shared
                        .not_empty
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner),
                    Some(deadline) => {
                        let left = deadline.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            state.recv_waiting -= 1;
                            return Err(RecvTimeoutError::Timeout);
                        }
                        self.shared
                            .not_empty
                            .wait_timeout(state, left)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0
                    }
                };
                state.recv_waiting -= 1;
            }
        }

        /// A blocking iterator that ends when the channel disconnects.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
        }

        /// An iterator over the messages queued right now; never blocks.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter { receiver: self }
        }

        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        pub fn is_full(&self) -> bool {
            self.shared.is_full(&self.shared.lock())
        }

        pub fn capacity(&self) -> Option<usize> {
            self.shared.cap
        }

        /// Whether both halves belong to the same channel.
        pub fn same_channel(&self, other: &Receiver<T>) -> bool {
            Arc::ptr_eq(&self.shared, &other.shared)
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            self.shared.lock().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.shared.lock();
            state.receivers -= 1;
            if state.receivers == 0 {
                // Blocked senders must observe the disconnect.
                self.shared.not_full.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// Blocking iterator returned by [`Receiver::iter`].
    pub struct Iter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    /// Non-blocking iterator returned by [`Receiver::try_iter`].
    pub struct TryIter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.receiver.try_recv().ok()
        }
    }

    /// Owning blocking iterator returned by `Receiver::into_iter`.
    pub struct IntoIter<T> {
        receiver: Receiver<T>,
    }

    impl<T> Iterator for IntoIter<T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;
        fn into_iter(self) -> IntoIter<T> {
            IntoIter { receiver: self }
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }

    /// Every receiver is gone; the unsent message is handed back.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum TrySendError<T> {
        Full(T),
        Disconnected(T),
    }

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum SendTimeoutError<T> {
        Timeout(T),
        Disconnected(T),
    }

    /// The channel is empty and every sender is gone.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl<T> SendError<T> {
        pub fn into_inner(self) -> T {
            self.0
        }
    }

    impl<T> TrySendError<T> {
        pub fn into_inner(self) -> T {
            match self {
                TrySendError::Full(v) | TrySendError::Disconnected(v) => v,
            }
        }
        pub fn is_full(&self) -> bool {
            matches!(self, TrySendError::Full(_))
        }
        pub fn is_disconnected(&self) -> bool {
            matches!(self, TrySendError::Disconnected(_))
        }
    }

    impl<T> SendTimeoutError<T> {
        pub fn into_inner(self) -> T {
            match self {
                SendTimeoutError::Timeout(v) | SendTimeoutError::Disconnected(v) => v,
            }
        }
        pub fn is_timeout(&self) -> bool {
            matches!(self, SendTimeoutError::Timeout(_))
        }
        pub fn is_disconnected(&self) -> bool {
            matches!(self, SendTimeoutError::Disconnected(_))
        }
    }

    impl TryRecvError {
        pub fn is_empty(&self) -> bool {
            matches!(self, TryRecvError::Empty)
        }
        pub fn is_disconnected(&self) -> bool {
            matches!(self, TryRecvError::Disconnected)
        }
    }

    impl RecvTimeoutError {
        pub fn is_timeout(&self) -> bool {
            matches!(self, RecvTimeoutError::Timeout)
        }
        pub fn is_disconnected(&self) -> bool {
            matches!(self, RecvTimeoutError::Disconnected)
        }
    }

    // The send errors print without their payload so `T: Debug` is not
    // required, as in the published crate.
    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(match self {
                TrySendError::Full(_) => "Full(..)",
                TrySendError::Disconnected(_) => "Disconnected(..)",
            })
        }
    }

    impl<T> fmt::Debug for SendTimeoutError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(match self {
                SendTimeoutError::Timeout(_) => "Timeout(..)",
                SendTimeoutError::Disconnected(_) => "Disconnected(..)",
            })
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(match self {
                TrySendError::Full(_) => "sending on a full channel",
                TrySendError::Disconnected(_) => "sending on a disconnected channel",
            })
        }
    }

    impl<T> fmt::Display for SendTimeoutError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(match self {
                SendTimeoutError::Timeout(_) => "timed out waiting on send operation",
                SendTimeoutError::Disconnected(_) => "sending on a disconnected channel",
            })
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(match self {
                TryRecvError::Empty => "receiving on an empty channel",
                TryRecvError::Disconnected => "receiving on an empty and disconnected channel",
            })
        }
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(match self {
                RecvTimeoutError::Timeout => "timed out waiting on receive operation",
                RecvTimeoutError::Disconnected => "channel is empty and disconnected",
            })
        }
    }

    impl<T> std::error::Error for SendError<T> {}
    impl<T> std::error::Error for TrySendError<T> {}
    impl<T> std::error::Error for SendTimeoutError<T> {}
    impl std::error::Error for RecvError {}
    impl std::error::Error for TryRecvError {}
    impl std::error::Error for RecvTimeoutError {}

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn messages_arrive_in_order_and_disconnect_ends_the_stream() {
            let (tx, rx) = unbounded();
            for i in 0..5 {
                tx.send(i).unwrap();
            }
            drop(tx);
            assert_eq!(rx.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn a_full_bounded_channel_refuses_then_blocks_until_drained() {
            let (tx, rx) = bounded(2);
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert!(tx.try_send(3).unwrap_err().is_full());
            assert!(tx
                .send_timeout(3, Duration::from_millis(5))
                .unwrap_err()
                .is_timeout());
            let producer = std::thread::spawn(move || tx.send(3));
            assert_eq!(rx.recv(), Ok(1));
            producer.join().unwrap().unwrap();
            assert_eq!((rx.recv(), rx.recv()), (Ok(2), Ok(3)));
        }

        #[test]
        fn send_fails_once_every_receiver_is_gone() {
            let (tx, rx) = bounded(1);
            let rx2 = rx.clone();
            drop(rx);
            tx.send(1).unwrap();
            drop(rx2);
            assert_eq!(tx.send(2), Err(SendError(2)));
        }

        #[test]
        fn a_blocked_receiver_wakes_on_send_and_times_out_without_one() {
            let (tx, rx) = unbounded::<u32>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
            let consumer = std::thread::spawn(move || rx.recv());
            tx.send(9).unwrap();
            assert_eq!(consumer.join().unwrap(), Ok(9));
        }
    }
}
