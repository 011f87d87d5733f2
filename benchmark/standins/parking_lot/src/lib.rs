//! Offline stand-in for the `parking_lot` crate.
//!
//! The container has no registry, so the benchmark package patches
//! `parking_lot` to these thin wrappers over `std::sync`. They keep the
//! published crate's surface — `lock()` returns the guard directly, a
//! panic while holding a lock does not poison it, `Condvar::wait` takes
//! `&mut MutexGuard` — on top of std's futex-based primitives.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{self, PoisonError, TryLockError};
use std::time::{Duration, Instant};

/// A mutual-exclusion lock that ignores poisoning.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// RAII guard of a [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    /// `None` only while a `Condvar` wait has handed the std guard to
    /// `std::sync::Condvar`, which takes it by value.
    guard: Option<sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            guard: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(MutexGuard { guard: Some(guard) }),
            Err(TryLockError::Poisoned(p)) => Some(MutexGuard {
                guard: Some(p.into_inner()),
            }),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    pub fn is_locked(&self) -> bool {
        self.try_lock().is_none()
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T> From<T> for Mutex<T> {
    fn from(value: T) -> Mutex<T> {
        Mutex::new(value)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present outside a wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present outside a wait")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Whether a timed [`Condvar`] wait ended by timing out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable paired with a [`Mutex`].
#[derive(Default)]
pub struct Condvar {
    inner: sync::Condvar,
    /// Threads inside a wait. std's notify always makes a futex syscall;
    /// the published crate's is a load when nobody waits, and callers here
    /// notify on every produce. A waiter registers while it still holds
    /// the mutex, so a notifier that changed the condition under that
    /// mutex afterwards is sure to see it.
    waiters: AtomicUsize,
}

impl Condvar {
    pub const fn new() -> Condvar {
        Condvar {
            inner: sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Wake one waiter; returns whether any thread was waiting.
    pub fn notify_one(&self) -> bool {
        let waiting = self.waiters.load(Ordering::SeqCst) > 0;
        if waiting {
            self.inner.notify_one();
        }
        waiting
    }

    /// Wake every waiter; returns how many threads were waiting.
    pub fn notify_all(&self) -> usize {
        let waiting = self.waiters.load(Ordering::SeqCst);
        if waiting > 0 {
            self.inner.notify_all();
        }
        waiting
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let std_guard = guard.guard.take().expect("guard present outside a wait");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let std_guard = self
            .inner
            .wait(std_guard)
            .unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.guard = Some(std_guard);
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let std_guard = guard.guard.take().expect("guard present outside a wait");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let (std_guard, result) = self
            .inner
            .wait_timeout(std_guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.guard = Some(std_guard);
        WaitTimeoutResult(result.timed_out())
    }

    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        self.wait_for(guard, deadline.saturating_duration_since(Instant::now()))
    }

    /// Block while `condition` holds.
    pub fn wait_while<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        mut condition: impl FnMut(&mut T) -> bool,
    ) {
        while condition(&mut **guard) {
            self.wait(guard);
        }
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar { .. }")
    }
}

/// A reader-writer lock that ignores poisoning.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

/// Shared guard of an [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    guard: sync::RwLockReadGuard<'a, T>,
}

/// Exclusive guard of an [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    guard: sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            guard: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            guard: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }

    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(guard) => Some(RwLockReadGuard { guard }),
            Err(TryLockError::Poisoned(p)) => Some(RwLockReadGuard {
                guard: p.into_inner(),
            }),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(guard) => Some(RwLockWriteGuard { guard }),
            Err(TryLockError::Poisoned(p)) => Some(RwLockWriteGuard {
                guard: p.into_inner(),
            }),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T> From<T> for RwLock<T> {
    fn from(value: T) -> RwLock<T> {
        RwLock::new(value)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_read() {
            Some(guard) => f.debug_struct("RwLock").field("data", &&*guard).finish(),
            None => f.write_str("RwLock { <locked> }"),
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_panic_while_locked_does_not_poison() {
        let m = Arc::new(Mutex::new(1));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 1);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn condvar_hands_the_guard_back_after_a_wait() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut ready = lock.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
            *ready
        });
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_all();
        }
        assert!(waiter.join().unwrap());
        let (lock, cv) = &*pair;
        let mut g = lock.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(5)).timed_out());
        assert!(*g);
    }

    #[test]
    fn rwlock_allows_many_readers_and_one_writer() {
        let l = RwLock::new(5);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(*a + *b, 10);
            assert!(l.try_write().is_none());
        }
        *l.write() += 1;
        assert_eq!(*l.read(), 6);
    }
}
