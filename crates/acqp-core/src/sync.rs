//! Non-poisoning synchronization primitives for shared planner state.
//!
//! Estimators are `Sync`, and the counting estimator keeps a mask cache
//! behind a lock. With [`std::sync::Mutex`], a caller that panics while
//! holding the lock *poisons* it, and every later `lock().unwrap()`
//! converts one isolated failure into a process-wide abort. That is
//! exactly backwards for a basestation that must keep planning through
//! faults: the data guarded by these locks is a cache of pure-function
//! results (per-row truth masks), so a panic mid-update can at worst
//! lose an entry — it can never leave the cache in a logically corrupt
//! state, because entries are inserted whole after being computed.
//!
//! [`NoPoisonMutex`] keeps std's mutex underneath but recovers the guard
//! from a [`PoisonError`] instead of propagating it, making the lock
//! safe to share across a panic that was caught (see the fallback
//! ladder's per-rung `catch_unwind`).

use std::sync::{Mutex, MutexGuard, PoisonError};

/// A [`Mutex`] whose lock never observes poisoning.
///
/// Poisoning exists to warn that a critical section was interrupted
/// mid-update. Every critical section guarded by this type performs a
/// single atomic-at-the-Rust-level operation (a `HashMap` insert/lookup
/// of a fully built value, an `Option` replacement), so the warning
/// carries no information here and recovery is always sound.
#[derive(Debug, Default)]
pub struct NoPoisonMutex<T>(Mutex<T>);

impl<T> NoPoisonMutex<T> {
    /// Wraps `value` in a new unlocked mutex.
    pub fn new(value: T) -> Self {
        NoPoisonMutex(Mutex::new(value))
    }

    /// Acquires the lock, recovering from poisoning if a previous holder
    /// panicked.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consumes the mutex and returns the inner value, ignoring poison.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn lock_survives_a_panicking_holder() {
        let m = NoPoisonMutex::new(vec![1u32]);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut g = m.lock();
            g.push(2);
            panic!("worker died holding the lock");
        }));
        assert!(result.is_err());
        // A std Mutex would now be poisoned and `lock().unwrap()` would
        // abort; the wrapper recovers and the completed insert is intact.
        let g = m.lock();
        assert_eq!(*g, vec![1, 2]);
    }

    #[test]
    fn into_inner_ignores_poison() {
        let m = NoPoisonMutex::new(7u32);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _g = m.lock();
            panic!("poison");
        }));
        assert_eq!(m.into_inner(), 7);
    }
}
