//! The engine-wide mutex poison policy: **recover and count**.
//!
//! A poisoned mutex means some thread panicked while holding the lock. For
//! every lock in this workspace the protected data is either (a) a snapshot
//! that is rebuilt from scratch on the next write (stats, caches, channel
//! handles) or (b) state no reader trusts across a panic: a community
//! reasoner grounds every window from scratch, and a partitioned reasoner
//! writes the answers it reuses only after a successful window. Abandoning
//! the lock would turn one worker panic into a wedged engine, which is
//! strictly worse than serving from state that cannot be stale. So every lock site recovers with
//! [`std::sync::PoisonError::into_inner`] — but through these helpers, so
//! recoveries are *counted* and visible in metrics rather than silent.
//!
//! Call sites must not hand-roll `unwrap_or_else(PoisonError::into_inner)`;
//! use [`lock_recover`] / [`wait_recover`] so the policy stays in one place.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Process-wide count of poisoned-lock recoveries.
static RECOVERIES: AtomicU64 = AtomicU64::new(0);

/// Lock `m`, recovering (and counting) if the mutex is poisoned.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            RECOVERIES.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        }
    }
}

/// Wait on `cv`, recovering (and counting) if the mutex was poisoned while
/// the thread slept.
pub fn wait_recover<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(guard) => guard,
        Err(poisoned) => {
            RECOVERIES.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        }
    }
}

/// Total poisoned-lock recoveries since process start. Exported as the
/// `sr_poison_recoveries_total` gauge by the engine's metric registration.
pub fn poison_recoveries() -> u64 {
    RECOVERIES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn poisoned_lock_recovers_and_counts() {
        let m = Arc::new(Mutex::new(7u32));
        let before = poison_recoveries();
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock_recover(&m), 7);
        assert!(poison_recoveries() > before);
    }
}
