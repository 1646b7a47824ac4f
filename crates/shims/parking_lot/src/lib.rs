//! Offline stand-in for `parking_lot`.
//!
//! Wraps the std locks and strips poisoning, matching the real crate's
//! `read()`/`write()`/`lock()` signatures that return guards directly.
//! See `crates/shims/README.md` for why external crates are vendored.

#![forbid(unsafe_code)]

use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// A reader–writer lock whose guards ignore poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Acquires a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }
}

/// A mutual-exclusion lock whose guard ignores poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wraps `value`.
    pub fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    /// Acquires the lock.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rwlock_basic() {
        let l = RwLock::<i32>::default();
        assert_eq!(*l.read(), 0);
        *l.write() += 2;
        assert_eq!(*l.read(), 2);
    }

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(5);
        *m.lock() += 2;
        assert_eq!(m.into_inner(), 7);
    }
}
