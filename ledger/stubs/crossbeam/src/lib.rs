//! Offline stand-in for `crossbeam`: `scope` on top of `std::thread::scope`.
//! A panic in the closure or in an unjoined worker comes back as `Err`, as
//! with the real crate.

#![forbid(unsafe_code)]

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Scope handle passed to the closure and to every spawned worker.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

/// Join handle of a scoped worker.
pub struct ScopedJoinHandle<'scope, T>(std::thread::ScopedJoinHandle<'scope, T>);

impl<T> ScopedJoinHandle<'_, T> {
    /// Waits for the worker; `Err` carries its panic payload.
    pub fn join(self) -> Result<T, Box<dyn Any + Send + 'static>> {
        self.0.join()
    }
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a worker that may borrow from the enclosing scope.
    pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let inner = self.inner;
        ScopedJoinHandle(inner.spawn(move || f(&Scope { inner })))
    }
}

/// Runs `f` with a scope whose workers are all joined before this returns.
pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    catch_unwind(AssertUnwindSafe(|| std::thread::scope(|s| f(&Scope { inner: s }))))
}
