//! Task bodies: the paper's *functors*.

use crate::status::{Directive, TaskStatus};
use std::sync::Arc;

/// Execution context handed to a task body on every invocation.
///
/// This is the Rust rendering of the paper's `Task::begin` / `Task::end`
/// API (Table 2): a body brackets its CPU-intensive section with
/// [`begin`](TaskCx::begin) and [`end`](TaskCx::end) so the executive can
/// record execution times, and both calls return a [`Directive`] through
/// which the executive conveys its intent to reconfigure.
///
/// The context says nothing about the configuration the body runs in: a
/// task's extent is the executive's to change at any drain, so a body
/// that needs its place learns it once, from the
/// [`WorkerSlot`](crate::WorkerSlot) its factory is handed.
pub trait TaskCx {
    /// Signals that the CPU-intensive part of an invocation begins.
    ///
    /// Starts the per-invocation timer. Returns [`Directive::Suspend`] when
    /// the executive wants the task to steer into a consistent state.
    fn begin(&mut self) -> Directive;

    /// Signals that the CPU-intensive part of an invocation ended.
    ///
    /// Stops the per-invocation timer and folds the sample into the
    /// monitor. Returns the current executive directive.
    fn end(&mut self) -> Directive;

    /// Current executive directive without touching the timers.
    ///
    /// A body that waits for work waits in `AdmissionQueue::take_for`
    /// (or `WorkQueue::dequeue_for`), which reads this before it takes an
    /// item and again, under the queue's lock, before every park.
    fn directive(&self) -> Directive;

    /// Called once by a take on behalf of this context that found its
    /// queue empty, just before it parks on `queue`: the context runs its
    /// idle rule and has a suspend of its path wake `queue`. The default
    /// does neither — a context that never suspends and records nothing.
    fn parking(&mut self, queue: &Arc<dyn ParkedQueue>) {
        let _ = queue;
    }
}

/// A queue a task body parks on, as its context sees it: what a suspend
/// of the body's path must wake (see [`TaskCx::parking`]).
pub trait ParkedQueue: Send + Sync {
    /// Wakes every consumer parked on the queue, after passing through
    /// the queue's lock.
    fn wake_parked(&self);
}

/// A task's functionality: the paper's functor (Figure 4b).
///
/// The executor runs the paper's control-flow abstraction (Figure 4a):
///
/// ```text
/// body.init();
/// loop {
///     match body.invoke(cx) {
///         Executing => continue,
///         Suspended | Finished => break,
///     }
/// }
/// body.fini();
/// ```
///
/// Each worker thread owns its *own* body instance (produced by a
/// [`BodyFactory`](crate::BodyFactory)), so `invoke` takes `&mut self`;
/// state shared between workers travels through the structures the body
/// captures (queues, atomics).
///
/// # Example
///
/// ```
/// use dope_core::{body_fn, TaskBody, TaskStatus};
///
/// let mut remaining = 3;
/// let mut body = body_fn(move |cx| {
///     cx.begin();
///     // ... CPU-intensive work ...
///     cx.end();
///     remaining -= 1;
///     if remaining == 0 {
///         TaskStatus::Finished
///     } else {
///         TaskStatus::Executing
///     }
/// });
/// # let mut cx = dope_core::task::NullCx;
/// # assert_eq!(body.invoke(&mut cx), TaskStatus::Executing);
/// ```
pub trait TaskBody: Send {
    /// Runs one iteration of the task's loop.
    fn invoke(&mut self, cx: &mut dyn TaskCx) -> TaskStatus;

    /// Called once before the task starts executing in an epoch.
    ///
    /// Mirrors the paper's `InitCB`: restore a globally consistent state
    /// before the parallel region is re-entered after reconfiguration.
    fn init(&mut self) {}

    /// Called once after the task stops executing in an epoch (whether it
    /// finished or suspended).
    ///
    /// Mirrors the paper's `FiniCB`: notify downstream tasks (e.g. close or
    /// poison a queue) so the whole nest reaches a consistent state.
    fn fini(&mut self, status: TaskStatus) {
        let _ = status;
    }
}

/// A [`TaskBody`] built from a closure.
///
/// Returned by [`body_fn`]; useful for simple stages and tests.
pub struct FnBody<F> {
    f: F,
}

impl<F> std::fmt::Debug for FnBody<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnBody").finish_non_exhaustive()
    }
}

impl<F> TaskBody for FnBody<F>
where
    F: FnMut(&mut dyn TaskCx) -> TaskStatus + Send,
{
    fn invoke(&mut self, cx: &mut dyn TaskCx) -> TaskStatus {
        (self.f)(cx)
    }
}

/// Wraps a closure as a [`TaskBody`].
///
/// # Example
///
/// ```
/// use dope_core::{body_fn, TaskStatus};
///
/// let _body = body_fn(|cx| {
///     cx.begin();
///     cx.end();
///     TaskStatus::Finished
/// });
/// ```
pub fn body_fn<F>(f: F) -> FnBody<F>
where
    F: FnMut(&mut dyn TaskCx) -> TaskStatus + Send,
{
    FnBody { f }
}

/// A context that never suspends and records nothing.
///
/// Useful for unit-testing bodies in isolation, outside any executive.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullCx;

impl TaskCx for NullCx {
    fn begin(&mut self) -> Directive {
        Directive::Continue
    }

    fn end(&mut self) -> Directive {
        Directive::Continue
    }

    fn directive(&self) -> Directive {
        Directive::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_body_runs_closure() {
        let mut count = 0;
        let mut body = body_fn(move |_cx| {
            count += 1;
            if count < 3 {
                TaskStatus::Executing
            } else {
                TaskStatus::Finished
            }
        });
        let mut cx = NullCx;
        assert_eq!(cx.directive(), Directive::Continue);
        assert_eq!(body.invoke(&mut cx), TaskStatus::Executing);
        assert_eq!(body.invoke(&mut cx), TaskStatus::Executing);
        assert_eq!(body.invoke(&mut cx), TaskStatus::Finished);
    }

    #[test]
    fn default_callbacks_are_noops() {
        struct Plain;
        impl TaskBody for Plain {
            fn invoke(&mut self, _cx: &mut dyn TaskCx) -> TaskStatus {
                TaskStatus::Finished
            }
        }
        let mut p = Plain;
        p.init();
        p.fini(TaskStatus::Finished);
    }
}
