//! First-class synchronization events.
//!
//! Alongside the [`Access`](crate::access::Access) stream the executor
//! records a second, much sparser stream of *synchronization events*: lock
//! acquire/release with lock identity, RCU enter/exit, wait-queue
//! prepare/commit/cancel/timeout, wakeups (with delivery counts), and
//! atomic-context enter/exit. Detection oracles that reason about locking
//! discipline (LockDoc-style rule mining), lost wakeups, and
//! sleeping-in-atomic consume this stream; the stock data-race detector
//! keeps consuming the access stream and is unaffected.

use crate::site::Site;

/// The kind of one synchronization event.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum SyncKind {
    /// A lock was granted to the thread (immediately or by handoff).
    LockAcquire,
    /// A lock was released by its owner.
    LockRelease,
    /// The thread entered an RCU read-side critical section.
    RcuEnter,
    /// The thread left an RCU read-side critical section.
    RcuExit,
    /// The thread registered on a wait queue (`prepare_to_wait`): wakeups
    /// from now on are banked even if the thread is not yet asleep.
    SleepPrepare,
    /// The thread committed to sleeping on a wait queue; `arg` holds the
    /// step timeout it armed.
    SleepCommit,
    /// The thread left the wait queue without blocking — either an explicit
    /// cancel (`finish_wait`) or a commit satisfied by a banked wakeup.
    SleepCancel,
    /// The thread's sleep expired without a wakeup; it was released with a
    /// timed-out result. The smoking gun of a missed wakeup.
    SleepTimeout,
    /// A wakeup was issued on a wait queue; `arg` holds how many threads it
    /// reached (sleepers released plus prepared threads banked). Zero means
    /// the signal found nobody — delivered into the void.
    Wake,
    /// The thread entered atomic (non-sleepable) context.
    AtomicEnter,
    /// The thread left atomic context.
    AtomicExit,
}

/// One synchronization event, recorded by the executor in
/// global order alongside the access trace.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SyncEvent {
    /// Executor step counter at record time: orders sync events against
    /// each other and (approximately) against the access stream.
    pub seq: u64,
    /// The thread the event belongs to.
    pub thread: usize,
    /// The static program point that issued the operation.
    pub site: Site,
    /// Event kind.
    pub kind: SyncKind,
    /// The object involved: lock cell address for lock events, wait-queue
    /// identity for sleep/wake events, zero for RCU and atomic context.
    pub obj: u64,
    /// Kind-specific argument: armed timeout for [`SyncKind::SleepCommit`],
    /// delivery count for [`SyncKind::Wake`], zero otherwise.
    pub arg: u64,
}

impl SyncEvent {
    /// True for events that begin a sleep (commit), used by detectors
    /// scanning for sleep/wake pairings.
    pub fn is_sleep_commit(&self) -> bool {
        self.kind == SyncKind::SleepCommit
    }

    /// True for wakeups that reached nobody.
    pub fn is_lost_wake(&self) -> bool {
        self.kind == SyncKind::Wake && self.arg == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site;

    #[test]
    fn lost_wake_predicate() {
        let mk = |kind, arg| SyncEvent {
            seq: 0,
            thread: 0,
            site: site!("sync:test"),
            kind,
            obj: 1,
            arg,
        };
        assert!(mk(SyncKind::Wake, 0).is_lost_wake());
        assert!(!mk(SyncKind::Wake, 1).is_lost_wake());
        assert!(!mk(SyncKind::SleepCommit, 0).is_lost_wake());
        assert!(mk(SyncKind::SleepCommit, 0).is_sleep_commit());
    }
}
