//! The handle simulated kernel code uses to interact with the machine.
//!
//! Kernel subsystems are written as ordinary Rust against [`Ctx`]: every
//! memory access, lock operation, RCU primitive, allocation, and console
//! write is a method call that the calling vCPU performs itself, inline, on
//! the run's machine state while it holds the baton (see [`crate::exec`]).
//! After the operation the active scheduler decides which thread runs
//! next; the call returns when this thread holds the baton again. The
//! machine state sits behind one mutex, so the whole engine is safe Rust.

use crate::exec::{Baton, RunState};
use crate::mem::stack_base;
use crate::site::Site;
use crate::AccessKind;

/// A simulated machine fault or execution-control signal.
///
/// Kernel code propagates faults with `?`; the program runner at the base of
/// each thread decides whether a fault ends one syscall or the whole test.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Fault {
    /// Dereference inside the null page (`addr < 0x1000`).
    NullDeref {
        /// Faulting address.
        addr: u64,
    },
    /// Access to an unmapped address (low guard beyond the null page, or out
    /// of bounds).
    PageFault {
        /// Faulting address.
        addr: u64,
    },
    /// Malformed access (zero or over-wide length).
    BadAccess {
        /// Requested address.
        addr: u64,
        /// Requested length.
        len: u8,
    },
    /// Allocation failure.
    Oom,
    /// The kernel invoked [`Ctx::oops`] (explicit `BUG()`/panic).
    Oops,
    /// The execution is being torn down (kernel panic elsewhere, deadlock,
    /// livelock, or a Rust panic on another vCPU); unwind immediately.
    Aborted,
    /// Lock protocol violation (e.g. unlocking a lock the thread holds not).
    LockError {
        /// Lock address involved.
        addr: u64,
    },
}

impl Fault {
    /// True for faults that terminate the entire execution (machine-level
    /// failures), as opposed to per-operation errors a syscall may handle.
    pub fn is_fatal(self) -> bool {
        matches!(
            self,
            Fault::NullDeref { .. }
                | Fault::PageFault { .. }
                | Fault::Oops
                | Fault::Aborted
                | Fault::LockError { .. }
        )
    }
}

/// Result type used throughout the simulated kernel.
pub type KResult<T> = Result<T, Fault>;

/// Per-thread handle to the machine; the "CPU" kernel code runs on.
pub struct Ctx<'r> {
    tid: usize,
    run: &'r dyn Baton,
}

impl<'r> Ctx<'r> {
    pub(crate) fn new(tid: usize, run: &'r dyn Baton) -> Self {
        Ctx { tid, run }
    }

    /// The simulated vCPU / kernel-thread index this context runs on.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Address of 8-byte scratch slot `slot` in this thread's kernel stack.
    ///
    /// Accesses to these addresses are real, traced accesses — the profiler
    /// later prunes them with the paper's ESP-mask formula (§4.1.1).
    pub fn stack_slot(&self, slot: u64) -> u64 {
        stack_base(self.tid) + 16 + slot * 8
    }

    /// Performs one operation that may block this thread (`None`).
    fn step(
        &self,
        mut op: impl FnMut(&mut RunState<'_>, usize) -> Option<KResult<u64>>,
    ) -> KResult<u64> {
        self.run.step(self.tid, &mut op)
    }

    /// Performs one operation that never blocks.
    fn op(&self, mut op: impl FnMut(&mut RunState<'_>, usize) -> KResult<u64>) -> KResult<u64> {
        self.step(|st, t| Some(op(st, t)))
    }

    fn access(
        &self,
        site: Site,
        kind: AccessKind,
        addr: u64,
        len: u8,
        value: u64,
        atomic: bool,
    ) -> KResult<u64> {
        self.op(|st, t| st.access(t, site, kind, addr, len, value, atomic))
    }

    /// Reads `len` bytes (1..=8) at `addr`, little-endian.
    pub fn read(&self, site: Site, addr: u64, len: u8) -> KResult<u64> {
        self.access(site, AccessKind::Read, addr, len, 0, false)
    }

    /// Writes the low `len` bytes of `value` at `addr`, little-endian.
    pub fn write(&self, site: Site, addr: u64, len: u8, value: u64) -> KResult<()> {
        self.access(site, AccessKind::Write, addr, len, value, false)
            .map(drop)
    }

    /// Marked load (`READ_ONCE`); exempt from data-race reports when paired
    /// with another marked access.
    pub fn read_atomic(&self, site: Site, addr: u64, len: u8) -> KResult<u64> {
        self.access(site, AccessKind::Read, addr, len, 0, true)
    }

    /// Marked store (`WRITE_ONCE`).
    pub fn write_atomic(&self, site: Site, addr: u64, len: u8, value: u64) -> KResult<()> {
        self.access(site, AccessKind::Write, addr, len, value, true)
            .map(drop)
    }

    /// Reads a u8 at `addr`.
    pub fn read_u8(&self, site: Site, addr: u64) -> KResult<u64> {
        self.read(site, addr, 1)
    }

    /// Reads a u32 at `addr`.
    pub fn read_u32(&self, site: Site, addr: u64) -> KResult<u64> {
        self.read(site, addr, 4)
    }

    /// Reads a u64 at `addr`.
    pub fn read_u64(&self, site: Site, addr: u64) -> KResult<u64> {
        self.read(site, addr, 8)
    }

    /// Writes a u8 at `addr`.
    pub fn write_u8(&self, site: Site, addr: u64, value: u64) -> KResult<()> {
        self.write(site, addr, 1, value)
    }

    /// Writes a u32 at `addr`.
    pub fn write_u32(&self, site: Site, addr: u64, value: u64) -> KResult<()> {
        self.write(site, addr, 4, value)
    }

    /// Writes a u64 at `addr`.
    pub fn write_u64(&self, site: Site, addr: u64, value: u64) -> KResult<()> {
        self.write(site, addr, 8, value)
    }

    /// Copies `len` bytes from `src` to `dst` one byte at a time, like the
    /// kernel's `memcpy` compiled to byte moves — every byte is a separate
    /// schedulable access, so a concurrent reader can observe a torn copy
    /// (the structure of paper bug #9).
    pub fn memcpy(&self, site: Site, dst: u64, src: u64, len: u64) -> KResult<()> {
        for i in 0..len {
            let b = self.read(site, src + i, 1)?;
            self.write(site, dst + i, 1, b)?;
        }
        Ok(())
    }

    /// Acquires the spinlock/mutex cell at `addr`, blocking until available.
    pub fn lock(&self, addr: u64) -> KResult<()> {
        self.lock_at(Site::intern("lock"), addr)
    }

    /// Releases the lock cell at `addr`.
    pub fn unlock(&self, addr: u64) -> KResult<()> {
        self.unlock_at(Site::intern("unlock"), addr)
    }

    /// [`Ctx::lock`] with a named acquiring site for the sync-event stream.
    pub fn lock_at(&self, site: Site, addr: u64) -> KResult<()> {
        self.step(|st, t| st.lock(t, site, addr)).map(drop)
    }

    /// [`Ctx::unlock`] with a named releasing site.
    pub fn unlock_at(&self, site: Site, addr: u64) -> KResult<()> {
        self.op(|st, t| st.unlock(t, site, addr)).map(drop)
    }

    /// Runs `f` with the lock at `addr` held, releasing it afterwards even if
    /// `f` fails with a non-fatal fault.
    pub fn with_lock<T>(&self, addr: u64, f: impl FnOnce() -> KResult<T>) -> KResult<T> {
        self.with_lock_at(Site::intern("lock"), addr, f)
    }

    /// [`Ctx::with_lock`] with a named acquiring site: lock identity in the
    /// sync-event stream resolves to `site` instead of the generic "lock".
    pub fn with_lock_at<T>(
        &self,
        site: Site,
        addr: u64,
        f: impl FnOnce() -> KResult<T>,
    ) -> KResult<T> {
        self.lock_at(site, addr)?;
        let out = f();
        match &out {
            // After a fatal fault the machine is going down; skip unlocking.
            Err(e) if e.is_fatal() => out,
            _ => {
                self.unlock_at(site, addr)?;
                out
            }
        }
    }

    /// Registers this thread on wait queue `queue` (`prepare_to_wait`): a
    /// wakeup arriving between now and [`Ctx::wait_commit`] is banked and
    /// satisfies the commit immediately — the correct check-then-sleep
    /// protocol.
    pub fn wait_prepare(&self, site: Site, queue: u64) -> KResult<()> {
        self.op(|st, t| st.wait_prepare(t, site, queue)).map(drop)
    }

    /// Commits to sleeping on `queue` for at most `timeout` executor
    /// steps. Returns `true` when woken by a signal (banked or live),
    /// `false` when the timeout expired first.
    pub fn wait_commit(&self, site: Site, queue: u64, timeout: u64) -> KResult<bool> {
        self.step(|st, t| st.wait_commit(t, site, queue, timeout))
            .map(|v| v != 0)
    }

    /// Deregisters from `queue` without sleeping (`finish_wait`), dropping
    /// any banked wakeup.
    pub fn wait_cancel(&self, site: Site, queue: u64) -> KResult<()> {
        self.op(|st, t| st.wait_cancel(t, site, queue)).map(drop)
    }

    /// Sleeps on `queue` *without* registering first — the racy
    /// check-then-sleep primitive: a wakeup delivered between the caller's
    /// condition check and this call is lost. Returns `true` when woken,
    /// `false` on timeout.
    pub fn sleep_on(&self, site: Site, queue: u64, timeout: u64) -> KResult<bool> {
        self.wait_commit(site, queue, timeout)
    }

    /// Wakes at most one thread sleeping on (or prepared for) `queue`.
    /// Returns how many threads the signal reached; zero means it was lost.
    pub fn wake_one(&self, site: Site, queue: u64) -> KResult<u64> {
        self.op(|st, t| st.wake(t, site, queue, false))
    }

    /// Wakes every thread sleeping on (or prepared for) `queue`, returning
    /// the delivery count.
    pub fn wake_all(&self, site: Site, queue: u64) -> KResult<u64> {
        self.op(|st, t| st.wake(t, site, queue, true))
    }

    /// Enters atomic (non-sleepable) context — the simulated equivalent of
    /// holding a spinlock with preemption disabled. Nests.
    pub fn atomic_enter(&self, site: Site) -> KResult<()> {
        self.op(|st, t| st.atomic_enter(t, site)).map(drop)
    }

    /// Leaves atomic context. Faults with a lock error when the thread is
    /// not in atomic context.
    pub fn atomic_exit(&self, site: Site) -> KResult<()> {
        self.op(|st, t| st.atomic_exit(t, site)).map(drop)
    }

    /// Enters an RCU read-side critical section.
    pub fn rcu_read_lock(&self) -> KResult<()> {
        self.op(|st, t| st.rcu_lock(t)).map(drop)
    }

    /// Leaves an RCU read-side critical section.
    pub fn rcu_read_unlock(&self) -> KResult<()> {
        self.op(|st, t| st.rcu_unlock(t)).map(drop)
    }

    /// Waits for an RCU grace period: blocks until no other thread is inside
    /// an RCU read-side critical section.
    pub fn synchronize_rcu(&self) -> KResult<()> {
        self.step(|st, t| st.sync_rcu(t)).map(drop)
    }

    /// Allocates `len` bytes of zeroed guest heap (kzalloc semantics).
    pub fn kmalloc(&self, len: u64) -> KResult<u64> {
        self.op(|st, _| st.kmalloc(len))
    }

    /// Frees an allocation of `len` bytes at `addr`.
    pub fn kfree(&self, addr: u64, len: u64) -> KResult<()> {
        self.op(|st, _| st.kfree(addr, len)).map(drop)
    }

    /// Appends a line to the kernel console (printk).
    pub fn printk(&self, msg: impl Into<String>) -> KResult<()> {
        let mut msg = msg.into();
        self.op(|st, _| st.printk(std::mem::take(&mut msg))).map(drop)
    }

    /// Kernel panic: records `msg` on the console, marks the execution as
    /// panicked, and returns the fault the caller should propagate.
    pub fn oops(&self, msg: impl Into<String>) -> Fault {
        let mut msg = msg.into();
        match self.op(|st, _| st.oops(std::mem::take(&mut msg))) {
            Err(f) => f,
            // An oops always faults; treat an unexpected success as an
            // abort to keep unwinding.
            Ok(_) => Fault::Aborted,
        }
    }
}
