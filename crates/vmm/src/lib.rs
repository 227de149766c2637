//! Deterministic execution engine for the Snowboard reproduction.
//!
//! This crate plays the role that the customized QEMU/SKI hypervisor plays in
//! the paper: it runs "kernel threads" (arbitrary Rust closures written
//! against [`ctx::Ctx`]) one at a time, observes every simulated memory
//! access, and lets a pluggable [`sched::Scheduler`] decide, after each
//! access, whether to preempt the running thread — exactly the
//! instruction-granularity control that Snowboard's Algorithm 2 requires.
//!
//! The pieces:
//!
//! * [`mod@site`] — stable identities for static memory-access instructions
//!   ("instruction addresses" in the paper).
//! * [`mem`] — the guest physical memory: a flat, byte-addressable space with
//!   a deterministic slab allocator, a faulting null-guard page, and
//!   paper-faithful per-thread kernel stack regions.
//! * [`access`] — the memory-access event record that profiling and PMC
//!   identification consume.
//! * [`ctx`] — the handle kernel code uses to touch guest memory, locks, RCU,
//!   and the console.
//! * [`exec`] — the baton-passing executor: exactly one vCPU runs at a
//!   time and performs its own operations inline; it manages the lock table
//!   and RCU grace periods, detects deadlocks and livelocks, and produces an
//!   [`exec::ExecReport`].
//! * [`rng`] — the workspace's seeded pseudo-random generator and mixers.
//! * [`sched`] — schedulers: free-run, random-walk, SKI-style, and the
//!   Snowboard scheduler implementing the paper's Algorithm 2.
//!
//! # Examples
//!
//! ```
//! use sb_vmm::{ctx::KResult, exec::Executor, mem::GuestMem, sched::FreeRun, site};
//!
//! let mut exec = Executor::new(1);
//! let mem = GuestMem::new();
//! let report = exec.run(
//!     mem,
//!     vec![Box::new(|ctx| -> KResult<()> {
//!         let a = ctx.kmalloc(8)?;
//!         ctx.write_u64(site!("demo:init"), a, 42)?;
//!         assert_eq!(ctx.read_u64(site!("demo:check"), a)?, 42);
//!         Ok(())
//!     })],
//!     &mut FreeRun::default(),
//! );
//! assert!(report.report.outcome.is_completed());
//! ```

pub mod access;
pub mod ctx;
pub mod exec;
pub mod mem;
pub mod replay;
pub mod rng;
pub mod sched;
pub mod site;
pub mod sync;

pub use access::{Access, AccessKind, LockSet};
pub use ctx::{Ctx, Fault, KResult};
pub use exec::{ExecError, ExecLimits, ExecReport, Executor, Outcome};
pub use mem::GuestMem;
pub use site::Site;
pub use sync::{SyncEvent, SyncKind};
