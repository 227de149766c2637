//! The baton-passing executor: one vCPU runs at a time, every access is a
//! scheduling point.
//!
//! Each kernel thread of a run executes on its own OS thread — vCPU 0 on
//! the caller's thread, vCPUs 1.. on scoped threads — but *logically*
//! exactly one runs at a time: the one holding the baton. The machine state
//! (guest memory, lock table, RCU and wait-queue state, the trace) sits
//! behind one mutex shared by the run's vCPUs, and the running vCPU
//! performs each [`Ctx`] operation inline: the access itself, step and
//! livelock accounting, spin detection, and the [`Scheduler`]'s
//! `after_access` / `pick`. A vCPU parks only when the scheduler passes the
//! baton to another thread or when it blocks (contended lock, sleep, RCU
//! grace period), so OS-level handoffs happen at real switches rather than
//! at every access. This is the fine-grained control §4.4 requires ("only
//! executes one vCPU at a time, enforcing the desired interleaving
//! schedule").
//!
//! Liveness handling mirrors SKI's `is_live` heuristics (§4.4.1): threads
//! that keep fetching the same memory area are forcibly preempted, and
//! executions that exceed an instruction budget end as livelocks.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::access::{Access, AccessKind, LockSet};
use crate::ctx::{Ctx, Fault, KResult};
use crate::mem::GuestMem;
use crate::sched::Scheduler;
use crate::site::Site;
use crate::sync::{SyncEvent, SyncKind};

/// A kernel thread body: the closure one simulated vCPU executes.
pub type Job = Box<dyn FnOnce(&Ctx) -> KResult<()> + Send + 'static>;

/// Execution resource limits (the `is_live` thresholds of §4.4.1).
#[derive(Copy, Clone, Debug)]
pub struct ExecLimits {
    /// Maximum total executor steps before the run is declared a livelock.
    pub max_steps: u64,
    /// Maximum steps any single thread may execute.
    pub max_thread_steps: u64,
    /// Consecutive accesses to the same address before a forced preemption
    /// ("constantly fetching the same memory area").
    pub spin_limit: u32,
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits {
            max_steps: 400_000,
            max_thread_steps: 200_000,
            spin_limit: 64,
        }
    }
}

/// A typed failure of the execution machinery itself — as opposed to an
/// [`Outcome`], which describes what the *simulated kernel* did. Campaign
/// drivers route these into retry / quarantine decisions instead of dying.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// More jobs were submitted than the executor has vCPUs (or zero jobs).
    BadJobCount {
        /// Number of jobs submitted.
        jobs: usize,
        /// Number of vCPUs.
        vcpus: usize,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::BadJobCount { jobs, vcpus } => {
                write!(f, "bad job count: {jobs} jobs for {vcpus} vCPUs")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Terminal state of one execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// All threads ran to completion.
    Completed,
    /// The kernel panicked (oops, null dereference, page fault).
    Panic {
        /// The console line describing the panic.
        msg: String,
    },
    /// Every live thread was blocked on a lock or RCU grace period.
    Deadlock,
    /// The execution exceeded its instruction budget.
    Livelock,
}

impl Outcome {
    /// True if the execution finished without a machine-level failure.
    pub fn is_completed(&self) -> bool {
        matches!(self, Outcome::Completed)
    }

    /// True if the kernel panicked.
    pub fn is_panic(&self) -> bool {
        matches!(self, Outcome::Panic { .. })
    }
}

/// Everything observed during one execution.
#[derive(Clone, Debug)]
pub struct ExecReport {
    /// Terminal state.
    pub outcome: Outcome,
    /// Kernel console lines, in order.
    pub console: Vec<String>,
    /// Every memory access, in global order.
    pub trace: Vec<Access>,
    /// Every synchronization event (locks, sleeps, wakeups, atomic
    /// context), in global order.
    pub sync_events: Vec<SyncEvent>,
    /// Total executor steps (one per [`Ctx`] operation and thread exit).
    pub steps: u64,
    /// Thread preemptions (scheduler-requested plus forced).
    pub switches: u64,
    /// Terminal fault of each thread, if any.
    pub thread_faults: Vec<Option<Fault>>,
}

impl ExecReport {
    /// True if any console line contains `needle`.
    pub fn console_contains(&self, needle: &str) -> bool {
        self.console.iter().any(|l| l.contains(needle))
    }
}

/// Result of [`Executor::run`]: the report plus the final guest memory
/// (useful for snapshotting after boot).
pub struct RunResult {
    /// The observation record.
    pub report: ExecReport,
    /// Guest memory at the end of the run.
    pub mem: GuestMem,
}

/// A reusable simulated machine with a fixed number of vCPUs.
///
/// An `Executor` keeps no threads between runs. Each [`Executor::run`]
/// executes vCPU 0 on the caller's thread and vCPUs 1.. on scoped threads,
/// so single-job runs (boot, fuzzing, profiling) never leave the caller.
pub struct Executor {
    vcpus: usize,
    limits: ExecLimits,
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum TStat {
    Ready,
    Blocked,
    Done,
}

/// The machine state of one run, owned by whichever vCPU holds the baton.
pub(crate) struct RunState<'s> {
    mem: GuestMem,
    sched: &'s mut dyn Scheduler,
    limits: ExecLimits,
    n: usize,
    /// The vCPU holding the baton.
    current: usize,
    status: Vec<TStat>,
    /// The result each thread gets when it next runs: set when its
    /// operation completes or when a blocked thread is released.
    owed: Vec<Option<KResult<u64>>>,
    held: Vec<LockSet>,
    lock_owner: HashMap<u64, usize>,
    lock_waiters: HashMap<u64, VecDeque<(usize, Site)>>,
    rcu_depth: Vec<u8>,
    sync_waiters: Vec<usize>,
    /// Threads registered on each wait queue (`prepare_to_wait`), not yet
    /// committed to sleeping.
    prepared: HashMap<u64, Vec<usize>>,
    /// Wakeups banked per thread while it was prepared: queue ids whose
    /// next commit returns immediately.
    tokens: Vec<Vec<u64>>,
    /// Threads committed to sleeping on each wait queue, with the site that
    /// committed (for timeout attribution).
    wait_sleepers: HashMap<u64, VecDeque<(usize, Site)>>,
    /// Step deadline of each sleeping thread, if any.
    sleep_deadline: Vec<Option<u64>>,
    /// Atomic-context nesting depth per thread.
    atomic_depth: Vec<u8>,
    sync_events: Vec<SyncEvent>,
    trace: Vec<Access>,
    console: Vec<String>,
    steps: u64,
    thread_steps: Vec<u64>,
    switches: u64,
    spin: Vec<(u64, u32)>,
    aborting: bool,
    outcome: Option<Outcome>,
    thread_faults: Vec<Option<Fault>>,
    /// Payload of the first Rust panic on any vCPU; re-raised on the caller.
    panic: Option<Box<dyn Any + Send>>,
}

/// The run a [`Ctx`] drives. A trait object, so `Ctx` does not carry the
/// scheduler borrow's lifetime.
pub(crate) trait Baton {
    /// Performs `op` as vCPU `t`, which holds the baton, then returns its
    /// result once `t` holds the baton again. `op` returns `None` when it
    /// blocked the thread; the result is then owed at release.
    fn step(
        &self,
        t: usize,
        op: &mut dyn FnMut(&mut RunState<'_>, usize) -> Option<KResult<u64>>,
    ) -> KResult<u64>;
}

/// One run's shared state: the machine behind one mutex, and one condvar
/// per vCPU to hand it the baton.
struct Run<'s> {
    state: Mutex<RunState<'s>>,
    turns: Vec<Condvar>,
}

impl Executor {
    /// Creates an executor with `n_workers` vCPUs and default limits.
    pub fn new(n_workers: usize) -> Self {
        Self::with_limits(n_workers, ExecLimits::default())
    }

    /// Creates an executor with explicit [`ExecLimits`].
    pub fn with_limits(n_workers: usize, limits: ExecLimits) -> Self {
        assert!(
            (1..=crate::mem::MAX_THREADS).contains(&n_workers),
            "worker count must be in 1..={}",
            crate::mem::MAX_THREADS
        );
        Executor {
            vcpus: n_workers,
            limits,
        }
    }

    /// Number of vCPUs.
    pub fn vcpus(&self) -> usize {
        self.vcpus
    }

    /// Runs `jobs` (one per vCPU, at most [`Executor::vcpus`]) over `mem`
    /// under `sched`, returning the observation report and final memory.
    ///
    /// # Panics
    ///
    /// Panics on a bad job count (callers that must survive it use
    /// [`Executor::try_run`]) and re-raises any panic of a job or of a
    /// scheduler callback.
    pub fn run(&mut self, mem: GuestMem, jobs: Vec<Job>, sched: &mut dyn Scheduler) -> RunResult {
        self.try_run(mem, jobs, sched).expect("execution machinery failed")
    }

    /// Fallible variant of [`Executor::run`]: a bad job count comes back as
    /// a typed [`ExecError`] instead of a panic, so a campaign worker can
    /// quarantine the job and keep draining the queue.
    ///
    /// A Rust panic in a job or in a scheduler callback aborts the other
    /// vCPUs, joins them, and is re-raised here; the executor stays usable.
    pub fn try_run(
        &mut self,
        mem: GuestMem,
        jobs: Vec<Job>,
        sched: &mut dyn Scheduler,
    ) -> Result<RunResult, ExecError> {
        let n = jobs.len();
        if n < 1 || n > self.vcpus {
            return Err(ExecError::BadJobCount {
                jobs: n,
                vcpus: self.vcpus,
            });
        }
        let run = Run {
            state: Mutex::new(RunState::new(mem, sched, self.limits, n)),
            turns: (0..n).map(|_| Condvar::new()).collect(),
        };
        let mut jobs = jobs.into_iter();
        let first = jobs.next();
        std::thread::scope(|s| {
            for (i, job) in jobs.enumerate() {
                let run = &run;
                let spawned = std::thread::Builder::new()
                    .name(format!("sb-vcpu-{}", i + 1))
                    .spawn_scoped(s, move || run.vcpu(i + 1, job));
                if let Err(e) = spawned {
                    run.poison(Box::new(format!("failed to spawn vCPU thread: {e}")));
                    break;
                }
            }
            if let Some(job) = first {
                run.vcpu(0, job);
            }
        });
        let st = run.state.into_inner().unwrap_or_else(PoisonError::into_inner);
        if let Some(payload) = st.panic {
            resume_unwind(payload);
        }
        Ok(RunResult {
            report: ExecReport {
                outcome: st.outcome.unwrap_or(Outcome::Completed),
                console: st.console,
                trace: st.trace,
                sync_events: st.sync_events,
                steps: st.steps,
                switches: st.switches,
                thread_faults: st.thread_faults,
            },
            mem: st.mem,
        })
    }
}

impl<'s> Run<'s> {
    /// Locks the machine state. A poisoned lock is recovered: the panic that
    /// poisoned it is caught in [`Run::vcpu`], recorded in `panic` and
    /// re-raised on the caller, and the run's state is discarded, so a
    /// half-applied operation is never reported.
    fn lock(&self) -> MutexGuard<'_, RunState<'s>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Body of vCPU `t`'s OS thread: wait for the baton, run the job, exit.
    /// A panic anywhere in it — the job, a scheduler callback — poisons the
    /// run instead of unwinding past the scope.
    fn vcpu(&self, t: usize, job: Job) {
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let started = self.wait_turn(self.lock(), t).panic.is_none();
            if started {
                let result = job(&Ctx::new(t, self));
                self.exit(t, result);
            }
        }));
        if let Err(payload) = ran {
            self.poison(payload);
        }
    }

    /// Records the first panic and wakes every parked vCPU, whose pending
    /// and later operations then fail with [`Fault::Aborted`].
    fn poison(&self, payload: Box<dyn Any + Send>) {
        self.lock().panic.get_or_insert(payload);
        for turn in &self.turns {
            turn.notify_all();
        }
    }

    /// Parks `t` until it holds the baton or the run is poisoned.
    fn wait_turn<'g>(
        &'g self,
        mut st: MutexGuard<'g, RunState<'s>>,
        t: usize,
    ) -> MutexGuard<'g, RunState<'s>> {
        while st.current != t && st.panic.is_none() {
            st = self.turns[t].wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st
    }

    /// Wakes the vCPU the baton went to, if it left `t`.
    fn hand_off(&self, st: &RunState<'_>, t: usize) {
        if st.current != t && st.status[st.current] == TStat::Ready {
            self.turns[st.current].notify_one();
        }
    }

    /// Thread `t`'s job returned: count the step, release what it holds,
    /// and pass the baton on.
    fn exit(&self, t: usize, result: KResult<()>) {
        let mut st = self.lock();
        if st.panic.is_some() {
            return;
        }
        st.count_step(t);
        st.exit(t, result);
        st.schedule();
        self.hand_off(&st, t);
    }
}

impl Baton for Run<'_> {
    fn step(
        &self,
        t: usize,
        op: &mut dyn FnMut(&mut RunState<'_>, usize) -> Option<KResult<u64>>,
    ) -> KResult<u64> {
        let mut st = self.lock();
        if st.panic.is_some() {
            return Err(Fault::Aborted);
        }
        st.count_step(t);
        let reply = if st.aborting {
            Some(Err(Fault::Aborted))
        } else {
            op(&mut st, t)
        };
        if reply.is_some() {
            st.owed[t] = reply;
        }
        st.schedule();
        self.hand_off(&st, t);
        let mut st = self.wait_turn(st, t);
        if st.panic.is_some() {
            return Err(Fault::Aborted);
        }
        st.owed[t].take().expect("a vCPU given the baton has its result owed")
    }
}

impl<'s> RunState<'s> {
    fn new(mem: GuestMem, sched: &'s mut dyn Scheduler, limits: ExecLimits, n: usize) -> Self {
        RunState {
            mem,
            sched,
            limits,
            n,
            current: 0,
            status: vec![TStat::Ready; n],
            owed: vec![None; n],
            held: vec![LockSet::new(); n],
            lock_owner: HashMap::new(),
            lock_waiters: HashMap::new(),
            rcu_depth: vec![0; n],
            sync_waiters: Vec::new(),
            prepared: HashMap::new(),
            tokens: vec![Vec::new(); n],
            wait_sleepers: HashMap::new(),
            sleep_deadline: vec![None; n],
            atomic_depth: vec![0; n],
            sync_events: Vec::new(),
            trace: Vec::with_capacity(1024),
            console: Vec::new(),
            steps: 0,
            thread_steps: vec![0; n],
            switches: 0,
            spin: vec![(u64::MAX, 0); n],
            aborting: false,
            outcome: None,
            thread_faults: vec![None; n],
            panic: None,
        }
    }
}

impl RunState<'_> {
    /// Counts one step of thread `t` against the livelock budgets.
    fn count_step(&mut self, t: usize) {
        self.steps += 1;
        self.thread_steps[t] += 1;
        if !self.aborting
            && (self.steps > self.limits.max_steps
                || self.thread_steps[t] > self.limits.max_thread_steps)
        {
            self.abort(Outcome::Livelock);
        }
    }

    /// Chooses who holds the baton next: releases expired sleepers,
    /// fast-forwards the clock or declares a deadlock when every live thread
    /// is blocked, and asks the scheduler to pick when the current thread
    /// can no longer run. Returns with nothing to do once every thread is
    /// done.
    fn schedule(&mut self) {
        loop {
            if self.status.iter().all(|s| *s == TStat::Done) {
                return;
            }
            self.expire_sleepers();
            if self.status[self.current] == TStat::Ready {
                return;
            }
            let ready: Vec<usize> = (0..self.n)
                .filter(|t| self.status[*t] == TStat::Ready)
                .collect();
            if ready.is_empty() {
                // Every live thread is blocked. If some of them are timed
                // sleeps, fast-forward the step clock to the earliest
                // deadline — simulated time passes while everyone waits —
                // and release the expired sleepers. Only a block with no
                // pending timeout is a true deadlock.
                if let Some(deadline) = self.earliest_sleep_deadline() {
                    self.steps = self.steps.max(deadline);
                    continue;
                }
                // Release the blocked threads with abort faults so they can
                // unwind and exit.
                self.abort(Outcome::Deadlock);
                continue;
            }
            self.current = if self.aborting {
                ready[0]
            } else {
                self.switches += 1;
                self.sched.pick(self.current, &ready)
            };
            return;
        }
    }

    /// Thread `t` finished with `result`.
    fn exit(&mut self, t: usize, result: KResult<()>) {
        self.thread_faults[t] = result.err();
        self.status[t] = TStat::Done;
        // Auto-release anything the thread still holds so a buggy simulated
        // handler cannot wedge the other thread forever.
        let held = std::mem::take(&mut self.held[t]);
        for &addr in held.iter() {
            self.console
                .push(format!("WARNING: thread {t} exited holding lock {addr:#x}"));
            self.sync_event(t, Site::intern("thread_exit"), SyncKind::LockRelease, addr, 0);
            self.release_lock(addr);
        }
        if self.rcu_depth[t] > 0 {
            self.rcu_depth[t] = 0;
            self.wake_rcu_waiters_if_quiescent();
        }
        if self.atomic_depth[t] > 0 {
            self.console
                .push(format!("WARNING: thread {t} exited in atomic context"));
            self.atomic_depth[t] = 0;
        }
        for prep in self.prepared.values_mut() {
            prep.retain(|u| *u != t);
        }
        self.tokens[t].clear();
    }

    /// Performs a memory access for `t`, records it, and lets the scheduler
    /// (or the spin heuristic) preempt `t` after it. Reads return the value,
    /// writes 0.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn access(
        &mut self,
        t: usize,
        site: Site,
        kind: AccessKind,
        addr: u64,
        len: u8,
        value: u64,
        atomic: bool,
    ) -> KResult<u64> {
        let res = match kind {
            AccessKind::Read => self.mem.read(addr, len),
            AccessKind::Write => self.mem.write(addr, len, value).map(|()| value),
        };
        let v = match res {
            Ok(v) => v,
            Err(f) => {
                let msg = match f {
                    Fault::NullDeref { addr } => format!(
                        "BUG: kernel NULL pointer dereference, address: {addr:#x} at {site}"
                    ),
                    Fault::PageFault { addr } => format!(
                        "BUG: unable to handle page fault for address: {addr:#x} at {site}"
                    ),
                    _ => return Err(f),
                };
                self.console.push(msg.clone());
                self.abort(Outcome::Panic { msg });
                return Err(f);
            }
        };
        let access = Access {
            seq: self.trace.len() as u64,
            thread: t,
            site,
            kind,
            addr,
            len,
            value: v,
            atomic,
            locks: self.held[t].clone(),
            rcu_depth: self.rcu_depth[t],
        };
        let mut switch = self.sched.after_access(t, &access);
        self.trace.push(access);
        // Spin detection: repeated traffic on one address.
        let (last, count) = &mut self.spin[t];
        if *last == addr {
            *count += 1;
            if *count >= self.limits.spin_limit {
                *count = 0;
                self.sched.on_forced_switch(t);
                switch = true;
            }
        } else {
            *last = addr;
            *count = 0;
        }
        if switch {
            let others: Vec<usize> = (0..self.n)
                .filter(|u| *u != t && self.status[*u] == TStat::Ready)
                .collect();
            if !others.is_empty() {
                self.switches += 1;
                self.current = self.sched.pick(t, &others);
            }
        }
        Ok(match kind {
            AccessKind::Read => v,
            AccessKind::Write => 0,
        })
    }

    /// Acquires the lock at `addr` for `t`, blocking while another thread
    /// owns it. The acquire event of a blocked thread is recorded at grant
    /// time, in [`RunState::release_lock`].
    pub(crate) fn lock(&mut self, t: usize, site: Site, addr: u64) -> Option<KResult<u64>> {
        match self.lock_owner.get(&addr) {
            None => {
                self.lock_owner.insert(addr, t);
                self.held[t].push(addr);
                self.sync_event(t, site, SyncKind::LockAcquire, addr, 0);
                Some(Ok(0))
            }
            Some(owner) if *owner == t => Some(Err(Fault::LockError { addr })),
            Some(_) => {
                self.lock_waiters.entry(addr).or_default().push_back((t, site));
                self.status[t] = TStat::Blocked;
                None
            }
        }
    }

    pub(crate) fn unlock(&mut self, t: usize, site: Site, addr: u64) -> KResult<u64> {
        if self.lock_owner.get(&addr) != Some(&t) {
            return Err(Fault::LockError { addr });
        }
        self.held[t].retain(|a| *a != addr);
        self.sync_event(t, site, SyncKind::LockRelease, addr, 0);
        self.release_lock(addr);
        Ok(0)
    }

    pub(crate) fn rcu_lock(&mut self, t: usize) -> KResult<u64> {
        self.rcu_depth[t] = self.rcu_depth[t].saturating_add(1);
        self.sync_event(t, Site::intern("rcu_read_lock"), SyncKind::RcuEnter, 0, 0);
        Ok(0)
    }

    pub(crate) fn rcu_unlock(&mut self, t: usize) -> KResult<u64> {
        if self.rcu_depth[t] == 0 {
            return Err(Fault::LockError { addr: 0 });
        }
        self.rcu_depth[t] -= 1;
        self.sync_event(t, Site::intern("rcu_read_unlock"), SyncKind::RcuExit, 0, 0);
        self.wake_rcu_waiters_if_quiescent();
        Ok(0)
    }

    /// Blocks `t` until no other thread is inside an RCU read-side section.
    pub(crate) fn sync_rcu(&mut self, t: usize) -> Option<KResult<u64>> {
        let readers: u32 = self
            .rcu_depth
            .iter()
            .enumerate()
            .filter(|(u, _)| *u != t)
            .map(|(_, d)| u32::from(*d))
            .sum();
        if readers == 0 {
            return Some(Ok(0));
        }
        self.sync_waiters.push(t);
        self.status[t] = TStat::Blocked;
        None
    }

    pub(crate) fn wait_prepare(&mut self, t: usize, site: Site, queue: u64) -> KResult<u64> {
        let prep = self.prepared.entry(queue).or_default();
        if !prep.contains(&t) {
            prep.push(t);
        }
        self.sync_event(t, site, SyncKind::SleepPrepare, queue, 0);
        Ok(0)
    }

    /// Puts `t` to sleep on `queue` for at most `timeout` steps, unless a
    /// wakeup was banked while it was prepared. Yields 1 when woken, 0 on
    /// timeout.
    pub(crate) fn wait_commit(
        &mut self,
        t: usize,
        site: Site,
        queue: u64,
        timeout: u64,
    ) -> Option<KResult<u64>> {
        if let Some(prep) = self.prepared.get_mut(&queue) {
            prep.retain(|u| *u != t);
        }
        if let Some(i) = self.tokens[t].iter().position(|q| *q == queue) {
            // A wakeup was banked while we were prepared: consume it and
            // return without ever sleeping.
            self.tokens[t].remove(i);
            self.sync_event(t, site, SyncKind::SleepCancel, queue, 0);
            return Some(Ok(1));
        }
        let deadline = self.steps.saturating_add(timeout.max(1));
        self.wait_sleepers.entry(queue).or_default().push_back((t, site));
        self.sleep_deadline[t] = Some(deadline);
        self.status[t] = TStat::Blocked;
        self.sync_event(t, site, SyncKind::SleepCommit, queue, timeout);
        None
    }

    pub(crate) fn wait_cancel(&mut self, t: usize, site: Site, queue: u64) -> KResult<u64> {
        if let Some(prep) = self.prepared.get_mut(&queue) {
            prep.retain(|u| *u != t);
        }
        self.tokens[t].retain(|q| *q != queue);
        self.sync_event(t, site, SyncKind::SleepCancel, queue, 0);
        Ok(0)
    }

    /// Wakes one or all sleepers on `queue`, banking the signal on prepared
    /// threads when no sleeper took it (or for `all`). Yields the delivery
    /// count.
    pub(crate) fn wake(&mut self, t: usize, site: Site, queue: u64, all: bool) -> KResult<u64> {
        let mut delivered = 0u64;
        while let Some((w, _)) = self.wait_sleepers.get_mut(&queue).and_then(|s| s.pop_front()) {
            self.status[w] = TStat::Ready;
            self.owed[w] = Some(Ok(1));
            self.sleep_deadline[w] = None;
            delivered += 1;
            if !all {
                break;
            }
        }
        if all || delivered == 0 {
            // Bank the signal on threads that have prepared but not yet
            // committed: their commit will return immediately.
            let prep = self.prepared.get(&queue).cloned().unwrap_or_default();
            for u in prep {
                if !self.tokens[u].contains(&queue) {
                    self.tokens[u].push(queue);
                    delivered += 1;
                }
                if !all && delivered > 0 {
                    break;
                }
            }
        }
        self.sync_event(t, site, SyncKind::Wake, queue, delivered);
        Ok(delivered)
    }

    pub(crate) fn atomic_enter(&mut self, t: usize, site: Site) -> KResult<u64> {
        self.atomic_depth[t] = self.atomic_depth[t].saturating_add(1);
        self.sync_event(t, site, SyncKind::AtomicEnter, 0, 0);
        Ok(0)
    }

    pub(crate) fn atomic_exit(&mut self, t: usize, site: Site) -> KResult<u64> {
        if self.atomic_depth[t] == 0 {
            return Err(Fault::LockError { addr: 0 });
        }
        self.atomic_depth[t] -= 1;
        self.sync_event(t, site, SyncKind::AtomicExit, 0, 0);
        Ok(0)
    }

    pub(crate) fn kmalloc(&mut self, len: u64) -> KResult<u64> {
        self.mem.kmalloc(len)
    }

    pub(crate) fn kfree(&mut self, addr: u64, len: u64) -> KResult<u64> {
        self.mem.kfree(addr, len).map(|()| 0)
    }

    pub(crate) fn printk(&mut self, msg: String) -> KResult<u64> {
        self.console.push(msg);
        Ok(0)
    }

    /// Kernel panic: logs `msg` and aborts the execution.
    pub(crate) fn oops(&mut self, msg: String) -> KResult<u64> {
        self.console.push(msg.clone());
        self.abort(Outcome::Panic { msg });
        Err(Fault::Oops)
    }

    /// Records one synchronization event at the current step.
    fn sync_event(&mut self, thread: usize, site: Site, kind: SyncKind, obj: u64, arg: u64) {
        self.sync_events.push(SyncEvent {
            seq: self.steps,
            thread,
            site,
            kind,
            obj,
            arg,
        });
    }

    /// Hands the lock at `addr` to its next waiter, or frees it.
    fn release_lock(&mut self, addr: u64) {
        self.lock_owner.remove(&addr);
        let next = self.lock_waiters.get_mut(&addr).and_then(|w| w.pop_front());
        if let Some((w, wsite)) = next {
            self.lock_owner.insert(addr, w);
            self.held[w].push(addr);
            self.status[w] = TStat::Ready;
            self.owed[w] = Some(Ok(0));
            self.sync_event(w, wsite, SyncKind::LockAcquire, addr, 0);
        }
    }

    /// Releases every sleeping thread whose deadline has passed with a
    /// timed-out (0) result, recording a [`SyncKind::SleepTimeout`] event
    /// per release. Queue order is sorted for determinism.
    fn expire_sleepers(&mut self) {
        if self.wait_sleepers.is_empty() {
            return;
        }
        let now = self.steps;
        let mut queues: Vec<u64> = self.wait_sleepers.keys().copied().collect();
        queues.sort_unstable();
        for q in queues {
            let mut sleepers = self.wait_sleepers.remove(&q).unwrap_or_default();
            let mut rest = VecDeque::new();
            while let Some((w, wsite)) = sleepers.pop_front() {
                match self.sleep_deadline[w] {
                    Some(d) if d <= now => {
                        self.status[w] = TStat::Ready;
                        self.owed[w] = Some(Ok(0));
                        self.sleep_deadline[w] = None;
                        self.sync_event(w, wsite, SyncKind::SleepTimeout, q, 0);
                    }
                    _ => rest.push_back((w, wsite)),
                }
            }
            if !rest.is_empty() {
                self.wait_sleepers.insert(q, rest);
            }
        }
    }

    /// The earliest pending sleep deadline, if any thread is in a timed
    /// sleep.
    fn earliest_sleep_deadline(&self) -> Option<u64> {
        self.sleep_deadline.iter().flatten().copied().min()
    }

    fn wake_rcu_waiters_if_quiescent(&mut self) {
        let total: u32 = self.rcu_depth.iter().map(|d| u32::from(*d)).sum();
        if total == 0 {
            for w in std::mem::take(&mut self.sync_waiters) {
                self.status[w] = TStat::Ready;
                self.owed[w] = Some(Ok(0));
            }
        }
    }

    /// Moves the run into teardown: records the outcome (first one wins) and
    /// releases every blocked thread with an abort fault so it can unwind.
    fn abort(&mut self, reason: Outcome) {
        if self.outcome.is_none() {
            self.outcome = Some(reason);
        }
        self.aborting = true;
        for t in 0..self.n {
            if self.status[t] == TStat::Blocked {
                self.status[t] = TStat::Ready;
                self.owed[t] = Some(Err(Fault::Aborted));
            }
        }
        self.lock_waiters.clear();
        self.sync_waiters.clear();
        self.wait_sleepers.clear();
        self.prepared.clear();
        for d in &mut self.sleep_deadline {
            *d = None;
        }
    }
}
