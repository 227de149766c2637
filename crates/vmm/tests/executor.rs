//! End-to-end tests of the executor: scheduling, locks, RCU, faults,
//! liveness, determinism, and where (and whether) vCPU threads run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use sb_vmm::ctx::KResult;
use sb_vmm::exec::{ExecLimits, Executor, Outcome};
use sb_vmm::mem::GuestMem;
use sb_vmm::replay::RecordingSched;
use sb_vmm::sched::{FreeRun, RandomSched, Scheduler};
use sb_vmm::{site, AccessKind, Ctx, Fault};

/// A boxed kernel-thread job, as `Executor::run` takes them.
type BoxedJob = Box<dyn FnOnce(&Ctx) -> KResult<()> + Send>;

/// Boots a memory with one 8-byte cell preallocated at a fixed address.
fn mem_with_cell() -> (GuestMem, u64) {
    let mut m = GuestMem::new();
    let a = m.kmalloc(8).unwrap();
    (m, a)
}

#[test]
fn single_thread_runs_to_completion() {
    let (mem, cell) = mem_with_cell();
    let mut exec = Executor::new(1);
    let r = exec.run(
        mem,
        vec![Box::new(move |ctx: &Ctx| -> KResult<()> {
            ctx.write_u64(site!("t:w"), cell, 5)?;
            assert_eq!(ctx.read_u64(site!("t:r"), cell)?, 5);
            Ok(())
        })],
        &mut FreeRun,
    );
    assert_eq!(r.report.outcome, Outcome::Completed);
    assert_eq!(r.report.trace.len(), 2);
    assert_eq!(r.report.thread_faults, vec![None]);
    // Memory survives the run.
    assert_eq!(r.mem.read(cell, 8).unwrap(), 5);
}

#[test]
fn trace_records_access_features() {
    let (mem, cell) = mem_with_cell();
    let mut exec = Executor::new(1);
    let r = exec.run(
        mem,
        vec![Box::new(move |ctx: &Ctx| -> KResult<()> {
            ctx.write(site!("feat:w"), cell, 4, 0xDEAD_BEEF)?;
            ctx.read(site!("feat:r"), cell + 2, 2)?;
            Ok(())
        })],
        &mut FreeRun,
    );
    let w = &r.report.trace[0];
    assert_eq!(w.kind, AccessKind::Write);
    assert_eq!(w.len, 4);
    assert_eq!(w.value, 0xDEAD_BEEF);
    let rd = &r.report.trace[1];
    assert_eq!(rd.kind, AccessKind::Read);
    assert_eq!(rd.addr, cell + 2);
    // Little-endian projection: bytes 2..4 of DEADBEEF are AD DE.
    assert_eq!(rd.value, 0xDEAD);
}

#[test]
fn locks_provide_mutual_exclusion() {
    // Two threads increment a counter 100 times each under a lock; no lost
    // updates even under an aggressive random scheduler.
    let mut m = GuestMem::new();
    let lock = m.kmalloc(8).unwrap();
    let counter = m.kmalloc(8).unwrap();
    let mut exec = Executor::new(2);
    let job = move |name: &'static str| -> BoxedJob {
        Box::new(move |ctx: &Ctx| {
            for _ in 0..100 {
                ctx.lock(lock)?;
                let v = ctx.read_u64(site!(name), counter)?;
                ctx.write_u64(site!(name), counter, v + 1)?;
                ctx.unlock(lock)?;
            }
            Ok(())
        })
    };
    let mut sched = RandomSched::new(42, 0.3);
    let r = exec.run(m, vec![job("lk:a"), job("lk:b")], &mut sched);
    assert_eq!(r.report.outcome, Outcome::Completed);
    assert_eq!(r.mem.read(counter, 8).unwrap(), 200);
    assert!(r.report.switches > 0, "random scheduler should preempt");
}

#[test]
fn unlocked_counter_loses_updates_under_preemption() {
    // The mirror image of the previous test: without the lock, read-modify-
    // write pairs interleave and updates are lost — the fundamental
    // mechanism behind every data-race bug in the corpus.
    let mut m = GuestMem::new();
    let counter = m.kmalloc(8).unwrap();
    let mut exec = Executor::new(2);
    let job = move |name: &'static str| -> BoxedJob {
        Box::new(move |ctx: &Ctx| {
            for _ in 0..100 {
                let v = ctx.read_u64(site!(name), counter)?;
                ctx.write_u64(site!(name), counter, v + 1)?;
            }
            Ok(())
        })
    };
    let mut sched = RandomSched::new(7, 0.5);
    let r = exec.run(m, vec![job("nolk:a"), job("nolk:b")], &mut sched);
    assert_eq!(r.report.outcome, Outcome::Completed);
    let v = r.mem.read(counter, 8).unwrap();
    assert!(v < 200, "expected lost updates, got {v}");
}

#[test]
fn contended_lock_blocks_and_hands_over() {
    let mut m = GuestMem::new();
    let lock = m.kmalloc(8).unwrap();
    let data = m.kmalloc(8).unwrap();
    let mut exec = Executor::new(2);
    // Thread A takes the lock, writes, unlocks. Thread B spins on the same
    // lock. A scheduler that immediately switches to B forces B to block.
    struct SwitchOnce {
        done: bool,
    }
    impl Scheduler for SwitchOnce {
        fn after_access(&mut self, _t: usize, _a: &sb_vmm::Access) -> bool {
            !std::mem::replace(&mut self.done, true)
        }
        fn pick(&mut self, _prev: usize, c: &[usize]) -> usize {
            c[0]
        }
    }
    let r = exec.run(
        m,
        vec![
            Box::new(move |ctx: &Ctx| -> KResult<()> {
                ctx.lock(lock)?;
                ctx.write_u64(site!("ho:a1"), data, 1)?;
                ctx.write_u64(site!("ho:a2"), data, 2)?;
                ctx.unlock(lock)?;
                Ok(())
            }),
            Box::new(move |ctx: &Ctx| -> KResult<()> {
                ctx.lock(lock)?;
                let v = ctx.read_u64(site!("ho:b"), data)?;
                assert_eq!(v, 2, "B must only enter after A's critical section");
                ctx.unlock(lock)?;
                Ok(())
            }),
        ],
        &mut SwitchOnce { done: false },
    );
    assert_eq!(r.report.outcome, Outcome::Completed);
}

#[test]
fn abba_deadlock_is_detected() {
    let mut m = GuestMem::new();
    let la = m.kmalloc(8).unwrap();
    let lb = m.kmalloc(8).unwrap();
    let data = m.kmalloc(8).unwrap();
    let mut exec = Executor::new(2);
    // Force a switch after the first access so both threads grab their first
    // lock before trying the second.
    let mut sched = RandomSched::new(999, 1.0);
    let r = exec.run(
        m,
        vec![
            Box::new(move |ctx: &Ctx| -> KResult<()> {
                ctx.lock(la)?;
                ctx.read_u64(site!("dl:a"), data)?;
                ctx.lock(lb)?;
                ctx.unlock(lb)?;
                ctx.unlock(la)?;
                Ok(())
            }),
            Box::new(move |ctx: &Ctx| -> KResult<()> {
                ctx.lock(lb)?;
                ctx.read_u64(site!("dl:b"), data)?;
                ctx.lock(la)?;
                ctx.unlock(la)?;
                ctx.unlock(lb)?;
                Ok(())
            }),
        ],
        &mut sched,
    );
    assert_eq!(r.report.outcome, Outcome::Deadlock);
    // Both threads unwound with abort faults.
    assert!(r
        .report
        .thread_faults
        .iter()
        .all(|f| matches!(f, Some(Fault::Aborted))));
}

#[test]
fn rcu_synchronize_waits_for_readers() {
    let mut m = GuestMem::new();
    let data = m.kmalloc(8).unwrap();
    m.write(data, 8, 1).unwrap();
    let mut exec = Executor::new(2);
    // Reader enters an RCU section, then the writer calls synchronize_rcu:
    // the writer must block until the reader exits.
    struct Handoff;
    impl Scheduler for Handoff {
        fn after_access(&mut self, _t: usize, _a: &sb_vmm::Access) -> bool {
            true
        }
        fn pick(&mut self, prev: usize, c: &[usize]) -> usize {
            *c.iter().find(|t| **t != prev).unwrap_or(&c[0])
        }
    }
    let r = exec.run(
        m,
        vec![
            Box::new(move |ctx: &Ctx| -> KResult<()> {
                ctx.rcu_read_lock()?;
                let v = ctx.read_u64(site!("rcu:r1"), data)?;
                // Yield point; writer runs and blocks in synchronize_rcu.
                let v2 = ctx.read_u64(site!("rcu:r2"), data)?;
                // Inside one RCU section the writer cannot free/overwrite.
                assert_eq!(v, v2);
                ctx.rcu_read_unlock()?;
                Ok(())
            }),
            Box::new(move |ctx: &Ctx| -> KResult<()> {
                ctx.read_u64(site!("rcu:w0"), data)?;
                ctx.synchronize_rcu()?;
                ctx.write_u64(site!("rcu:w1"), data, 2)?;
                Ok(())
            }),
        ],
        &mut Handoff,
    );
    assert_eq!(r.report.outcome, Outcome::Completed);
    assert_eq!(r.mem.read(data, 8).unwrap(), 2);
}

#[test]
fn null_dereference_panics_with_console_bug_line() {
    let (mem, _cell) = mem_with_cell();
    let mut exec = Executor::new(1);
    let r = exec.run(
        mem,
        vec![Box::new(move |ctx: &Ctx| -> KResult<()> {
            let ptr = 0u64; // Simulated uninitialized pointer field.
            ctx.read_u64(site!("null:deref"), ptr + 8)?;
            Ok(())
        })],
        &mut FreeRun,
    );
    assert!(r.report.outcome.is_panic());
    assert!(r.report.console_contains("BUG: kernel NULL pointer dereference"));
    assert!(matches!(
        r.report.thread_faults[0],
        Some(Fault::NullDeref { .. })
    ));
}

#[test]
fn wild_pointer_panics_with_page_fault_line() {
    let (mem, _cell) = mem_with_cell();
    let mut exec = Executor::new(1);
    let r = exec.run(
        mem,
        vec![Box::new(move |ctx: &Ctx| -> KResult<()> {
            // Offset from null beyond the first page: "unable to handle
            // page fault", like paper bug #1.
            ctx.read_u64(site!("wild:deref"), 0x2000)?;
            Ok(())
        })],
        &mut FreeRun,
    );
    assert!(r.report.outcome.is_panic());
    assert!(r.report.console_contains("unable to handle page fault"));
}

#[test]
fn explicit_oops_aborts_all_threads() {
    let (mem, cell) = mem_with_cell();
    let mut exec = Executor::new(2);
    let r = exec.run(
        mem,
        vec![
            Box::new(move |ctx: &Ctx| -> KResult<()> {
                ctx.read_u64(site!("oops:pre"), cell)?;
                Err(ctx.oops("BUG: explicit panic for test"))
            }),
            Box::new(move |ctx: &Ctx| -> KResult<()> {
                for _ in 0..1000 {
                    ctx.read_u64(site!("oops:other"), cell)?;
                }
                Ok(())
            }),
        ],
        &mut FreeRun,
    );
    assert!(r.report.outcome.is_panic());
    assert!(r.report.console_contains("explicit panic"));
    // The second thread must have been aborted early, not run to completion.
    assert!(matches!(r.report.thread_faults[1], Some(Fault::Aborted)));
}

#[test]
fn livelock_budget_trips() {
    let (mem, cell) = mem_with_cell();
    let limits = ExecLimits {
        max_steps: 500,
        max_thread_steps: 400,
        spin_limit: 16,
    };
    let mut exec = Executor::with_limits(1, limits);
    let r = exec.run(
        mem,
        vec![Box::new(move |ctx: &Ctx| -> KResult<()> {
            loop {
                ctx.read_u64(site!("ll:spin"), cell)?;
            }
        })],
        &mut FreeRun,
    );
    assert_eq!(r.report.outcome, Outcome::Livelock);
}

#[test]
fn spin_detection_forces_preemption() {
    // A seqlock-style retry loop on one thread must not starve the other:
    // the spin heuristic preempts it so the writer can make progress.
    let mut m = GuestMem::new();
    let flag = m.kmalloc(8).unwrap();
    let mut exec = Executor::new(2);
    let r = exec.run(
        m,
        vec![
            Box::new(move |ctx: &Ctx| -> KResult<()> {
                // Wait until the flag flips; pure spin.
                while ctx.read_u64(site!("spin:poll"), flag)? == 0 {}
                Ok(())
            }),
            Box::new(move |ctx: &Ctx| -> KResult<()> {
                ctx.write_u64(site!("spin:set"), flag, 1)?;
                Ok(())
            }),
        ],
        &mut FreeRun,
    );
    assert_eq!(r.report.outcome, Outcome::Completed);
}

#[test]
fn executor_is_reusable_across_runs() {
    let mut exec = Executor::new(2);
    for round in 0..20u64 {
        let (mem, cell) = mem_with_cell();
        let r = exec.run(
            mem,
            vec![
                Box::new(move |ctx: &Ctx| -> KResult<()> {
                    ctx.write_u64(site!("reuse:w"), cell, round)?;
                    Ok(())
                }),
                Box::new(move |ctx: &Ctx| -> KResult<()> {
                    ctx.read_u64(site!("reuse:r"), cell)?;
                    Ok(())
                }),
            ],
            &mut RandomSched::new(round, 0.4),
        );
        assert_eq!(r.report.outcome, Outcome::Completed, "round {round}");
    }
}

#[test]
fn identical_seeds_give_identical_traces() {
    let run = |seed: u64| {
        let mut m = GuestMem::new();
        let a = m.kmalloc(8).unwrap();
        let b = m.kmalloc(8).unwrap();
        let mut exec = Executor::new(2);
        let r = exec.run(
            m,
            vec![
                Box::new(move |ctx: &Ctx| -> KResult<()> {
                    for i in 0..50 {
                        ctx.write_u64(site!("det:w"), a, i)?;
                        ctx.read_u64(site!("det:rb"), b)?;
                    }
                    Ok(())
                }),
                Box::new(move |ctx: &Ctx| -> KResult<()> {
                    for i in 0..50 {
                        ctx.write_u64(site!("det:wb"), b, i)?;
                        ctx.read_u64(site!("det:ra"), a)?;
                    }
                    Ok(())
                }),
            ],
            &mut RandomSched::new(seed, 0.35),
        );
        r.report
            .trace
            .iter()
            .map(|a| (a.thread, a.site, a.addr, a.value))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(11), run(11));
    assert_ne!(run(11), run(12), "different seeds should interleave differently");
}

#[test]
fn locks_are_recorded_on_accesses() {
    let mut m = GuestMem::new();
    let lock = m.kmalloc(8).unwrap();
    let data = m.kmalloc(8).unwrap();
    let mut exec = Executor::new(1);
    let r = exec.run(
        m,
        vec![Box::new(move |ctx: &Ctx| -> KResult<()> {
            ctx.read_u64(site!("lkrec:out"), data)?;
            ctx.with_lock(lock, || {
                ctx.read_u64(site!("lkrec:in"), data)?;
                Ok(())
            })?;
            Ok(())
        })],
        &mut FreeRun,
    );
    assert_eq!(r.report.trace[0].locks, Vec::<u64>::new());
    assert_eq!(r.report.trace[1].locks, vec![lock]);
}

#[test]
fn double_unlock_is_a_lock_error() {
    let mut m = GuestMem::new();
    let lock = m.kmalloc(8).unwrap();
    let mut exec = Executor::new(1);
    let r = exec.run(
        m,
        vec![Box::new(move |ctx: &Ctx| -> KResult<()> {
            ctx.lock(lock)?;
            ctx.unlock(lock)?;
            ctx.unlock(lock)?;
            Ok(())
        })],
        &mut FreeRun,
    );
    assert!(matches!(
        r.report.thread_faults[0],
        Some(Fault::LockError { .. })
    ));
}

/// Switches after every access, always to another thread when one is ready.
struct PingPong;

impl Scheduler for PingPong {
    fn after_access(&mut self, _t: usize, _a: &sb_vmm::Access) -> bool {
        true
    }
    fn pick(&mut self, prev: usize, c: &[usize]) -> usize {
        *c.iter().find(|t| **t != prev).unwrap_or(&c[0])
    }
}

/// Two jobs that finish cleanly, for a follow-up run.
fn two_quiet_jobs(cell: u64) -> Vec<BoxedJob> {
    vec![
        Box::new(move |ctx: &Ctx| ctx.write_u64(site!("quiet:w"), cell, 1)),
        Box::new(move |ctx: &Ctx| ctx.read_u64(site!("quiet:r"), cell).map(drop)),
    ]
}

#[test]
fn job_panic_reaches_the_caller_and_the_executor_stays_usable() {
    let (mem, cell) = mem_with_cell();
    let mut exec = Executor::new(2);
    // vCPU 0 parks after its first access; vCPU 1 then panics while vCPU 0
    // is still parked. The run must neither hang nor report success.
    let jobs: Vec<BoxedJob> = vec![
        Box::new(move |ctx: &Ctx| {
            for _ in 0..100 {
                ctx.read_u64(site!("panic:parked"), cell)?;
            }
            Ok(())
        }),
        Box::new(move |ctx: &Ctx| {
            ctx.write_u64(site!("panic:w"), cell, 1)?;
            panic!("simulated harness bug");
        }),
    ];
    let caught = catch_unwind(AssertUnwindSafe(|| exec.try_run(mem, jobs, &mut PingPong)));
    let payload = caught.err().expect("the job's panic must reach the caller");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"simulated harness bug"));

    let (mem, cell) = mem_with_cell();
    let r = exec
        .try_run(mem, two_quiet_jobs(cell), &mut PingPong)
        .expect("the executor must stay usable after a panicking run");
    assert_eq!(r.report.outcome, Outcome::Completed);
    assert_eq!(r.report.thread_faults, vec![None, None]);
}

#[test]
fn scheduler_panic_reaches_the_caller() {
    struct Broken;
    impl Scheduler for Broken {
        fn after_access(&mut self, _t: usize, _a: &sb_vmm::Access) -> bool {
            true
        }
        fn pick(&mut self, _prev: usize, _c: &[usize]) -> usize {
            panic!("broken scheduler");
        }
    }
    let (mem, cell) = mem_with_cell();
    let mut exec = Executor::new(2);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        exec.try_run(mem, two_quiet_jobs(cell), &mut Broken)
    }));
    let payload = caught.err().expect("the scheduler's panic must reach the caller");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"broken scheduler"));
    let (mem, cell) = mem_with_cell();
    let r = exec.run(mem, two_quiet_jobs(cell), &mut FreeRun);
    assert_eq!(r.report.outcome, Outcome::Completed);
}

/// A job that records the OS thread it ran on.
fn thread_probe(seen: &Arc<Mutex<Vec<(usize, ThreadId)>>>, cell: u64) -> BoxedJob {
    let seen = Arc::clone(seen);
    Box::new(move |ctx: &Ctx| {
        seen.lock().unwrap().push((ctx.tid(), std::thread::current().id()));
        ctx.read_u64(site!("probe:r"), cell).map(drop)
    })
}

#[test]
fn single_job_runs_on_the_callers_thread() {
    // Boot, corpus fuzzing and profiling are single-job runs: they must not
    // hand off to any other OS thread.
    let (mem, cell) = mem_with_cell();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut exec = Executor::new(2);
    exec.run(mem, vec![thread_probe(&seen, cell)], &mut FreeRun);
    let caller = std::thread::current().id();
    assert_eq!(*seen.lock().unwrap(), vec![(0, caller)]);

    // With two jobs, vCPU 0 still runs on the caller and vCPU 1 elsewhere.
    let (mem, cell) = mem_with_cell();
    seen.lock().unwrap().clear();
    exec.run(
        mem,
        vec![thread_probe(&seen, cell), thread_probe(&seen, cell)],
        &mut PingPong,
    );
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 2);
    for (tid, thread) in seen.iter() {
        assert_eq!(*tid == 0, *thread == caller, "vCPU {tid} ran on the wrong thread");
    }
}

/// Two jobs doing unlocked read-modify-writes of one cell.
fn racing_jobs(cell: u64) -> Vec<BoxedJob> {
    let job = move |name: &'static str| -> BoxedJob {
        Box::new(move |ctx: &Ctx| {
            for i in 0..30 {
                let v = ctx.read_u64(site!(name), cell)?;
                ctx.write_u64(site!(name), cell, v + i)?;
            }
            Ok(())
        })
    };
    vec![job("rec:a"), job("rec:b")]
}

#[test]
fn random_begin_trial_is_a_fresh_scheduler() {
    let (mem, cell) = mem_with_cell();
    let mut exec = Executor::new(2);
    let mut reseeded = RandomSched::new(1, 0.3);
    exec.run(mem.clone(), racing_jobs(cell), &mut reseeded);
    reseeded.begin_trial(42);
    let a = exec.run(mem.clone(), racing_jobs(cell), &mut reseeded);
    let b = exec.run(mem, racing_jobs(cell), &mut RandomSched::new(42, 0.3));
    assert_eq!(a.report.trace, b.report.trace);
}

#[test]
fn recording_a_borrowed_scheduler_matches_recording_an_owned_one() {
    let (mem, cell) = mem_with_cell();
    let mut exec = Executor::new(2);
    let mut owned = RecordingSched::new(RandomSched::new(4, 0.3));
    exec.run(mem.clone(), racing_jobs(cell), &mut owned);
    let mut sched = RandomSched::new(4, 0.3);
    let mut borrowed = RecordingSched::new(&mut sched);
    exec.run(mem, racing_jobs(cell), &mut borrowed);
    assert!(!owned.schedule().is_empty());
    assert_eq!(borrowed.finish().0, *owned.schedule());
    // The caller keeps the advanced scheduler: it continues exactly where
    // the owned recording's inner scheduler does.
    let (_, mut inner) = owned.finish();
    let picks = |s: &mut RandomSched| (0..16).map(|_| s.pick(0, &[0, 1, 2])).collect::<Vec<_>>();
    assert_eq!(picks(&mut sched), picks(&mut inner));
}
