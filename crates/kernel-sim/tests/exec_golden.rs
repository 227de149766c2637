//! Golden digests of full `ExecReport`s: outcome, console, trace, sync
//! events, steps, switches and thread faults.
//!
//! Every case runs real corpus programs (both kernel configs) or seeded
//! synthetic jobs that stress locks, wait queues, RCU, atomic context,
//! faults and the liveness limits, under every stock scheduler with 1, 2
//! and 3 jobs. The digests are pinned, so any change to the executor's
//! interleaving semantics — a step counted differently, a pick made at
//! another point, a reply delivered late — shows up as a named mismatch.
//! An executor rewrite must leave this table unchanged.

use sb_fuzz::{build_corpus_with, Catalog};
use sb_kernel::{boot, BootedKernel, KernelConfig, Program};
use sb_vmm::exec::{ExecLimits, Executor, Job};
use sb_vmm::mem::{is_stack_addr, GuestMem};
use sb_vmm::replay::{RecordingSched, ReplaySched};
use sb_vmm::rng::Rng;
use sb_vmm::sched::{
    FreeRun, HintAccess, PctSched, RandomSched, Scheduler, SkiSched, SnowboardSched,
};
use sb_vmm::{site, Access, AccessKind, Ctx, ExecReport, KResult, Site};

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Accumulates the digests of one named group of runs.
struct Group {
    name: String,
    digest: u64,
    runs: usize,
}

impl Group {
    fn new(name: impl Into<String>) -> Self {
        Group {
            name: name.into(),
            digest: FNV_OFFSET,
            runs: 0,
        }
    }

    /// Folds one full report into the group digest. `Debug` renders every
    /// field, sites by name, so the digest does not depend on which test
    /// interned a site first.
    fn add(&mut self, report: &ExecReport) {
        self.digest = fnv(self.digest, format!("{report:?}").as_bytes());
        self.runs += 1;
    }
}

fn run(
    exec: &mut Executor,
    mem: GuestMem,
    jobs: Vec<Job>,
    sched: &mut dyn Scheduler,
) -> ExecReport {
    exec.run(mem, jobs, sched).report
}

fn prog_jobs(booted: &BootedKernel, progs: &[&Program]) -> Vec<Job> {
    progs
        .iter()
        .map(|p| booted.kernel.process_job((*p).clone()))
        .collect()
}

/// PMC-style hints for a pair: overlapping non-stack accesses of `a` and
/// `b`'s sequential profiles where at least one side writes.
fn hints(booted: &BootedKernel, a: &Program, b: &Program) -> Vec<HintAccess> {
    let mut exec = Executor::new(1);
    let mut profile = |p: &Program| -> Vec<Access> {
        run(
            &mut exec,
            booted.snapshot.clone(),
            prog_jobs(booted, &[p]),
            &mut FreeRun,
        )
        .trace
        .into_iter()
        .filter(|x| !is_stack_addr(x.addr))
        .collect()
    };
    let (pa, pb) = (profile(a), profile(b));
    let hint = |x: &Access| HintAccess {
        site: x.site,
        kind: x.kind,
        addr: x.addr,
        len: x.len,
    };
    let mut out = Vec::new();
    for x in &pa {
        for y in &pb {
            let overlap = x.addr < y.end() && y.addr < x.end();
            if overlap && (x.kind.is_write() || y.kind.is_write()) {
                out.push(hint(x));
                out.push(hint(y));
                if out.len() >= 6 {
                    return out;
                }
            }
        }
    }
    out
}

/// The corpus-program groups for one kernel config.
fn corpus_groups(config: KernelConfig, label: &str) -> Vec<Group> {
    let booted = boot(config);
    let (corpus, _) = build_corpus_with(&booted, 11, 12, 160, Catalog::Extended);
    assert!(corpus.len() >= 6, "corpus too small: {}", corpus.len());
    let n = corpus.len();
    let pairs: Vec<(usize, usize)> = (0..6).map(|i| (i % n, (i * 5 + 3) % n)).collect();
    let triples: Vec<(usize, usize, usize)> =
        (0..3).map(|i| (i, (i + 2) % n, (i * 3 + 5) % n)).collect();

    let mut e1 = Executor::new(1);
    let mut e2 = Executor::new(2);
    let mut e3 = Executor::new(3);
    let mut groups = Vec::new();

    let mut g = Group::new(format!("{label}/free/1-job"));
    for p in &corpus {
        g.add(&run(
            &mut e1,
            booted.snapshot.clone(),
            prog_jobs(&booted, &[p]),
            &mut FreeRun,
        ));
    }
    groups.push(g);

    let mut g = Group::new(format!("{label}/free/2-job"));
    for &(a, b) in &pairs {
        let jobs = prog_jobs(&booted, &[&corpus[a], &corpus[b]]);
        g.add(&run(&mut e2, booted.snapshot.clone(), jobs, &mut FreeRun));
    }
    groups.push(g);

    let mut g = Group::new(format!("{label}/random/2-job"));
    for (i, &(a, b)) in pairs.iter().enumerate() {
        for seed in 0..4u64 {
            let mut sched = RandomSched::new(seed * 31 + i as u64, 0.15 + 0.1 * seed as f64);
            let jobs = prog_jobs(&booted, &[&corpus[a], &corpus[b]]);
            g.add(&run(&mut e2, booted.snapshot.clone(), jobs, &mut sched));
        }
    }
    groups.push(g);

    let mut g_ski = Group::new(format!("{label}/ski/2-job"));
    let mut g_sb = Group::new(format!("{label}/snowboard/2-job"));
    let mut g_pct = Group::new(format!("{label}/pct/2-job"));
    for (i, &(a, b)) in pairs.iter().enumerate() {
        let h = hints(&booted, &corpus[a], &corpus[b]);
        let mut ski = SkiSched::new(i as u64, h.iter().map(|x| x.site));
        let mut sb = SnowboardSched::new(i as u64, h.clone());
        for trial in 0..6u64 {
            let jobs = || prog_jobs(&booted, &[&corpus[a], &corpus[b]]);
            ski.begin_trial(trial);
            g_ski.add(&run(&mut e2, booted.snapshot.clone(), jobs(), &mut ski));
            sb.begin_trial(trial);
            g_sb.add(&run(&mut e2, booted.snapshot.clone(), jobs(), &mut sb));
            let mut pct = PctSched::new(trial * 7 + i as u64, 80, 3);
            g_pct.add(&run(&mut e2, booted.snapshot.clone(), jobs(), &mut pct));
        }
    }
    groups.extend([g_ski, g_sb, g_pct]);

    // Record under a random walk, then replay: the replayed report must be
    // the recorded one, and both are pinned.
    let mut g = Group::new(format!("{label}/replay/2-job"));
    for (i, &(a, b)) in pairs.iter().enumerate() {
        let jobs = || prog_jobs(&booted, &[&corpus[a], &corpus[b]]);
        let mut rec = RecordingSched::new(RandomSched::new(100 + i as u64, 0.3));
        let recorded = run(&mut e2, booted.snapshot.clone(), jobs(), &mut rec);
        let mut replay = ReplaySched::new(rec.finish().0);
        let replayed = run(&mut e2, booted.snapshot.clone(), jobs(), &mut replay);
        assert!(!replay.diverged(), "{label}: replay of pair {i} diverged");
        assert_eq!(format!("{recorded:?}"), format!("{replayed:?}"));
        g.add(&replayed);
    }
    groups.push(g);

    let mut g = Group::new(format!("{label}/mixed/3-job"));
    for (i, &(a, b, c)) in triples.iter().enumerate() {
        let jobs = || prog_jobs(&booted, &[&corpus[a], &corpus[b], &corpus[c]]);
        let h = hints(&booted, &corpus[a], &corpus[b]);
        g.add(&run(&mut e3, booted.snapshot.clone(), jobs(), &mut FreeRun));
        let mut random = RandomSched::new(200 + i as u64, 0.3);
        g.add(&run(&mut e3, booted.snapshot.clone(), jobs(), &mut random));
        let mut pct = PctSched::new(300 + i as u64, 120, 4);
        g.add(&run(&mut e3, booted.snapshot.clone(), jobs(), &mut pct));
        let mut sb = SnowboardSched::new(400 + i as u64, h);
        for trial in 0..3 {
            sb.begin_trial(trial);
            g.add(&run(&mut e3, booted.snapshot.clone(), jobs(), &mut sb));
        }
    }
    groups.push(g);
    groups
}

/// One synthetic kernel-thread operation.
#[derive(Copy, Clone, Debug)]
enum Op {
    Read(usize),
    Write(usize, u64),
    ReadAtomic(usize),
    Copy(usize, usize),
    Lock(usize),
    Unlock(usize),
    Prepare(u64),
    Commit(u64, u64),
    Cancel(u64),
    SleepOn(u64, u64),
    Wake(u64, bool),
    AtomicEnter,
    AtomicExit,
    RcuLock,
    RcuUnlock,
    SyncRcu,
    AllocFree(u64),
    Printk,
    Oops,
    NullRead,
    Spin(usize, u32),
}

const CELLS: usize = 4;
const LOCKS: usize = 2;

/// A random, mostly well-formed operation list: locks, atomic context and
/// RCU sections are usually left by the thread that entered them, but ordering, sleeps and wakeups are arbitrary, so runs
/// end in every outcome (completion, deadlock, lock errors, timeouts,
/// panics, livelock under tight limits).
fn gen_ops(rng: &mut Rng, len: usize) -> Vec<Op> {
    let mut held = [false; LOCKS];
    let (mut atomic, mut rcu) = (0u32, 0u32);
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let q = 0x51 + rng.gen_range(0..2u64);
        let op = match rng.gen_range(0..100u32) {
            0..=19 => Op::Read(rng.gen_range(0..CELLS)),
            20..=34 => Op::Write(rng.gen_range(0..CELLS), rng.gen_range(0..1000u64)),
            35..=39 => Op::ReadAtomic(rng.gen_range(0..CELLS)),
            40..=42 => Op::Copy(rng.gen_range(0..CELLS), rng.gen_range(0..CELLS)),
            43..=50 => {
                let l = rng.gen_range(0..LOCKS);
                if held[l] && rng.gen_bool(0.9) {
                    held[l] = false;
                    Op::Unlock(l)
                } else {
                    held[l] = true;
                    Op::Lock(l)
                }
            }
            51..=54 => Op::Prepare(q),
            55..=58 => Op::Commit(q, rng.gen_range(1..40u64)),
            59..=60 => Op::Cancel(q),
            61..=62 => Op::SleepOn(q, rng.gen_range(1..40u64)),
            63..=68 => Op::Wake(q, rng.gen_bool(0.5)),
            69..=74 => {
                if atomic > 0 && rng.gen_bool(0.6) {
                    atomic -= 1;
                    Op::AtomicExit
                } else {
                    atomic += 1;
                    Op::AtomicEnter
                }
            }
            75..=80 => {
                if rcu > 0 && rng.gen_bool(0.6) {
                    rcu -= 1;
                    Op::RcuUnlock
                } else {
                    rcu += 1;
                    Op::RcuLock
                }
            }
            81..=82 => Op::SyncRcu,
            83..=86 => Op::AllocFree(rng.gen_range(1..64u64)),
            87..=89 => Op::Printk,
            90 if rng.gen_bool(0.2) => Op::Oops,
            91 if rng.gen_bool(0.2) => Op::NullRead,
            _ => Op::Spin(rng.gen_range(0..CELLS), rng.gen_range(1..90u32)),
        };
        ops.push(op);
    }
    // Leave what is still held most of the time; sometimes exit holding
    // it, which the executor must clean up.
    for (l, h) in held.iter().enumerate() {
        if *h && rng.gen_bool(0.8) {
            ops.push(Op::Unlock(l));
        }
    }
    if rng.gen_bool(0.8) {
        ops.extend((0..atomic).map(|_| Op::AtomicExit));
        ops.extend((0..rcu).map(|_| Op::RcuUnlock));
    }
    ops
}

fn exec_op(ctx: &Ctx, cells: u64, locks: u64, op: Op) -> KResult<()> {
    let cell = |i: usize| cells + 8 * i as u64;
    let lock = |i: usize| locks + 8 * i as u64;
    match op {
        Op::Read(c) => ctx.read_u64(site!("golden:read"), cell(c)).map(drop),
        Op::Write(c, v) => ctx.write_u64(site!("golden:write"), cell(c), v),
        Op::ReadAtomic(c) => ctx
            .read_atomic(site!("golden:read_once"), cell(c), 8)
            .map(drop),
        Op::Copy(d, s) => ctx.memcpy(site!("golden:memcpy"), cell(d), cell(s), 3),
        Op::Lock(l) => ctx.lock_at(site!("golden:lock"), lock(l)),
        Op::Unlock(l) => ctx.unlock_at(site!("golden:unlock"), lock(l)),
        Op::Prepare(q) => ctx.wait_prepare(site!("golden:prepare"), q),
        Op::Commit(q, t) => ctx.wait_commit(site!("golden:commit"), q, t).map(drop),
        Op::Cancel(q) => ctx.wait_cancel(site!("golden:cancel"), q),
        Op::SleepOn(q, t) => ctx.sleep_on(site!("golden:sleep_on"), q, t).map(drop),
        Op::Wake(q, all) => if all {
            ctx.wake_all(site!("golden:wake_all"), q)
        } else {
            ctx.wake_one(site!("golden:wake_one"), q)
        }
        .map(drop),
        Op::AtomicEnter => ctx.atomic_enter(site!("golden:atomic_enter")),
        Op::AtomicExit => ctx.atomic_exit(site!("golden:atomic_exit")),
        Op::RcuLock => ctx.rcu_read_lock(),
        Op::RcuUnlock => ctx.rcu_read_unlock(),
        Op::SyncRcu => ctx.synchronize_rcu(),
        Op::AllocFree(len) => {
            let a = ctx.kmalloc(len)?;
            ctx.write_u8(site!("golden:init"), a, 1)?;
            ctx.kfree(a, len)
        }
        Op::Printk => ctx.printk(format!("golden: thread {}", ctx.tid())),
        Op::Oops => Err(ctx.oops("BUG: golden oops")),
        Op::NullRead => ctx.read_u64(site!("golden:null"), 0x10).map(drop),
        Op::Spin(c, n) => {
            for _ in 0..n {
                ctx.read_u64(site!("golden:spin"), cell(c))?;
            }
            Ok(())
        }
    }
}

/// A job running `ops` the way `process_job` runs syscalls: non-fatal
/// faults are absorbed, fatal ones end the thread.
fn synthetic_job(ops: Vec<Op>, cells: u64, locks: u64) -> Job {
    Box::new(move |ctx: &Ctx| -> KResult<()> {
        for op in ops {
            match exec_op(ctx, cells, locks, op) {
                Err(f) if f.is_fatal() => return Err(f),
                _ => {}
            }
        }
        Ok(())
    })
}

fn synthetic_groups() -> Vec<Group> {
    let mut base = GuestMem::new();
    let cells = base.kmalloc(8 * CELLS as u64).unwrap();
    let locks = base.kmalloc(8 * LOCKS as u64).unwrap();
    base.seal();
    let tight = ExecLimits {
        max_steps: 300,
        max_thread_steps: 200,
        spin_limit: 8,
    };
    let mut groups = Vec::new();
    for jobs_n in 1..=3usize {
        let mut exec = Executor::new(jobs_n);
        let mut tight_exec = Executor::with_limits(jobs_n, tight);
        let mut g = Group::new(format!("synthetic/{jobs_n}-job"));
        let mut g_tight = Group::new(format!("synthetic-tight/{jobs_n}-job"));
        for case in 0..30u64 {
            let mut rng = Rng::seed_from_u64(case * 1000 + jobs_n as u64);
            let ops: Vec<Vec<Op>> = (0..jobs_n).map(|_| gen_ops(&mut rng, 24)).collect();
            let jobs = || -> Vec<Job> {
                ops.iter()
                    .map(|o| synthetic_job(o.clone(), cells, locks))
                    .collect()
            };
            let mut scheds: Vec<Box<dyn Scheduler>> = vec![
                Box::new(FreeRun),
                Box::new(RandomSched::new(case, 0.3)),
                Box::new(PctSched::new(case, 60, 3)),
                Box::new(SkiSched::new(
                    case,
                    [site!("golden:write"), site!("golden:read")],
                )),
                Box::new(SnowboardSched::new(
                    case,
                    [HintAccess {
                        site: Site::intern("golden:write"),
                        kind: AccessKind::Write,
                        addr: cells,
                        len: 8,
                    }],
                )),
            ];
            for s in scheds.iter_mut() {
                g.add(&run(&mut exec, base.clone(), jobs(), s.as_mut()));
            }
            let mut rec = RecordingSched::new(RandomSched::new(case + 7, 0.5));
            g.add(&run(&mut exec, base.clone(), jobs(), &mut rec));
            let mut replay = ReplaySched::new(rec.finish().0);
            g.add(&run(&mut exec, base.clone(), jobs(), &mut replay));
            let mut random = RandomSched::new(case, 0.4);
            g_tight.add(&run(&mut tight_exec, base.clone(), jobs(), &mut random));
            g_tight.add(&run(&mut tight_exec, base.clone(), jobs(), &mut FreeRun));
        }
        groups.push(g);
        groups.push(g_tight);
    }
    groups
}

/// Pinned `(group, runs, digest)` table.
const GOLDEN: &[(&str, usize, u64)] = &[
    ("synthetic/1-job", 210, 0x5c264c40c7e24cc7),
    ("synthetic-tight/1-job", 60, 0xb024e803e3191c6d),
    ("synthetic/2-job", 210, 0x9f3f3b557bd01230),
    ("synthetic-tight/2-job", 60, 0x606a3df03b141a1c),
    ("synthetic/3-job", 210, 0x1c126ea95bc534d9),
    ("synthetic-tight/3-job", 60, 0xe92639782fc012ea),
    ("5.12-rc3/free/1-job", 19, 0x6b0ca61aa7820540),
    ("5.12-rc3/free/2-job", 6, 0xa80a229af3c8ea3f),
    ("5.12-rc3/random/2-job", 24, 0xc3a153749a4ecf97),
    ("5.12-rc3/ski/2-job", 36, 0x22298ee6f68444db),
    ("5.12-rc3/snowboard/2-job", 36, 0x55fcf1b60adc78a3),
    ("5.12-rc3/pct/2-job", 36, 0x35ce62b376a35739),
    ("5.12-rc3/replay/2-job", 6, 0x3601bdaf3e5608a1),
    ("5.12-rc3/mixed/3-job", 18, 0x0a3a846a20d915de),
    ("5.3.10/free/1-job", 19, 0x4b6575b43e804780),
    ("5.3.10/free/2-job", 6, 0xde881a70512eafbb),
    ("5.3.10/random/2-job", 24, 0x5e0b1c9d541e783b),
    ("5.3.10/ski/2-job", 36, 0x8ced273a64b8f1ec),
    ("5.3.10/snowboard/2-job", 36, 0xba9d8c211ee3114e),
    ("5.3.10/pct/2-job", 36, 0xed51fc41566d5491),
    ("5.3.10/replay/2-job", 6, 0xbc6686a689a767e0),
    ("5.3.10/mixed/3-job", 18, 0xf68cb905e035fbb2),
];

#[test]
fn exec_reports_match_golden_digests() {
    let mut groups = synthetic_groups();
    groups.extend(corpus_groups(KernelConfig::v5_12_rc3(), "5.12-rc3"));
    groups.extend(corpus_groups(KernelConfig::v5_3_10(), "5.3.10"));
    let actual: Vec<(String, usize, u64)> = groups
        .iter()
        .map(|g| (g.name.clone(), g.runs, g.digest))
        .collect();
    let table: String = actual
        .iter()
        .map(|(n, r, d)| format!("    ({n:?}, {r}, {d:#018x}),\n"))
        .collect();
    let golden: Vec<(String, usize, u64)> = GOLDEN
        .iter()
        .map(|(n, r, d)| ((*n).to_owned(), *r, *d))
        .collect();
    let mismatched: Vec<&str> = actual
        .iter()
        .filter(|a| !golden.contains(a))
        .map(|a| a.0.as_str())
        .collect();
    assert!(
        mismatched.is_empty() && golden.len() == actual.len(),
        "ExecReport digests changed for {mismatched:?}; actual table:\n{table}"
    );
}
