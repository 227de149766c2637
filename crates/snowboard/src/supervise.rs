//! Process-isolated campaign execution: a crash-proof worker pool.
//!
//! The in-process pool (PR 1) survives worker *panics*, but a kernel-fuzzing
//! campaign also sees failures Rust cannot unwind from: `abort()`, OOM
//! kills, stack overflow, a wedged loop that never reaches a watchdog
//! check. This module runs the campaign across real OS processes: the CLI
//! re-execs itself as N worker children, each running the deterministic
//! shard `job % N == shard` of the budgeted job list and streaming
//! [`WorkerMsg`] JSONL over stdout. The supervisor ([`run_supervised`])
//! merges results into the same job-indexed [`Checkpoint`] maps the
//! single-process campaign uses, so a clean supervised run aggregates
//! **bit-identically** to `run_campaign` over the same exemplars.
//!
//! Robustness machinery, all deterministic given the same worker behaviour:
//!
//! * **Heartbeats** — a worker that sends nothing (not even a heartbeat)
//!   for longer than [`SuperviseCfg::heartbeat_timeout`] is presumed wedged,
//!   killed, and handled as a crash.
//! * **Crash attribution** — the `start` message names the in-flight job;
//!   a death before its `done`/`quarantine` charges exactly that job. After
//!   [`SuperviseCfg::crash_budget`] charges the job is quarantined with
//!   [`FailureKind::Crash`] and never retried.
//! * **Restart backoff** — respawns wait `base * 2^(n-1)` clamped to
//!   `backoff_max`, plus a deterministic splitmix64 jitter derived from
//!   `(campaign seed, shard, respawn count)` — no wall-clock entropy.
//! * **Circuit breaker** — [`SuperviseCfg::max_instant_deaths`] consecutive
//!   deaths with zero completed jobs abandon the shard: its remaining jobs
//!   are reported with [`FailureKind::GaveUp`] (reported but *not*
//!   checkpointed, so a resumed campaign retries them).
//! * **Graceful shutdown** — when [`SuperviseCfg::stop_file`] appears, the
//!   checkpoint is flushed immediately, workers get one heartbeat interval
//!   to exit on their own stop-file poll, stragglers are killed, and
//!   nothing is quarantined.
//! * **No orphans** — every child is held by a kill-on-drop guard; even a
//!   supervisor panic reaps the pool and flushes the checkpoint first.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use sb_kernel::{BootedKernel, Program};
use sb_vmm::Executor;

use crate::campaign::{
    aggregate, load_or_begin_checkpoint, run_one_job, trace_job_verdict,
    trace_restored_verdicts, CampaignCfg, CampaignReport, IncidentalIndex, JobVerdict,
    QuarantineRecord,
};
use crate::checkpoint::Checkpoint;
use crate::error::{Error, FailureKind, SbResult};
use crate::fault::FaultPlan;
use crate::metrics::SuperviseStats;
use crate::pmc::{PmcId, PmcSet};
use crate::protocol::WorkerMsg;
use crate::retry::reseed;

/// Supervisor tuning. Defaults suit production; tests shrink every timing
/// knob to milliseconds.
#[derive(Clone, Debug)]
pub struct SuperviseCfg {
    /// Worker processes (= shards). Job `i` belongs to shard `i % workers`.
    pub workers: usize,
    /// Kill a worker heard from not at all for this long.
    pub heartbeat_timeout: Duration,
    /// Supervisor tick: stop-file polls, respawn deadlines, timeout checks.
    pub poll: Duration,
    /// First respawn delay; doubles per consecutive respawn.
    pub backoff_base: Duration,
    /// Ceiling on the exponential respawn delay (before jitter).
    pub backoff_max: Duration,
    /// Worker deaths charged to one job before it is quarantined as
    /// [`FailureKind::Crash`].
    pub crash_budget: u32,
    /// Consecutive zero-completion deaths before a shard is abandoned.
    pub max_instant_deaths: u32,
    /// Graceful-shutdown trigger: stop when this file exists.
    pub stop_file: Option<PathBuf>,
    /// The supervisor's merged checkpoint — saved before every (re)spawn so
    /// children resume past covered jobs, and after every result.
    pub checkpoint: PathBuf,
}

impl Default for SuperviseCfg {
    fn default() -> Self {
        SuperviseCfg {
            workers: 4,
            heartbeat_timeout: Duration::from_secs(10),
            poll: Duration::from_millis(25),
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            crash_budget: 2,
            max_instant_deaths: 3,
            stop_file: None,
            checkpoint: std::env::temp_dir().join("sb-supervise.json"),
        }
    }
}

/// The jobs of one shard, as `(job index, PMC id)` in campaign order.
pub fn shard_jobs(budgeted: &[PmcId], shard: usize, of: usize) -> Vec<(usize, PmcId)> {
    budgeted
        .iter()
        .copied()
        .enumerate()
        .filter(|(job, _)| job % of == shard)
        .collect()
}

/// Respawn delay before respawn `n` (1-based) of `shard`: exponential
/// backoff clamped at `backoff_max`, plus up to 25% deterministic jitter
/// derived from the campaign seed — identical inputs always wait the same.
pub fn respawn_backoff(cfg: &SuperviseCfg, seed: u64, shard: usize, respawn: u64) -> Duration {
    let shift = respawn.saturating_sub(1).min(20) as u32;
    let grown = cfg
        .backoff_base
        .saturating_mul(1u32.checked_shl(shift).unwrap_or(u32::MAX));
    let capped = grown.min(cfg.backoff_max);
    let quarter_ms = capped.as_millis() as u64 / 4;
    let jitter_ms = if quarter_ms == 0 {
        0
    } else {
        reseed(seed ^ ((shard as u64) << 32), respawn as u32) % (quarter_ms + 1)
    };
    capped + Duration::from_millis(jitter_ms)
}

/// A child process reaped (kill + wait) on drop, so no exit path — panic
/// included — leaks a worker.
struct ChildGuard {
    child: Option<Child>,
}

impl ChildGuard {
    fn new(child: Child) -> Self {
        ChildGuard { child: Some(child) }
    }

    fn kill(&mut self) {
        if let Some(c) = &mut self.child {
            let _ = c.kill();
        }
    }

    /// Reaps the child, returning its exit status (None if already reaped
    /// or wait failed).
    fn reap(&mut self) -> Option<ExitStatus> {
        self.child.take().and_then(|mut c| c.wait().ok())
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        self.kill();
        let _ = self.reap();
    }
}

/// What a reader thread forwards for its worker.
enum Note {
    Msg(WorkerMsg),
    /// A line that failed strict protocol validation.
    Bad(String),
    /// The worker's stdout closed (it died or is about to).
    Eof,
}

#[derive(Debug, PartialEq)]
enum Phase {
    Running,
    /// Waiting out the respawn backoff until the deadline.
    Backoff(Instant),
    Done,
}

struct ShardState {
    /// All jobs of this shard (including already-covered ones).
    jobs: Vec<(usize, PmcId)>,
    phase: Phase,
    guard: Option<ChildGuard>,
    /// Spawn generation; messages from dead readers are discarded by it.
    gen: u64,
    last_msg: Instant,
    in_flight: Option<usize>,
    completed_since_spawn: u64,
    instant_deaths: u32,
    respawns: u64,
    said_bye: Option<bool>,
    hb_killed: bool,
    proto_error: Option<String>,
}

impl ShardState {
    fn remaining(&self, cp: &Checkpoint, extra: &BTreeMap<usize, QuarantineRecord>) -> usize {
        self.jobs
            .iter()
            .filter(|(job, _)| !cp.covers(*job) && !extra.contains_key(job))
            .count()
    }
}

/// Runs a campaign over `exemplars` across `scfg.workers` child processes,
/// spawning each shard with `spawn(shard)` (the CLI passes a closure that
/// re-execs the current binary with a hidden `--worker-shard` flag; tests
/// pass `/bin/sh` scripts).
///
/// Like [`crate::campaign::run_campaign`], per-job failures never surface
/// as `Err` — they land in [`CampaignReport::quarantined`]. `Err` means a
/// campaign-level problem: an unusable resume checkpoint, a checkpoint
/// write failure, or a worker that could not be spawned at all.
pub fn run_supervised(
    exemplars: &[PmcId],
    cfg: &CampaignCfg,
    scfg: &SuperviseCfg,
    spawn: impl FnMut(usize) -> Command,
) -> SbResult<CampaignReport> {
    if scfg.workers == 0 {
        return Err(Error::Supervise {
            detail: "supervised campaign needs at least one worker".into(),
        });
    }
    let budgeted: Vec<PmcId> = exemplars
        .iter()
        .copied()
        .take(cfg.max_tested_pmcs)
        .collect();
    let mut cp = load_or_begin_checkpoint(cfg, &budgeted)?;
    trace_restored_verdicts(&cfg.tracer, &cp);
    let mut extra: BTreeMap<usize, QuarantineRecord> = BTreeMap::new();
    let mut stats = SuperviseStats {
        workers: scfg.workers as u64,
        ..SuperviseStats::default()
    };
    let mut spawn = spawn;
    let _span = cfg.tracer.span("campaign");
    // The flush guard for satellite 2's supervisor side: a supervisor bug
    // must not cost completed work, so the checkpoint is persisted before
    // the panic propagates. Children are reaped by their ChildGuards as the
    // loop's state unwinds.
    let looped = catch_unwind(AssertUnwindSafe(|| {
        supervise_loop(&budgeted, cfg, scfg, &mut cp, &mut extra, &mut stats, &mut spawn)
    }));
    match looped {
        Ok(r) => r?,
        Err(payload) => {
            let _ = cp.save(&scfg.checkpoint);
            std::panic::resume_unwind(payload);
        }
    }
    cp.save(&scfg.checkpoint)?;

    let mut quarantined = cp.quarantined.clone();
    for (job, q) in extra {
        quarantined.entry(job).or_insert(q);
    }
    let outcomes = cp.outcomes.values().cloned().collect();
    let mut report = aggregate(outcomes);
    report.quarantined = quarantined.into_values().collect();
    report.supervise = Some(stats);
    Ok(report)
}

#[allow(clippy::too_many_lines)]
fn supervise_loop(
    budgeted: &[PmcId],
    cfg: &CampaignCfg,
    scfg: &SuperviseCfg,
    cp: &mut Checkpoint,
    extra: &mut BTreeMap<usize, QuarantineRecord>,
    stats: &mut SuperviseStats,
    spawn: &mut dyn FnMut(usize) -> Command,
) -> SbResult<()> {
    let tracer = &cfg.tracer;
    let every = cfg.checkpoint.as_ref().map_or(1, |c| c.every.max(1));
    let (tx, rx) = mpsc::channel::<(usize, u64, Note)>();
    let mut shards: Vec<ShardState> = (0..scfg.workers)
        .map(|s| ShardState {
            jobs: shard_jobs(budgeted, s, scfg.workers),
            phase: Phase::Done,
            guard: None,
            gen: 0,
            last_msg: Instant::now(),
            in_flight: None,
            completed_since_spawn: 0,
            instant_deaths: 0,
            respawns: 0,
            said_bye: None,
            hb_killed: false,
            proto_error: None,
        })
        .collect();
    let mut crash_counts: BTreeMap<usize, u32> = BTreeMap::new();
    let mut results_seen = 0usize;
    let mut stopping = false;
    let mut stop_deadline = Instant::now();
    let mut stragglers_killed = false;

    // Initial spawns: only shards with uncovered work.
    for (shard, state) in shards.iter_mut().enumerate() {
        if state.remaining(cp, extra) > 0 {
            spawn_shard(shard, state, cfg, scfg, cp, stats, spawn, &tx)?;
        }
    }

    loop {
        let now = Instant::now();

        // Graceful shutdown: flush the checkpoint the moment the stop file
        // appears, then give workers one heartbeat interval to notice it
        // themselves before killing stragglers.
        if !stopping && scfg.stop_file.as_deref().is_some_and(Path::exists) {
            stopping = true;
            stats.stopped = true;
            stop_deadline = now + scfg.heartbeat_timeout;
            cp.save(&scfg.checkpoint)?;
        }
        if stopping && now >= stop_deadline && !stragglers_killed {
            stragglers_killed = true;
            for state in &mut shards {
                if let Some(guard) = &mut state.guard {
                    guard.kill();
                }
            }
        }

        for (shard, state) in shards.iter_mut().enumerate() {
            match state.phase {
                Phase::Backoff(_) if stopping => state.phase = Phase::Done,
                Phase::Backoff(at) if now >= at => {
                    spawn_shard(shard, state, cfg, scfg, cp, stats, spawn, &tx)?;
                }
                Phase::Running
                    if !state.hb_killed
                        && now.duration_since(state.last_msg) > scfg.heartbeat_timeout =>
                {
                    state.hb_killed = true;
                    stats.heartbeat_misses += 1;
                    tracer.count(sb_obs::keys::SUPERVISE_HEARTBEAT_MISSES, 1);
                    tracer.emit(&sb_obs::Event::Worker {
                        t: tracer.now_us(),
                        worker: shard as u64,
                        action: "heartbeat-miss".into(),
                        detail: format!(
                            "silent for {:.1}s",
                            now.duration_since(state.last_msg).as_secs_f64()
                        ),
                    });
                    if let Some(guard) = &mut state.guard {
                        guard.kill();
                    }
                }
                _ => {}
            }
        }

        if shards.iter().all(|s| s.phase == Phase::Done) {
            return Ok(());
        }

        let (shard, gen, note) = match rx.recv_timeout(scfg.poll) {
            Ok(item) => item,
            Err(_) => continue,
        };
        let state = &mut shards[shard];
        if gen != state.gen {
            continue; // stale message from a reaped incarnation
        }
        state.last_msg = Instant::now();
        match note {
            Note::Msg(WorkerMsg::Hello { .. } | WorkerMsg::Heartbeat) => {}
            Note::Msg(WorkerMsg::Start { job }) => {
                state.in_flight = Some(job);
            }
            Note::Msg(WorkerMsg::Done { job, outcome }) => {
                let verdict = JobVerdict::Completed(outcome.clone());
                trace_job_verdict(tracer, job, &verdict);
                crate::chaos::attribute_verdict(tracer, &cfg.fault_plan, job, &verdict);
                cp.outcomes.insert(job, outcome);
                if state.in_flight == Some(job) {
                    state.in_flight = None;
                }
                state.completed_since_spawn += 1;
                results_seen += 1;
                if results_seen.is_multiple_of(every) {
                    let _ = cp.save(&scfg.checkpoint);
                }
            }
            Note::Msg(WorkerMsg::Quarantine { record }) => {
                let job = record.job;
                let verdict = JobVerdict::Quarantined(record.clone());
                trace_job_verdict(tracer, job, &verdict);
                crate::chaos::attribute_verdict(tracer, &cfg.fault_plan, job, &verdict);
                if record.kind != FailureKind::Rejected {
                    cp.quarantined.insert(job, record);
                }
                if state.in_flight == Some(job) {
                    state.in_flight = None;
                }
                state.completed_since_spawn += 1;
                results_seen += 1;
                if results_seen.is_multiple_of(every) {
                    let _ = cp.save(&scfg.checkpoint);
                }
            }
            Note::Msg(WorkerMsg::Bye { stopped, .. }) => {
                state.said_bye = Some(stopped);
            }
            Note::Bad(e) => {
                // A worker speaking garbage is as untrustworthy as a dead
                // one: kill it and let the Eof path handle the crash.
                state.proto_error = Some(e);
                if let Some(guard) = &mut state.guard {
                    guard.kill();
                }
            }
            Note::Eof => {
                let status = state.guard.take().and_then(|mut g| g.reap());
                handle_exit(
                    shard, state, status, cfg, scfg, cp, extra, stats, &mut crash_counts, stopping,
                );
            }
        }
    }
}

/// Saves the merged checkpoint, spawns one worker process for `shard`, and
/// starts its stdout reader thread.
#[allow(clippy::too_many_arguments)]
fn spawn_shard(
    shard: usize,
    state: &mut ShardState,
    cfg: &CampaignCfg,
    scfg: &SuperviseCfg,
    cp: &mut Checkpoint,
    stats: &mut SuperviseStats,
    spawn: &mut dyn FnMut(usize) -> Command,
    tx: &mpsc::Sender<(usize, u64, Note)>,
) -> SbResult<()> {
    let tracer = &cfg.tracer;
    // Persist merged progress first: the child resumes from this file and
    // skips everything already covered.
    cp.save(&scfg.checkpoint)?;
    let mut command = spawn(shard);
    command.stdout(Stdio::piped()).stdin(Stdio::null());
    let mut child = command.spawn().map_err(|e| Error::Supervise {
        detail: format!("failed to spawn worker {shard}: {e}"),
    })?;
    let stdout = child.stdout.take().expect("stdout was piped");
    state.gen += 1;
    let gen = state.gen;
    let tx = tx.clone();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let note = match line {
                Ok(l) => match WorkerMsg::parse_line(&l) {
                    Ok(msg) => Note::Msg(msg),
                    Err(e) => Note::Bad(format!("{e} (line: {l:?})")),
                },
                Err(e) => Note::Bad(format!("stdout read error: {e}")),
            };
            let fatal = matches!(note, Note::Bad(_));
            if tx.send((shard, gen, note)).is_err() || fatal {
                break;
            }
        }
        let _ = tx.send((shard, gen, Note::Eof));
    });
    state.guard = Some(ChildGuard::new(child));
    state.phase = Phase::Running;
    state.last_msg = Instant::now();
    state.in_flight = None;
    state.completed_since_spawn = 0;
    state.said_bye = None;
    state.hb_killed = false;
    state.proto_error = None;
    let (action, detail) = if state.respawns == 0 {
        stats.spawns += 1;
        tracer.count(sb_obs::keys::SUPERVISE_SPAWNS, 1);
        ("spawn", format!("shard {shard}/{}", scfg.workers))
    } else {
        stats.respawns += 1;
        tracer.count(sb_obs::keys::SUPERVISE_RESPAWNS, 1);
        ("restart", format!("respawn #{}", state.respawns))
    };
    tracer.emit(&sb_obs::Event::Worker {
        t: tracer.now_us(),
        worker: shard as u64,
        action: action.into(),
        detail,
    });
    Ok(())
}

/// Classifies one worker death and decides the shard's next phase.
#[allow(clippy::too_many_arguments)]
fn handle_exit(
    shard: usize,
    state: &mut ShardState,
    status: Option<ExitStatus>,
    cfg: &CampaignCfg,
    scfg: &SuperviseCfg,
    cp: &mut Checkpoint,
    extra: &mut BTreeMap<usize, QuarantineRecord>,
    stats: &mut SuperviseStats,
    crash_counts: &mut BTreeMap<usize, u32>,
    stopping: bool,
) {
    let tracer = &cfg.tracer;
    let status_str = status.map_or_else(|| "unknown".to_owned(), |s| s.to_string());
    let clean = state.said_bye.is_some()
        && status.is_some_and(|s| s.success())
        && state.proto_error.is_none()
        && !state.hb_killed;
    let detail = if clean {
        match state.said_bye {
            Some(true) => "clean (stop file)".to_owned(),
            _ => "clean".to_owned(),
        }
    } else if let Some(e) = &state.proto_error {
        format!("protocol violation: {e}")
    } else if state.hb_killed {
        format!("killed after heartbeat timeout ({status_str})")
    } else {
        format!("crashed ({status_str})")
    };
    tracer.emit(&sb_obs::Event::Worker {
        t: tracer.now_us(),
        worker: shard as u64,
        action: "exit".into(),
        detail: detail.clone(),
    });

    if clean {
        // A worker that said bye without stopping but left work uncovered
        // disagrees with the supervisor about its shard; respawning is the
        // safe reconciliation (the child recomputes pending from the
        // freshly saved checkpoint).
        if !stopping && state.said_bye == Some(false) && state.remaining(cp, extra) > 0 {
            state.respawns += 1;
            state.phase = Phase::Backoff(
                Instant::now() + respawn_backoff(scfg, cfg.seed, shard, state.respawns),
            );
        } else {
            state.phase = Phase::Done;
        }
        return;
    }

    stats.crashes += 1;
    tracer.count(sb_obs::keys::SUPERVISE_CRASHES, 1);
    if let Some(job) = state.in_flight.take() {
        // Attribute scripted process faults: the worker printed the ledger
        // line before dying; the supervisor owns the trace counters. A
        // stall surfaces as a heartbeat kill, abort/exit as a plain crash.
        let site = if state.hb_killed && cfg.fault_plan.should_stall(job) {
            Some("proc.stall")
        } else if cfg.fault_plan.should_abort(job) {
            Some("proc.abort")
        } else if cfg.fault_plan.exit_code(job).is_some() {
            Some("proc.exit")
        } else {
            None
        };
        if let Some(site) = site {
            crate::chaos::count_fired(tracer, site, 1);
        }
        let count = crash_counts.entry(job).or_insert(0);
        *count += 1;
        if *count >= scfg.crash_budget && !cp.covers(job) {
            let record = QuarantineRecord {
                job,
                pmc: state.jobs.iter().find(|(j, _)| *j == job).map(|(_, id)| *id),
                attempts: *count,
                kind: FailureKind::Crash,
                chain: vec![
                    format!("worker process died while job {job} was in flight: {detail}"),
                    format!("crash budget ({}) exhausted", scfg.crash_budget),
                ],
            };
            trace_job_verdict(tracer, job, &JobVerdict::Quarantined(record.clone()));
            cp.quarantined.insert(job, record);
            let _ = cp.save(&scfg.checkpoint);
        }
    }
    if state.completed_since_spawn == 0 {
        state.instant_deaths += 1;
    } else {
        state.instant_deaths = 0;
    }

    let remaining: Vec<(usize, PmcId)> = state
        .jobs
        .iter()
        .copied()
        .filter(|(job, _)| !cp.covers(*job) && !extra.contains_key(job))
        .collect();
    if stopping || remaining.is_empty() {
        state.phase = Phase::Done;
    } else if state.instant_deaths >= scfg.max_instant_deaths {
        // Crash-loop circuit breaker: whatever is left of this shard is not
        // going to run. Report (but do not checkpoint) every remaining job,
        // so a resumed campaign retries them.
        tracer.emit(&sb_obs::Event::Worker {
            t: tracer.now_us(),
            worker: shard as u64,
            action: "give-up".into(),
            detail: format!(
                "{} consecutive instant deaths; abandoning {} job(s)",
                state.instant_deaths,
                remaining.len()
            ),
        });
        tracer.count(sb_obs::keys::SUPERVISE_GAVE_UP, 1);
        stats.shards_abandoned += 1;
        for (job, id) in remaining {
            let record = QuarantineRecord {
                job,
                pmc: Some(id),
                attempts: crash_counts.get(&job).copied().unwrap_or(0),
                kind: FailureKind::GaveUp,
                chain: vec![format!(
                    "shard {shard} abandoned after {} consecutive instant worker deaths (last: {detail})",
                    state.instant_deaths
                )],
            };
            trace_job_verdict(tracer, job, &JobVerdict::Quarantined(record.clone()));
            extra.insert(job, record);
        }
        state.phase = Phase::Done;
    } else {
        state.respawns += 1;
        state.phase = Phase::Backoff(
            Instant::now() + respawn_backoff(scfg, cfg.seed, shard, state.respawns),
        );
    }
}

/// Worker-side configuration (the hidden `--worker-shard` entrypoint).
#[derive(Clone, Debug)]
pub struct WorkerCfg {
    /// This worker's shard (0-based).
    pub shard: usize,
    /// Total shard count.
    pub of: usize,
    /// Heartbeat emission interval (the supervisor's timeout / 4 or so).
    pub heartbeat: Duration,
    /// Exit cleanly between jobs when this file exists.
    pub stop_file: Option<PathBuf>,
    /// Process-level fault injection (abort/exit/stall), fired *after* the
    /// `start` message so the supervisor can attribute the death.
    pub process_faults: FaultPlan,
}

/// Writes one protocol line to stdout, flushed immediately so the
/// supervisor sees it even if this process dies on the next instruction.
fn emit(msg: &WorkerMsg) {
    let mut line = msg.render();
    line.push('\n');
    let mut out = std::io::stdout().lock();
    let _ = out.write_all(line.as_bytes());
    let _ = out.flush();
}

/// Runs one shard of the campaign in this process, speaking the worker
/// protocol on stdout. Returns `Ok(true)` when it exited early because the
/// stop file appeared.
///
/// The job list is the deterministic shard `job % of == shard` of the
/// budgeted exemplars, minus whatever the resume checkpoint
/// (`cfg.resume_from`, saved by the supervisor immediately before this
/// spawn) already covers. Jobs run with the exact same seeds and retry
/// machinery as the in-process pool — [`run_one_job`] — so a merged
/// supervised report is bit-identical to a single-process run.
pub fn run_worker_shard(
    booted: &BootedKernel,
    corpus: &[Program],
    set: &PmcSet,
    exemplars: &[PmcId],
    cfg: &CampaignCfg,
    wcfg: &WorkerCfg,
) -> SbResult<bool> {
    if wcfg.of == 0 || wcfg.shard >= wcfg.of {
        return Err(Error::Supervise {
            detail: format!("bad worker shard {}/{}", wcfg.shard, wcfg.of),
        });
    }
    let budgeted: Vec<PmcId> = exemplars
        .iter()
        .copied()
        .take(cfg.max_tested_pmcs)
        .collect();
    let cp = load_or_begin_checkpoint(cfg, &budgeted)?;
    let jobs: Vec<(usize, PmcId)> = shard_jobs(&budgeted, wcfg.shard, wcfg.of)
        .into_iter()
        .filter(|(job, _)| !cp.covers(*job))
        .collect();
    emit(&WorkerMsg::Hello {
        shard: wcfg.shard,
        of: wcfg.of,
        pending: jobs.len(),
    });

    // The heartbeat thread keeps the supervisor satisfied through long
    // jobs. `silenced` models the stall fault; `finished` stops the thread
    // at shard end (best effort — a late heartbeat is ignored anyway).
    let silenced = Arc::new(AtomicBool::new(false));
    let finished = Arc::new(AtomicBool::new(false));
    {
        let silenced = silenced.clone();
        let finished = finished.clone();
        let interval = wcfg.heartbeat.max(Duration::from_millis(10));
        std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            if finished.load(Ordering::Relaxed) || silenced.load(Ordering::Relaxed) {
                break;
            }
            emit(&WorkerMsg::Heartbeat);
        });
    }

    // The worker's job config: process faults are the entrypoint's to fire
    // (below), and a worker must never write trace files of its own — the
    // supervisor emits all trace events from the merged stream.
    let mut job_cfg = cfg.clone();
    job_cfg.fault_plan = cfg.fault_plan.in_process();
    job_cfg.tracer = sb_obs::Tracer::disabled();

    let index = IncidentalIndex::build(set);
    let mut exec = Executor::new(2);
    let mut completed = 0usize;
    let mut stopped = false;
    // Satellite 2's worker-side flush guard: every result line is already
    // flushed as it is emitted, so a panic below loses only the in-flight
    // job; this guard makes the ordering explicit and re-raises.
    let ran = catch_unwind(AssertUnwindSafe(|| {
        for (job, id) in &jobs {
            if wcfg.stop_file.as_deref().is_some_and(Path::exists) {
                stopped = true;
                break;
            }
            emit(&WorkerMsg::Start { job: *job });
            // Process faults fire after `start` so the supervisor charges
            // the death to this job (and its crash budget makes progress).
            if wcfg.process_faults.should_abort(*job) {
                crate::chaos::fired("proc.abort", &format!("job {job}"));
                std::process::abort();
            }
            if let Some(code) = wcfg.process_faults.exit_code(*job) {
                crate::chaos::fired("proc.exit", &format!("job {job} code {code}"));
                std::process::exit(code);
            }
            if wcfg.process_faults.should_stall(*job) {
                crate::chaos::fired("proc.stall", &format!("job {job}"));
                silenced.store(true, Ordering::Relaxed);
                loop {
                    std::thread::sleep(Duration::from_secs(3600));
                }
            }
            match run_one_job(&mut exec, *job, *id, booted, corpus, set, &index, &job_cfg) {
                JobVerdict::Completed(outcome) => emit(&WorkerMsg::Done { job: *job, outcome }),
                JobVerdict::Quarantined(record) => emit(&WorkerMsg::Quarantine { record }),
            }
            completed += 1;
        }
    }));
    finished.store(true, Ordering::Relaxed);
    if let Err(payload) = ran {
        let _ = std::io::stdout().lock().flush();
        std::panic::resume_unwind(payload);
    }
    emit(&WorkerMsg::Bye { completed, stopped });
    Ok(stopped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::PmcTestOutcome;
    use crate::checkpoint::outcome_to_json;

    fn outcome(job: usize) -> PmcTestOutcome {
        PmcTestOutcome {
            pmc: Some(job as PmcId + 100),
            pair: (1, 2),
            trials_run: 8,
            exercised: job.is_multiple_of(2),
            findings: vec![],
            steps: 100 + job as u64,
            first_finding_trial: None,
            repro_schedule: None,
            attempts: 1,
        }
    }

    fn done_line(job: usize) -> String {
        WorkerMsg::Done {
            job,
            outcome: outcome(job),
        }
        .render()
    }

    /// A /bin/sh "worker" that prints prepared protocol lines from a file
    /// and then runs `epilogue` (e.g. `exit 7`, `sleep 60`).
    fn fake_worker(dir: &Path, name: &str, lines: &[String], epilogue: &str) -> Command {
        let path = dir.join(name);
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let mut c = Command::new("/bin/sh");
        c.arg("-c")
            .arg(format!("cat '{}'; {epilogue}", path.display()));
        c
    }

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sb-supervise-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fast_cfg(dir: &Path, workers: usize) -> SuperviseCfg {
        SuperviseCfg {
            workers,
            heartbeat_timeout: Duration::from_millis(400),
            poll: Duration::from_millis(5),
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(4),
            crash_budget: 2,
            max_instant_deaths: 3,
            stop_file: None,
            checkpoint: dir.join("supervise.json"),
        }
    }

    #[test]
    fn shard_partition_is_round_robin_and_total() {
        let budgeted: Vec<PmcId> = (0..7).collect();
        let s0 = shard_jobs(&budgeted, 0, 3);
        let s1 = shard_jobs(&budgeted, 1, 3);
        let s2 = shard_jobs(&budgeted, 2, 3);
        assert_eq!(s0.iter().map(|(j, _)| *j).collect::<Vec<_>>(), vec![0, 3, 6]);
        assert_eq!(s1.iter().map(|(j, _)| *j).collect::<Vec<_>>(), vec![1, 4]);
        assert_eq!(s2.iter().map(|(j, _)| *j).collect::<Vec<_>>(), vec![2, 5]);
        assert_eq!(s0.len() + s1.len() + s2.len(), budgeted.len());
    }

    #[test]
    fn backoff_is_deterministic_grows_and_clamps() {
        let cfg = SuperviseCfg {
            backoff_base: Duration::from_millis(40),
            backoff_max: Duration::from_millis(200),
            ..SuperviseCfg::default()
        };
        let b1 = respawn_backoff(&cfg, 2021, 0, 1);
        let b2 = respawn_backoff(&cfg, 2021, 0, 2);
        let b9 = respawn_backoff(&cfg, 2021, 0, 9);
        assert_eq!(b1, respawn_backoff(&cfg, 2021, 0, 1), "pure function");
        assert!(b1 >= Duration::from_millis(40) && b1 <= Duration::from_millis(50));
        assert!(b2 >= Duration::from_millis(80) && b2 <= Duration::from_millis(100));
        assert!(b9 >= Duration::from_millis(200) && b9 <= Duration::from_millis(250), "{b9:?}");
        assert_ne!(
            respawn_backoff(&cfg, 2021, 0, 2),
            respawn_backoff(&cfg, 2021, 1, 2),
            "shards jitter independently"
        );
    }

    #[test]
    fn clean_workers_merge_into_a_complete_report() {
        let dir = test_dir("clean");
        let budgeted: Vec<PmcId> = (0..4).map(|i| i + 100).collect();
        let cfg = CampaignCfg::default();
        let scfg = fast_cfg(&dir, 2);
        let report = run_supervised(&budgeted, &cfg, &scfg, |shard| {
            let lines: Vec<String> = std::iter::once(
                WorkerMsg::Hello { shard, of: 2, pending: 2 }.render(),
            )
            .chain((0..4).filter(|j| j % 2 == shard).flat_map(|j| {
                [WorkerMsg::Start { job: j }.render(), done_line(j)]
            }))
            .chain(std::iter::once(
                WorkerMsg::Bye { completed: 2, stopped: false }.render(),
            ))
            .collect();
            fake_worker(&dir, &format!("w{shard}.txt"), &lines, "exit 0")
        })
        .expect("supervised run");
        assert_eq!(report.tested(), 4);
        assert!(report.quarantined.is_empty());
        assert_eq!(report.outcomes[0].steps, 100, "job order preserved");
        let stats = report.supervise.expect("supervise stats");
        assert_eq!(stats.spawns, 2);
        assert_eq!(stats.crashes, 0);
        assert_eq!(stats.respawns, 0);
        // The checkpoint on disk covers everything.
        let cp = Checkpoint::load(&scfg.checkpoint).unwrap();
        assert_eq!(cp.outcomes.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_charges_in_flight_job_then_breaker_abandons_shard() {
        let dir = test_dir("crash");
        let budgeted: Vec<PmcId> = (0..4).map(|i| i + 100).collect();
        let cfg = CampaignCfg::default();
        let scfg = fast_cfg(&dir, 2);
        // Shard 1 always announces job 1 and dies; shard 0 is clean.
        let report = run_supervised(&budgeted, &cfg, &scfg, |shard| {
            if shard == 0 {
                let lines = vec![
                    WorkerMsg::Hello { shard: 0, of: 2, pending: 2 }.render(),
                    WorkerMsg::Start { job: 0 }.render(),
                    done_line(0),
                    WorkerMsg::Start { job: 2 }.render(),
                    done_line(2),
                    WorkerMsg::Bye { completed: 2, stopped: false }.render(),
                ];
                fake_worker(&dir, "w0.txt", &lines, "exit 0")
            } else {
                let lines = vec![
                    WorkerMsg::Hello { shard: 1, of: 2, pending: 2 }.render(),
                    WorkerMsg::Start { job: 1 }.render(),
                ];
                fake_worker(&dir, "w1.txt", &lines, "exit 7")
            }
        })
        .expect("supervised run");
        assert_eq!(report.tested(), 2, "shard 0's jobs completed");
        // Job 1 crashed past its budget → Crash; job 3 was abandoned by the
        // circuit breaker → GaveUp.
        let kinds: BTreeMap<usize, FailureKind> = report
            .quarantined
            .iter()
            .map(|q| (q.job, q.kind))
            .collect();
        assert_eq!(kinds.get(&1), Some(&FailureKind::Crash));
        assert_eq!(kinds.get(&3), Some(&FailureKind::GaveUp));
        let stats = report.supervise.unwrap();
        assert_eq!(stats.crashes, 3, "budget 2 + breaker's third");
        assert_eq!(stats.respawns, 2);
        assert_eq!(stats.shards_abandoned, 1);
        // Crash is checkpointed (never retried); GaveUp is not (retried on
        // resume).
        let cp = Checkpoint::load(&scfg.checkpoint).unwrap();
        assert!(cp.quarantined.contains_key(&1));
        assert!(!cp.quarantined.contains_key(&3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn respawned_worker_resumes_from_checkpoint() {
        let dir = test_dir("respawn");
        let budgeted: Vec<PmcId> = (0..2).map(|i| i + 100).collect();
        let cfg = CampaignCfg::default();
        let scfg = fast_cfg(&dir, 1);
        let mut calls = 0usize;
        let report = run_supervised(&budgeted, &cfg, &scfg, |_| {
            calls += 1;
            if calls == 1 {
                // First life: finish job 0, then die with job 1 in flight.
                let lines = vec![
                    WorkerMsg::Hello { shard: 0, of: 1, pending: 2 }.render(),
                    WorkerMsg::Start { job: 0 }.render(),
                    done_line(0),
                    WorkerMsg::Start { job: 1 }.render(),
                ];
                fake_worker(&dir, "life1.txt", &lines, "exit 9")
            } else {
                // Second life: only job 1 is pending (job 0 is covered by
                // the checkpoint the supervisor saved before respawning).
                let lines = vec![
                    WorkerMsg::Hello { shard: 0, of: 1, pending: 1 }.render(),
                    WorkerMsg::Start { job: 1 }.render(),
                    done_line(1),
                    WorkerMsg::Bye { completed: 1, stopped: false }.render(),
                ];
                fake_worker(&dir, "life2.txt", &lines, "exit 0")
            }
        })
        .expect("supervised run");
        assert_eq!(calls, 2);
        assert_eq!(report.tested(), 2, "both jobs completed across lives");
        assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
        let stats = report.supervise.unwrap();
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.respawns, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn silent_worker_is_killed_and_charged() {
        let dir = test_dir("hb");
        let budgeted: Vec<PmcId> = vec![100];
        let cfg = CampaignCfg::default();
        let scfg = SuperviseCfg {
            heartbeat_timeout: Duration::from_millis(150),
            crash_budget: 1,
            max_instant_deaths: 1,
            ..fast_cfg(&dir, 1)
        };
        let lines = vec![
            WorkerMsg::Hello { shard: 0, of: 1, pending: 1 }.render(),
            WorkerMsg::Start { job: 0 }.render(),
        ];
        let report = run_supervised(&budgeted, &cfg, &scfg, |_| {
            // `exec` so the kill lands on the process holding the pipe.
            fake_worker(&dir, "stall.txt", &lines, "exec sleep 60")
        })
        .expect("supervised run");
        let stats = report.supervise.as_ref().unwrap();
        assert_eq!(stats.heartbeat_misses, 1);
        assert_eq!(stats.crashes, 1);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].kind, FailureKind::Crash);
        assert!(
            report.quarantined[0].chain[0].contains("heartbeat"),
            "{:?}",
            report.quarantined[0].chain
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_on_stdout_is_treated_as_a_crash() {
        let dir = test_dir("proto");
        let budgeted: Vec<PmcId> = vec![100];
        let cfg = CampaignCfg::default();
        let scfg = SuperviseCfg {
            crash_budget: 1,
            max_instant_deaths: 1,
            ..fast_cfg(&dir, 1)
        };
        let lines = vec!["this is not a protocol message".to_owned()];
        let report = run_supervised(&budgeted, &cfg, &scfg, |_| {
            fake_worker(&dir, "garbage.txt", &lines, "exec sleep 60")
        })
        .expect("supervised run");
        let stats = report.supervise.as_ref().unwrap();
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.shards_abandoned, 1, "instant death trips the breaker");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stop_file_ends_the_run_with_checkpoint_and_no_quarantines() {
        let dir = test_dir("stop");
        let budgeted: Vec<PmcId> = (0..2).map(|i| i + 100).collect();
        let cfg = CampaignCfg::default();
        let stop = dir.join("stop");
        let scfg = SuperviseCfg {
            stop_file: Some(stop.clone()),
            heartbeat_timeout: Duration::from_millis(100),
            ..fast_cfg(&dir, 1)
        };
        // The worker completes job 0 and then lingers; the stop file
        // appears (written up front) and the supervisor shuts down.
        std::fs::write(&stop, b"").unwrap();
        let lines = vec![
            WorkerMsg::Hello { shard: 0, of: 1, pending: 2 }.render(),
            WorkerMsg::Start { job: 0 }.render(),
            done_line(0),
        ];
        let report = run_supervised(&budgeted, &cfg, &scfg, |_| {
            fake_worker(&dir, "stop.txt", &lines, "exec sleep 60")
        })
        .expect("supervised run");
        let stats = report.supervise.as_ref().unwrap();
        assert!(stats.stopped);
        assert_eq!(stats.respawns, 0, "no respawns while stopping");
        assert!(
            report.quarantined.is_empty(),
            "stop-kills are not failures: {:?}",
            report.quarantined
        );
        assert_eq!(report.tested(), 1, "completed work is kept");
        // The resumable checkpoint covers job 0 and leaves job 1 pending.
        let cp = Checkpoint::load(&scfg.checkpoint).unwrap();
        assert!(cp.covers(0));
        assert!(!cp.covers(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_workers_is_a_campaign_level_error() {
        let scfg = SuperviseCfg {
            workers: 0,
            ..SuperviseCfg::default()
        };
        let err = run_supervised(&[1], &CampaignCfg::default(), &scfg, |_| {
            Command::new("/bin/true")
        })
        .unwrap_err();
        assert!(matches!(err, Error::Supervise { .. }));
    }

    #[test]
    fn unspawnable_worker_surfaces_a_supervise_error() {
        let dir = test_dir("nospawn");
        let scfg = fast_cfg(&dir, 1);
        let err = run_supervised(&[1], &CampaignCfg::default(), &scfg, |_| {
            Command::new("/nonexistent/sb-worker-binary")
        })
        .unwrap_err();
        assert!(matches!(err, Error::Supervise { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn done_outcome_wire_shape_matches_checkpoint_shape() {
        // The supervisor trusts this equivalence when merging.
        let o = outcome(3);
        let msg = WorkerMsg::Done { job: 3, outcome: o.clone() };
        let rendered = msg.render();
        assert!(rendered.contains(&outcome_to_json(3, &o).render()));
    }
}
