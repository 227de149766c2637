//! Concurrent test execution — Algorithm 2's driver loop (§4.4).
//!
//! For each selected PMC (in uncommon-first cluster order): pick one of its
//! test pairs at random, build a concurrent test with the PMC as the
//! scheduling hint, and run up to `NUMBER_OF_TRIALS` trials from the boot
//! snapshot under [`SnowboardSched`]. Each trial reseeds the scheduler
//! (`random.seed(SEED + trial)`), keeps the learned `flags`, feeds every
//! execution to the bug detectors, and opportunistically adds incidental
//! PMCs observed in the trial to the watch set (Algorithm 2 lines 26–27).
//!
//! That trial loop is [`run_trials`], the only one in the crate: the §6
//! three-thread tests ([`crate::multi`]) and Table 3's pairing baselines
//! ([`crate::baseline`]) call it with their own job lists and schedulers,
//! under the same oracles. Every trial runs under a [`RecordingSched`], so
//! the trial that finds a bug already holds its reproduction schedule.
//!
//! The driver is fault tolerant, because a campaign sized like the paper's
//! (days of wall clock across a worker fleet) will see individual jobs
//! fail. Per job: a [`Watchdog`] bounds steps and wall-clock time (overrun
//! → [`Error::Hang`]), worker panics are caught and classified, retryable
//! failures get up to [`RetryPolicy::max_attempts`] attempts with
//! exponential backoff and a deterministic per-attempt reseed
//! ([`crate::retry::reseed`] — attempt 0 keeps the historical seed, so
//! clean runs are bit-identical to pre-fault-tolerance builds), and jobs
//! that exhaust their budget land in [`CampaignReport::quarantined`] with a
//! full error chain instead of killing the campaign. Progress checkpoints
//! ([`CheckpointCfg`]) let a killed campaign resume without repeating
//! finished jobs, and a [`FaultPlan`] can inject panics, hangs, transient
//! errors, and queue closure at chosen job indices to exercise all of the
//! above deterministically.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

use sb_detect::{Finding, OracleCtx, OracleSet};
use sb_kernel::{BootedKernel, Program};
use sb_queue::{panic_message, run_jobs_fallible, JobError, PoolOpts};
use sb_vmm::access::AccessKind;
use sb_vmm::rng::Rng;
use sb_vmm::exec::ExecReport;
use sb_vmm::replay::{RecordingSched, Schedule};
use sb_vmm::sched::{DecisionObserver, RandomSched, Scheduler, SnowboardSched};
use sb_vmm::site::Site;
use sb_vmm::Executor;

use crate::checkpoint::{Checkpoint, CheckpointCfg};
use crate::error::{Error, FailureKind, SbResult};
use crate::fault::FaultPlan;
use crate::pmc::{Pmc, PmcId, PmcSet};
use crate::retry::{reseed, RetryPolicy};
use crate::triage::{triage, IssueRecord};
use crate::watchdog::{JobBudget, Watchdog};

/// Per-job seed stride: job `i` starts from `seed + i * STRIDE` (golden
/// ratio, so neighboring jobs land in unrelated parts of the seed space).
const JOB_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Campaign configuration.
#[derive(Clone, Debug)]
pub struct CampaignCfg {
    /// Base random seed.
    pub seed: u64,
    /// Maximum trials per PMC (the paper uses 64).
    pub trials_per_pmc: u32,
    /// Test budget: how many exemplar PMCs to execute.
    pub max_tested_pmcs: usize,
    /// Worker threads (each owns an executor — a "machine B").
    pub workers: usize,
    /// Stop a PMC's trials at the first detector finding.
    pub stop_on_finding: bool,
    /// Enable incidental-PMC pickup (Algorithm 2 lines 26–27).
    pub incidental: bool,
    /// Which selectable oracles analyze each trial. [`OracleSet::race_only`]
    /// reproduces the pre-oracle-subsystem pipeline bit for bit.
    pub oracles: OracleSet,
    /// Retry policy for transient job failures.
    pub retry: RetryPolicy,
    /// Per-job step/wall-clock budget enforced by the watchdog.
    pub budget: JobBudget,
    /// Periodic progress checkpointing; `None` disables it.
    pub checkpoint: Option<CheckpointCfg>,
    /// Resume from this checkpoint file: jobs it covers are not re-run.
    pub resume_from: Option<PathBuf>,
    /// Lenient resume (`--resume-or-fresh`): a missing, corrupt, or
    /// mismatched checkpoint logs a warning and starts fresh instead of
    /// aborting the campaign.
    pub resume_lenient: bool,
    /// Scripted fault injection (empty in production).
    pub fault_plan: FaultPlan,
    /// Force whole-memory (deep) snapshot clones per trial instead of the
    /// copy-on-write fast path. The two are semantically identical; this
    /// exists so benchmarks and equivalence tests can measure and pin the
    /// historical behavior.
    pub deep_snapshots: bool,
    /// Structured tracer; disabled by default. When enabled, the campaign
    /// emits one `job` event per resolved job, scheduler-decision counters
    /// at job boundaries, and watchdog/retry counters.
    pub tracer: sb_obs::Tracer,
}

impl Default for CampaignCfg {
    fn default() -> Self {
        CampaignCfg {
            seed: 2021,
            trials_per_pmc: 64,
            max_tested_pmcs: usize::MAX,
            workers: 4,
            stop_on_finding: true,
            incidental: true,
            oracles: OracleSet::default(),
            retry: RetryPolicy::default(),
            budget: JobBudget::default(),
            checkpoint: None,
            resume_from: None,
            resume_lenient: false,
            fault_plan: FaultPlan::default(),
            deep_snapshots: false,
            tracer: sb_obs::Tracer::disabled(),
        }
    }
}

/// The outcome of testing one concurrent test (one PMC or one baseline
/// pairing).
#[derive(Clone, Debug, PartialEq)]
pub struct PmcTestOutcome {
    /// The PMC under test (`None` for baseline pairings without hints).
    pub pmc: Option<PmcId>,
    /// The (writer test, reader test) pair executed.
    pub pair: (u32, u32),
    /// Trials actually run.
    pub trials_run: u32,
    /// Whether some trial actually exercised the predicted channel
    /// (write-before-read with value flow) — the §5.3.2 accuracy signal.
    pub exercised: bool,
    /// Detector findings, deduplicated within this test.
    pub findings: Vec<Finding>,
    /// Engine steps consumed across all trials (cost accounting).
    pub steps: u64,
    /// Trial index of the first finding, if any.
    pub first_finding_trial: Option<u32>,
    /// A recorded schedule that reproduces the first finding
    /// deterministically (replay with [`sb_vmm::replay::ReplaySched`]).
    pub repro_schedule: Option<Schedule>,
    /// Attempts it took to complete this job (1 = first try).
    pub attempts: u32,
}

/// A job that failed permanently and was set aside instead of aborting the
/// campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct QuarantineRecord {
    /// Campaign job index (position in the budgeted exemplar order).
    pub job: usize,
    /// The PMC the job was testing, if known.
    pub pmc: Option<PmcId>,
    /// Attempts consumed before quarantine (0 = never dispatched).
    pub attempts: u32,
    /// Failure classification.
    pub kind: FailureKind,
    /// Rendered error chain, outermost first.
    pub chain: Vec<String>,
}

/// Aggregated campaign results.
///
/// `PartialEq` is deliberate: equivalence tests pin entire reports
/// bit-identical across execution modes (copy-on-write vs deep snapshots,
/// supervised vs in-process).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CampaignReport {
    /// Per-test outcomes, in test order.
    pub outcomes: Vec<PmcTestOutcome>,
    /// Distinct issues discovered, in discovery order, triaged against the
    /// ground-truth registry.
    pub issues: Vec<IssueRecord>,
    /// Total engine steps across the campaign.
    pub total_steps: u64,
    /// Total executions (trials) across the campaign.
    pub executions: u64,
    /// Jobs that failed permanently, in job order. A non-empty list means
    /// the campaign completed *despite* failures, not that it failed.
    pub quarantined: Vec<QuarantineRecord>,
    /// Profile/PMC store counters, when the pipeline ran against a persistent
    /// store (`None` for in-memory runs).
    pub store: Option<crate::metrics::StoreStats>,
    /// Process-supervision counters, when the campaign ran under the
    /// multi-process supervisor (`None` for in-process runs).
    pub supervise: Option<crate::metrics::SuperviseStats>,
    /// Fleet-fabric counters, when the campaign ran under a TCP
    /// coordinator (`None` otherwise).
    pub fleet: Option<crate::metrics::FleetStats>,
}

impl CampaignReport {
    /// Number of concurrent tests executed.
    pub fn tested(&self) -> usize {
        self.outcomes.len()
    }

    /// Number of tests that exercised their predicted channel.
    pub fn exercised(&self) -> usize {
        self.outcomes.iter().filter(|o| o.exercised).count()
    }

    /// PMC accuracy (§5.3.2): exercised / tested.
    pub fn accuracy(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.exercised() as f64 / self.tested() as f64
        }
    }

    /// The distinct ground-truth bug ids found.
    pub fn bug_ids(&self) -> Vec<u8> {
        let mut ids: Vec<u8> = self.issues.iter().filter_map(|i| i.bug_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Post-dedup finding counts per oracle kind tag, across all outcomes
    /// (the `[detect]` summary and CI per-oracle assertions read this).
    pub fn finding_counts(&self) -> BTreeMap<&'static str, u64> {
        let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        for o in &self.outcomes {
            for f in &o.findings {
                *counts.entry(f.kind_tag()).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Findings that deduplicated to an already-known issue across the
    /// campaign: total per-outcome findings minus distinct issues.
    pub fn duplicate_findings(&self) -> u64 {
        let total: u64 = self.finding_counts().values().sum();
        total.saturating_sub(self.issues.len() as u64)
    }

    /// Quarantined-job counts per failure kind, for summary lines.
    pub fn quarantine_histogram(&self) -> Vec<(FailureKind, usize)> {
        let mut counts: BTreeMap<&'static str, (FailureKind, usize)> = BTreeMap::new();
        for q in &self.quarantined {
            counts.entry(q.kind.tag()).or_insert((q.kind, 0)).1 += 1;
        }
        counts.into_values().collect()
    }
}

/// Index from write-side instruction to PMC ids, used for fast incidental
/// PMC lookup during trials.
pub struct IncidentalIndex {
    by_write_site: HashMap<Site, Vec<PmcId>>,
}

impl IncidentalIndex {
    /// Builds the index over a PMC set.
    pub fn build(set: &PmcSet) -> Self {
        let mut by_write_site: HashMap<Site, Vec<PmcId>> = HashMap::new();
        for (id, p) in set.pmcs.iter().enumerate() {
            by_write_site
                .entry(p.key.w.ins)
                .or_default()
                .push(id as PmcId);
        }
        IncidentalIndex { by_write_site }
    }
}

/// Checks whether a trial trace exercised the PMC: a writer-thread write
/// matching the write side, followed by a reader-thread read matching the
/// read side that observed the written value over the overlap.
pub fn channel_exercised(trace: &[sb_vmm::Access], pmc: &Pmc) -> bool {
    let [hw, hr] = pmc.hints();
    let writes: Vec<&sb_vmm::Access> = trace
        .iter()
        .filter(|a| a.thread == 0 && hw.matches(a))
        .collect();
    if writes.is_empty() {
        return false;
    }
    trace
        .iter()
        .filter(|r| r.thread == 1 && hr.matches(r))
        .any(|r| {
            writes.iter().any(|w| {
                if w.seq >= r.seq {
                    return false;
                }
                match sb_vmm::access::range_overlap(w.addr, w.len, r.addr, r.len) {
                    Some((start, len)) => {
                        w.project_value(start, len) == r.project_value(start, len)
                    }
                    None => false,
                }
            })
        })
}

/// Scans a trial trace for PMCs (other than those already watched) whose
/// write *and* read sides both appeared, returning one at random.
fn find_incidental_pmc(
    trace: &[sb_vmm::Access],
    set: &PmcSet,
    index: &IncidentalIndex,
    watched: &mut HashSet<PmcId>,
    rng: &mut Rng,
) -> Option<PmcId> {
    const MAX_CANDIDATES: usize = 256;
    let mut candidates: Vec<PmcId> = Vec::new();
    let mut seen_sites = HashSet::new();
    for a in trace.iter().filter(|a| a.kind == AccessKind::Write) {
        if !seen_sites.insert(a.site) {
            continue;
        }
        if let Some(ids) = index.by_write_site.get(&a.site) {
            for id in ids {
                if candidates.len() >= MAX_CANDIDATES {
                    break;
                }
                if !watched.contains(id) {
                    candidates.push(*id);
                }
            }
        }
    }
    candidates.retain(|id| {
        let p = set.get(*id);
        let [hw, hr] = p.hints();
        trace.iter().any(|a| hw.matches(a)) && trace.iter().any(|a| hr.matches(a))
    });
    let pick = rng.choose(&candidates).copied();
    if let Some(id) = pick {
        watched.insert(id);
    }
    pick
}

/// A scheduler [`run_trials`] reseeds before every trial, as Algorithm 2's
/// `random.seed(SEED + trial)`.
pub(crate) trait TrialSched: Scheduler {
    /// Reseeds for the trial about to run.
    fn begin_trial(&mut self, seed: u64);
}

impl TrialSched for SnowboardSched {
    fn begin_trial(&mut self, seed: u64) {
        SnowboardSched::begin_trial(self, seed);
    }
}

impl TrialSched for RandomSched {
    fn begin_trial(&mut self, seed: u64) {
        RandomSched::begin_trial(self, seed);
    }
}

/// What [`run_trials`] gathered over one concurrent test's trials.
#[derive(Default)]
pub(crate) struct Trials {
    pub(crate) run: u32,
    pub(crate) steps: u64,
    pub(crate) exercised: bool,
    pub(crate) findings: Vec<Finding>,
    pub(crate) first_finding: Option<u32>,
    pub(crate) repro: Option<Schedule>,
}

impl Trials {
    /// The outcome of a two-program test of `pair` on its first attempt.
    pub(crate) fn outcome(self, pmc: Option<PmcId>, pair: (u32, u32)) -> PmcTestOutcome {
        PmcTestOutcome {
            pmc,
            pair,
            trials_run: self.run,
            exercised: self.exercised,
            findings: self.findings,
            steps: self.steps,
            first_finding_trial: self.first_finding,
            repro_schedule: self.repro,
            attempts: 1,
        }
    }
}

/// Corpus test `test`, or [`Error::BadTestId`].
pub(crate) fn fetch_test(corpus: &[Program], test: u32) -> SbResult<Program> {
    corpus.get(test as usize).cloned().ok_or(Error::BadTestId {
        test,
        corpus: corpus.len(),
    })
}

/// Runs the trials of one concurrent test: Algorithm 2's inner loop,
/// shared by PMC tests, three-thread tests and the pairing baselines,
/// which differ only in `programs` (one job each) and `sched`.
///
/// Up to `cfg.trials_per_pmc` times: clone the boot snapshot, reseed
/// `sched` with `seed + trial`, run the jobs under a [`RecordingSched`]
/// around it, and analyze the execution with one [`OracleCtx`] for the
/// whole test (the lock-rule miner accumulates support across trials).
/// New findings are deduplicated into the result, and the trial with the
/// first one hands over its recorded schedule as the repro. `after_trial`
/// sees the scheduler and report of every trial, and whether the loop
/// stops there (`cfg.stop_on_finding`); it answers whether the trial
/// exercised the tested channel.
///
/// The watchdog is checked between trials (the finest boundary that keeps
/// replays deterministic); an overrun aborts the test with [`Error::Hang`].
/// With `cfg.tracer` enabled, scheduler decisions and snapshot accounting
/// are published as counters when the test ends.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_trials<S: TrialSched>(
    exec: &mut Executor,
    booted: &BootedKernel,
    programs: &[Program],
    mut sched: S,
    seed: u64,
    cfg: &CampaignCfg,
    dog: &Watchdog,
    mut after_trial: impl FnMut(&mut S, &ExecReport, bool) -> bool,
) -> SbResult<Trials> {
    // Aggregate scheduler decisions in atomics; published as a handful of
    // counter events when the test ends — never one trace line per access.
    let decisions = Arc::new(sb_obs::CountingObserver::new());
    if cfg.tracer.enabled() {
        sched.set_observer(Some(decisions.clone() as Arc<dyn DecisionObserver>));
    }
    let mut out = Trials::default();
    let mut dedup = HashSet::new();
    let mut oracles = OracleCtx::new(cfg.oracles);
    // Snapshot accounting: how many times the boot image was cloned and
    // how many 4 KiB pages trials actually dirtied.
    let (mut snap_clones, mut snap_pages) = (0u64, 0u64);
    let publish = |clones: u64, pages: u64| {
        decisions.publish(&cfg.tracer);
        cfg.tracer.count(sb_obs::keys::SNAPSHOT_CLONES, clones);
        cfg.tracer.count(sb_obs::keys::SNAPSHOT_PAGES_COPIED, pages);
    };
    for trial in 0..cfg.trials_per_pmc {
        if let Some(overrun) = dog.check(out.steps) {
            publish(snap_clones, snap_pages);
            return Err(Error::Hang {
                steps: overrun.steps,
                elapsed: overrun.elapsed,
                trials_run: out.run,
                tripped: overrun.reason.tag(),
            });
        }
        sched.begin_trial(seed.wrapping_add(u64::from(trial)));
        // The copy-on-write clone is an Arc bump; the deep variant keeps
        // the historical full-image copy for benchmarks and tests.
        snap_clones += 1;
        let mem = if cfg.deep_snapshots {
            booted.snapshot.deep_clone()
        } else {
            booted.snapshot.clone()
        };
        let jobs = programs
            .iter()
            .map(|p| booted.kernel.process_job(p.clone()))
            .collect();
        let mut recorder = RecordingSched::new(&mut sched);
        let r = exec.try_run(mem, jobs, &mut recorder)?;
        let (schedule, _) = recorder.finish();
        snap_pages += r.mem.dirty_pages();
        out.run += 1;
        out.steps += r.report.steps;
        let mut found_new = false;
        for f in oracles.analyze_traced(&r.report, &cfg.tracer) {
            if dedup.insert(f.dedup_key()) {
                out.findings.push(f);
                found_new = true;
            }
        }
        if found_new && out.first_finding.is_none() {
            out.first_finding = Some(trial);
            out.repro = Some(schedule);
        }
        let stop = found_new && cfg.stop_on_finding;
        out.exercised |= after_trial(&mut sched, &r.report, stop);
        if stop {
            break;
        }
    }
    publish(snap_clones, snap_pages);
    Ok(out)
}

/// Tests one PMC: picks one of its test pairs and runs [`run_trials`]
/// under [`SnowboardSched`] with the PMC as the scheduling hint. After
/// each trial it checks whether the predicted channel was exercised and,
/// unless the test stops there, adds an incidental PMC the trial revealed
/// to the watch set (Algorithm 2 lines 26–27).
#[allow(clippy::too_many_arguments)]
pub fn test_one_pmc(
    exec: &mut Executor,
    booted: &BootedKernel,
    corpus: &[Program],
    set: &PmcSet,
    index: &IncidentalIndex,
    id: PmcId,
    seed: u64,
    cfg: &CampaignCfg,
    dog: &Watchdog,
) -> SbResult<PmcTestOutcome> {
    let pmc = set.get(id);
    let mut rng = Rng::seed_from_u64(seed);
    let pair = *rng
        .choose(&pmc.pairs)
        .ok_or(Error::EmptyPmc { pmc: id })?;
    let programs = [fetch_test(corpus, pair.0)?, fetch_test(corpus, pair.1)?];
    let sched = SnowboardSched::new(seed, pmc.hints());
    let mut watched: HashSet<PmcId> = [id].into_iter().collect();
    let trials = run_trials(exec, booted, &programs, sched, seed, cfg, dog, |sched, report, stop| {
        if cfg.incidental && !stop {
            if let Some(new_id) =
                find_incidental_pmc(&report.trace, set, index, &mut watched, &mut rng)
            {
                sched.add_pmc(set.get(new_id).hints());
            }
        }
        channel_exercised(&report.trace, pmc)
    })?;
    Ok(trials.outcome(Some(id), pair))
}

/// What one campaign job resolved to after all retry attempts.
#[derive(Clone, Debug)]
pub(crate) enum JobVerdict {
    /// The job completed and produced an outcome.
    Completed(PmcTestOutcome),
    /// The job failed permanently and was set aside.
    Quarantined(QuarantineRecord),
}

/// Runs one job to a verdict: attempt, classify, retry or quarantine.
///
/// `exec` is the worker's executor. It keeps no state between runs, so a
/// panicking or refused attempt leaves it usable for the retry.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_one_job(
    exec: &mut Executor,
    job: usize,
    id: PmcId,
    booted: &BootedKernel,
    corpus: &[Program],
    set: &PmcSet,
    index: &IncidentalIndex,
    cfg: &CampaignCfg,
) -> JobVerdict {
    let base_seed = cfg
        .seed
        .wrapping_add((job as u64).wrapping_mul(JOB_SEED_STRIDE));
    let mut attempts = 0u32;
    loop {
        let attempt = attempts;
        attempts += 1;
        if attempt > 0 {
            std::thread::sleep(cfg.retry.backoff_traced(attempt, &cfg.tracer));
        }
        let seed = reseed(base_seed, attempt);
        let result = catch_unwind(AssertUnwindSafe(|| -> SbResult<PmcTestOutcome> {
            if cfg.fault_plan.should_panic(job) {
                crate::chaos::fired("job.panic", &format!("job {job} attempt {attempt}"));
                panic!("fault injection: forced worker panic on job {job}");
            }
            if cfg.fault_plan.should_fail_transiently(job, attempt) {
                crate::chaos::fired("job.transient", &format!("job {job} attempt {attempt}"));
                return Err(Error::Injected { attempt });
            }
            let mut dog = Watchdog::start_traced(cfg.budget, &cfg.tracer);
            if cfg.fault_plan.should_hang(job) {
                crate::chaos::fired("job.hang", &format!("job {job} attempt {attempt}"));
                dog.force_expired();
            }
            test_one_pmc(exec, booted, corpus, set, index, id, seed, cfg, &dog)
        }));
        let err = match result {
            Ok(Ok(mut out)) => {
                out.attempts = attempts;
                return JobVerdict::Completed(out);
            }
            Ok(Err(e)) => e,
            Err(payload) => Error::WorkerPanic {
                message: panic_message(payload),
            },
        };
        if !err.is_retryable() || attempts >= cfg.retry.max_attempts {
            return JobVerdict::Quarantined(QuarantineRecord {
                job,
                pmc: Some(id),
                attempts,
                kind: err.failure_kind(),
                chain: err.chain(),
            });
        }
    }
}

/// Loads and validates the resume checkpoint from `cfg`, or begins a fresh
/// one. Shared by the in-process campaign and both sides of the
/// multi-process supervisor (which resumes workers from the supervisor's
/// own merged checkpoint).
pub(crate) fn load_or_begin_checkpoint(
    cfg: &CampaignCfg,
    budgeted: &[PmcId],
) -> SbResult<Checkpoint> {
    match &cfg.resume_from {
        Some(path) => {
            let loaded = Checkpoint::load(path)
                .and_then(|cp| cp.validate(cfg.seed, budgeted).map(|()| cp));
            match loaded {
                Ok(cp) => Ok(cp),
                Err(e) if cfg.resume_lenient => {
                    eprintln!(
                        "[campaign] warning: ignoring unusable checkpoint {}: {e} — starting fresh",
                        path.display()
                    );
                    Ok(Checkpoint::begin(cfg.seed, budgeted))
                }
                Err(e) => Err(e),
            }
        }
        None => Ok(Checkpoint::begin(cfg.seed, budgeted)),
    }
}

/// Emits the per-job trace record and counters for a resolved job —
/// identical whether the verdict arrived from an in-process pool worker or
/// over the supervisor's wire protocol, so supervised traces verify with
/// the same rules.
pub(crate) fn trace_job_verdict(tracer: &sb_obs::Tracer, job: usize, v: &JobVerdict) {
    match v {
        JobVerdict::Completed(out) => {
            tracer.emit(&sb_obs::Event::Job {
                t: tracer.now_us(),
                job: job as u64,
                trials: u64::from(out.trials_run),
                steps: out.steps,
                findings: out.findings.len() as u64,
                attempts: u64::from(out.attempts),
                quarantined: false,
            });
            tracer.count(sb_obs::keys::TRIALS, u64::from(out.trials_run));
            tracer.count(sb_obs::keys::TRIAL_STEPS, out.steps);
            tracer.count(sb_obs::keys::JOBS_COMPLETED, 1);
            // Per-oracle reported counts: `trace report` cross-checks their
            // sum against the job events' finding totals.
            let mut kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
            for f in &out.findings {
                *kinds.entry(f.kind_tag()).or_insert(0) += 1;
            }
            for (kind, n) in kinds {
                tracer.count(&sb_obs::keys::reported(kind), n);
            }
        }
        JobVerdict::Quarantined(q) => {
            tracer.emit(&sb_obs::Event::Job {
                t: tracer.now_us(),
                job: job as u64,
                trials: 0,
                steps: 0,
                findings: 0,
                attempts: u64::from(q.attempts),
                quarantined: true,
            });
            tracer.count(sb_obs::keys::JOBS_QUARANTINED, 1);
        }
    }
}

/// Emits the per-job trace records for verdicts a resumed campaign loaded
/// rather than ran (checkpoint, and for a fleet coordinator the replayed
/// journal suffix merged into it). The restored jobs are part of the final
/// summary, so their events must be in the trace for `trace report` to
/// balance — a resumed trace verifies under exactly the same rules as an
/// uninterrupted one.
pub(crate) fn trace_restored_verdicts(tracer: &sb_obs::Tracer, cp: &Checkpoint) {
    for (job, out) in &cp.outcomes {
        trace_job_verdict(tracer, *job, &JobVerdict::Completed(out.clone()));
    }
    for (job, q) in &cp.quarantined {
        trace_job_verdict(tracer, *job, &JobVerdict::Quarantined(q.clone()));
    }
}

/// Folds a pool-level result into a verdict. Pool-level failures are the
/// safety net: `run_one_job` already catches panics, so `JobError::Panic`
/// here means the machinery around it died; `Rejected` means the queue
/// closed before dispatch.
fn fold_pool_result(job: usize, id: PmcId, r: &Result<JobVerdict, JobError>) -> JobVerdict {
    match r {
        Ok(v) => v.clone(),
        Err(JobError::Rejected) => JobVerdict::Quarantined(QuarantineRecord {
            job,
            pmc: Some(id),
            attempts: 0,
            kind: FailureKind::Rejected,
            chain: Error::QueueClosed.chain(),
        }),
        Err(JobError::Panic { message }) => JobVerdict::Quarantined(QuarantineRecord {
            job,
            pmc: Some(id),
            attempts: 1,
            kind: FailureKind::Panic,
            chain: Error::WorkerPanic {
                message: message.clone(),
            }
            .chain(),
        }),
    }
}

/// Runs a full campaign over an ordered exemplar list.
///
/// Never aborts on per-job failure: jobs that exhaust their retry budget
/// appear in [`CampaignReport::quarantined`]. Returns `Err` only for
/// campaign-level problems — an unreadable/foreign resume checkpoint, or a
/// final checkpoint write failure.
pub fn run_campaign(
    booted: &BootedKernel,
    corpus: &[Program],
    set: &PmcSet,
    exemplars: &[PmcId],
    cfg: &CampaignCfg,
) -> SbResult<CampaignReport> {
    let budgeted: Vec<PmcId> = exemplars
        .iter()
        .copied()
        .take(cfg.max_tested_pmcs)
        .collect();
    let index = Arc::new(IncidentalIndex::build(set));
    let _campaign_span = cfg.tracer.span("campaign");

    let mut cp = load_or_begin_checkpoint(cfg, &budgeted)?;
    trace_restored_verdicts(&cfg.tracer, &cp);

    // Jobs the checkpoint does not already cover, as (job index, PMC id).
    let pending: Vec<(usize, PmcId)> = budgeted
        .iter()
        .copied()
        .enumerate()
        .filter(|(job, _)| !cp.covers(*job))
        .collect();
    let pending_meta: Vec<(usize, PmcId)> = pending.clone();

    // Map the fault plan's campaign-level queue-closure index onto the
    // pending job list the pool actually sees.
    let close_before = cfg.fault_plan.close_queue_before.and_then(|cut| {
        pending_meta.iter().position(|(job, _)| *job >= cut)
    });

    let every = cfg.checkpoint.as_ref().map_or(usize::MAX, |c| c.every.max(1));
    let ckpt_path = cfg.checkpoint.as_ref().map(|c| c.path.clone());
    let mut results_seen = 0usize;
    let on_result = {
        let cp = &mut cp;
        let pending_meta = &pending_meta;
        let ckpt_path = ckpt_path.clone();
        let results_seen = &mut results_seen;
        let tracer = cfg.tracer.clone();
        let fault_plan = cfg.fault_plan.clone();
        move |slot: usize, r: &Result<JobVerdict, JobError>| {
            let (job, id) = pending_meta[slot];
            let verdict = fold_pool_result(job, id, r);
            trace_job_verdict(&tracer, job, &verdict);
            crate::chaos::attribute_verdict(&tracer, &fault_plan, job, &verdict);
            match verdict {
                JobVerdict::Completed(out) => {
                    cp.outcomes.insert(job, out);
                }
                JobVerdict::Quarantined(q) => {
                    // Rejected jobs never ran; leave them out of the
                    // checkpoint so a resumed campaign retries them.
                    if q.kind != FailureKind::Rejected {
                        cp.quarantined.insert(job, q);
                    }
                }
            }
            *results_seen += 1;
            if results_seen.is_multiple_of(every) {
                if let Some(path) = &ckpt_path {
                    // Periodic saves are best effort; the final save below
                    // is the authoritative one and surfaces errors.
                    let _ = cp.save(path);
                }
            }
        }
    };

    let pool_results = run_jobs_fallible(
        pending,
        cfg.workers,
        || Executor::new(2),
        |exec, (job, id)| run_one_job(exec, job, id, booted, corpus, set, &index, cfg),
        PoolOpts {
            on_result: Some(Box::new(on_result)),
            close_before,
        },
    );

    if let Some(path) = &ckpt_path {
        cp.save(path)?;
    }

    // Rejected jobs are reported (they did not complete) even though they
    // are not checkpointed.
    let mut quarantined = cp.quarantined.clone();
    for (slot, r) in pool_results.iter().enumerate() {
        let (job, id) = pending_meta[slot];
        if let JobVerdict::Quarantined(q) = fold_pool_result(job, id, r) {
            quarantined.entry(q.job).or_insert(q);
        }
    }

    let outcomes: Vec<PmcTestOutcome> = cp.outcomes.values().cloned().collect();
    let mut report = aggregate(outcomes);
    report.quarantined = quarantined.into_values().collect();
    Ok(report)
}

/// Aggregates per-test outcomes into a campaign report (shared with the
/// baselines).
pub fn aggregate(outcomes: Vec<PmcTestOutcome>) -> CampaignReport {
    let mut report = CampaignReport::default();
    let mut seen = HashSet::new();
    let mut cumulative_steps = 0u64;
    for (i, o) in outcomes.iter().enumerate() {
        cumulative_steps += o.steps;
        report.executions += u64::from(o.trials_run);
        for f in &o.findings {
            if seen.insert(f.dedup_key()) {
                report.issues.push(IssueRecord {
                    bug_id: triage(f),
                    key: f.dedup_key(),
                    example: f.clone(),
                    found_after_tests: i + 1,
                    found_after_steps: cumulative_steps,
                });
            }
        }
    }
    report.total_steps = cumulative_steps;
    report.outcomes = outcomes;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(
        pair: (u32, u32),
        trials: u32,
        steps: u64,
        exercised: bool,
        findings: Vec<Finding>,
    ) -> PmcTestOutcome {
        PmcTestOutcome {
            pmc: None,
            pair,
            trials_run: trials,
            exercised,
            findings,
            steps,
            first_finding_trial: None,
            repro_schedule: None,
            attempts: 1,
        }
    }

    #[test]
    fn aggregate_dedups_across_tests_and_keeps_discovery_order() {
        let race = Finding::DataRace {
            write_site: "cache_alloc_refill:stat_write".into(),
            other_site: "cache_alloc_refill:stat_read".into(),
            addr: 0x40,
        };
        let panic = Finding::KernelPanic {
            msg: "BUG: kernel NULL pointer dereference at bh_lock_sock:acquire".into(),
        };
        let report = aggregate(vec![
            outcome((0, 1), 4, 100, true, vec![race.clone()]),
            outcome((2, 3), 4, 100, false, vec![race.clone(), panic.clone()]),
            outcome((4, 5), 4, 100, false, vec![panic]),
        ]);
        assert_eq!(report.issues.len(), 2, "duplicates collapse");
        assert_eq!(report.issues[0].bug_id, Some(13));
        assert_eq!(report.issues[0].found_after_tests, 1);
        assert_eq!(report.issues[1].bug_id, Some(12));
        assert_eq!(report.issues[1].found_after_tests, 2);
        assert_eq!(report.issues[1].found_after_steps, 200);
        assert_eq!(report.executions, 12);
        assert_eq!(report.total_steps, 300);
        assert_eq!(report.bug_ids(), vec![12, 13]);
        assert!((report.accuracy() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_campaign_reports_cleanly() {
        let report = aggregate(vec![]);
        assert_eq!(report.tested(), 0);
        assert_eq!(report.accuracy(), 0.0);
        assert!(report.bug_ids().is_empty());
        assert!(report.quarantined.is_empty());
    }

    #[test]
    fn pool_failures_fold_into_quarantine_records() {
        match fold_pool_result(4, 9, &Err(JobError::Rejected)) {
            JobVerdict::Quarantined(q) => {
                assert_eq!(q.job, 4);
                assert_eq!(q.pmc, Some(9));
                assert_eq!(q.attempts, 0, "rejected jobs never ran");
                assert_eq!(q.kind, FailureKind::Rejected);
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        match fold_pool_result(
            2,
            5,
            &Err(JobError::Panic {
                message: "boom".into(),
            }),
        ) {
            JobVerdict::Quarantined(q) => {
                assert_eq!(q.kind, FailureKind::Panic);
                assert!(q.chain[0].contains("boom"));
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
    }

    #[test]
    fn quarantine_histogram_groups_by_kind() {
        let mk = |job, kind| QuarantineRecord {
            job,
            pmc: None,
            attempts: 1,
            kind,
            chain: vec![],
        };
        let report = CampaignReport {
            quarantined: vec![
                mk(0, FailureKind::Panic),
                mk(1, FailureKind::Hang),
                mk(2, FailureKind::Panic),
            ],
            ..CampaignReport::default()
        };
        let hist = report.quarantine_histogram();
        assert!(hist.contains(&(FailureKind::Panic, 2)));
        assert!(hist.contains(&(FailureKind::Hang, 1)));
    }
}
