//! Evaluation metrics: §5.3.2's accuracy/precision and §5.4's
//! interleavings-to-expose comparison between Snowboard and SKI.

use sb_kernel::{BootedKernel, Program};
use sb_vmm::sched::{RandomSched, Scheduler, SkiSched, SnowboardSched};
use sb_vmm::Executor;

use sb_detect::{Finding, OracleCtx, OracleSet};

use crate::pmc::{Pmc, PmcSet};

/// Which scheduler drives the interleaving search.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum SchedKind {
    /// Algorithm 2 with precise PMC hints and learned flags.
    Snowboard,
    /// SKI: yields at PMC *instructions* regardless of memory target.
    Ski,
    /// Unguided random preemption.
    Random,
}

impl std::fmt::Display for SchedKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedKind::Snowboard => write!(f, "Snowboard"),
            SchedKind::Ski => write!(f, "SKI"),
            SchedKind::Random => write!(f, "Random"),
        }
    }
}

/// Profile/PMC store effectiveness counters for one pipeline run.
///
/// Produced by `sb-store` (which depends on this crate, not vice versa) and
/// surfaced through `CampaignReport` and the CLI.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StoreStats {
    /// Sequential tests whose profile was served from the store.
    pub profile_hits: u64,
    /// Sequential tests that had to be re-profiled.
    pub profile_misses: u64,
    /// Of the hits, how many were cached *failures* (tests known not to
    /// complete sequentially — skipped without re-execution).
    pub failed_cached: u64,
    /// True when the PMC set was loaded whole from the store (exact corpus
    /// match) instead of being identified.
    pub pmc_cache_hit: bool,
    /// True when the PMC set was grown incrementally from a stored prefix
    /// index instead of rebuilt from scratch.
    pub pmc_incremental: bool,
    /// Segment files currently in the store.
    pub segments: u64,
    /// Total bytes across segment files.
    pub stored_bytes: u64,
    /// Address-range shards used for identification (1 = sequential path).
    pub shards: u64,
    /// Max-over-mean shard load during identification; 1.0 is perfectly
    /// balanced, 0.0 when no sharded join ran.
    pub shard_skew: f64,
    /// Records found corrupt, truncated, or missing this run and
    /// quarantined (served as misses instead of failing the campaign).
    pub records_damaged: u64,
    /// Of the damaged records, how many were recomputed and rewritten.
    pub records_healed: u64,
}

/// Converts a count over a wall-clock duration into an integer rate in
/// milli-units (events per second × 1000).
///
/// The `BENCH_*.json` perf snapshots keep every number an unsigned integer
/// so they round-trip exactly through the repo's u64-only JSON codec;
/// milli-resolution keeps three decimal places of the underlying rate.
pub fn per_sec_milli(count: u64, secs: f64) -> u64 {
    if secs <= 0.0 {
        return 0;
    }
    (count as f64 * 1000.0 / secs).round() as u64
}

/// Peak resident set size of this process in KiB (`VmHWM` from
/// `/proc/self/status`), or 0 when the proc filesystem is unavailable
/// (non-Linux hosts). A coarse memory-footprint proxy for perf snapshots.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

/// Schema identifier stamped into every `BENCH_*.json` document.
///
/// Bump the trailing version when a field is renamed or its unit changes;
/// adding fields is backward compatible (readers ignore unknown keys).
pub const BENCH_SCHEMA: &str = "snowboard.bench.v1";

/// One `BENCH_*.json` perf snapshot: the throughput trajectory of the
/// trial hot path, in a stable machine-readable schema.
///
/// Every numeric field is a `u64` so the document round-trips the repo's
/// u64-only JSON codec exactly; rates are stored in milli-units
/// (`x_per_sec_milli = x/sec × 1000`). Fields that a producer did not
/// measure (e.g. `hunt --bench-out` does not run the deep-copy campaign)
/// are left 0 and regression checks skip them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BenchSnapshot {
    /// Producer: `"bench-snapshots"` or `"hunt"`.
    pub source: String,
    /// Scale label (`"quick"` / `"full"`).
    pub scale: String,
    /// Campaign seed.
    pub seed: u64,
    /// Trials executed by the timed campaign (CoW path).
    pub trials: u64,
    /// Campaign trial throughput with CoW snapshots (milli-trials/sec).
    pub trials_per_sec_milli: u64,
    /// Campaign trial throughput with deep-copy snapshots forced
    /// (milli-trials/sec); 0 when not measured.
    pub deep_trials_per_sec_milli: u64,
    /// CoW-over-deep trial throughput ratio × 1000; 0 when not measured.
    pub speedup_milli: u64,
    /// Cost of one CoW snapshot clone of the boot image (nanoseconds).
    pub clone_cow_ns: u64,
    /// Cost of one deep (full-copy) clone of the boot image (nanoseconds).
    pub clone_deep_ns: u64,
    /// Sequential profiling throughput (milli-profiles/sec).
    pub profiles_per_sec_milli: u64,
    /// PMC identification throughput (milli-PMCs/sec).
    pub identify_pmcs_per_sec_milli: u64,
    /// Peak resident set size of the producing process (KiB; RSS proxy).
    pub peak_rss_kb: u64,
}

impl BenchSnapshot {
    /// Renders the snapshot as a JSON document (insertion-ordered keys).
    pub fn to_json(&self) -> sb_obs::json::Json {
        use sb_obs::json::Json;
        Json::Obj(vec![
            ("schema".into(), Json::Str(BENCH_SCHEMA.into())),
            ("source".into(), Json::Str(self.source.clone())),
            ("scale".into(), Json::Str(self.scale.clone())),
            ("seed".into(), Json::U64(self.seed)),
            ("trials".into(), Json::U64(self.trials)),
            (
                "trials_per_sec_milli".into(),
                Json::U64(self.trials_per_sec_milli),
            ),
            (
                "deep_trials_per_sec_milli".into(),
                Json::U64(self.deep_trials_per_sec_milli),
            ),
            ("speedup_milli".into(), Json::U64(self.speedup_milli)),
            ("clone_cow_ns".into(), Json::U64(self.clone_cow_ns)),
            ("clone_deep_ns".into(), Json::U64(self.clone_deep_ns)),
            (
                "profiles_per_sec_milli".into(),
                Json::U64(self.profiles_per_sec_milli),
            ),
            (
                "identify_pmcs_per_sec_milli".into(),
                Json::U64(self.identify_pmcs_per_sec_milli),
            ),
            ("peak_rss_kb".into(), Json::U64(self.peak_rss_kb)),
        ])
    }

    /// Parses a `BENCH_*.json` document, rejecting unknown schemas.
    pub fn from_json(doc: &sb_obs::json::Json) -> Result<Self, String> {
        let schema = doc
            .get("schema")
            .and_then(|v| v.as_str())
            .ok_or("missing \"schema\" field")?;
        if schema != BENCH_SCHEMA {
            return Err(format!(
                "unsupported bench schema {schema:?} (want {BENCH_SCHEMA:?})"
            ));
        }
        let s = |key: &str| {
            doc.get(key)
                .and_then(|v| v.as_str())
                .map(str::to_owned)
                .ok_or(format!("missing string field {key:?}"))
        };
        let n = |key: &str| {
            doc.get(key)
                .and_then(|v| v.as_u64())
                .ok_or(format!("missing integer field {key:?}"))
        };
        Ok(BenchSnapshot {
            source: s("source")?,
            scale: s("scale")?,
            seed: n("seed")?,
            trials: n("trials")?,
            trials_per_sec_milli: n("trials_per_sec_milli")?,
            deep_trials_per_sec_milli: n("deep_trials_per_sec_milli")?,
            speedup_milli: n("speedup_milli")?,
            clone_cow_ns: n("clone_cow_ns")?,
            clone_deep_ns: n("clone_deep_ns")?,
            profiles_per_sec_milli: n("profiles_per_sec_milli")?,
            identify_pmcs_per_sec_milli: n("identify_pmcs_per_sec_milli")?,
            peak_rss_kb: n("peak_rss_kb")?,
        })
    }

    /// Loads a snapshot from a `BENCH_*.json` file.
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        let doc = sb_obs::json::parse(&text)
            .map_err(|e| format!("parse {}: {e}", path.display()))?;
        Self::from_json(&doc)
    }

    /// Atomically writes the snapshot to `path` as single-line JSON.
    pub fn write(&self, path: &std::path::Path) -> Result<(), String> {
        let mut text = self.to_json().render();
        text.push('\n');
        sb_obs::json::atomic_write(path, &text)
            .map_err(|(op, p, e)| format!("{op} {}: {e}", p.display()))
    }

    /// Compares this run against a committed baseline: fails when CoW
    /// trial throughput dropped by more than `tolerance_pct` percent.
    ///
    /// Only `trials_per_sec_milli` gates — the other rates are recorded
    /// for trajectory plots but are too machine-sensitive to hard-fail on.
    pub fn check_regression(
        &self,
        baseline: &BenchSnapshot,
        tolerance_pct: u64,
    ) -> Result<(), String> {
        let floor = baseline.trials_per_sec_milli
            * (100u64.saturating_sub(tolerance_pct))
            / 100;
        if self.trials_per_sec_milli < floor {
            return Err(format!(
                "trials/sec regression: {} milli-trials/sec vs baseline {} \
                 (floor {} at {}% tolerance)",
                self.trials_per_sec_milli,
                baseline.trials_per_sec_milli,
                floor,
                tolerance_pct
            ));
        }
        Ok(())
    }
}

impl StoreStats {
    /// Fraction of profile lookups served from the store, in `[0, 1]`.
    /// Returns 0.0 when there were no lookups — a run that never consulted
    /// the store must not report a (vacuously) perfect hit rate.
    pub fn hit_rate(&self) -> f64 {
        let total = self.profile_hits + self.profile_misses;
        if total == 0 {
            0.0
        } else {
            self.profile_hits as f64 / total as f64
        }
    }
}

/// Process-supervision counters for one supervised campaign run.
///
/// Produced by [`crate::supervise::run_supervised`] and surfaced through
/// `CampaignReport::supervise` and the CLI's `[supervise]` summary line
/// (stderr, so supervised stdout stays byte-identical to a single-process
/// run).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SuperviseStats {
    /// Worker processes in the pool (shards).
    pub workers: u64,
    /// Initial worker spawns (== `workers` unless a shard had no work).
    pub spawns: u64,
    /// Respawns after a worker death.
    pub respawns: u64,
    /// Worker deaths treated as crashes (nonzero exit, signal, or
    /// heartbeat-timeout kill).
    pub crashes: u64,
    /// Workers killed for going silent past the heartbeat timeout.
    pub heartbeat_misses: u64,
    /// Shards abandoned by the crash-loop circuit breaker.
    pub shards_abandoned: u64,
    /// True when the run ended early because the stop file appeared.
    pub stopped: bool,
}

/// Fleet-fabric counters for one coordinated (`hunt serve`) campaign run.
///
/// Produced by [`crate::fleet::run_coordinator`] and surfaced through
/// `CampaignReport::fleet` and the CLI's `[fleet]` summary line (stderr,
/// so a fleet run's stdout stays byte-identical to a single-process run).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Workers admitted after a successful handshake (re-joins count).
    pub workers_joined: u64,
    /// Handshakes refused (protocol/config mismatch, or joining a
    /// draining coordinator).
    pub workers_rejected: u64,
    /// Non-empty job leases granted.
    pub leases_granted: u64,
    /// Connections forcibly closed by the coordinator (heartbeat timeout,
    /// unclean disconnect, or protocol violation).
    pub evictions: u64,
    /// Of the evictions, how many were for heartbeat silence.
    pub heartbeat_misses: u64,
    /// Jobs returned to the pending pool after a lease expired or its
    /// holder was evicted.
    pub jobs_reassigned: u64,
    /// Results for already-covered jobs, dropped by the first-`done`-wins
    /// merge rule (late delivery after reassignment).
    pub duplicate_results: u64,
    /// Jobs abandoned by the fleet-wide crash-loop circuit breaker.
    pub gave_up_jobs: u64,
    /// Result frames flagged as spooled re-sends by reconnecting workers
    /// (counted whether or not the verdict was already journaled).
    pub redelivered: u64,
    /// Workers that re-registered with a session token the coordinator
    /// already knew (from a live run or a journal replay).
    pub sessions_resumed: u64,
    /// Write-ahead journal records appended this run (lease grants,
    /// result deliveries, lease releases; the meta stamp is not counted).
    pub journal_records: u64,
    /// Result verdicts replayed from the journal at `--resume`.
    pub journal_replayed: u64,
    /// Journal damage incidents: a torn/corrupt suffix or foreign file
    /// discarded at open, or an append failure that disabled journaling.
    pub journal_damaged: u64,
    /// Outstanding leases rebuilt from the journal at `--resume`.
    pub leases_restored: u64,
    /// True when the run ended early because the stop file appeared.
    pub stopped: bool,
}

/// Result of an interleavings-to-expose measurement.
#[derive(Clone, Debug)]
pub struct ExposeResult {
    /// Interleavings (trials) executed until the predicate first held.
    pub interleavings: u32,
    /// Total engine steps consumed.
    pub steps: u64,
}

/// Runs trials under `kind` until `hit` returns true for some trial's
/// findings, or `max_trials` is exhausted.
///
/// This is the §5.4 experiment: for the bug-triggering concurrent tests,
/// SKI "requires 84 times more interleavings than Snowboard on average";
/// the gap comes solely from scheduling, which is exactly what varies here.
#[allow(clippy::too_many_arguments)]
pub fn interleavings_to_expose(
    exec: &mut Executor,
    booted: &BootedKernel,
    writer: &Program,
    reader: &Program,
    pmc: &Pmc,
    kind: SchedKind,
    seed: u64,
    max_trials: u32,
    hit: impl Fn(&[Finding]) -> bool,
) -> Option<ExposeResult> {
    let hints = pmc.hints();
    let mut snowboard = SnowboardSched::new(seed, hints);
    let mut ski = SkiSched::new(seed, hints.iter().map(|h| h.site));
    let mut random = RandomSched::new(seed, 0.005);
    // The stock oracles keep no state between executions, so one context
    // serves every trial.
    let mut oracles = OracleCtx::new(OracleSet::race_only());
    let mut steps = 0u64;
    for trial in 0..max_trials {
        let trial_seed = seed.wrapping_add(u64::from(trial));
        let sched: &mut dyn Scheduler = match kind {
            SchedKind::Snowboard => {
                snowboard.begin_trial(trial_seed);
                &mut snowboard
            }
            SchedKind::Ski => {
                ski.begin_trial(trial_seed);
                &mut ski
            }
            SchedKind::Random => {
                random.begin_trial(trial_seed);
                &mut random
            }
        };
        let r = exec.run(
            booted.snapshot.clone(),
            vec![
                booted.kernel.process_job(writer.clone()),
                booted.kernel.process_job(reader.clone()),
            ],
            sched,
        );
        steps += r.report.steps;
        let findings = oracles.analyze(&r.report);
        if hit(&findings) {
            return Some(ExposeResult {
                interleavings: trial + 1,
                steps,
            });
        }
    }
    None
}

/// Convenience predicate: any finding triaging to `bug_id`.
pub fn hits_bug(bug_id: u8) -> impl Fn(&[Finding]) -> bool {
    move |fs: &[Finding]| fs.iter().any(|f| crate::triage::triage(f) == Some(bug_id))
}

/// Aggregate statistics from a throughput measurement.
#[derive(Clone, Debug)]
pub struct ThroughputStats {
    /// Executions performed.
    pub executions: u32,
    /// Total engine steps.
    pub steps: u64,
    /// Total vCPU switches — the quantity §5.4 attributes SKI's slowdown
    /// to ("SKI's execution of more vCPU switches than Snowboard").
    pub switches: u64,
    /// Wall-clock time.
    pub elapsed: std::time::Duration,
}

/// Measures raw execution throughput for `n` concurrent executions of a
/// test pair under a given scheduler kind. Used by the §5.4 throughput
/// comparison.
#[allow(clippy::too_many_arguments)]
pub fn measure_throughput(
    exec: &mut Executor,
    booted: &BootedKernel,
    writer: &Program,
    reader: &Program,
    set_hints: &Pmc,
    kind: SchedKind,
    seed: u64,
    n: u32,
) -> ThroughputStats {
    let start = std::time::Instant::now();
    let mut steps = 0u64;
    let mut switches = 0u64;
    let hints = set_hints.hints();
    let mut snowboard = SnowboardSched::new(seed, hints);
    let mut ski = SkiSched::new(seed, hints.iter().map(|h| h.site));
    let mut random = RandomSched::new(seed, 0.005);
    for trial in 0..n {
        let trial_seed = seed.wrapping_add(u64::from(trial));
        let sched: &mut dyn Scheduler = match kind {
            SchedKind::Snowboard => {
                snowboard.begin_trial(trial_seed);
                &mut snowboard
            }
            SchedKind::Ski => {
                ski.begin_trial(trial_seed);
                &mut ski
            }
            SchedKind::Random => {
                random.begin_trial(trial_seed);
                &mut random
            }
        };
        let r = exec.run(
            booted.snapshot.clone(),
            vec![
                booted.kernel.process_job(writer.clone()),
                booted.kernel.process_job(reader.clone()),
            ],
            sched,
        );
        steps += r.report.steps;
        switches += r.report.switches;
    }
    ThroughputStats {
        executions: n,
        steps,
        switches,
        elapsed: start.elapsed(),
    }
}

/// Picks the PMC whose hint *instructions* dynamically touch the most
/// distinct addresses across the profiles — the worst case for SKI, which
/// yields at those instructions "regardless of memory targets" (§5.4),
/// and the representative case for the throughput comparison.
pub fn hottest_pmc<'a>(
    set: &'a PmcSet,
    profiles: &[crate::profile::SeqProfile],
) -> Option<(crate::pmc::PmcId, &'a Pmc)> {
    use std::collections::{HashMap, HashSet};
    let mut addrs_of_site: HashMap<sb_vmm::Site, HashSet<u64>> = HashMap::new();
    for p in profiles {
        for a in &p.accesses {
            addrs_of_site.entry(a.site).or_default().insert(a.addr);
        }
    }
    let score = |p: &Pmc| {
        let w = addrs_of_site.get(&p.key.w.ins).map(HashSet::len).unwrap_or(0);
        let r = addrs_of_site.get(&p.key.r.ins).map(HashSet::len).unwrap_or(0);
        w + r
    };
    set.pmcs
        .iter()
        .enumerate()
        .max_by_key(|(_, p)| score(p))
        .map(|(id, p)| (id as crate::pmc::PmcId, p))
}

/// Finds the PMC in `set` that best matches a (write-site, read-site)
/// function-name pair — a convenience for wiring known bugs to their PMC in
/// examples and benches.
pub fn find_pmc_by_sites<'a>(
    set: &'a PmcSet,
    write_fn: &str,
    read_fn: &str,
) -> Option<(crate::pmc::PmcId, &'a Pmc)> {
    set.pmcs.iter().enumerate().find_map(|(id, p)| {
        let w = p.key.w.ins.display_name();
        let r = p.key.r.ins.display_name();
        if w.starts_with(write_fn) && r.starts_with(read_fn) {
            Some((id as crate::pmc::PmcId, p))
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_with_zero_lookups_is_zero_not_perfect() {
        let stats = StoreStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate_divides_hits_by_lookups() {
        let stats = StoreStats {
            profile_hits: 3,
            profile_misses: 1,
            ..StoreStats::default()
        };
        assert!((stats.hit_rate() - 0.75).abs() < f64::EPSILON);
    }

    #[test]
    fn per_sec_milli_rounds_and_handles_zero_time() {
        assert_eq!(per_sec_milli(10, 2.0), 5_000);
        assert_eq!(per_sec_milli(1, 3.0), 333);
        assert_eq!(per_sec_milli(100, 0.0), 0);
    }

    #[test]
    fn peak_rss_is_nonzero_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kb() > 0);
        }
    }

    fn sample_snapshot() -> BenchSnapshot {
        BenchSnapshot {
            source: "bench-snapshots".into(),
            scale: "quick".into(),
            seed: 2021,
            trials: 480,
            trials_per_sec_milli: 12_000_000,
            deep_trials_per_sec_milli: 3_000_000,
            speedup_milli: 4_000,
            clone_cow_ns: 900,
            clone_deep_ns: 310_000,
            profiles_per_sec_milli: 5_000_000,
            identify_pmcs_per_sec_milli: 90_000_000,
            peak_rss_kb: 65_536,
        }
    }

    #[test]
    fn bench_snapshot_round_trips_through_json() {
        let snap = sample_snapshot();
        let text = snap.to_json().render();
        let back = BenchSnapshot::from_json(&sb_obs::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn bench_snapshot_rejects_wrong_schema_and_missing_fields() {
        let err = BenchSnapshot::from_json(
            &sb_obs::json::parse("{\"schema\":\"other.v9\"}").unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("unsupported bench schema"), "{err}");
        let err = BenchSnapshot::from_json(
            &sb_obs::json::parse(&format!("{{\"schema\":\"{BENCH_SCHEMA}\"}}")).unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn regression_check_gates_on_trial_throughput() {
        let baseline = sample_snapshot();
        let mut current = baseline.clone();
        // 20% drop passes a 25% band...
        current.trials_per_sec_milli = baseline.trials_per_sec_milli * 80 / 100;
        assert!(current.check_regression(&baseline, 25).is_ok());
        // ...a 30% drop fails it...
        current.trials_per_sec_milli = baseline.trials_per_sec_milli * 70 / 100;
        assert!(current.check_regression(&baseline, 25).is_err());
        // ...and other fields never gate.
        current.trials_per_sec_milli = baseline.trials_per_sec_milli;
        current.clone_cow_ns = baseline.clone_cow_ns * 100;
        current.peak_rss_kb = baseline.peak_rss_kb * 100;
        assert!(current.check_regression(&baseline, 25).is_ok());
    }
}
