//! Trace-file aggregation: per-stage wall clock and funnel attrition.
//!
//! [`TraceReport::from_lines`] schema-validates every line of a trace and
//! folds it into counters, histogram summaries, per-span wall-clock totals,
//! per-job totals, and the final summary event. [`TraceReport::verify`]
//! cross-checks the reconstruction against that summary — the funnel
//! counters and the job totals must agree *exactly* with what the run's
//! `CampaignReport` claimed, which is what the CI trace-validation job
//! enforces. [`TraceReport::render`] produces the human-readable output of
//! `snowboard-cli trace report`.

use std::collections::BTreeMap;

use crate::event::Event;
use crate::trace::keys;

/// Summary of one histogram key's observations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
}

impl HistSummary {
    fn observe(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }
}

/// Wall-clock totals for one span name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanSummary {
    /// Spans opened under this name.
    pub count: u64,
    /// Spans closed (a live trace may have opens without closes).
    pub closed: u64,
    /// Total duration across closed spans, microseconds.
    pub total_us: u64,
}

/// One job event's totals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSummary {
    /// Campaign job index.
    pub job: u64,
    /// Trials executed.
    pub trials: u64,
    /// Engine steps consumed.
    pub steps: u64,
    /// Distinct findings.
    pub findings: u64,
    /// Attempts consumed.
    pub attempts: u64,
    /// Quarantined instead of completed.
    pub quarantined: bool,
}

/// The funnel the trace reconstructs: counts surviving each pipeline stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Funnel {
    /// Sequential profiles (stage 1 output).
    pub profiles: u64,
    /// Shared accesses surviving the stack filter.
    pub shared_accesses: u64,
    /// PMCs identified (stage 2 output).
    pub pmcs: u64,
    /// Clusters induced by the strategy (stage 3).
    pub clusters: u64,
    /// Concurrent tests that completed (stage 4).
    pub jobs: u64,
    /// Trials executed.
    pub trials: u64,
}

/// Everything reconstructed from one trace file.
#[derive(Clone, Debug, Default)]
pub struct TraceReport {
    /// Total events parsed.
    pub events: usize,
    /// Final counter values, by key.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries, by key.
    pub hists: BTreeMap<String, HistSummary>,
    /// Per-span-name wall-clock totals.
    pub spans: BTreeMap<String, SpanSummary>,
    /// Per-job totals, in emission order.
    pub jobs: Vec<JobSummary>,
    /// Supervised-worker lifecycle action counts (`spawn`, `restart`,
    /// `exit`, `heartbeat-miss`, `give-up`), by action. Empty for
    /// single-process runs.
    pub worker_actions: BTreeMap<String, u64>,
    /// Fleet-worker lifecycle/lease action counts (`join`, `reject`,
    /// `lease`, `evict`, `reassign`, `duplicate`, `drain`, `give-up`), by
    /// action. Empty for non-fleet runs.
    pub fleet_actions: BTreeMap<String, u64>,
    /// The final summary event, if the run emitted one.
    pub summary: Option<Event>,
}

impl TraceReport {
    /// Parses and aggregates trace lines. Empty lines are skipped; any
    /// malformed or schema-violating line fails the whole report with its
    /// 1-based line number.
    pub fn from_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> Result<Self, String> {
        let mut r = TraceReport::default();
        for (i, line) in lines.into_iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let ev = Event::parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            r.events += 1;
            match ev {
                Event::SpanStart { ref name, .. } => {
                    r.spans.entry(name.clone()).or_default().count += 1;
                }
                Event::SpanEnd { ref name, dur, .. } => {
                    let s = r.spans.entry(name.clone()).or_default();
                    s.closed += 1;
                    s.total_us += dur;
                }
                Event::Count { ref key, n, .. } => {
                    *r.counters.entry(key.clone()).or_insert(0) += n;
                }
                Event::Hist { ref key, v, .. } => {
                    r.hists.entry(key.clone()).or_default().observe(v);
                }
                Event::Job { job, trials, steps, findings, attempts, quarantined, .. } => {
                    r.jobs.push(JobSummary { job, trials, steps, findings, attempts, quarantined });
                }
                Event::Worker { ref action, .. } => {
                    *r.worker_actions.entry(action.clone()).or_insert(0) += 1;
                }
                Event::Fleet { ref action, .. } => {
                    *r.fleet_actions.entry(action.clone()).or_insert(0) += 1;
                }
                Event::Summary { .. } => {
                    if r.summary.is_some() {
                        return Err(format!("line {}: duplicate summary event", i + 1));
                    }
                    r.summary = Some(ev);
                }
            }
        }
        Ok(r)
    }

    /// Reads and aggregates a trace file.
    pub fn from_file(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Self::from_lines(text.lines())
    }

    /// Total for one counter key (0 when never incremented).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// The funnel reconstructed from fine-grained events (counters and job
    /// events), independent of the summary event.
    pub fn funnel(&self) -> Funnel {
        Funnel {
            profiles: self.counter(keys::PIPELINE_PROFILES),
            shared_accesses: self.counter(keys::PIPELINE_SHARED_ACCESSES),
            pmcs: self.counter(keys::PIPELINE_PMCS),
            clusters: self.counter(keys::CLUSTERS),
            jobs: self.jobs.iter().filter(|j| !j.quarantined).count() as u64,
            trials: self.jobs.iter().map(|j| j.trials).sum(),
        }
    }

    /// Cross-checks the reconstruction against the summary event. Returns
    /// the list of mismatches (empty = consistent). Missing summary is
    /// itself a mismatch: a complete trace always ends with one.
    pub fn verify(&self) -> Vec<String> {
        let Some(Event::Summary {
            profiles,
            shared_accesses,
            pmcs,
            clusters,
            jobs,
            trials,
            steps,
            quarantined,
            ..
        }) = self.summary
        else {
            return vec!["no summary event found (incomplete trace?)".to_owned()];
        };
        let f = self.funnel();
        let job_steps: u64 = self.jobs.iter().map(|j| j.steps).sum();
        let job_quarantined = self.jobs.iter().filter(|j| j.quarantined).count() as u64;
        let mut mismatches = Vec::new();
        let mut check = |what: &str, reconstructed: u64, summary: u64| {
            if reconstructed != summary {
                mismatches.push(format!(
                    "{what}: events say {reconstructed}, summary says {summary}"
                ));
            }
        };
        check("profiles", f.profiles, profiles);
        check("shared_accesses", f.shared_accesses, shared_accesses);
        check("pmcs", f.pmcs, pmcs);
        check("clusters", f.clusters, clusters);
        check("jobs", f.jobs, jobs);
        check("trials", f.trials, trials);
        check("steps", job_steps, steps);
        check("quarantined", job_quarantined, quarantined);
        self.verify_detect(&mut mismatches);
        self.verify_snapshots(&mut mismatches);
        self.verify_supervision(&mut mismatches);
        self.verify_fleet(&mut mismatches);
        self.verify_chaos(&mut mismatches);
        mismatches
    }

    /// Cross-checks the `snapshot.*` counters against the job events.
    ///
    /// Every trial clones the boot snapshot exactly once and records its
    /// repro schedule in the same execution, so in a fault-free run
    /// `snapshot.clones` equals the trial total. It may exceed it — retried
    /// and hung attempts clone snapshots, but their quarantined job events
    /// count 0 trials — and it can never fall below it. Every completed
    /// trial dirties at least one page (threads write their stacks), so a
    /// run with trials must copy pages. Traces
    /// without snapshot counters pass vacuously — supervised and fleet
    /// campaigns aggregate job verdicts in the parent process, where the
    /// workers' per-job snapshot accounting is not visible.
    fn verify_snapshots(&self, mismatches: &mut Vec<String>) {
        let clones = self.counter(keys::SNAPSHOT_CLONES);
        if clones == 0 {
            return;
        }
        let trials: u64 = self.jobs.iter().map(|j| j.trials).sum();
        if clones < trials {
            mismatches.push(format!(
                "snapshot clones: counter says {clones}, but job events ran {trials} trials \
                 (each trial clones the snapshot once)"
            ));
        }
        if trials > 0 && self.counter(keys::SNAPSHOT_PAGES_COPIED) == 0 {
            mismatches.push(format!(
                "snapshot pages: {trials} trials ran but snapshot.pages_copied is 0 \
                 (every trial dirties at least its stack pages)"
            ));
        }
    }

    /// Per-oracle reported-finding counters (`detect.reported.<kind>`), by
    /// kind tag. Empty for traces predating the oracle subsystem.
    pub fn reported_findings(&self) -> BTreeMap<&str, u64> {
        self.counters
            .iter()
            .filter_map(|(k, v)| k.strip_prefix(keys::REPORTED_PREFIX).map(|kind| (kind, *v)))
            .collect()
    }

    /// Cross-checks the per-oracle `detect.reported.*` counters against the
    /// job events' finding totals: both count post-dedup findings on
    /// completed jobs, so their sums must agree exactly. Traces without any
    /// reported counter (runs predating the oracle subsystem, or runs with
    /// zero findings) pass vacuously.
    fn verify_detect(&self, mismatches: &mut Vec<String>) {
        let per_kind = self.reported_findings();
        if per_kind.is_empty() {
            return;
        }
        let reported: u64 = per_kind.values().sum();
        let job_findings: u64 = self.jobs.iter().map(|j| j.findings).sum();
        if reported != job_findings {
            mismatches.push(format!(
                "reported findings: detect.reported.* counters say {reported}, \
                 job events say {job_findings}"
            ));
        }
    }

    /// Cross-checks supervisor lifecycle events against the `supervise.*`
    /// counters. Only applies to supervised runs — a trace with neither
    /// worker events nor supervise counters passes vacuously.
    fn verify_supervision(&self, mismatches: &mut Vec<String>) {
        let action = |a: &str| self.worker_actions.get(a).copied().unwrap_or(0);
        let supervised = !self.worker_actions.is_empty()
            || self.counters.keys().any(|k| k.starts_with("supervise."));
        if !supervised {
            return;
        }
        let mut check = |what: &str, events: u64, counter: u64| {
            if events != counter {
                mismatches.push(format!(
                    "{what}: worker events say {events}, counter says {counter}"
                ));
            }
        };
        check("worker spawns", action("spawn"), self.counter(keys::SUPERVISE_SPAWNS));
        check("worker restarts", action("restart"), self.counter(keys::SUPERVISE_RESPAWNS));
        check(
            "worker heartbeat misses",
            action("heartbeat-miss"),
            self.counter(keys::SUPERVISE_HEARTBEAT_MISSES),
        );
        check("abandoned shards", action("give-up"), self.counter(keys::SUPERVISE_GAVE_UP));
        // Every process that started (spawn or restart) must have exited by
        // the time the trace completes — the no-orphans invariant.
        check("worker exits", action("exit"), action("spawn") + action("restart"));
    }

    /// Cross-checks fleet lifecycle events against the `fleet.*` counters.
    /// Only applies to coordinated runs — a trace with neither fleet events
    /// nor fleet counters passes vacuously.
    fn verify_fleet(&self, mismatches: &mut Vec<String>) {
        let action = |a: &str| self.fleet_actions.get(a).copied().unwrap_or(0);
        let fleet = !self.fleet_actions.is_empty()
            || self.counters.keys().any(|k| k.starts_with("fleet."));
        if !fleet {
            return;
        }
        let mut check = |what: &str, events: u64, counter: u64| {
            if events != counter {
                mismatches.push(format!(
                    "{what}: fleet events say {events}, counter says {counter}"
                ));
            }
        };
        check("fleet joins", action("join"), self.counter(keys::FLEET_JOINS));
        check("fleet rejects", action("reject"), self.counter(keys::FLEET_REJECTS));
        check("fleet leases", action("lease"), self.counter(keys::FLEET_LEASES));
        check("fleet evictions", action("evict"), self.counter(keys::FLEET_EVICTIONS));
        // Reassignments are emitted one event per job, so the event count
        // must equal the per-job counter exactly.
        check("fleet reassignments", action("reassign"), self.counter(keys::FLEET_REASSIGNED));
        check("fleet duplicates", action("duplicate"), self.counter(keys::FLEET_DUPLICATES));
        // Failover bookkeeping: redeliveries, session resumptions, and
        // restored leases each emit one event per counter increment, so a
        // resumed run's trace must still balance exactly.
        check("fleet redeliveries", action("redeliver"), self.counter(keys::FLEET_REDELIVERED));
        check(
            "fleet session resumptions",
            action("resume-session"),
            self.counter(keys::FLEET_SESSIONS_RESUMED),
        );
        check(
            "fleet lease restores",
            action("restore-lease"),
            self.counter(keys::FLEET_LEASES_RESTORED),
        );
    }

    /// Per-site injected-fault counters (`chaos.fired.<site>`), by site id.
    /// Empty for fault-free runs. The aggregate `chaos.fired.total` key is
    /// excluded — it is the checksum, not a site.
    pub fn chaos_fired(&self) -> BTreeMap<&str, u64> {
        self.counters
            .iter()
            .filter_map(|(k, v)| k.strip_prefix(keys::CHAOS_FIRED_PREFIX).map(|s| (s, *v)))
            .filter(|(site, _)| *site != "total")
            .collect()
    }

    /// Cross-checks the chaos-fault attribution counters: the sum of the
    /// per-site `chaos.fired.<site>` counters must equal the
    /// `chaos.fired.total` checksum, so a fault that fired without being
    /// attributed to a site (or vice versa) fails verification. Fault-free
    /// traces pass vacuously.
    fn verify_chaos(&self, mismatches: &mut Vec<String>) {
        let per_site = self.chaos_fired();
        let total = self.counter(keys::CHAOS_FIRED_TOTAL);
        if per_site.is_empty() && total == 0 {
            return;
        }
        let attributed: u64 = per_site.values().sum();
        if attributed != total {
            mismatches.push(format!(
                "chaos faults: per-site chaos.fired.* counters say {attributed}, \
                 chaos.fired.total says {total}"
            ));
        }
    }

    /// Renders the human-readable report: per-stage wall clock, funnel
    /// attrition, scheduler/store counters, and the verification verdict.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{} event(s)", self.events);
        if !self.spans.is_empty() {
            let _ = writeln!(out, "\nper-stage wall clock:");
            for (name, s) in &self.spans {
                let _ = writeln!(
                    out,
                    "  {name:<12} {:>10.3} ms across {} span(s)",
                    s.total_us as f64 / 1000.0,
                    s.closed
                );
            }
        }
        let f = self.funnel();
        let _ = writeln!(out, "\nfunnel:");
        let _ = writeln!(out, "  profiles        {:>10}", f.profiles);
        let _ = writeln!(out, "  shared accesses {:>10}", f.shared_accesses);
        let _ = writeln!(out, "  pmcs            {:>10}", f.pmcs);
        let _ = writeln!(out, "  clusters        {:>10}", f.clusters);
        let _ = writeln!(out, "  jobs            {:>10}", f.jobs);
        let _ = writeln!(out, "  trials          {:>10}", f.trials);
        let interesting = [
            keys::SCHED_HINT_HITS,
            keys::SCHED_VOLUNTARY,
            keys::SCHED_FORCED,
            keys::INCIDENTAL_PMCS,
            keys::STORE_PROFILE_HITS,
            keys::STORE_PROFILE_MISSES,
            keys::STORE_RECORDS_DAMAGED,
            keys::STORE_RECORDS_HEALED,
            keys::WATCHDOG_FIRES,
            keys::RETRIES,
            keys::SNAPSHOT_CLONES,
            keys::SNAPSHOT_PAGES_COPIED,
            keys::SUPERVISE_SPAWNS,
            keys::SUPERVISE_RESPAWNS,
            keys::SUPERVISE_CRASHES,
            keys::SUPERVISE_HEARTBEAT_MISSES,
            keys::SUPERVISE_GAVE_UP,
            keys::FLEET_JOINS,
            keys::FLEET_REJECTS,
            keys::FLEET_LEASES,
            keys::FLEET_EVICTIONS,
            keys::FLEET_REASSIGNED,
            keys::FLEET_DUPLICATES,
            keys::FLEET_REDELIVERED,
            keys::FLEET_SESSIONS_RESUMED,
            keys::FLEET_JOURNAL_RECORDS,
            keys::FLEET_JOURNAL_REPLAYED,
            keys::FLEET_JOURNAL_DAMAGED,
            keys::FLEET_LEASES_RESTORED,
            keys::FINDINGS,
        ];
        let shown: Vec<(&str, u64)> = interesting
            .iter()
            .filter_map(|k| self.counters.get(*k).map(|v| (*k, *v)))
            .collect();
        if !shown.is_empty() {
            let _ = writeln!(out, "\ncounters:");
            for (k, v) in shown {
                let _ = writeln!(out, "  {k:<28} {v:>10}");
            }
        }
        let reported = self.reported_findings();
        if !reported.is_empty() {
            let _ = writeln!(out, "\nfindings by oracle:");
            for (kind, n) in &reported {
                let _ = writeln!(out, "  {kind:<28} {n:>10}");
            }
        }
        let chaos = self.chaos_fired();
        if !chaos.is_empty() {
            let _ = writeln!(out, "\nchaos faults fired:");
            for (site, n) in &chaos {
                let _ = writeln!(out, "  {site:<28} {n:>10}");
            }
        }
        if !self.worker_actions.is_empty() {
            let _ = writeln!(out, "\nsupervised workers:");
            for (action, n) in &self.worker_actions {
                let _ = writeln!(out, "  {action:<28} {n:>10}");
            }
        }
        if !self.fleet_actions.is_empty() {
            let _ = writeln!(out, "\nfleet workers:");
            for (action, n) in &self.fleet_actions {
                let _ = writeln!(out, "  {action:<28} {n:>10}");
            }
        }
        for (k, h) in &self.hists {
            let _ = writeln!(
                out,
                "\n{k}: n={} min={} mean={:.1} max={}",
                h.count,
                h.min,
                if h.count == 0 { 0.0 } else { h.sum as f64 / h.count as f64 },
                h.max
            );
        }
        let mismatches = self.verify();
        if mismatches.is_empty() {
            let _ = writeln!(out, "\nverification: OK (events agree with the run summary)");
        } else {
            let _ = writeln!(out, "\nverification: FAILED");
            for m in &mismatches {
                let _ = writeln!(out, "  {m}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    fn traced_run() -> Vec<String> {
        let (t, sink) = Tracer::memory();
        {
            let root = t.span("campaign");
            let _job = root.child("job");
            t.count(keys::PIPELINE_PROFILES, 10);
            t.count(keys::PIPELINE_SHARED_ACCESSES, 500);
            t.count(keys::PIPELINE_PMCS, 40);
            t.count(keys::CLUSTERS, 6);
            t.hist(keys::CLUSTER_SIZE, 3);
            t.hist(keys::CLUSTER_SIZE, 9);
            t.emit(&Event::Job {
                t: t.now_us(),
                job: 0,
                trials: 24,
                steps: 1000,
                findings: 1,
                attempts: 1,
                quarantined: false,
            });
            t.emit(&Event::Job {
                t: t.now_us(),
                job: 1,
                trials: 8,
                steps: 400,
                findings: 0,
                attempts: 3,
                quarantined: true,
            });
        }
        t.emit(&Event::Summary {
            t: t.now_us(),
            profiles: 10,
            shared_accesses: 500,
            pmcs: 40,
            clusters: 6,
            jobs: 1,
            trials: 32,
            steps: 1400,
            findings: 1,
            quarantined: 1,
        });
        sink.lines()
    }

    #[test]
    fn reconstructs_funnel_and_verifies_against_summary() {
        let lines = traced_run();
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(
            r.funnel(),
            Funnel {
                profiles: 10,
                shared_accesses: 500,
                pmcs: 40,
                clusters: 6,
                jobs: 1,
                trials: 32,
            }
        );
        assert_eq!(r.hists[keys::CLUSTER_SIZE].max, 9);
        assert_eq!(r.spans["campaign"].closed, 1);
        assert!(r.verify().is_empty(), "{:?}", r.verify());
        let rendered = r.render();
        assert!(rendered.contains("verification: OK"), "{rendered}");
    }

    #[test]
    fn detects_summary_disagreement() {
        let mut lines = traced_run();
        // Tamper with a job event: drop 8 trials.
        let idx = lines.iter().position(|l| l.contains("\"job\":1")).unwrap();
        lines[idx] = lines[idx].replace("\"trials\":8", "\"trials\":0");
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        let mismatches = r.verify();
        assert!(mismatches.iter().any(|m| m.starts_with("trials:")), "{mismatches:?}");
        assert!(r.render().contains("verification: FAILED"));
    }

    #[test]
    fn missing_summary_is_a_verification_failure() {
        let mut lines = traced_run();
        lines.retain(|l| !l.contains("\"ev\":\"summary\""));
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(r.verify().len(), 1);
    }

    #[test]
    fn malformed_lines_fail_with_position() {
        let err = TraceReport::from_lines(["{\"t\":0,\"ev\":\"count\",\"key\":\"k\"}"]).unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let err = TraceReport::from_lines(["", "garbage"]).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn snapshot_counters_verify_against_job_trials() {
        let count = |key: &str, n: u64| {
            Event::Count { t: 0, key: key.into(), n }.to_json().render()
        };
        // Consistent: one clone per trial (32), and pages were copied; or
        // one more, cloned by an attempt that quarantined with 0 trials.
        for clones in [32, 33] {
            let mut lines = traced_run();
            lines.insert(0, count(keys::SNAPSHOT_CLONES, clones));
            lines.insert(1, count(keys::SNAPSHOT_PAGES_COPIED, 128));
            let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
            assert!(r.verify().is_empty(), "{:?}", r.verify());
        }

        // Fewer clones than trials is impossible: each trial clones once.
        let mut lines = traced_run();
        lines.insert(0, count(keys::SNAPSHOT_CLONES, 5));
        lines.insert(1, count(keys::SNAPSHOT_PAGES_COPIED, 128));
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        let mismatches = r.verify();
        assert!(
            mismatches.iter().any(|m| m.starts_with("snapshot clones:")),
            "{mismatches:?}"
        );

        // Trials that copied zero pages are impossible: stacks get written.
        let mut lines = traced_run();
        lines.insert(0, count(keys::SNAPSHOT_CLONES, 33));
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        let mismatches = r.verify();
        assert!(
            mismatches.iter().any(|m| m.starts_with("snapshot pages:")),
            "{mismatches:?}"
        );
    }

    #[test]
    fn traces_without_snapshot_counters_pass_vacuously() {
        // Supervised/fleet parents re-emit job verdicts but not the
        // workers' snapshot accounting; their traces must still verify.
        let lines = traced_run();
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(r.counter(keys::SNAPSHOT_CLONES), 0);
        assert!(r.verify().is_empty(), "{:?}", r.verify());
    }

    fn worker_line(action: &str, worker: u64) -> String {
        Event::Worker {
            t: 0,
            worker,
            action: action.into(),
            detail: String::new(),
        }
        .to_json()
        .render()
    }

    #[test]
    fn supervision_events_verify_against_counters() {
        let mut lines = traced_run();
        let count = |key: &str, n: u64| {
            Event::Count { t: 0, key: key.into(), n }.to_json().render()
        };
        lines.insert(0, worker_line("spawn", 0));
        lines.insert(1, worker_line("spawn", 1));
        lines.insert(2, worker_line("restart", 1));
        lines.insert(3, worker_line("heartbeat-miss", 1));
        lines.insert(4, worker_line("exit", 0));
        lines.insert(5, worker_line("exit", 1));
        lines.insert(6, worker_line("exit", 1));
        lines.insert(7, count(keys::SUPERVISE_SPAWNS, 2));
        lines.insert(8, count(keys::SUPERVISE_RESPAWNS, 1));
        lines.insert(9, count(keys::SUPERVISE_HEARTBEAT_MISSES, 1));
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(r.worker_actions["spawn"], 2);
        assert!(r.verify().is_empty(), "{:?}", r.verify());
        assert!(r.render().contains("supervised workers:"));
    }

    #[test]
    fn supervision_mismatches_are_detected() {
        // A spawn event with no matching exit: the no-orphans check trips.
        let mut lines = traced_run();
        lines.insert(0, worker_line("spawn", 0));
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        let mismatches = r.verify();
        assert!(
            mismatches.iter().any(|m| m.starts_with("worker exits:")),
            "{mismatches:?}"
        );
        assert!(
            mismatches.iter().any(|m| m.starts_with("worker spawns:")),
            "spawn counter missing: {mismatches:?}"
        );
    }

    fn fleet_line(action: &str, worker: u64) -> String {
        Event::Fleet {
            t: 0,
            worker,
            action: action.into(),
            detail: String::new(),
        }
        .to_json()
        .render()
    }

    #[test]
    fn fleet_events_verify_against_counters() {
        let mut lines = traced_run();
        let count = |key: &str, n: u64| {
            Event::Count { t: 0, key: key.into(), n }.to_json().render()
        };
        lines.insert(0, fleet_line("join", 0));
        lines.insert(1, fleet_line("join", 1));
        lines.insert(2, fleet_line("lease", 0));
        lines.insert(3, fleet_line("evict", 1));
        lines.insert(4, fleet_line("reassign", 1));
        lines.insert(5, fleet_line("reassign", 1));
        lines.insert(6, fleet_line("duplicate", 1));
        lines.insert(7, fleet_line("redeliver", 0));
        lines.insert(8, fleet_line("resume-session", 0));
        lines.insert(9, fleet_line("restore-lease", u64::MAX));
        lines.insert(10, count(keys::FLEET_JOINS, 2));
        lines.insert(11, count(keys::FLEET_LEASES, 1));
        lines.insert(12, count(keys::FLEET_EVICTIONS, 1));
        lines.insert(13, count(keys::FLEET_REASSIGNED, 2));
        lines.insert(14, count(keys::FLEET_DUPLICATES, 1));
        lines.insert(15, count(keys::FLEET_REDELIVERED, 1));
        lines.insert(16, count(keys::FLEET_SESSIONS_RESUMED, 1));
        lines.insert(17, count(keys::FLEET_LEASES_RESTORED, 1));
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(r.fleet_actions["reassign"], 2);
        assert!(r.verify().is_empty(), "{:?}", r.verify());
        assert!(r.render().contains("fleet workers:"));
    }

    #[test]
    fn fleet_mismatches_are_detected() {
        // An eviction event with no matching counter: the cross-check trips.
        let mut lines = traced_run();
        lines.insert(0, fleet_line("evict", 0));
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        let mismatches = r.verify();
        assert!(
            mismatches.iter().any(|m| m.starts_with("fleet evictions:")),
            "{mismatches:?}"
        );
    }

    #[test]
    fn fleet_redelivery_mismatches_are_detected() {
        // A redeliver event with no matching counter: a resumed run whose
        // failover bookkeeping drifted must fail verification.
        let mut lines = traced_run();
        lines.insert(0, fleet_line("redeliver", 0));
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        let mismatches = r.verify();
        assert!(
            mismatches.iter().any(|m| m.starts_with("fleet redeliveries:")),
            "{mismatches:?}"
        );
    }

    #[test]
    fn single_process_traces_skip_supervision_checks() {
        let lines = traced_run();
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        assert!(r.worker_actions.is_empty());
        assert!(r.fleet_actions.is_empty());
        assert!(r.verify().is_empty());
        assert!(!r.render().contains("supervised workers:"));
        assert!(!r.render().contains("fleet workers:"));
    }

    #[test]
    fn reported_finding_counters_verify_against_job_events() {
        let mut lines = traced_run();
        let count = |key: &str, n: u64| {
            Event::Count { t: 0, key: key.into(), n }.to_json().render()
        };
        // The completed job reported 1 finding; claim it was a data race.
        lines.insert(0, count(&keys::reported("race"), 1));
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(r.reported_findings().get("race"), Some(&1));
        assert!(r.verify().is_empty(), "{:?}", r.verify());
        assert!(r.render().contains("findings by oracle:"));
    }

    #[test]
    fn reported_finding_mismatches_are_detected() {
        let mut lines = traced_run();
        let count = |key: &str, n: u64| {
            Event::Count { t: 0, key: key.into(), n }.to_json().render()
        };
        // Claim 3 wakeup findings when the job events only account for 1.
        lines.insert(0, count(&keys::reported("wakeup"), 3));
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        let mismatches = r.verify();
        assert!(
            mismatches.iter().any(|m| m.starts_with("reported findings:")),
            "{mismatches:?}"
        );
    }

    #[test]
    fn traces_without_reported_counters_skip_the_detect_check() {
        // traced_run has a job with findings but no reported counters —
        // the shape of every pre-oracle trace.
        let lines = traced_run();
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        assert!(r.reported_findings().is_empty());
        assert!(r.verify().is_empty());
        assert!(!r.render().contains("findings by oracle:"));
    }

    #[test]
    fn duplicate_summary_rejected() {
        let mut lines = traced_run();
        let summary = lines.last().unwrap().clone();
        lines.push(summary);
        assert!(TraceReport::from_lines(lines.iter().map(String::as_str)).is_err());
    }
}
