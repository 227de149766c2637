//! The tracer: hierarchical spans, counters/histograms, and event sinks.
//!
//! A [`Tracer`] is a cheap cloneable handle threaded through pipeline and
//! campaign configuration. The disabled tracer (the default) holds no
//! allocation at all — every emission method starts with an `is-None` check
//! and returns immediately, so instrumented hot paths cost one predictable
//! branch when tracing is off (the <5% bench-overhead budget).
//!
//! Enabled tracers write [`Event`]s to a [`Sink`]: [`JsonlSink`] appends
//! one JSON object per line to a file (the `hunt --trace-dir` path), and
//! [`MemorySink`] buffers lines for tests. Timestamps are monotonic
//! microseconds from the tracer's creation instant, so events from worker
//! threads interleave on one coherent clock.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::event::Event;

/// Well-known counter and histogram keys, grouped by pipeline stage.
///
/// Keys are plain strings in the event schema; these constants keep the
/// emission sites and the report reader agreeing on spelling.
pub mod keys {
    /// Sequential tests profiled successfully this run (store hits excluded).
    pub const PROFILES_OK: &str = "profile.ok";
    /// Sequential tests that failed to profile (panic / non-completion).
    pub const PROFILES_FAILED: &str = "profile.failed";
    /// Accesses kept by the `SharedAccessFilter` (potentially shared).
    pub const ACCESSES_KEPT: &str = "profile.accesses_kept";
    /// Accesses dropped by the stack filter.
    pub const ACCESSES_DROPPED: &str = "profile.accesses_dropped";
    /// Profiles entering stage 2 (cached + fresh) — funnel stage 1 output.
    pub const PIPELINE_PROFILES: &str = "pipeline.profiles";
    /// Shared accesses entering stage 2 — funnel input to identification.
    pub const PIPELINE_SHARED_ACCESSES: &str = "pipeline.shared_accesses";
    /// PMCs identified — funnel stage 2 output.
    pub const PIPELINE_PMCS: &str = "pipeline.pmcs";
    /// Read accesses indexed during identification.
    pub const PMC_READS_INDEXED: &str = "pmc.reads_indexed";
    /// Clusters induced by the selected strategy — funnel stage 3.
    pub const CLUSTERS: &str = "select.clusters";
    /// Exemplar PMCs selected for testing.
    pub const EXEMPLARS: &str = "select.exemplars";
    /// Histogram: members per cluster.
    pub const CLUSTER_SIZE: &str = "select.cluster_size";
    /// Concurrent trials executed.
    pub const TRIALS: &str = "campaign.trials";
    /// Engine steps consumed by campaign trials.
    pub const TRIAL_STEPS: &str = "campaign.steps";
    /// Boot-snapshot clones taken for trials (one per trial attempt).
    pub const SNAPSHOT_CLONES: &str = "snapshot.clones";
    /// 4 KiB pages copied out of the shared boot image by trial writes.
    pub const SNAPSHOT_PAGES_COPIED: &str = "snapshot.pages_copied";
    /// Jobs that completed with an outcome.
    pub const JOBS_COMPLETED: &str = "campaign.jobs_completed";
    /// Jobs quarantined after exhausting their retry budget.
    pub const JOBS_QUARANTINED: &str = "campaign.jobs_quarantined";
    /// Retry attempts beyond each job's first.
    pub const RETRIES: &str = "campaign.retries";
    /// Watchdog overruns observed.
    pub const WATCHDOG_FIRES: &str = "watchdog.fires";
    /// Voluntary preemptions granted by a scheduler.
    pub const SCHED_VOLUNTARY: &str = "sched.voluntary_preempts";
    /// Liveness-forced switches.
    pub const SCHED_FORCED: &str = "sched.forced_switches";
    /// Accesses matching a scheduling hint (flag, PMC range, or SKI site).
    pub const SCHED_HINT_HITS: &str = "sched.hint_hits";
    /// Next-thread picks.
    pub const SCHED_PICKS: &str = "sched.picks";
    /// Incidental PMCs added to the watch set mid-campaign.
    pub const INCIDENTAL_PMCS: &str = "sched.incidental_pmcs";
    /// Profiles served from the persistent store.
    pub const STORE_PROFILE_HITS: &str = "store.profile_hits";
    /// Profile lookups that missed the store.
    pub const STORE_PROFILE_MISSES: &str = "store.profile_misses";
    /// Store records found corrupt, truncated, or missing (quarantined).
    pub const STORE_RECORDS_DAMAGED: &str = "store.records_damaged";
    /// Damaged store records recomputed and rewritten.
    pub const STORE_RECORDS_HEALED: &str = "store.records_healed";
    /// Worker processes spawned by the campaign supervisor (initial spawns).
    pub const SUPERVISE_SPAWNS: &str = "supervise.spawns";
    /// Worker processes respawned after a death.
    pub const SUPERVISE_RESPAWNS: &str = "supervise.respawns";
    /// Worker deaths treated as crashes.
    pub const SUPERVISE_CRASHES: &str = "supervise.crashes";
    /// Workers killed for heartbeat silence.
    pub const SUPERVISE_HEARTBEAT_MISSES: &str = "supervise.heartbeat_misses";
    /// Shards abandoned by the crash-loop circuit breaker.
    pub const SUPERVISE_GAVE_UP: &str = "supervise.gave_up";
    /// Fleet workers admitted after a successful handshake.
    pub const FLEET_JOINS: &str = "fleet.joins";
    /// Fleet handshakes refused (version/config mismatch, draining).
    pub const FLEET_REJECTS: &str = "fleet.rejects";
    /// Non-empty job leases granted by the fleet coordinator.
    pub const FLEET_LEASES: &str = "fleet.leases";
    /// Fleet connections evicted (heartbeat timeout, unclean disconnect,
    /// protocol violation).
    pub const FLEET_EVICTIONS: &str = "fleet.evictions";
    /// Jobs returned to the fleet's pending pool after a lease expired or
    /// its holder was evicted (one increment per job).
    pub const FLEET_REASSIGNED: &str = "fleet.reassigned";
    /// Late results dropped by the first-`done`-wins merge rule.
    pub const FLEET_DUPLICATES: &str = "fleet.duplicates";
    /// Result frames flagged as spooled re-sends by reconnecting workers.
    pub const FLEET_REDELIVERED: &str = "fleet.spool.redelivered";
    /// Workers that re-registered with a known session token.
    pub const FLEET_SESSIONS_RESUMED: &str = "fleet.sessions.resumed";
    /// Coordinator write-ahead journal records appended (lease grants,
    /// result deliveries, lease releases).
    pub const FLEET_JOURNAL_RECORDS: &str = "fleet.journal.records";
    /// Result verdicts replayed from the journal at `serve --resume`.
    pub const FLEET_JOURNAL_REPLAYED: &str = "fleet.journal.replayed";
    /// Journal damage incidents (torn/corrupt suffix truncated, foreign
    /// file discarded, or an append failure that disabled journaling).
    pub const FLEET_JOURNAL_DAMAGED: &str = "fleet.journal.damaged";
    /// Outstanding leases rebuilt from the journal at `serve --resume`.
    pub const FLEET_LEASES_RESTORED: &str = "fleet.leases.restored";
    /// Detector findings (pre-dedup), all kinds.
    pub const FINDINGS: &str = "detect.findings";
    /// Prefix of the per-kind reported-finding counters: the full key is
    /// `detect.reported.<kind>` where `<kind>` is a finding kind tag.
    /// These count post-dedup findings attached to completed jobs, so
    /// their sum must equal the job events' `findings` total.
    pub const REPORTED_PREFIX: &str = "detect.reported.";

    /// The per-kind reported-finding counter key for one finding kind.
    pub fn reported(kind: &str) -> String {
        format!("{REPORTED_PREFIX}{kind}")
    }
    /// Total injected faults that actually fired in this process, across
    /// every chaos plane. Must equal the sum of all `chaos.fired.<site>`
    /// counters — `trace report` verifies the balance.
    pub const CHAOS_FIRED_TOTAL: &str = "chaos.fired.total";
    /// Prefix of the per-site chaos-fault counters: the full key is
    /// `chaos.fired.<site>` where `<site>` is an injection-site id such as
    /// `job.panic` or `disk.torn` (see `snowboard::chaos::SITES`).
    pub const CHAOS_FIRED_PREFIX: &str = "chaos.fired.";

    /// The per-site chaos counter key for one injection site.
    pub fn chaos_fired(site: &str) -> String {
        format!("{CHAOS_FIRED_PREFIX}{site}")
    }
}

/// Destination for rendered trace lines. Implementations must tolerate
/// concurrent emission from worker threads.
pub trait Sink: Send + Sync {
    /// Appends one rendered JSON line (without trailing newline).
    fn emit(&self, line: &str);
    /// Flushes buffered lines to their destination.
    fn flush(&self) {}
}

/// A sink buffering lines in memory, for tests and in-process reporting.
#[derive(Default)]
pub struct MemorySink {
    lines: Mutex<Vec<String>>,
}

impl MemorySink {
    /// Returns a copy of everything emitted so far.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("memory sink poisoned").clone()
    }
}

impl Sink for MemorySink {
    fn emit(&self, line: &str) {
        self.lines
            .lock()
            .expect("memory sink poisoned")
            .push(line.to_owned());
    }
}

/// An append-only JSONL file sink.
///
/// I/O failures (disk full, revoked permissions) must not abort the traced
/// run: the first failure prints one stderr warning and permanently
/// disables the sink — tracing degrades, the hunt continues.
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
    path: std::path::PathBuf,
    failed: AtomicBool,
}

impl JsonlSink {
    /// Opens `path` for appending, creating it (and missing parent
    /// directories) as needed.
    pub fn append(path: &Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JsonlSink {
            writer: Mutex::new(BufWriter::new(file)),
            path: path.to_path_buf(),
            failed: AtomicBool::new(false),
        })
    }

    /// True once a write failed and the sink disabled itself.
    pub fn failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }

    fn disable(&self, what: &str, e: &std::io::Error) {
        if !self.failed.swap(true, Ordering::Relaxed) {
            eprintln!(
                "[trace] warning: {what} {} failed ({e}); tracing disabled for the rest of the run",
                self.path.display()
            );
        }
    }
}

impl Sink for JsonlSink {
    fn emit(&self, line: &str) {
        if self.failed() {
            return;
        }
        let mut w = self.writer.lock().expect("jsonl sink poisoned");
        if let Err(e) = w
            .write_all(line.as_bytes())
            .and_then(|()| w.write_all(b"\n"))
        {
            self.disable("writing", &e);
        }
    }

    fn flush(&self) {
        if self.failed() {
            return;
        }
        if let Err(e) = self.writer.lock().expect("jsonl sink poisoned").flush() {
            self.disable("flushing", &e);
        }
    }
}

struct Inner {
    origin: Instant,
    next_span: AtomicU64,
    sink: Arc<dyn Sink>,
}

/// A cloneable tracing handle; see the module docs.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.inner.is_some() {
            "Tracer(enabled)"
        } else {
            "Tracer(disabled)"
        })
    }
}

impl Tracer {
    /// The no-op tracer: every emission is a single branch.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A tracer writing to an arbitrary sink.
    pub fn with_sink(sink: Arc<dyn Sink>) -> Self {
        Tracer {
            inner: Some(Arc::new(Inner {
                origin: Instant::now(),
                next_span: AtomicU64::new(1),
                sink,
            })),
        }
    }

    /// A tracer appending JSONL events to `path`.
    pub fn jsonl(path: &Path) -> std::io::Result<Self> {
        Ok(Tracer::with_sink(Arc::new(JsonlSink::append(path)?)))
    }

    /// A tracer buffering into a [`MemorySink`], returned alongside it.
    pub fn memory() -> (Self, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::default());
        (Tracer::with_sink(sink.clone()), sink)
    }

    /// True when events are actually recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since tracer creation (0 when disabled).
    pub fn now_us(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.origin.elapsed().as_micros() as u64)
    }

    /// Emits a pre-built event.
    pub fn emit(&self, event: &Event) {
        if let Some(inner) = &self.inner {
            inner.sink.emit(&event.to_json().render());
        }
    }

    /// Increments counter `key` by `n`. No event is emitted for `n == 0`,
    /// so callers can pass computed deltas unconditionally.
    pub fn count(&self, key: &str, n: u64) {
        if let Some(inner) = &self.inner {
            if n > 0 {
                let ev = Event::Count {
                    t: inner.origin.elapsed().as_micros() as u64,
                    key: key.to_owned(),
                    n,
                };
                inner.sink.emit(&ev.to_json().render());
            }
        }
    }

    /// Records one histogram observation for `key`.
    pub fn hist(&self, key: &str, v: u64) {
        if let Some(inner) = &self.inner {
            let ev = Event::Hist {
                t: inner.origin.elapsed().as_micros() as u64,
                key: key.to_owned(),
                v,
            };
            inner.sink.emit(&ev.to_json().render());
        }
    }

    /// Opens a root span. Dropping the returned guard closes it.
    pub fn span(&self, name: &'static str) -> Span {
        self.span_under(name, 0)
    }

    /// Opens a span under an explicit parent id (0 = root). This is how
    /// worker threads attach their spans to a driver-side parent without
    /// sharing the guard itself.
    pub fn span_under(&self, name: &'static str, parent: u64) -> Span {
        let Some(inner) = &self.inner else {
            return Span {
                tracer: Tracer::disabled(),
                id: 0,
                name,
                start_us: 0,
            };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let start_us = inner.origin.elapsed().as_micros() as u64;
        let ev = Event::SpanStart {
            t: start_us,
            span: id,
            parent,
            name: name.to_owned(),
        };
        inner.sink.emit(&ev.to_json().render());
        Span {
            tracer: self.clone(),
            id,
            name,
            start_us,
        }
    }

    /// Flushes the sink.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.flush();
        }
    }
}

/// An open span; closes (emits `span_end`) on drop.
pub struct Span {
    tracer: Tracer,
    id: u64,
    name: &'static str,
    start_us: u64,
}

impl Span {
    /// This span's id, for parenting spans across threads.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Opens a child span.
    pub fn child(&self, name: &'static str) -> Span {
        self.tracer.span_under(name, self.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = &self.tracer.inner {
            let t = inner.origin.elapsed().as_micros() as u64;
            let ev = Event::SpanEnd {
                t,
                span: self.id,
                name: self.name.to_owned(),
                dur: t.saturating_sub(self.start_us),
            };
            inner.sink.emit(&ev.to_json().render());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_emits_nothing_and_allocates_nothing() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.count(keys::TRIALS, 5);
        t.hist(keys::CLUSTER_SIZE, 1);
        let s = t.span("campaign");
        assert_eq!(s.id(), 0);
        drop(s.child("job"));
        t.flush();
    }

    #[test]
    fn memory_sink_captures_parseable_events_in_order() {
        let (t, sink) = Tracer::memory();
        assert!(t.enabled());
        {
            let root = t.span("campaign");
            let child = root.child("job");
            t.count(keys::TRIALS, 3);
            t.count(keys::TRIALS, 0); // zero increments are suppressed
            t.hist(keys::CLUSTER_SIZE, 7);
            drop(child);
        }
        let lines = sink.lines();
        let events: Vec<Event> = lines
            .iter()
            .map(|l| Event::parse_line(l).expect("valid line"))
            .collect();
        assert_eq!(events.len(), 6, "{lines:?}");
        match (&events[0], &events[1]) {
            (
                Event::SpanStart { span: root, parent: 0, name: n0, .. },
                Event::SpanStart { span: child, parent, name: n1, .. },
            ) => {
                assert_eq!(n0, "campaign");
                assert_eq!(n1, "job");
                assert_eq!(parent, root);
                assert_ne!(root, child);
            }
            other => panic!("unexpected head: {other:?}"),
        }
        assert!(matches!(&events[2], Event::Count { key, n: 3, .. } if key == keys::TRIALS));
        assert!(matches!(&events[3], Event::Hist { key, v: 7, .. } if key == keys::CLUSTER_SIZE));
        // Spans close inner-first.
        assert!(matches!(&events[4], Event::SpanEnd { name, .. } if name == "job"));
        assert!(matches!(&events[5], Event::SpanEnd { name, .. } if name == "campaign"));
    }

    #[test]
    fn clones_share_one_clock_and_span_space() {
        let (t, sink) = Tracer::memory();
        let t2 = t.clone();
        let a = t.span("a");
        let b = t2.span("b");
        assert_ne!(a.id(), b.id(), "span ids unique across clones");
        drop((a, b));
        assert_eq!(sink.lines().len(), 4);
    }

    /// A sink whose disk fills up degrades: one warning, then silence —
    /// never a panic or an error surfaced to the traced run.
    #[test]
    fn jsonl_sink_disables_itself_on_write_failure() {
        // /dev/full accepts opens but fails every flush with ENOSPC.
        let full = Path::new("/dev/full");
        if !full.exists() {
            return; // non-Linux fallback: nothing to exercise
        }
        let file = OpenOptions::new().append(true).open(full).expect("open /dev/full");
        let sink = JsonlSink {
            writer: Mutex::new(BufWriter::with_capacity(8, file)),
            path: full.to_path_buf(),
            failed: AtomicBool::new(false),
        };
        assert!(!sink.failed());
        // Small buffer forces the underlying write on the first long line.
        sink.emit("{\"t\":0,\"ev\":\"count\",\"key\":\"k\",\"n\":1}");
        sink.flush();
        assert!(sink.failed(), "ENOSPC must latch the failed flag");
        // Subsequent emits are no-ops, not panics.
        sink.emit("more");
        sink.flush();
    }

    #[test]
    fn jsonl_sink_appends_lines() {
        let dir = std::env::temp_dir().join(format!("sb-obs-jsonl-{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        let t = Tracer::jsonl(&path).expect("open");
        t.count(keys::TRIALS, 1);
        t.count(keys::TRIALS, 2);
        t.flush();
        let text = std::fs::read_to_string(&path).expect("read");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for l in lines {
            Event::parse_line(l).expect("valid");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
