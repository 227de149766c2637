//! Bug oracles for concurrent executions.
//!
//! The paper wires "stock bug detectors" into the execution framework
//! (§3.1, §4.4.1): a kernel-console checker, a DataCollider-style data-race
//! detector, and liveness monitors. This crate implements them over the
//! engine's [`ExecReport`]s. The detectors are deliberately ignorant of the
//! planted-bug ground truth — triage against the registry happens downstream
//! (in `snowboard::triage`), mirroring the paper's separation between
//! detection and manual inspection.

pub mod atomicctx;
pub mod console;
pub mod lockrule;
pub mod race;
pub mod wakeup;

use sb_vmm::exec::{ExecReport, Outcome};

pub use atomicctx::detect_sleep_in_atomic;
pub use console::scan_console;
pub use lockrule::RuleMiner;
pub use race::{detect_races, RaceReport};
pub use wakeup::detect_missed_wakeups;

/// One raw detector finding from a single execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Finding {
    /// The kernel panicked (oops / page fault).
    KernelPanic {
        /// The console line describing the panic.
        msg: String,
    },
    /// An error-class console line short of a panic (fs errors, IO errors,
    /// WARN splats).
    ConsoleError {
        /// The offending console line.
        line: String,
    },
    /// A data race between two instruction sites.
    DataRace {
        /// Site name of one access (the write, when only one side writes).
        write_site: String,
        /// Site name of the other access.
        other_site: String,
        /// Address the racing accesses overlapped on.
        addr: u64,
    },
    /// Every live thread blocked.
    Deadlock,
    /// The execution exceeded its liveness budget.
    Livelock,
    /// An access site broke a mined lock-protection rule: the address is
    /// protected by `lock` in the large majority of accesses, but `site`
    /// touched it without holding that lock.
    LockRuleViolation {
        /// The violating access site.
        site: String,
        /// Display identity of the protecting lock.
        lock: String,
        /// The protected address (diagnostics; not part of the dedup key).
        addr: u64,
    },
    /// Two locks are acquired in both orders across the corpus — a latent
    /// ABBA deadlock.
    LockOrderInversion {
        /// Lexicographically smaller lock identity.
        first: String,
        /// Lexicographically larger lock identity.
        second: String,
    },
    /// A wakeup was delivered before its sleeper committed to sleeping, so
    /// the signal was lost and the sleeper timed out.
    MissedWakeup {
        /// Wait-queue identity (diagnostics; not part of the dedup key).
        queue: u64,
        /// The site that issued the lost wakeup.
        wake_site: String,
        /// The site whose sleep timed out.
        sleep_site: String,
    },
    /// A thread committed to sleeping while in atomic context.
    SleepInAtomic {
        /// The sleeping site.
        site: String,
        /// The innermost atomic-enter site.
        enter_site: String,
    },
}

impl Finding {
    /// A stable deduplication key: executions triggering the same underlying
    /// issue produce the same key.
    pub fn dedup_key(&self) -> String {
        match self {
            Finding::KernelPanic { msg } => format!("panic:{}", strip_numbers(msg)),
            Finding::ConsoleError { line } => format!("console:{}", strip_numbers(line)),
            Finding::DataRace {
                write_site,
                other_site,
                ..
            } => {
                // Unordered pair.
                let (a, b) = if write_site <= other_site {
                    (write_site, other_site)
                } else {
                    (other_site, write_site)
                };
                format!("race:{a}/{b}")
            }
            Finding::Deadlock => "deadlock".to_owned(),
            Finding::Livelock => "livelock".to_owned(),
            Finding::LockRuleViolation { site, lock, .. } => {
                format!("lockrule:{site}@{lock}")
            }
            Finding::LockOrderInversion { first, second } => {
                // Unordered pair (the constructor orders them, but keep the
                // key robust to hand-built findings).
                let (a, b) = if first <= second {
                    (first, second)
                } else {
                    (second, first)
                };
                format!("lockorder:{a}/{b}")
            }
            Finding::MissedWakeup { sleep_site, .. } => format!("wakeup:{sleep_site}"),
            Finding::SleepInAtomic { site, .. } => format!("sleepatomic:{site}"),
        }
    }

    /// Stable short tag for the finding's kind (metrics labels).
    pub fn kind_tag(&self) -> &'static str {
        match self {
            Finding::KernelPanic { .. } => "panic",
            Finding::ConsoleError { .. } => "console",
            Finding::DataRace { .. } => "race",
            Finding::Deadlock => "deadlock",
            Finding::Livelock => "livelock",
            Finding::LockRuleViolation { .. } => "lockrule",
            Finding::LockOrderInversion { .. } => "lockorder",
            Finding::MissedWakeup { .. } => "wakeup",
            Finding::SleepInAtomic { .. } => "sleepatomic",
        }
    }

    /// Every kind tag a finding can carry, in the canonical report order.
    pub const KIND_TAGS: &'static [&'static str] = &[
        "panic",
        "console",
        "race",
        "deadlock",
        "livelock",
        "lockrule",
        "lockorder",
        "wakeup",
        "sleepatomic",
    ];
}

/// Removes hex/decimal payloads from a console line so lines differing only
/// in addresses or counters dedup together.
fn strip_numbers(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut in_num = false;
    for c in s.chars() {
        if c.is_ascii_hexdigit() || c == 'x' && in_num {
            if !in_num {
                out.push('#');
                in_num = true;
            }
        } else {
            in_num = false;
            out.push(c);
        }
    }
    out
}

/// Which selectable oracles run over executions. The outcome-level oracles
/// (panic, console, deadlock, livelock) are not selectable — they always
/// run; this selects among the trace/sync-event analyses.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct OracleSet {
    /// The DataCollider-style data-race detector (the paper's stock set).
    pub race: bool,
    /// The LockDoc-style lock-rule miner (protection + acquisition order).
    pub lockrule: bool,
    /// The missed-wakeup detector.
    pub wakeup: bool,
    /// The sleeping-in-atomic oracle.
    pub atomic: bool,
}

impl Default for OracleSet {
    fn default() -> Self {
        Self::all()
    }
}

impl OracleSet {
    /// Every oracle enabled (the default).
    pub fn all() -> Self {
        OracleSet {
            race: true,
            lockrule: true,
            wakeup: true,
            atomic: true,
        }
    }

    /// Only the stock data-race detector: byte-identical behavior to the
    /// pipeline before the oracle subsystem existed.
    pub fn race_only() -> Self {
        OracleSet {
            race: true,
            lockrule: false,
            wakeup: false,
            atomic: false,
        }
    }

    /// True when this is exactly the stock (race-only) set.
    pub fn is_race_only(&self) -> bool {
        *self == Self::race_only()
    }

    /// Parses a selector spec: `all`, or a comma-separated subset of
    /// `race`, `lockrule`, `wakeup`, `atomic`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        if spec.trim() == "all" {
            return Ok(Self::all());
        }
        let mut set = OracleSet {
            race: false,
            lockrule: false,
            wakeup: false,
            atomic: false,
        };
        for part in spec.split(',') {
            match part.trim() {
                "race" => set.race = true,
                "lockrule" => set.lockrule = true,
                "wakeup" => set.wakeup = true,
                "atomic" => set.atomic = true,
                "" => return Err("empty oracle name".into()),
                other => {
                    return Err(format!(
                        "unknown oracle '{other}' (expected all, race, lockrule, wakeup, atomic)"
                    ))
                }
            }
        }
        Ok(set)
    }

    /// The canonical spec string [`OracleSet::parse`] round-trips.
    pub fn to_spec(&self) -> String {
        if *self == Self::all() {
            return "all".into();
        }
        let mut parts = Vec::new();
        if self.race {
            parts.push("race");
        }
        if self.lockrule {
            parts.push("lockrule");
        }
        if self.wakeup {
            parts.push("wakeup");
        }
        if self.atomic {
            parts.push("atomic");
        }
        parts.join(",")
    }
}

/// Per-job oracle state: the selected [`OracleSet`] plus the corpus-level
/// [`RuleMiner`] the lock-rule oracle accumulates across a job's trials.
///
/// This is the only analyzer. With [`OracleSet::race_only`] it is the
/// paper's stock set: outcome, console and data-race findings, in that
/// order, with no state carried between executions.
pub struct OracleCtx {
    /// The selected oracles.
    pub oracles: OracleSet,
    miner: RuleMiner,
}

impl OracleCtx {
    /// Creates oracle state for one campaign job.
    pub fn new(oracles: OracleSet) -> Self {
        OracleCtx {
            oracles,
            miner: RuleMiner::new(),
        }
    }

    /// Read access to the accumulated lock-rule corpus (diagnostics).
    pub fn miner(&self) -> &RuleMiner {
        &self.miner
    }

    /// Runs the selected oracles over one execution. Finding order is
    /// deterministic: outcome, console, races, then lock-rule violations
    /// (recomputed from the whole corpus so far), missed wakeups, and
    /// sleeps-in-atomic. Lock-rule findings for already-known rules repeat
    /// on every call — campaign-level dedup collapses them.
    pub fn analyze(&mut self, report: &ExecReport) -> Vec<Finding> {
        let mut findings = Vec::new();
        match &report.outcome {
            Outcome::Panic { msg } => findings.push(Finding::KernelPanic { msg: msg.clone() }),
            Outcome::Deadlock => findings.push(Finding::Deadlock),
            Outcome::Livelock => findings.push(Finding::Livelock),
            Outcome::Completed => {}
        }
        findings.extend(scan_console(&report.console));
        if self.oracles.race {
            for race in detect_races(&report.trace) {
                findings.push(Finding::DataRace {
                    write_site: race.write_site.display_name(),
                    other_site: race.other_site.display_name(),
                    addr: race.addr,
                });
            }
        }
        if self.oracles.lockrule {
            self.miner.observe(report);
            findings.extend(self.miner.violations());
        }
        if self.oracles.wakeup {
            findings.extend(detect_missed_wakeups(&report.sync_events));
        }
        if self.oracles.atomic {
            findings.extend(detect_sleep_in_atomic(&report.sync_events));
        }
        findings
    }

    /// [`OracleCtx::analyze`], counting raw hits as `detect.findings`.
    pub fn analyze_traced(&mut self, report: &ExecReport, tracer: &sb_obs::Tracer) -> Vec<Finding> {
        let findings = self.analyze(report);
        tracer.count(sb_obs::keys::FINDINGS, findings.len() as u64);
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_keys_ignore_addresses() {
        let a = Finding::KernelPanic {
            msg: "BUG: kernel NULL pointer dereference, address: 0x10 at l2tp".into(),
        };
        let b = Finding::KernelPanic {
            msg: "BUG: kernel NULL pointer dereference, address: 0x58 at l2tp".into(),
        };
        assert_eq!(a.dedup_key(), b.dedup_key());
    }

    #[test]
    fn dedup_keys_are_unordered_for_races() {
        let a = Finding::DataRace {
            write_site: "w:x".into(),
            other_site: "r:y".into(),
            addr: 1,
        };
        let b = Finding::DataRace {
            write_site: "r:y".into(),
            other_site: "w:x".into(),
            addr: 99,
        };
        assert_eq!(a.dedup_key(), b.dedup_key());
    }

    #[test]
    fn distinct_findings_have_distinct_keys() {
        let a = Finding::Deadlock;
        let b = Finding::Livelock;
        assert_ne!(a.dedup_key(), b.dedup_key());
    }

    #[test]
    fn oracle_finding_keys_are_stable_and_distinct() {
        let lr = Finding::LockRuleViolation {
            site: "vsock:poke".into(),
            lock: "vsock:lock".into(),
            addr: 0x2000,
        };
        let lr2 = Finding::LockRuleViolation {
            site: "vsock:poke".into(),
            lock: "vsock:lock".into(),
            addr: 0x9999,
        };
        assert_eq!(lr.dedup_key(), lr2.dedup_key(), "addr is diagnostics only");
        let inv = Finding::LockOrderInversion {
            first: "b:lock".into(),
            second: "a:lock".into(),
        };
        let inv2 = Finding::LockOrderInversion {
            first: "a:lock".into(),
            second: "b:lock".into(),
        };
        assert_eq!(inv.dedup_key(), inv2.dedup_key(), "pair is unordered");
        let mw = Finding::MissedWakeup {
            queue: 7,
            wake_site: "w".into(),
            sleep_site: "s".into(),
        };
        let sa = Finding::SleepInAtomic {
            site: "s".into(),
            enter_site: "e".into(),
        };
        let keys: std::collections::HashSet<String> =
            [&lr, &inv, &mw, &sa].iter().map(|f| f.dedup_key()).collect();
        assert_eq!(keys.len(), 4);
        assert_eq!(lr.kind_tag(), "lockrule");
        assert_eq!(inv.kind_tag(), "lockorder");
        assert_eq!(mw.kind_tag(), "wakeup");
        assert_eq!(sa.kind_tag(), "sleepatomic");
        for f in [&lr, &inv, &mw, &sa] {
            assert!(Finding::KIND_TAGS.contains(&f.kind_tag()));
        }
    }

    #[test]
    fn oracle_set_parse_round_trips() {
        assert_eq!(OracleSet::parse("all").unwrap(), OracleSet::all());
        assert_eq!(OracleSet::parse("race").unwrap(), OracleSet::race_only());
        let mixed = OracleSet::parse("race,wakeup").unwrap();
        assert!(mixed.race && mixed.wakeup && !mixed.lockrule && !mixed.atomic);
        assert_eq!(OracleSet::parse(&mixed.to_spec()).unwrap(), mixed);
        assert_eq!(OracleSet::all().to_spec(), "all");
        assert_eq!(
            OracleSet::parse("race,lockrule,wakeup,atomic").unwrap(),
            OracleSet::all()
        );
        assert!(OracleSet::parse("bogus").is_err());
        assert!(OracleSet::parse("race,,wakeup").is_err());
        assert!(OracleSet::race_only().is_race_only());
        assert!(!OracleSet::all().is_race_only());
    }

    #[test]
    fn race_only_oracle_ctx_matches_stock_analyze() {
        use sb_vmm::access::AccessKind;
        use sb_vmm::site;
        let mk = |seq, thread, name: &str, kind| sb_vmm::Access {
            seq,
            thread,
            site: site!(name),
            kind,
            addr: 0x2000,
            len: 8,
            value: 0,
            atomic: false,
            locks: vec![].into(),
            rcu_depth: 0,
        };
        let report = ExecReport {
            outcome: Outcome::Completed,
            console: vec!["EXT4-fs error (device sda): bad block".into()],
            trace: vec![
                mk(0, 0, "eq:w", AccessKind::Write),
                mk(1, 1, "eq:r", AccessKind::Read),
            ],
            sync_events: vec![],
            steps: 2,
            switches: 1,
            thread_faults: vec![None, None],
        };
        // The stock order: console error, then the data race.
        let stock = vec![
            Finding::ConsoleError {
                line: "EXT4-fs error (device sda): bad block".into(),
            },
            Finding::DataRace {
                write_site: "eq:w".into(),
                other_site: "eq:r".into(),
                addr: 0x2000,
            },
        ];
        let mut ctx = OracleCtx::new(OracleSet::race_only());
        assert_eq!(ctx.analyze(&report), stock);
        // Race-only analysis keeps no state between executions.
        assert_eq!(ctx.analyze(&report), stock);
    }
}
