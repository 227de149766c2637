//! Shared experiment plumbing for the table/figure regeneration binaries.
//!
//! Every binary honors the `SB_SCALE` environment variable:
//!
//! * `SB_SCALE=quick` (default) — minutes-scale runs that reproduce the
//!   *shape* of each result.
//! * `SB_SCALE=full` — larger corpora and budgets for tighter estimates.
//!
//! The experiment↔paper mapping is recorded in `DESIGN.md` §4 and results
//! are archived in `EXPERIMENTS.md`.

use snowboard::cluster::Strategy;
use snowboard::select::ClusterOrder;
use snowboard::{CampaignCfg, CampaignReport, Pipeline, PipelineCfg};

use sb_kernel::bugs;
use sb_kernel::KernelConfig;

/// Scaled experiment parameters.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Distilled corpus size target.
    pub corpus_target: usize,
    /// Fuzzing candidate budget.
    pub fuzz_budget: u64,
    /// Trials per concurrent test.
    pub trials: u32,
    /// Concurrent-test budget per strategy.
    pub max_tested: usize,
    /// Worker threads.
    pub workers: usize,
}

impl Scale {
    /// Reads the scale from `SB_SCALE` (quick/full).
    pub fn from_env() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get().clamp(2, 16))
            .unwrap_or(4);
        match std::env::var("SB_SCALE").as_deref() {
            Ok("full") => Scale {
                corpus_target: 250,
                fuzz_budget: 6_000,
                trials: 64,
                max_tested: 4_000,
                workers,
            },
            _ => Scale {
                corpus_target: 100,
                fuzz_budget: 1_500,
                trials: 24,
                max_tested: 800,
                workers,
            },
        }
    }

    /// The pipeline configuration for this scale.
    pub fn pipeline_cfg(&self, seed: u64) -> PipelineCfg {
        PipelineCfg {
            seed,
            corpus_target: self.corpus_target,
            fuzz_budget: self.fuzz_budget,
            workers: self.workers,
            ..PipelineCfg::default()
        }
    }

    /// The campaign configuration for this scale.
    pub fn campaign_cfg(&self, seed: u64) -> CampaignCfg {
        CampaignCfg {
            seed,
            trials_per_pmc: self.trials,
            max_tested_pmcs: self.max_tested,
            workers: self.workers,
            stop_on_finding: true,
            incidental: true,
            ..CampaignCfg::default()
        }
    }

    /// The configuration the Random/Duplicate pairing baselines run with:
    /// [`Scale::campaign_cfg`] (so the same oracles as the strategy rows)
    /// at a quarter of the trials per test.
    pub fn baseline_cfg(&self, seed: u64) -> CampaignCfg {
        CampaignCfg {
            trials_per_pmc: self.trials / 4,
            ..self.campaign_cfg(seed)
        }
    }
}

/// Prepares a pipeline for one kernel version at the given scale.
pub fn prepare(version: KernelConfig, scale: &Scale, seed: u64) -> Pipeline {
    eprintln!("[prep] booting {:?}, fuzzing corpus (target {})...", version.version, scale.corpus_target);
    let p = Pipeline::prepare(version, scale.pipeline_cfg(seed));
    eprintln!(
        "[prep] corpus {} tests, {} edges; {} shared accesses; {} PMCs ({:.1?} fuzz, {:.1?} profile, {:.1?} identify)",
        p.corpus.len(),
        p.stats.edges,
        p.stats.shared_accesses,
        p.stats.pmcs_identified,
        p.stats.fuzz_time,
        p.stats.profile_time,
        p.stats.identify_time,
    );
    p
}

/// Runs a single-strategy campaign.
pub fn run_strategy(
    p: &Pipeline,
    strategy: Strategy,
    order: ClusterOrder,
    scale: &Scale,
    seed: u64,
) -> CampaignReport {
    let exemplars = p.exemplars(strategy, order);
    let report = p
        .campaign(&exemplars, &scale.campaign_cfg(seed))
        .expect("benchmark campaign");
    if !report.quarantined.is_empty() {
        eprintln!(
            "[warn] {} quarantined job(s) excluded from {} results",
            report.quarantined.len(),
            strategy
        );
    }
    report
}

/// Formats the "issues found (days)" cell of Table 3: triaged bug ids with
/// week-normalized discovery times.
pub fn issues_cell(report: &CampaignReport) -> String {
    if report.total_steps == 0 {
        return "-".to_owned();
    }
    let mut cells: Vec<String> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for issue in &report.issues {
        if let Some(id) = issue.bug_id {
            if seen.insert(id) {
                let days = 7.0 * issue.found_after_steps as f64 / report.total_steps as f64;
                cells.push(format!("#{id} ({days:.1})"));
            }
        }
    }
    if cells.is_empty() {
        "-".to_owned()
    } else {
        cells.join(", ")
    }
}

/// Renders a ground-truth row label ("#12", bold-equivalent `*` for
/// harmful).
pub fn bug_label(id: u8) -> String {
    let b = bugs::by_id(id).expect("registry id");
    if b.harmful {
        format!("#{id}*")
    } else {
        format!("#{id}")
    }
}

/// Prints a text table with aligned columns.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_to_quick() {
        // Note: assumes SB_SCALE unset in the test environment.
        let s = Scale::from_env();
        assert!(s.trials >= 8);
        assert!(s.workers >= 2);
    }

    #[test]
    fn bug_labels_mark_harmful() {
        assert_eq!(bug_label(13), "#13");
        assert_eq!(bug_label(12), "#12*");
    }

    #[test]
    fn issues_cell_formats_days() {
        use sb_detect::Finding;
        use snowboard::triage::IssueRecord;
        let report = CampaignReport {
            outcomes: vec![],
            issues: vec![IssueRecord {
                bug_id: Some(13),
                key: "k".into(),
                example: Finding::Deadlock,
                found_after_tests: 1,
                found_after_steps: 100,
            }],
            total_steps: 700,
            executions: 1,
            quarantined: vec![],
            store: None,
            supervise: None,
            fleet: None,
        };
        assert_eq!(issues_cell(&report), "#13 (1.0)");
    }
}
