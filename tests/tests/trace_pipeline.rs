//! End-to-end observability test: a traced hunt's event stream must
//! reconstruct to exactly the totals the pipeline and campaign report —
//! the same invariant `snowboard-cli trace report` enforces on JSONL files,
//! here exercised in-process through a memory sink.

use sb_kernel::KernelConfig;
use sb_obs::{Event, TraceReport, Tracer};
use snowboard::cluster::Strategy;
use snowboard::select::ClusterOrder;
use snowboard::{CampaignCfg, Pipeline, PipelineCfg};

#[test]
fn traced_hunt_reconstructs_to_report_totals() {
    let (tracer, sink) = Tracer::memory();
    let p = Pipeline::prepare(
        KernelConfig::v5_12_rc3(),
        PipelineCfg {
            seed: 7,
            corpus_target: 40,
            fuzz_budget: 400,
            workers: 2,
            tracer: tracer.clone(),
            ..PipelineCfg::default()
        },
    );
    let strategy = Strategy::SInsPair;
    let clusters = p.cluster_count(strategy);
    let exemplars = p.exemplars_traced(strategy, ClusterOrder::UncommonFirst, &tracer);
    let cfg = CampaignCfg {
        seed: 7,
        trials_per_pmc: 4,
        max_tested_pmcs: 40,
        workers: 2,
        stop_on_finding: true,
        incidental: true,
        tracer: tracer.clone(),
        ..CampaignCfg::default()
    };
    let report = p.campaign(&exemplars, &cfg).expect("campaign");
    tracer.emit(&Event::Summary {
        t: tracer.now_us(),
        profiles: p.profiles.len() as u64,
        shared_accesses: p.stats.shared_accesses as u64,
        pmcs: p.pmcs.len() as u64,
        clusters: clusters as u64,
        jobs: report.tested() as u64,
        trials: report.executions,
        steps: report.total_steps,
        findings: report.issues.len() as u64,
        quarantined: report.quarantined.len() as u64,
    });

    let lines = sink.lines();
    let tr = TraceReport::from_lines(lines.iter().map(String::as_str)).expect("parse trace");
    let mismatches = tr.verify();
    assert!(mismatches.is_empty(), "trace disagrees with run totals: {mismatches:?}");

    // The funnel reconstructed purely from fine-grained events must equal
    // the values the pipeline itself reports.
    let f = tr.funnel();
    assert_eq!(f.profiles, p.profiles.len() as u64);
    assert_eq!(f.shared_accesses, p.stats.shared_accesses as u64);
    assert_eq!(f.pmcs, p.pmcs.len() as u64);
    assert_eq!(f.clusters, clusters as u64);
    assert_eq!(f.jobs, report.tested() as u64);
    assert_eq!(f.trials, report.executions);

    // Scheduler decisions were observed: a hint-guided campaign with trials
    // must record preemption activity.
    assert!(
        tr.counter(sb_obs::keys::SCHED_HINT_HITS) + tr.counter(sb_obs::keys::SCHED_VOLUNTARY) > 0,
        "no scheduler decisions recorded"
    );
    // The finding trial records its own repro schedule, so a fault-free
    // run clones the boot snapshot exactly once per trial.
    assert!(report.outcomes.iter().any(|o| o.repro_schedule.is_some()));
    assert_eq!(tr.counter(sb_obs::keys::SNAPSHOT_CLONES), report.executions);
    // The rendered report ends in the verification verdict.
    assert!(tr.render().contains("verification: OK"));
}

#[test]
fn disabled_tracer_emits_nothing() {
    let tracer = Tracer::disabled();
    assert!(!tracer.enabled());
    tracer.count("x", 3);
    tracer.hist("y", 1);
    let _span = tracer.span("z");
    assert_eq!(tracer.now_us(), 0);
}
