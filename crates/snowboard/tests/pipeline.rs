//! End-to-end pipeline tests: fuzz → profile → identify → cluster → select
//! → execute, asserting the pipeline finds planted bugs.

use snowboard::cluster::Strategy;
use snowboard::select::ClusterOrder;
use snowboard::{CampaignCfg, OracleCtx, OracleSet, Pipeline, PipelineCfg};

use sb_kernel::KernelConfig;

fn small_cfg() -> PipelineCfg {
    PipelineCfg {
        seed: 7,
        corpus_target: 60,
        fuzz_budget: 600,
        workers: 4,
        ..PipelineCfg::default()
    }
}

#[test]
fn pipeline_identifies_known_channels() {
    let p = Pipeline::prepare(KernelConfig::v5_12_rc3(), small_cfg());
    assert!(p.pmcs.len() > 100, "expected a rich PMC universe, got {}", p.pmcs.len());
    // The l2tp publication channel from Figure 1 must be predicted.
    let hit = snowboard::metrics::find_pmc_by_sites(&p.pmcs, "list_add_rcu", "l2tp_tunnel_get");
    assert!(hit.is_some(), "l2tp publish/lookup PMC missing");
    // The slab counter channel (bug #13) is everywhere.
    let slab =
        snowboard::metrics::find_pmc_by_sites(&p.pmcs, "cache_alloc_refill", "cache_alloc_refill");
    assert!(slab.is_some(), "slab stats PMC missing");
}

#[test]
fn cluster_counts_are_ordered_like_table3() {
    let p = Pipeline::prepare(KernelConfig::v5_12_rc3(), small_cfg());
    let full = p.cluster_count(Strategy::SFull);
    let ch = p.cluster_count(Strategy::SCh);
    let ins = p.cluster_count(Strategy::SIns);
    let pair = p.cluster_count(Strategy::SInsPair);
    let dbl = p.cluster_count(Strategy::SChDouble);
    // Table 3's shape: S-FULL ≥ S-CH ≥ S-INS-PAIR ≥ S-INS; filters shrink.
    assert!(full >= ch, "S-FULL ({full}) < S-CH ({ch})");
    assert!(ch >= pair, "S-CH ({ch}) < S-INS-PAIR ({pair})");
    assert!(pair >= ins, "S-INS-PAIR ({pair}) < S-INS ({ins})");
    assert!(dbl <= ch, "filtered strategy bigger than its base");
    assert!(ins > 10, "S-INS should still have many clusters, got {ins}");
}

#[test]
fn sinspair_campaign_finds_panic_and_race_bugs() {
    let p = Pipeline::prepare(KernelConfig::v5_12_rc3(), small_cfg());
    let exemplars = p.exemplars(Strategy::SInsPair, ClusterOrder::UncommonFirst);
    let cfg = CampaignCfg {
        seed: 11,
        trials_per_pmc: 24,
        max_tested_pmcs: 500,
        workers: 4,
        stop_on_finding: true,
        incidental: true,
        ..CampaignCfg::default()
    };
    let report = p.campaign(&exemplars, &cfg).expect("campaign");
    assert!(report.quarantined.is_empty(), "no job should fail: {:?}", report.quarantined);
    let bugs = report.bug_ids();
    // #13 (slab stats) is found by everything.
    assert!(bugs.contains(&13), "missing #13 in {bugs:?}");
    // The campaign must find several of the 5.12-rc3 bugs (#2, #11..#17).
    assert!(bugs.len() >= 4, "expected >=4 distinct bugs, got {bugs:?}");
    // And some tests exercised their predicted channels.
    assert!(report.accuracy() > 0.05, "accuracy {:.3} too low", report.accuracy());
}

#[test]
fn patched_kernel_yields_no_triaged_bugs() {
    let p = Pipeline::prepare(KernelConfig::v5_12_rc3().patched(), small_cfg());
    let exemplars = p.exemplars(Strategy::SInsPair, ClusterOrder::UncommonFirst);
    let cfg = CampaignCfg {
        seed: 11,
        trials_per_pmc: 8,
        max_tested_pmcs: 200,
        workers: 4,
        stop_on_finding: true,
        incidental: false,
        ..CampaignCfg::default()
    };
    let report = p.campaign(&exemplars, &cfg).expect("campaign");
    assert!(
        report.bug_ids().is_empty(),
        "patched kernel reported {:?}",
        report.bug_ids()
    );
}

#[test]
fn campaign_repro_schedules_replay_their_findings() {
    // Every finding carries a recorded schedule; replaying it must
    // re-produce the same finding deterministically (§6).
    let p = Pipeline::prepare(KernelConfig::v5_12_rc3(), small_cfg());
    let exemplars = p.exemplars(Strategy::SInsPair, ClusterOrder::UncommonFirst);
    let cfg = CampaignCfg {
        seed: 21,
        trials_per_pmc: 16,
        max_tested_pmcs: 120,
        workers: 2,
        stop_on_finding: true,
        incidental: false,
        ..CampaignCfg::default()
    };
    let report = p.campaign(&exemplars, &cfg).expect("campaign");
    let mut exec = sb_vmm::Executor::new(2);
    let mut replayed = 0;
    for o in report.outcomes.iter().filter(|o| o.repro_schedule.is_some()) {
        let schedule = o.repro_schedule.clone().unwrap();
        let mut replay = sb_vmm::replay::ReplaySched::new(schedule);
        let r = exec.run(
            p.booted.snapshot.clone(),
            vec![
                p.booted.kernel.process_job(p.corpus[o.pair.0 as usize].clone()),
                p.booted.kernel.process_job(p.corpus[o.pair.1 as usize].clone()),
            ],
            &mut replay,
        );
        // The schedule was recorded in full: the replay never ran past it.
        assert!(!replay.diverged(), "replay of pair {:?} diverged", o.pair);
        let per_execution = OracleSet {
            lockrule: false,
            ..OracleSet::all()
        };
        let found = OracleCtx::new(per_execution).analyze(&r.report);
        let keys: std::collections::HashSet<String> =
            found.iter().map(|f| f.dedup_key()).collect();
        for f in &o.findings {
            // Lock-rule findings are corpus-statistical (mined from the
            // whole job's trials), not per-execution reproducible.
            if matches!(f.kind_tag(), "lockrule" | "lockorder") {
                continue;
            }
            assert!(
                keys.contains(&f.dedup_key()),
                "replay lost finding {:?} for pair {:?}",
                f,
                o.pair
            );
        }
        replayed += 1;
        if replayed >= 10 {
            break;
        }
    }
    assert!(replayed >= 3, "expected several reproducible findings");
}

#[test]
fn baselines_find_the_easy_race_only_mostly() {
    let p = Pipeline::prepare(KernelConfig::v5_12_rc3(), small_cfg());
    let cfg = CampaignCfg {
        seed: 3,
        trials_per_pmc: 4,
        workers: 4,
        stop_on_finding: true,
        oracles: snowboard::OracleSet::race_only(),
        ..CampaignCfg::default()
    };
    let report = snowboard::baseline::run_baseline(
        &p.booted,
        &p.corpus,
        snowboard::baseline::Pairing::Duplicate,
        150,
        &cfg,
    );
    let bugs = report.bug_ids();
    assert!(bugs.contains(&13), "duplicate pairing should stumble into #13: {bugs:?}");
}
