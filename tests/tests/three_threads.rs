//! Three-thread testing (§6 extension): one shared write, two reads.

use integration::shared_rc_kernel;

use sb_kernel::prog::{Domain, Res};
use sb_kernel::{Program, Syscall};
use sb_vmm::Executor;
use snowboard::multi::{shared_write_triples, test_triple};
use snowboard::pmc::identify;
use snowboard::profile::profile_corpus;
use snowboard::{CampaignCfg, OracleSet};

/// The trial settings of a three-thread test, with the stock oracles.
fn triple_cfg(trials: u32, stop_on_finding: bool) -> CampaignCfg {
    CampaignCfg {
        trials_per_pmc: trials,
        stop_on_finding,
        oracles: OracleSet::race_only(),
        ..CampaignCfg::default()
    }
}

fn l2tp_corpus() -> Vec<Program> {
    vec![
        // 0: the writer (registers the tunnel).
        Program::new(vec![
            Syscall::Socket { domain: Domain::L2tp },
            Syscall::Connect { sock: Res(0), tunnel_id: 1 },
        ]),
        // 1, 2: two readers that connect and transmit — the paper's DoS
        // scenario of many processes requesting the same tunnel id.
        Program::new(vec![
            Syscall::Socket { domain: Domain::L2tp },
            Syscall::Connect { sock: Res(0), tunnel_id: 1 },
            Syscall::Sendmsg { sock: Res(0), len: 0 },
        ]),
        Program::new(vec![
            Syscall::Socket { domain: Domain::L2tp },
            Syscall::Connect { sock: Res(0), tunnel_id: 1 },
            Syscall::Sendmsg { sock: Res(0), len: 7 },
        ]),
    ]
}

#[test]
fn shared_write_triples_exist_in_the_l2tp_corpus() {
    let booted = shared_rc_kernel();
    let corpus = l2tp_corpus();
    let profiles = profile_corpus(booted, &corpus, 2);
    let set = identify(&profiles);
    let triples = shared_write_triples(&set);
    assert!(
        !triples.is_empty(),
        "the tunnel publication write should pair with multiple readers"
    );
    // At least one triple involves the list-head publication.
    let has_publish = triples.iter().any(|t| {
        set.get(t.a)
            .key
            .w
            .ins
            .display_name()
            .starts_with("list_add_rcu")
    });
    assert!(has_publish, "publication triple missing");
}

#[test]
fn three_thread_campaign_exposes_the_l2tp_panic() {
    let booted = shared_rc_kernel();
    let corpus = l2tp_corpus();
    let profiles = profile_corpus(booted, &corpus, 2);
    let set = identify(&profiles);
    let triples = shared_write_triples(&set);
    let publish: Vec<_> = triples
        .iter()
        .filter(|t| {
            set.get(t.a)
                .key
                .w
                .ins
                .display_name()
                .starts_with("list_add_rcu")
        })
        .collect();
    assert!(!publish.is_empty());
    let mut exec = Executor::new(3);
    let cfg = triple_cfg(32, true);
    let mut found = false;
    // Each seed re-draws the (writer, reader, reader) tests from the PMC's
    // pair lists, so sweeping seeds explores the test-selection dimension.
    'outer: for t in &publish {
        for seed in 0..12u64 {
            let out = test_triple(&mut exec, booted, &corpus, &set, **t, 40 + seed, &cfg)
                .expect("triple test");
            if out
                .findings
                .iter()
                .any(|f| snowboard::triage::triage(f) == Some(12))
            {
                found = true;
                break 'outer;
            }
        }
    }
    assert!(found, "3-thread exploration should expose bug #12");
}

#[test]
fn three_thread_execution_is_deterministic() {
    let booted = shared_rc_kernel();
    let corpus = l2tp_corpus();
    let profiles = profile_corpus(booted, &corpus, 2);
    let set = identify(&profiles);
    let triples = shared_write_triples(&set);
    let t = triples[0];
    let run = || {
        let mut exec = Executor::new(3);
        let out = test_triple(&mut exec, booted, &corpus, &set, t, 77, &triple_cfg(8, false))
            .expect("triple test");
        (out.tests, out.trials_run, out.findings.len(), out.steps)
    };
    assert_eq!(run(), run());
}
