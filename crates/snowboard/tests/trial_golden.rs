//! Golden digests of the trial loop's outputs: full `PmcTestOutcome`s
//! (findings, steps, first finding trial and the recorded repro schedule),
//! baseline `CampaignReport`s and three-thread `TripleOutcome`s.
//!
//! Each group runs real pipelines on both kernel configs under one
//! campaign configuration — oracle set, incidental pickup, deep snapshots,
//! stop-on-finding — and folds the `Debug` rendering of every outcome into
//! an FNV-1a digest (the scheme of `kernel-sim/tests/exec_golden.rs`). Any
//! change to how a trial is seeded, run, analyzed, deduplicated or
//! recorded shows up as a named mismatch. A refactor of the trial loop must
//! leave this table unchanged.

use sb_kernel::KernelConfig;
use sb_vmm::Executor;
use snowboard::baseline::{run_baseline, Pairing};
use snowboard::campaign::{test_one_pmc, IncidentalIndex};
use snowboard::cluster::Strategy;
use snowboard::multi::{shared_write_triples, test_triple};
use snowboard::select::ClusterOrder;
use snowboard::watchdog::{JobBudget, Watchdog};
use snowboard::{CampaignCfg, Catalog, OracleSet, Pipeline, PipelineCfg};

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Accumulates the digests of one named group of outcomes.
struct Group {
    name: String,
    digest: u64,
    runs: usize,
}

impl Group {
    fn new(name: impl Into<String>) -> Self {
        Group {
            name: name.into(),
            digest: FNV_OFFSET,
            runs: 0,
        }
    }

    /// Folds one outcome's full `Debug` rendering into the group digest.
    fn add(&mut self, outcome: &impl std::fmt::Debug) {
        self.digest = fnv(self.digest, format!("{outcome:?}").as_bytes());
        self.runs += 1;
    }
}

/// Exemplar PMCs tested per `test_one_pmc` group.
const PMCS: usize = 16;

fn pipeline(config: KernelConfig) -> Pipeline {
    Pipeline::prepare(
        config,
        PipelineCfg {
            seed: 5,
            corpus_target: 40,
            fuzz_budget: 400,
            workers: 2,
            catalog: Catalog::Extended,
            ..PipelineCfg::default()
        },
    )
}

fn cfg(oracles: OracleSet, incidental: bool, stop_on_finding: bool, deep: bool) -> CampaignCfg {
    CampaignCfg {
        seed: 31,
        trials_per_pmc: 12,
        workers: 2,
        stop_on_finding,
        incidental,
        oracles,
        deep_snapshots: deep,
        budget: JobBudget::unbounded(),
        ..CampaignCfg::default()
    }
}

fn groups(config: KernelConfig, label: &str) -> Vec<Group> {
    let p = pipeline(config);
    let exemplars = p.exemplars(Strategy::SInsPair, ClusterOrder::UncommonFirst);
    let index = IncidentalIndex::build(&p.pmcs);
    let mut exec = Executor::new(2);
    let mut out = Vec::new();
    let variants = [
        ("race/incidental/stop", cfg(OracleSet::race_only(), true, true, false)),
        ("race/plain/all-trials", cfg(OracleSet::race_only(), false, false, false)),
        ("all/incidental/stop", cfg(OracleSet::all(), true, true, false)),
        ("all/plain/all-trials", cfg(OracleSet::all(), false, false, false)),
        ("all/incidental/stop/deep", cfg(OracleSet::all(), true, true, true)),
        ("race/incidental/all-trials/deep", cfg(OracleSet::race_only(), true, false, true)),
    ];
    for (name, c) in &variants {
        let mut g = Group::new(format!("{label}/pmc/{name}"));
        let mut repros = 0;
        for (job, &id) in exemplars.iter().take(PMCS).enumerate() {
            let dog = Watchdog::start(c.budget);
            let o = test_one_pmc(
                &mut exec,
                &p.booted,
                &p.corpus,
                &p.pmcs,
                &index,
                id,
                c.seed + job as u64,
                c,
                &dog,
            )
            .expect("test_one_pmc");
            repros += usize::from(o.repro_schedule.is_some());
            g.add(&o);
        }
        assert!(repros > 0, "{}: no outcome recorded a repro schedule", g.name);
        out.push(g);
    }

    for pairing in [Pairing::Random, Pairing::Duplicate] {
        let c = CampaignCfg {
            trials_per_pmc: 6,
            ..cfg(OracleSet::race_only(), true, true, false)
        };
        let mut g = Group::new(format!("{label}/baseline/{pairing}"));
        g.add(&run_baseline(&p.booted, &p.corpus, pairing, 24, &c));
        out.push(g);
    }

    let mut exec3 = Executor::new(3);
    for stop in [true, false] {
        let c = CampaignCfg {
            trials_per_pmc: 8,
            ..cfg(OracleSet::race_only(), false, stop, false)
        };
        let mut g = Group::new(format!("{label}/triple/stop={stop}"));
        for (i, t) in shared_write_triples(&p.pmcs).into_iter().take(8).enumerate() {
            let o = test_triple(&mut exec3, &p.booted, &p.corpus, &p.pmcs, t, 60 + i as u64, &c)
                .expect("test_triple");
            g.add(&o);
        }
        out.push(g);
    }
    out
}

const GOLDEN: &[(&str, usize, u64)] = &[
    ("5.12-rc3/pmc/race/incidental/stop", 16, 0x47dcbe7ae15eb5f9),
    ("5.12-rc3/pmc/race/plain/all-trials", 16, 0xb851213c42c36bc2),
    ("5.12-rc3/pmc/all/incidental/stop", 16, 0x7a756d8c6810cb7e),
    ("5.12-rc3/pmc/all/plain/all-trials", 16, 0x5665d42c1e08a6c9),
    ("5.12-rc3/pmc/all/incidental/stop/deep", 16, 0x7a756d8c6810cb7e),
    ("5.12-rc3/pmc/race/incidental/all-trials/deep", 16, 0xa004a1eec1f27fef),
    ("5.12-rc3/baseline/Random pairing", 1, 0x180fb7fccf9668d0),
    ("5.12-rc3/baseline/Duplicate pairing", 1, 0x8c3f5ac404d830b2),
    ("5.12-rc3/triple/stop=true", 8, 0x4a903fedd9270c8d),
    ("5.12-rc3/triple/stop=false", 8, 0x57eba9406ef83e9d),
    ("5.3.10/pmc/race/incidental/stop", 16, 0x843678c882dc9cb2),
    ("5.3.10/pmc/race/plain/all-trials", 16, 0x63cba00eddfc6175),
    ("5.3.10/pmc/all/incidental/stop", 16, 0x83057b809e519b08),
    ("5.3.10/pmc/all/plain/all-trials", 16, 0x206b9ec767f7caa0),
    ("5.3.10/pmc/all/incidental/stop/deep", 16, 0x83057b809e519b08),
    ("5.3.10/pmc/race/incidental/all-trials/deep", 16, 0x85ff9df4fb148551),
    ("5.3.10/baseline/Random pairing", 1, 0x0312bf7447168195),
    ("5.3.10/baseline/Duplicate pairing", 1, 0x09ffef6b3566b9d0),
    ("5.3.10/triple/stop=true", 8, 0xa1e159b8bb5ee10c),
    ("5.3.10/triple/stop=false", 8, 0x5fcc401af1e190ea),
];

#[test]
fn trial_outcomes_match_golden_digests() {
    let mut all = groups(KernelConfig::v5_12_rc3(), "5.12-rc3");
    all.extend(groups(KernelConfig::v5_3_10(), "5.3.10"));
    let actual: Vec<(String, usize, u64)> = all
        .iter()
        .map(|g| (g.name.clone(), g.runs, g.digest))
        .collect();
    let table: String = actual
        .iter()
        .map(|(n, r, d)| format!("    ({n:?}, {r}, {d:#018x}),\n"))
        .collect();
    let golden: Vec<(String, usize, u64)> = GOLDEN
        .iter()
        .map(|(n, r, d)| ((*n).to_owned(), *r, *d))
        .collect();
    let mismatched: Vec<&str> = actual
        .iter()
        .filter(|a| !golden.contains(a))
        .map(|a| a.0.as_str())
        .collect();
    assert!(
        mismatched.is_empty() && golden.len() == actual.len(),
        "trial-loop digests changed for {mismatched:?}; actual table:\n{table}"
    );
}
