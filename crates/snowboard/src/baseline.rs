//! Baseline concurrent-test generation: Random pairing and Duplicate
//! pairing (§5.3.1, bottom of Table 3).
//!
//! Both baselines skip PMC analysis entirely: Random pairing draws two
//! sequential tests at random; Duplicate pairing runs one test against an
//! identical copy of itself. Without a scheduling hint, trials explore
//! interleavings with an unguided random scheduler.

use sb_kernel::{BootedKernel, Program};
use sb_vmm::rng::Rng;
use sb_vmm::sched::RandomSched;
use sb_vmm::Executor;

use crate::campaign::{aggregate, run_trials, CampaignCfg, CampaignReport, PmcTestOutcome};
use crate::watchdog::{JobBudget, Watchdog};

/// The two baseline pairing policies.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Pairing {
    /// Two sequential tests drawn independently at random.
    Random,
    /// One test paired with an identical copy of itself.
    Duplicate,
}

impl std::fmt::Display for Pairing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Pairing::Random => write!(f, "Random pairing"),
            Pairing::Duplicate => write!(f, "Duplicate pairing"),
        }
    }
}

/// Runs `n_tests` baseline concurrent tests. The seed, trials per test,
/// workers, stop-on-finding, oracles and tracer come from `cfg`: the
/// configuration of the campaign the baseline is compared with.
pub fn run_baseline(
    booted: &BootedKernel,
    corpus: &[Program],
    pairing: Pairing,
    n_tests: usize,
    cfg: &CampaignCfg,
) -> CampaignReport {
    assert!(!corpus.is_empty(), "baseline needs a corpus");
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let pairs: Vec<(u32, u32)> = (0..n_tests)
        .map(|_| {
            let a = rng.gen_range(0..corpus.len()) as u32;
            let b = match pairing {
                Pairing::Random => rng.gen_range(0..corpus.len()) as u32,
                Pairing::Duplicate => a,
            };
            (a, b)
        })
        .collect();
    let outcomes: Vec<PmcTestOutcome> = sb_queue::run_jobs(
        pairs.into_iter().enumerate().collect(),
        cfg.workers,
        || Executor::new(2),
        |exec, (i, pair)| {
            let seed = cfg.seed.wrapping_add((i as u64).wrapping_mul(0xA24B_AED4_963E_E407));
            let programs = [corpus[pair.0 as usize].clone(), corpus[pair.1 as usize].clone()];
            let sched = RandomSched::new(seed, 0.005);
            let dog = Watchdog::start(JobBudget::unbounded());
            run_trials(exec, booted, &programs, sched, seed, cfg, &dog, |_, _, _| false)
                .expect("two jobs on two vCPUs with no budget cannot fail")
                .outcome(None, pair)
        },
    );
    aggregate(outcomes)
}
