//! Three-thread concurrent testing — the §6 "Testing Thread Count"
//! extension.
//!
//! The paper notes that some bugs need three or more threads and that
//! "Snowboard should apply to input spaces of more dimensions, e.g., with
//! PMCs of 1 shared write with 2 reads". This module implements exactly
//! that shape: a [`TriplePmc`] joins two identified PMCs that share the
//! same write side, yielding a concurrent test of one writer and two
//! readers whose interleavings are explored with the union of both PMCs'
//! scheduling hints.
//!
//! This also reproduces the paper's #12 case-study observation that the
//! l2tp bug is an easy denial-of-service amplifier: "a massive number of
//! user processes requesting the same tunnel ID" all race on the same
//! publication window — with two readers, *either* can dereference the
//! uninitialized socket, roughly doubling the per-trial exposure odds.

use sb_detect::Finding;
use sb_kernel::{BootedKernel, Program};
use sb_vmm::rng::Rng;
use sb_vmm::sched::SnowboardSched;
use sb_vmm::Executor;

use crate::campaign::{fetch_test, run_trials, CampaignCfg};
use crate::error::{Error, SbResult};
use crate::pmc::{PmcId, PmcSet};
use crate::watchdog::{JobBudget, Watchdog};

/// Two PMCs sharing a write side: one shared write, two reads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TriplePmc {
    /// First member (defines the shared write side).
    pub a: PmcId,
    /// Second member (same write key, its own read side).
    pub b: PmcId,
}

/// Finds all write-sharing PMC pairs — the 3-thread candidate space.
///
/// The quadratic-in-practice blowup the paper warns about ("the input
/// space dimension becomes cubic") is tamed the same way: group by write
/// key first, pair within groups only.
pub fn shared_write_triples(set: &PmcSet) -> Vec<TriplePmc> {
    use std::collections::HashMap;
    let mut by_write: HashMap<crate::pmc::SideKey, Vec<PmcId>> = HashMap::new();
    for (id, p) in set.pmcs.iter().enumerate() {
        by_write.entry(p.key.w).or_default().push(id as PmcId);
    }
    let mut out = Vec::new();
    let mut groups: Vec<(crate::pmc::SideKey, Vec<PmcId>)> = by_write.into_iter().collect();
    groups.sort_by_key(|(k, _)| (k.ins.0, k.addr, k.len, k.value));
    for (_, ids) in groups {
        for i in 0..ids.len() {
            for j in i + 1..ids.len() {
                // Distinct read sides only: same-read pairs add nothing.
                let (pa, pb) = (&set.pmcs[ids[i] as usize], &set.pmcs[ids[j] as usize]);
                if pa.key.r != pb.key.r {
                    out.push(TriplePmc { a: ids[i], b: ids[j] });
                }
            }
        }
    }
    out
}

/// Outcome of one three-thread concurrent test.
#[derive(Clone, Debug)]
pub struct TripleOutcome {
    /// The triple under test.
    pub triple: TriplePmc,
    /// (writer, reader1, reader2) corpus test ids.
    pub tests: (u32, u32, u32),
    /// Trials executed.
    pub trials_run: u32,
    /// Distinct findings.
    pub findings: Vec<Finding>,
    /// Trial index of the first finding.
    pub first_finding_trial: Option<u32>,
    /// Total engine steps.
    pub steps: u64,
}

/// Executes one writer + two readers under Algorithm 2 with the union of
/// both PMCs' hints. Trials, stop-on-finding, oracles and tracer come from
/// `cfg`. The executor needs three vCPUs ([`Error::Exec`] otherwise).
pub fn test_triple(
    exec: &mut Executor,
    booted: &BootedKernel,
    corpus: &[Program],
    set: &PmcSet,
    triple: TriplePmc,
    seed: u64,
    cfg: &CampaignCfg,
) -> SbResult<TripleOutcome> {
    let pa = set.get(triple.a);
    let pb = set.get(triple.b);
    let mut rng = Rng::seed_from_u64(seed);
    let (w1, r1) = *rng
        .choose(&pa.pairs)
        .ok_or(Error::EmptyPmc { pmc: triple.a })?;
    let (_w2, r2) = *rng
        .choose(&pb.pairs)
        .ok_or(Error::EmptyPmc { pmc: triple.b })?;
    let programs = [
        fetch_test(corpus, w1)?,
        fetch_test(corpus, r1)?,
        fetch_test(corpus, r2)?,
    ];
    let sched = SnowboardSched::new(seed, pa.hints().into_iter().chain(pb.hints()));
    let dog = Watchdog::start(JobBudget::unbounded());
    let t = run_trials(exec, booted, &programs, sched, seed, cfg, &dog, |_, _, _| false)?;
    Ok(TripleOutcome {
        triple,
        tests: (w1, r1, r2),
        trials_run: t.run,
        findings: t.findings,
        first_finding_trial: t.first_finding,
        steps: t.steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmc::{Pmc, PmcKey, SideKey};
    use sb_vmm::site;

    fn side(name: &str, addr: u64, value: u64) -> SideKey {
        SideKey {
            ins: site!(name),
            addr,
            len: 8,
            value,
        }
    }

    #[test]
    fn triples_require_shared_write_and_distinct_reads() {
        let w = side("m:w", 0x10, 1);
        let set = PmcSet {
            pmcs: vec![
                Pmc { key: PmcKey { w, r: side("m:r1", 0x10, 0) }, df_leader: false, pairs: vec![(0, 1)] },
                Pmc { key: PmcKey { w, r: side("m:r2", 0x10, 2) }, df_leader: false, pairs: vec![(0, 2)] },
                Pmc { key: PmcKey { w: side("m:w2", 0x20, 1), r: side("m:r3", 0x20, 0) }, df_leader: false, pairs: vec![(0, 1)] },
                // Duplicate of the first read side: must not pair with it.
                Pmc { key: PmcKey { w, r: side("m:r1", 0x10, 0) }, df_leader: false, pairs: vec![(3, 1)] },
            ],
        };
        let triples = shared_write_triples(&set);
        // (0,1), (1,3) pair; (0,3) share the read side — excluded.
        assert_eq!(triples.len(), 2);
        for t in &triples {
            assert_eq!(set.get(t.a).key.w, set.get(t.b).key.w);
            assert_ne!(set.get(t.a).key.r, set.get(t.b).key.r);
        }
    }

    #[test]
    fn triples_are_deterministic() {
        let w = side("m:wd", 0x10, 1);
        let set = PmcSet {
            pmcs: (0..6)
                .map(|i| Pmc {
                    key: PmcKey { w, r: side(&format!("m:rd{i}"), 0x10, i) },
                    df_leader: false,
                    pairs: vec![(0, 1)],
                })
                .collect(),
        };
        assert_eq!(shared_write_triples(&set), shared_write_triples(&set));
        assert_eq!(shared_write_triples(&set).len(), 15);
    }
}
