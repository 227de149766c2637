//! Ablation study of Snowboard's design choices (DESIGN.md §4's "expected
//! shape" claims, taken apart one knob at a time):
//!
//! 1. **flags learning** (`pmc_access_coming`): Algorithm 2's cross-trial
//!    memory of the access preceding a PMC access. Off → only post-access
//!    preemption remains.
//! 2. **hint precision**: Snowboard's site+range matching vs SKI's
//!    site-only matching vs PCT vs unguided random.
//! 3. **incidental-PMC pickup** (Algorithm 2 lines 26–27).
//! 4. **cluster ordering**: uncommon-first vs random (also in Table 3).
//! 5. **detector window**: how the DataCollider stall-window size changes
//!    what the campaign reports.

use sb_bench::{prepare, print_table, Scale};
use sb_kernel::prog::{Domain, Res};
use sb_kernel::{boot, KernelConfig, Program, Syscall};
use sb_vmm::sched::{PctSched, RandomSched, Scheduler, SkiSched, SnowboardSched};
use sb_vmm::Executor;
use snowboard::cluster::Strategy;
use snowboard::pmc::identify;
use snowboard::profile::profile_corpus;
use snowboard::select::ClusterOrder;
use snowboard::{OracleCtx, OracleSet};

/// Trials to expose bug #12, averaged over seeds. Each seed gets one
/// scheduler from `for_seed`, and `begin_trial(sched, seed, trial)` resets
/// it before every trial, so Snowboard keeps its `flags` across trials.
/// Returns (average trials, hits).
fn expose_12<S: Scheduler>(
    booted: &sb_kernel::BootedKernel,
    seeds: u64,
    cap: u32,
    mut for_seed: impl FnMut(u64) -> S,
    mut begin_trial: impl FnMut(&mut S, u64, u64),
) -> (f64, u64) {
    let writer = Program::new(vec![
        Syscall::Socket { domain: Domain::L2tp },
        Syscall::Connect { sock: Res(0), tunnel_id: 2 },
    ]);
    let reader = Program::new(vec![
        Syscall::Socket { domain: Domain::L2tp },
        Syscall::Connect { sock: Res(0), tunnel_id: 2 },
        Syscall::Sendmsg { sock: Res(0), len: 1 },
    ]);
    let mut exec = Executor::new(2);
    let mut oracles = OracleCtx::new(OracleSet::race_only());
    let mut total = 0u64;
    let mut hits = 0u64;
    for seed in 0..seeds {
        let mut sched = for_seed(seed);
        let mut exposed = None;
        for trial in 0..cap {
            begin_trial(&mut sched, seed, u64::from(trial));
            let r = exec.run(
                booted.snapshot.clone(),
                vec![
                    booted.kernel.process_job(writer.clone()),
                    booted.kernel.process_job(reader.clone()),
                ],
                &mut sched,
            );
            if oracles
                .analyze(&r.report)
                .iter()
                .any(|f| snowboard::triage::triage(f) == Some(12))
            {
                exposed = Some(trial + 1);
                break;
            }
        }
        match exposed {
            Some(t) => {
                total += u64::from(t);
                hits += 1;
            }
            None => total += u64::from(cap),
        }
    }
    (total as f64 / seeds as f64, hits)
}

fn main() {
    let scale = Scale::from_env();
    let booted = boot(KernelConfig::v5_12_rc3());

    // Derive the l2tp PMC for hint-based schedulers.
    let writer = Program::new(vec![
        Syscall::Socket { domain: Domain::L2tp },
        Syscall::Connect { sock: Res(0), tunnel_id: 2 },
    ]);
    let reader = Program::new(vec![
        Syscall::Socket { domain: Domain::L2tp },
        Syscall::Connect { sock: Res(0), tunnel_id: 2 },
        Syscall::Sendmsg { sock: Res(0), len: 1 },
    ]);
    let profiles = profile_corpus(&booted, &[writer, reader], 2);
    let set = identify(&profiles);
    let (_, pmc) = snowboard::metrics::find_pmc_by_sites(&set, "list_add_rcu", "l2tp_tunnel_get")
        .expect("l2tp PMC");
    let hints = pmc.hints();

    println!("\nAblation 1+2 — scheduler variants vs bug #12 (avg trials over 10 seeds, cap 2048)\n");
    let seeds = 10;
    let cap = 2048;
    let mut rows = Vec::new();
    {
        // Full Algorithm 2.
        let (avg, hits) = expose_12(
            &booted,
            seeds,
            cap,
            |seed| SnowboardSched::new(seed, hints),
            |s, _, trial| s.begin_trial(trial),
        );
        rows.push(vec!["Snowboard (full)".into(), format!("{avg:.1}"), format!("{hits}/{seeds}")]);
    }
    {
        let (avg, hits) = expose_12(
            &booted,
            seeds,
            cap,
            |seed| SnowboardSched::without_flag_learning(seed, hints),
            |s, _, trial| s.begin_trial(trial),
        );
        rows.push(vec!["Snowboard w/o flags".into(), format!("{avg:.1}"), format!("{hits}/{seeds}")]);
    }
    {
        let sites: Vec<_> = hints.iter().map(|h| h.site).collect();
        let (avg, hits) = expose_12(
            &booted,
            seeds,
            cap,
            |seed| SkiSched::new(seed, sites.clone()),
            |s, seed, trial| s.begin_trial(seed ^ trial),
        );
        rows.push(vec!["SKI (site-only)".into(), format!("{avg:.1}"), format!("{hits}/{seeds}")]);
    }
    {
        let (avg, hits) = expose_12(
            &booted,
            seeds,
            cap,
            |seed| PctSched::new(seed, 300, 3),
            |s, seed, trial| s.begin_trial(seed ^ (trial << 17), 300, 3),
        );
        rows.push(vec!["PCT (d=3)".into(), format!("{avg:.1}"), format!("{hits}/{seeds}")]);
    }
    {
        let (avg, hits) = expose_12(
            &booted,
            seeds,
            cap,
            |seed| RandomSched::new(seed, 0.005),
            |s, seed, trial| *s = RandomSched::new(seed ^ (trial << 13), 0.005),
        );
        rows.push(vec!["Random (unguided)".into(), format!("{avg:.1}"), format!("{hits}/{seeds}")]);
    }
    print_table(&["Scheduler", "Avg trials to #12", "Exposed"], &rows);

    println!("\nAblation 3+4 — campaign knobs (S-INS-PAIR, quick pipeline)\n");
    let p = prepare(KernelConfig::v5_12_rc3(), &scale, 2021);
    let mut rows = Vec::new();
    for (label, order, incidental) in [
        ("uncommon-first + incidental", ClusterOrder::UncommonFirst, true),
        ("uncommon-first, no incidental", ClusterOrder::UncommonFirst, false),
        ("random order + incidental", ClusterOrder::Random, true),
    ] {
        let exemplars = p.exemplars(Strategy::SInsPair, order);
        let mut cfg = scale.campaign_cfg(77);
        cfg.incidental = incidental;
        let report = p.campaign(&exemplars, &cfg).expect("ablation campaign");
        let mean_day = if report.issues.is_empty() || report.total_steps == 0 {
            f64::NAN
        } else {
            report
                .issues
                .iter()
                .filter(|i| i.bug_id.is_some())
                .map(|i| 7.0 * i.found_after_steps as f64 / report.total_steps as f64)
                .sum::<f64>()
                / report.bug_ids().len().max(1) as f64
        };
        rows.push(vec![
            label.to_owned(),
            report.bug_ids().len().to_string(),
            format!("{mean_day:.2}"),
        ]);
    }
    print_table(&["Variant", "Bugs found", "Mean days-to-find"], &rows);
}
