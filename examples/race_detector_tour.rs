//! A tour of the bug detectors over hand-picked concurrent tests.
//!
//! Shows what the oracles actually report for four characteristic issues:
//! the harmful torn-MAC race (#9, Figure 3), the benign allocator-stats
//! race (#13), an atomicity violation caught only by the console checker
//! (#2), and a clean patched run.
//!
//! Run with: `cargo run -p sb-examples --bin race_detector_tour`

use sb_detect::{Finding, OracleCtx, OracleSet};
use sb_kernel::prog::{Domain, IoctlCmd, Path, Res};
use sb_kernel::{boot, bugs, BootedKernel, KernelConfig, Program, Syscall};
use sb_vmm::sched::RandomSched;
use sb_vmm::Executor;

fn show(booted: &BootedKernel, title: &str, a: &Program, b: &Program, attempts: u64) {
    println!("--- {title} ---");
    let mut exec = Executor::new(2);
    let mut seen = std::collections::HashSet::new();
    let mut findings: Vec<Finding> = Vec::new();
    let mut oracles = OracleCtx::new(OracleSet::race_only());
    for seed in 0..attempts {
        let mut sched = RandomSched::new(seed, 0.3);
        let r = exec.run(
            booted.snapshot.clone(),
            vec![
                booted.kernel.process_job(a.clone()),
                booted.kernel.process_job(b.clone()),
            ],
            &mut sched,
        );
        for f in oracles.analyze(&r.report) {
            if seen.insert(f.dedup_key()) {
                findings.push(f);
            }
        }
    }
    if findings.is_empty() {
        println!("  no findings in {attempts} executions");
    }
    for f in findings {
        let triaged = snowboard::triage::triage(&f);
        let tag = match triaged.and_then(bugs::by_id) {
            Some(b) if b.harmful => format!("-> Table 2 #{} (HARMFUL)", b.id),
            Some(b) => format!("-> Table 2 #{} (benign)", b.id),
            None => "-> untriaged".to_owned(),
        };
        match f {
            Finding::DataRace { write_site, other_site, addr } => {
                println!("  data race {write_site} / {other_site} @ {addr:#x} {tag}")
            }
            Finding::KernelPanic { msg } => println!("  panic: {msg} {tag}"),
            Finding::ConsoleError { line } => println!("  console: {line} {tag}"),
            other => println!("  {other:?} {tag}"),
        }
    }
    println!();
}

fn main() {
    println!("== detector tour ==\n");
    let old = boot(KernelConfig::v5_3_10());
    let rc = boot(KernelConfig::v5_12_rc3());

    // #9 / Figure 3: torn MAC read — writer under RTNL, reader under RCU.
    let mac_writer = Program::new(vec![
        Syscall::Socket { domain: Domain::Packet },
        Syscall::Ioctl { fd: Res(0), cmd: IoctlCmd::SiocSifHwAddr, arg: 9 },
    ]);
    let mac_reader = Program::new(vec![
        Syscall::Socket { domain: Domain::Packet },
        Syscall::Ioctl { fd: Res(0), cmd: IoctlCmd::SiocGifHwAddr, arg: 0 },
    ]);
    show(&old, "Figure 3: dev_ifsioc_locked vs eth_commit_mac_addr_change (5.3.10)",
         &mac_writer, &mac_reader, 200);

    // #13: the benign race every concurrent test can trip.
    let alloc = Program::new(vec![Syscall::Msgget { key: 1 }]);
    show(&rc, "allocator statistics (any two allocating tests, 5.12-rc3)", &alloc, &alloc, 200);

    // #2: atomicity violation — marked accesses, console-only detection.
    let swap = Program::new(vec![
        Syscall::Open { path: Path::Ext4File(1) },
        Syscall::Write { fd: Res(0), off: 1, val: 7 },
        Syscall::Ioctl { fd: Res(0), cmd: IoctlCmd::Ext4SwapBoot, arg: 0 },
    ]);
    show(&rc, "EXT4_IOC_SWAP_BOOT vs itself (duplicate input, 5.12-rc3)", &swap, &swap, 200);

    // The patched kernel under the same workloads.
    let patched = boot(KernelConfig::v5_3_10().patched());
    show(&patched, "same MAC workload on the fully patched kernel", &mac_writer, &mac_reader, 200);
}
