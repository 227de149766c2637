//! A miniature simulated kernel with planted concurrency bugs.
//!
//! This crate stands in for the Linux kernels (5.3.10 and 5.12-rc3) the
//! paper tests. It is a real, stateful kernel model executing on the
//! [`sb_vmm`] engine: every piece of shared state lives in guest memory,
//! every access goes through traced, schedulable operations, and
//! synchronization uses the engine's locks and RCU. Each of the paper's 17
//! Table 2 findings has a structurally faithful counterpart planted in one
//! of the subsystems (see `DESIGN.md` §5 and [`bugs`]).
//!
//! # Examples
//!
//! ```
//! use sb_kernel::{boot, KernelConfig, Program, Syscall, prog::Domain};
//! use sb_vmm::sched::FreeRun;
//!
//! let booted = boot(KernelConfig::v5_12_rc3());
//! let prog = Program::new(vec![Syscall::Socket { domain: Domain::Inet }]);
//! let mut exec = sb_vmm::Executor::new(1);
//! let kernel = booted.kernel.clone();
//! let r = exec.run(
//!     booted.snapshot.clone(),
//!     vec![kernel.process_job(prog)],
//!     &mut FreeRun,
//! );
//! assert!(r.report.outcome.is_completed());
//! ```

pub mod bugs;
pub mod prog;
pub mod subsys;

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use sb_vmm::ctx::{Ctx, Fault, KResult};
use sb_vmm::exec::{Executor, Job};
use sb_vmm::mem::GuestMem;
use sb_vmm::sched::FreeRun;
use sb_vmm::site;

pub use prog::{Program, Syscall};

/// The simulated kernel versions, mirroring the paper's targets.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum KernelVersion {
    /// The stable release used for the focused search (bugs #1–#10).
    V5_3_10,
    /// The release candidate used for the wide search (bugs #2, #11–#17).
    V5_12Rc3,
}

impl std::fmt::Display for KernelVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelVersion::V5_3_10 => write!(f, "5.3.10"),
            KernelVersion::V5_12Rc3 => write!(f, "5.12-rc3"),
        }
    }
}

/// Kernel build configuration: version plus an all-bugs-patched switch used
/// for ablation runs.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct KernelConfig {
    /// Which simulated release to build.
    pub version: KernelVersion,
    /// When true, every planted bug is built in its fixed form.
    pub patched: bool,
}

impl KernelConfig {
    /// The stable kernel used in the paper's focused search.
    pub fn v5_3_10() -> Self {
        KernelConfig {
            version: KernelVersion::V5_3_10,
            patched: false,
        }
    }

    /// The release candidate used in the paper's wide search.
    pub fn v5_12_rc3() -> Self {
        KernelConfig {
            version: KernelVersion::V5_12Rc3,
            patched: false,
        }
    }

    /// A fully patched build of `self` (ablation baseline).
    pub fn patched(mut self) -> Self {
        self.patched = true;
        self
    }

    /// True if planted bug `id` is present in this build (see Table 2's
    /// version column, reproduced in `DESIGN.md` §5).
    pub fn has_bug(&self, id: u8) -> bool {
        if self.patched {
            return false;
        }
        bugs::registry()
            .iter()
            .find(|b| b.id == id)
            .map(|b| b.versions.contains(&self.version))
            .unwrap_or(false)
    }
}

/// The kernel symbol table: global-object name → guest address, produced by
/// boot and immutable afterwards.
#[derive(Clone, Debug, Default)]
pub struct Symbols {
    map: HashMap<&'static str, u64>,
}

impl Symbols {
    /// Registers a symbol. Panics on duplicates — boot code is trusted.
    pub fn register(&mut self, name: &'static str, addr: u64) {
        let prev = self.map.insert(name, addr);
        assert!(prev.is_none(), "duplicate kernel symbol {name}");
    }

    /// Looks a symbol up. Panics if missing — a handler asking for an
    /// unregistered symbol is a kernel-model bug, not a runtime condition.
    pub fn addr(&self, name: &str) -> u64 {
        *self
            .map
            .get(name)
            .unwrap_or_else(|| panic!("unknown kernel symbol {name}"))
    }

    /// Number of registered symbols.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no symbols are registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Handler-side view of the kernel: execution context plus immutable
/// kernel metadata.
pub struct Env<'a> {
    /// The vCPU the handler runs on.
    pub ctx: &'a Ctx<'a>,
    /// The kernel symbol table.
    pub syms: &'a Symbols,
    /// The build configuration.
    pub config: KernelConfig,
}

impl Env<'_> {
    /// Shorthand for symbol lookup.
    pub fn sym(&self, name: &str) -> u64 {
        self.syms.addr(name)
    }

    /// Allocates a zeroed kernel object, bumping the (racy, benign) slab
    /// statistics counters — the mechanism behind planted bug #13: every
    /// test that allocates memory touches these unsynchronized counters.
    /// In builds without #13 the counters use marked (atomic) accesses.
    pub fn kzalloc(&self, len: u64) -> KResult<u64> {
        let addr = self.ctx.kmalloc(len)?;
        let stat = self.sym("slab.alloc_count");
        if self.config.has_bug(13) {
            let v = self.ctx.read_u64(site!("cache_alloc_refill:stat_read"), stat)?;
            self.ctx
                .write_u64(site!("cache_alloc_refill:stat_write"), stat, v + 1)?;
        } else {
            let v = self
                .ctx
                .read_atomic(site!("cache_alloc_refill:stat_read"), stat, 8)?;
            self.ctx
                .write_atomic(site!("cache_alloc_refill:stat_write"), stat, 8, v + 1)?;
        }
        Ok(addr)
    }

    /// Frees a kernel object, bumping the free-side statistics counter.
    pub fn kfree(&self, addr: u64, len: u64) -> KResult<()> {
        let stat = self.sym("slab.free_count");
        if self.config.has_bug(13) {
            let v = self.ctx.read_u64(site!("free_block:stat_read"), stat)?;
            self.ctx
                .write_u64(site!("free_block:stat_write"), stat, v + 1)?;
        } else {
            let v = self.ctx.read_atomic(site!("free_block:stat_read"), stat, 8)?;
            self.ctx
                .write_atomic(site!("free_block:stat_write"), stat, 8, v + 1)?;
        }
        self.ctx.kfree(addr, len)
    }
}

/// Returns `-errno` encoded as the kernel ABI does (two's complement u64).
pub const fn errno(e: u32) -> u64 {
    (-(e as i64)) as u64
}

/// `EBADF` return value.
pub const EBADF: u64 = errno(9);
/// `EINVAL` return value.
pub const EINVAL: u64 = errno(22);
/// `ENOENT` return value.
pub const ENOENT: u64 = errno(2);
/// `ENODEV` return value.
pub const ENODEV: u64 = errno(19);
/// `EEXIST` return value.
pub const EEXIST: u64 = errno(17);
/// `EIO` return value.
pub const EIO: u64 = errno(5);
/// `ETIMEDOUT` return value.
pub const ETIMEDOUT: u64 = errno(110);

/// Kinds of objects a file descriptor can refer to.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FdKind {
    /// A socket of the given domain.
    Socket(prog::Domain),
    /// An ext4 file (inode index).
    File(u8),
    /// The block device.
    BlockDev,
    /// The TTY.
    Tty,
    /// The sound control device.
    SndCtl,
    /// A configfs item (index).
    Configfs(u8),
}

/// One open file-descriptor entry.
#[derive(Copy, Clone, Debug)]
pub struct FdObj {
    /// What the descriptor refers to.
    pub kind: FdKind,
    /// Guest address of the backing kernel object (0 when the object is a
    /// global looked up on demand).
    pub addr: u64,
}

/// Per-process (per-test-thread) state: the fd table and syscall results.
#[derive(Default)]
pub struct ProcState {
    /// Open descriptors; the fd number is the index.
    pub fds: Vec<Option<FdObj>>,
    /// Result of each executed call, in order.
    pub regs: Vec<u64>,
}

impl ProcState {
    /// Installs a descriptor, returning its fd number.
    pub fn install_fd(&mut self, obj: FdObj) -> u64 {
        self.fds.push(Some(obj));
        (self.fds.len() - 1) as u64
    }

    /// Resolves a [`prog::Res`] argument to an open descriptor.
    pub fn resolve_fd(&self, r: prog::Res) -> Option<FdObj> {
        let v = *self.regs.get(usize::from(r.0))?;
        self.fds.get(usize::try_from(v).ok()?).copied().flatten()
    }

    /// Resolves a [`prog::Res`] to the raw result value of the referenced call.
    pub fn resolve_val(&self, r: prog::Res) -> Option<u64> {
        self.regs.get(usize::from(r.0)).copied()
    }
}

/// The booted kernel: immutable dispatch state shared by all test threads.
pub struct Kernel {
    /// Build configuration.
    pub config: KernelConfig,
    /// Symbol table produced by boot.
    pub syms: Symbols,
}

impl Kernel {
    /// Dispatches one syscall on behalf of process `proc`.
    pub fn dispatch(&self, ctx: &Ctx, proc: &mut ProcState, call: &Syscall) -> KResult<u64> {
        let env = Env {
            ctx,
            syms: &self.syms,
            config: self.config,
        };
        subsys::dispatch(&env, proc, call)
    }

    /// Builds an executor [`Job`] that runs `prog` as one user process.
    ///
    /// Non-fatal per-syscall faults become errno results and the program
    /// continues; fatal faults (panic, abort) end the thread.
    pub fn process_job(self: &Arc<Self>, prog: Program) -> Job {
        self.process_job_with_results(prog, Arc::new(Mutex::new(Vec::new())))
    }

    /// Like [`Kernel::process_job`], also publishing each call's result into
    /// `out`.
    pub fn process_job_with_results(
        self: &Arc<Self>,
        prog: Program,
        out: Arc<Mutex<Vec<u64>>>,
    ) -> Job {
        let kernel = Arc::clone(self);
        Box::new(move |ctx: &Ctx| -> KResult<()> {
            let mut proc = ProcState::default();
            for call in &prog.calls {
                match kernel.dispatch(ctx, &mut proc, call) {
                    Ok(v) => proc.regs.push(v),
                    Err(f) if f.is_fatal() => return Err(f),
                    Err(_) => proc.regs.push(EINVAL),
                }
            }
            if let Ok(mut o) = out.lock() {
                *o = proc.regs.clone();
            }
            Ok(())
        })
    }
}

/// A booted kernel plus the memory snapshot taken right after boot — the
/// paper's "VM snapshot taken after the target kernel boots" (§4.1).
pub struct BootedKernel {
    /// Shared dispatch state.
    pub kernel: Arc<Kernel>,
    /// Guest memory right after boot; clone per trial to "resume" it.
    pub snapshot: GuestMem,
}

/// Boots a kernel with `config`, producing the snapshot every sequential
/// profile and concurrent trial starts from.
///
/// # Panics
///
/// Panics if the simulated boot itself fails — that is a model bug.
pub fn boot(config: KernelConfig) -> BootedKernel {
    let mut exec = Executor::new(1);
    let out: Arc<Mutex<Option<Symbols>>> = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    let job: Job = Box::new(move |ctx: &Ctx| -> KResult<()> {
        let mut syms = Symbols::default();
        subsys::boot_all(ctx, &mut syms, config)?;
        *out2.lock().expect("boot symbol channel poisoned") = Some(syms);
        Ok(())
    });
    let r = exec.run(GuestMem::new(), vec![job], &mut FreeRun);
    assert!(
        r.report.outcome.is_completed(),
        "kernel boot failed: {:?} {:?}",
        r.report.outcome,
        r.report.console
    );
    let syms = out
        .lock()
        .expect("boot symbol channel poisoned")
        .take()
        .expect("boot did not publish symbols");
    // Fold boot-time writes into a fresh shared base: every per-trial
    // snapshot clone below is then an Arc bump, not a 16 MiB copy.
    let mut snapshot = r.mem;
    snapshot.seal();
    BootedKernel {
        kernel: Arc::new(Kernel { config, syms }),
        snapshot,
    }
}

/// Convenience fault constructor used by handlers that detect an impossible
/// internal state.
pub fn internal_bug(ctx: &Ctx, msg: &str) -> Fault {
    ctx.oops(format!("BUG: simulated-kernel internal error: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errno_encoding_matches_kernel_abi() {
        assert_eq!(EINVAL, (-22i64) as u64);
        assert_eq!(EBADF, (-9i64) as u64);
    }

    #[test]
    fn config_bug_gating_follows_table2_versions() {
        let old = KernelConfig::v5_3_10();
        let rc = KernelConfig::v5_12_rc3();
        // #1 (rhashtable double fetch) is 5.3.10-only.
        assert!(old.has_bug(1));
        assert!(!rc.has_bug(1));
        // #2 (ext4 swap boot loader) exists in both.
        assert!(old.has_bug(2));
        assert!(rc.has_bug(2));
        // #12 (l2tp) is 5.12-rc3-only.
        assert!(!old.has_bug(12));
        assert!(rc.has_bug(12));
        // Patched builds have nothing.
        assert!(!old.patched().has_bug(1));
        assert!(!rc.patched().has_bug(12));
    }

    #[test]
    fn proc_state_fd_resolution() {
        let mut p = ProcState::default();
        let fd = p.install_fd(FdObj {
            kind: FdKind::BlockDev,
            addr: 0x40,
        });
        p.regs.push(fd);
        let got = p.resolve_fd(prog::Res(0)).unwrap();
        assert_eq!(got.kind, FdKind::BlockDev);
        // Out-of-range and errno-valued registers resolve to None.
        p.regs.push(EINVAL);
        assert!(p.resolve_fd(prog::Res(1)).is_none());
        assert!(p.resolve_fd(prog::Res(9)).is_none());
    }

    #[test]
    #[should_panic(expected = "unknown kernel symbol")]
    fn missing_symbol_panics() {
        Symbols::default().addr("no.such.symbol");
    }

    #[test]
    #[should_panic(expected = "duplicate kernel symbol")]
    fn duplicate_symbol_panics() {
        let mut s = Symbols::default();
        s.register("x", 1);
        s.register("x", 2);
    }
}
