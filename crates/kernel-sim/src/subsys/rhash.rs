//! Resizable hash table backing System V message queues (issue #1 —
//! Figure 4's conditional-with-omitted-operands bug).
//!
//! The real bug: `rht_ptr()` is written as `(*bkt & ~BIT(0)) ?: bkt`, a GCC
//! conditional with the second operand omitted. Developers assumed one read
//! of `*bkt`; under `-O2` the compiler emits **two** loads. When a
//! concurrent `rht_assign_unlock()` zeroes the bucket between the loads, the
//! second load returns 0, the lookup proceeds with a null object pointer,
//! and the key comparison (`memcmp(ptr + ht->p.key_offset, ...)`) faults at
//! a small non-null address — "BUG: unable to handle page fault for
//! address". The interleaving window is a single instruction wide.
//!
//! The simulated `msgget()`/`msgctl()` pair drives insertion, lookup, and
//! removal. The "5.3.10" build compiles `rht_ptr` the `-O2` way (double
//! fetch); the "5.12-rc3" and patched builds model Herbert Xu's fix
//! (single fetch, commit 1748f6a2).

use sb_vmm::ctx::KResult;
use sb_vmm::site;

use crate::prog::MsgCmd;
use crate::{Env, ENOENT};

/// Number of buckets in the table.
pub const NUM_BUCKETS: u64 = 4;

/// `struct msg_queue` field offsets. The object spans two slab pages with
/// the key deep inside, past the first page, so a null object pointer faults
/// *beyond* the first page — producing the page-fault (not null-dereference)
/// console of Table 2 #1.
pub mod msq {
    /// Chain next pointer (8 bytes).
    pub const NEXT: u64 = 0;
    /// Queue mode bits (u32).
    pub const MODE: u64 = 8;
    /// Message count (u32).
    pub const QNUM: u64 = 12;
    /// IPC key (u64) — deliberately at a large offset (`ht->p.key_offset`).
    pub const KEY: u64 = 0x1100;
    /// Allocation size: large enough to hold `KEY`, so the key is not
    /// stored in (and zeroed or overwritten by) the next allocation.
    pub const SIZE: u64 = 0x2000;
}

/// Boots the table: `NUM_BUCKETS` bucket words plus the table lock.
pub fn boot(env: &Env<'_>) -> KResult<Vec<(&'static str, u64)>> {
    let tbl = env.kzalloc(8 * NUM_BUCKETS)?;
    let lock = env.kzalloc(8)?;
    Ok(vec![("rht.tbl", tbl), ("rht.lock", lock)])
}

fn bucket_addr(env: &Env<'_>, key: u64) -> u64 {
    env.sym("rht.tbl") + 8 * (key % NUM_BUCKETS)
}

/// Walks the chain starting at the bucket for `key`, returning the matching
/// queue address or 0.
///
/// The head-pointer extraction models `rht_ptr()`'s `(*bkt & ~BIT(0)) ?: bkt`.
/// The *decision* that the bucket is non-empty is made on the first load; in
/// buggy builds the pointer actually dereferenced comes from a **second**
/// load of the same word (gcc -O2's code for the omitted-operand
/// conditional), and the emitted code does not re-test it — so a concurrent
/// zeroing between the two loads sends a null object pointer straight into
/// the key comparison at `ptr + KEY`, faulting in the low guard pages.
fn rht_lookup(env: &Env<'_>, key: u64) -> KResult<u64> {
    let bkt = bucket_addr(env, key);
    let first = env.ctx.read_u64(site!("rht_ptr:first_fetch"), bkt)?;
    if first & !1 == 0 {
        // Empty bucket (or only the lock bit set): `?:` yields `bkt` itself,
        // which the caller recognizes as "no entry".
        return Ok(0);
    }
    let mut p = if env.config.has_bug(1) {
        // Compiler option 2: mov (%eax),%eax — a second, unchecked load.
        env.ctx.read_u64(site!("rht_ptr:second_fetch"), bkt)? & !1
    } else {
        first & !1
    };
    loop {
        // memcmp(ptr + ht->p.key_offset, arg->key, ...) — performed without
        // re-validating `p`, exactly like the compiled lookup.
        let k = env.ctx.read_u64(site!("ipcget:key_cmp"), p + msq::KEY)?;
        if k == key {
            return Ok(p);
        }
        p = env.ctx.read_u64(site!("rht_lookup:next"), p + msq::NEXT)?;
        if p == 0 {
            return Ok(0);
        }
    }
}

/// `msgget(key)`: look the queue up, creating it if absent. Returns the
/// queue id (its kernel address, standing in for the IPC id).
pub fn msgget(env: &Env<'_>, key: u64) -> KResult<u64> {
    let key = key % (NUM_BUCKETS * 2);
    if let found @ 1.. = rht_lookup(env, key)? {
        return Ok(found);
    }
    // Insert a fresh queue at the chain head, under the bucket lock.
    let m = env.kzalloc(msq::SIZE)?;
    env.ctx.write_u64(site!("msg_insert:key"), m + msq::KEY, key)?;
    env.ctx
        .write_u32(site!("msg_insert:mode"), m + msq::MODE, 0o666)?;
    let bkt = bucket_addr(env, key);
    let lock = env.sym("rht.lock");
    env.ctx.with_lock(lock, || {
        let head = env.ctx.read_u64(site!("rht_insert:head"), bkt)?;
        env.ctx
            .write_u64(site!("rht_insert:chain"), m + msq::NEXT, head & !1)?;
        // rht_assign_unlock publishes the new head (lock bit clear).
        env.ctx.write_u64(site!("rht_assign_unlock:insert"), bkt, m)?;
        Ok(())
    })?;
    Ok(m)
}

/// Message-ring layout inside the msq object.
pub mod ring {
    /// First slot (8 slots × 8 bytes: mtype u32 + value u32).
    pub const SLOTS: u64 = 16;
    /// Ring capacity.
    pub const CAP: u64 = 8;
    /// Head counter (u32).
    pub const HEAD: u64 = 0x80;
    /// Tail counter (u32).
    pub const TAIL: u64 = 0x84;
    /// Per-queue lock cell.
    pub const LOCK: u64 = 0x200;
}

/// Scans the table for a queue with address `id`, validating the handle.
fn find_queue(env: &Env<'_>, id: u64) -> KResult<u64> {
    for b in 0..NUM_BUCKETS {
        let bkt = env.sym("rht.tbl") + 8 * b;
        let mut p = env.ctx.read_u64(site!("ipc_obtain_object:bucket"), bkt)? & !1;
        while p != 0 {
            if p == id {
                return Ok(p);
            }
            p = env
                .ctx
                .read_u64(site!("ipc_obtain_object:next"), p + msq::NEXT)?;
        }
    }
    Ok(0)
}

/// `msgsnd(id, mtype, val)`: append a message to the queue's ring.
pub fn msgsnd(env: &Env<'_>, id: u64, mtype: u64, val: u64) -> KResult<u64> {
    let q = find_queue(env, id)?;
    if q == 0 {
        return Ok(ENOENT);
    }
    env.ctx.with_lock(q + ring::LOCK, || {
        let head = env.ctx.read_u32(site!("do_msgsnd:head"), q + ring::HEAD)?;
        let tail = env.ctx.read_u32(site!("do_msgsnd:tail"), q + ring::TAIL)?;
        if tail.wrapping_sub(head) >= ring::CAP {
            return Ok(crate::errno(11)); // EAGAIN: queue full.
        }
        let slot = q + ring::SLOTS + (tail % ring::CAP) * 8;
        env.ctx.write_u32(site!("do_msgsnd:mtype"), slot, mtype.max(1))?;
        env.ctx.write_u32(site!("do_msgsnd:value"), slot + 4, val)?;
        env.ctx
            .write_u32(site!("do_msgsnd:tail_pub"), q + ring::TAIL, tail + 1)?;
        let n = env.ctx.read_u32(site!("do_msgsnd:qnum"), q + msq::QNUM)?;
        env.ctx.write_u32(site!("do_msgsnd:qnum"), q + msq::QNUM, n + 1)?;
        Ok(0)
    })
}

/// `msgrcv(id, mtype)`: pop the first message of type `mtype` (0 = any).
pub fn msgrcv(env: &Env<'_>, id: u64, mtype: u64) -> KResult<u64> {
    let q = find_queue(env, id)?;
    if q == 0 {
        return Ok(ENOENT);
    }
    env.ctx.with_lock(q + ring::LOCK, || {
        let head = env.ctx.read_u32(site!("do_msgrcv:head"), q + ring::HEAD)?;
        let tail = env.ctx.read_u32(site!("do_msgrcv:tail"), q + ring::TAIL)?;
        let mut pos = head;
        while pos < tail {
            let slot = q + ring::SLOTS + (pos % ring::CAP) * 8;
            let t = env.ctx.read_u32(site!("do_msgrcv:mtype"), slot)?;
            if mtype == 0 || t == mtype.max(1) {
                let v = env.ctx.read_u32(site!("do_msgrcv:value"), slot + 4)?;
                // Compact the ring: shift the remaining messages down.
                let mut cur = pos;
                while cur + 1 < tail {
                    let src = q + ring::SLOTS + ((cur + 1) % ring::CAP) * 8;
                    let dst = q + ring::SLOTS + (cur % ring::CAP) * 8;
                    let mt = env.ctx.read_u32(site!("do_msgrcv:shift_t"), src)?;
                    let mv = env.ctx.read_u32(site!("do_msgrcv:shift_v"), src + 4)?;
                    env.ctx.write_u32(site!("do_msgrcv:shift_t"), dst, mt)?;
                    env.ctx.write_u32(site!("do_msgrcv:shift_v"), dst + 4, mv)?;
                    cur += 1;
                }
                env.ctx
                    .write_u32(site!("do_msgrcv:tail_pub"), q + ring::TAIL, tail - 1)?;
                let n = env.ctx.read_u32(site!("do_msgrcv:qnum"), q + msq::QNUM)?;
                env.ctx.write_u32(
                    site!("do_msgrcv:qnum"),
                    q + msq::QNUM,
                    n.saturating_sub(1),
                )?;
                return Ok(v);
            }
            pos += 1;
        }
        Ok(crate::errno(42)) // ENOMSG.
    })
}

/// `msgctl(id, cmd)`: stat or remove a queue by id.
pub fn msgctl(env: &Env<'_>, id: u64, cmd: MsgCmd) -> KResult<u64> {
    match cmd {
        MsgCmd::Stat => {
            // Validate the id by scanning the table; read a couple of fields.
            for b in 0..NUM_BUCKETS {
                let bkt = env.sym("rht.tbl") + 8 * b;
                let mut p = env.ctx.read_u64(site!("msgctl_stat:bucket"), bkt)? & !1;
                while p != 0 {
                    if p == id {
                        let qnum = env.ctx.read_u32(site!("msgctl_stat:qnum"), p + msq::QNUM)?;
                        return Ok(qnum);
                    }
                    p = env.ctx.read_u64(site!("msgctl_stat:next"), p + msq::NEXT)?;
                }
            }
            Ok(ENOENT)
        }
        MsgCmd::Rmid => {
            let lock = env.sym("rht.lock");
            let tbl = env.sym("rht.tbl");
            env.ctx.lock(lock)?;
            for b in 0..NUM_BUCKETS {
                let bkt = tbl + 8 * b;
                let head = env.ctx.read_u64(site!("msgctl_rmid:bucket"), bkt)? & !1;
                let mut prev = 0u64;
                let mut p = head;
                while p != 0 {
                    let next = env.ctx.read_u64(site!("msgctl_rmid:next"), p + msq::NEXT)?;
                    if p == id {
                        if prev == 0 {
                            // Removing the chain head: rht_assign_unlock
                            // stores the successor (possibly 0 — the write
                            // that zeroes the bucket in bug #1's window).
                            env.ctx
                                .write_u64(site!("rht_assign_unlock:remove"), bkt, next)?;
                        } else {
                            env.ctx.write_u64(
                                site!("msgctl_rmid:unlink"),
                                prev + msq::NEXT,
                                next,
                            )?;
                        }
                        env.ctx.unlock(lock)?;
                        env.kfree(p, msq::SIZE)?;
                        return Ok(0);
                    }
                    prev = p;
                    p = next;
                }
            }
            env.ctx.unlock(lock)?;
            Ok(ENOENT)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{boot, KernelConfig};
    use sb_vmm::sched::FreeRun;
    use sb_vmm::{Ctx, Executor, ExecReport};

    fn seq_env_run(
        config: KernelConfig,
        f: impl Fn(&Env<'_>) -> KResult<()> + Send + 'static,
    ) -> ExecReport {
        let booted = boot(config);
        let mut exec = Executor::new(1);
        let kernel = booted.kernel.clone();
        exec.run(
            booted.snapshot.clone(),
            vec![Box::new(move |ctx: &Ctx| {
                let env = Env {
                    ctx,
                    syms: &kernel.syms,
                    config: kernel.config,
                };
                f(&env)
            })],
            &mut FreeRun,
        )
        .report
    }

    #[test]
    fn msgget_creates_then_finds() {
        let r = seq_env_run(KernelConfig::v5_3_10(), |env| {
            let a = msgget(env, 3)?;
            let b = msgget(env, 3)?;
            assert_eq!(a, b, "second msgget must find the first queue");
            let c = msgget(env, 5)?;
            assert_ne!(a, c);
            Ok(())
        });
        assert!(r.outcome.is_completed(), "{:?}", r.console);
    }

    #[test]
    fn colliding_keys_chain_in_one_bucket() {
        let r = seq_env_run(KernelConfig::v5_3_10(), |env| {
            // Keys 1 and 5 collide modulo NUM_BUCKETS=4.
            let a = msgget(env, 1)?;
            let b = msgget(env, 5)?;
            assert_ne!(a, b);
            assert_eq!(msgget(env, 1)?, a);
            assert_eq!(msgget(env, 5)?, b);
            Ok(())
        });
        assert!(r.outcome.is_completed(), "{:?}", r.console);
    }

    #[test]
    fn rmid_unlinks_head_and_interior() {
        let r = seq_env_run(KernelConfig::v5_3_10(), |env| {
            let a = msgget(env, 1)?;
            let b = msgget(env, 5)?; // Chain head is now b.
            assert_eq!(msgctl(env, b, MsgCmd::Rmid)?, 0); // Head removal.
            assert_eq!(msgget(env, 1)?, a, "interior entry survives");
            assert_eq!(msgctl(env, a, MsgCmd::Rmid)?, 0);
            let fresh = msgget(env, 1)?;
            assert_ne!(fresh, 0);
            Ok(())
        });
        assert!(r.outcome.is_completed(), "{:?}", r.console);
    }

    #[test]
    fn stat_reports_enoent_for_unknown_id() {
        let r = seq_env_run(KernelConfig::v5_3_10(), |env| {
            assert_eq!(msgctl(env, 0xdead_beef, MsgCmd::Stat)?, ENOENT);
            Ok(())
        });
        assert!(r.outcome.is_completed());
    }

    #[test]
    fn double_fetch_only_in_5_3_10() {
        // Count rht_ptr fetches in each build via the trace.
        let count_fetches = |config: KernelConfig| {
            let booted = boot(config);
            let mut exec = Executor::new(1);
            let kernel = booted.kernel.clone();
            let r = exec.run(
                booted.snapshot.clone(),
                vec![Box::new(move |ctx: &Ctx| {
                    let env = Env {
                        ctx,
                        syms: &kernel.syms,
                        config: kernel.config,
                    };
                    msgget(&env, 3)?;
                    msgget(&env, 3)?; // Second call performs the lookup hit.
                    Ok(())
                })],
                &mut FreeRun,
            );
            assert!(r.report.outcome.is_completed());
            let second = sb_vmm::Site::intern("rht_ptr:second_fetch");
            r.report
                .trace
                .iter()
                .filter(|a| a.site == second)
                .count()
        };
        assert!(count_fetches(KernelConfig::v5_3_10()) > 0);
        assert_eq!(count_fetches(KernelConfig::v5_12_rc3()), 0);
        assert_eq!(count_fetches(KernelConfig::v5_3_10().patched()), 0);
    }
}
