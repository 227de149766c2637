//! Guest physical memory: byte-addressable, deterministically allocated,
//! snapshotted by page-granular copy-on-write.
//!
//! The paper relies on the crucial property that, starting from the same VM
//! snapshot, the same sequence of kernel operations produces the same memory
//! layout — so PMCs predicted from sequential profiles remain meaningful when
//! the two tests later run concurrently (§4.1). This module provides that
//! property: a fixed-size guest address space with a deterministic
//! size-classed slab allocator, a faulting low-memory guard region (so null
//! and near-null dereferences oops like real page faults), and per-thread
//! 8 KiB kernel-stack regions laid out exactly as the paper's ESP-masking
//! formula assumes (§4.1.1).
//!
//! ## Snapshot model
//!
//! Snowboard's throughput is bounded by how fast trials can be launched from
//! the boot snapshot (§5.4), so cloning a snapshot must not cost a 16 MiB
//! memcpy. `GuestMem` is an `Arc`-shared immutable *base* image plus a
//! per-instance *overlay* of dirty 4 KiB pages: reads fall through to the
//! base, the first write to a page copies it into the overlay, and `clone`
//! only bumps the base refcount and copies the (usually empty) overlay.
//! [`GuestMem::seal`] folds the overlay back into a fresh base — the boot
//! path calls it once so every trial starts from a clean, fully-shared
//! image. [`GuestMem::deep_clone`] materializes a private flat copy,
//! reproducing the historical whole-memory clone for benchmarking.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::ctx::Fault;

/// Total guest memory size in bytes (16 MiB).
pub const GUEST_MEM_SIZE: u64 = 1 << 24;

/// Copy-on-write granularity: one guest page, 4 KiB.
pub const PAGE_SIZE: u64 = 0x1000;

/// Number of guest pages.
const PAGE_COUNT: usize = (GUEST_MEM_SIZE / PAGE_SIZE) as usize;

/// Addresses below this bound fault, emulating unmapped low pages.
///
/// The first page models a null-pointer dereference; the rest of the guard
/// models wild near-null pointers (e.g. a field offset added to a null base),
/// which the paper's bug #1 produces.
pub const NULL_GUARD_END: u64 = 0x1_0000;

/// Per-thread kernel stack size: 8 KiB, two physical pages, matching the
/// Linux x86 configuration described in §4.1.1.
pub const STACK_SIZE: u64 = 0x2000;

/// Maximum number of simulated vCPUs / kernel threads.
pub const MAX_THREADS: usize = 4;

/// Base of the kernel-stack area. Stacks are `STACK_SIZE`-aligned and sit at
/// the top of guest memory, one per thread.
pub const STACKS_BASE: u64 = GUEST_MEM_SIZE - (MAX_THREADS as u64) * STACK_SIZE;

/// Start of the dynamic allocation arena.
pub const HEAP_BASE: u64 = NULL_GUARD_END;

/// Returns the base address of thread `tid`'s kernel stack.
pub fn stack_base(tid: usize) -> u64 {
    assert!(tid < MAX_THREADS, "thread id {tid} out of range");
    STACKS_BASE + (tid as u64) * STACK_SIZE
}

/// Computes the kernel stack range containing stack pointer `sp`, using the
/// mask formula from §4.1.1:
/// `[sp & !(STACK_SIZE-1), (sp & !(STACK_SIZE-1)) + STACK_SIZE)`.
pub fn stack_range_of(sp: u64) -> (u64, u64) {
    let base = sp & !(STACK_SIZE - 1);
    (base, base + STACK_SIZE)
}

/// Returns true if `addr` falls inside any thread's kernel-stack region.
pub fn is_stack_addr(addr: u64) -> bool {
    (STACKS_BASE..GUEST_MEM_SIZE).contains(&addr)
}

/// The allocator size classes, in bytes. Allocations round up to the nearest
/// class; larger requests fail with [`Fault::Oom`].
const SIZE_CLASSES: [u64; 9] = [8, 16, 32, 64, 128, 256, 1024, 4096, 8192];

/// One copy-on-write page.
type Page = Box<[u8; PAGE_SIZE as usize]>;

/// Guest memory with a deterministic slab allocator and copy-on-write
/// snapshots.
///
/// Cloning a `GuestMem` is how snapshots work: boot the kernel once,
/// [`seal`](GuestMem::seal) the result, clone it before every trial, and
/// every trial observes the exact same initial state and future allocation
/// addresses — while sharing the boot image instead of copying 16 MiB.
#[derive(Clone)]
pub struct GuestMem {
    /// The shared immutable base image. Never written after construction.
    base: Arc<Vec<u8>>,
    /// Dirty pages, lazily copied from the base on first write.
    overlay: Vec<Option<Page>>,
    /// Number of `Some` entries in `overlay`.
    dirty: u64,
    /// Bump pointer for fresh slab pages.
    brk: u64,
    /// Free lists per size class, keyed by class size. `Vec` used as a LIFO
    /// so reallocation is deterministic.
    free: BTreeMap<u64, Vec<u64>>,
    /// Live allocations, address → size class. Guards against double,
    /// wild, and wrong-size frees, which would silently break allocation
    /// determinism (§4.1) by duplicating free-list entries.
    allocs: BTreeMap<u64, u64>,
    /// Count of live allocations, for leak diagnostics.
    live: u64,
}

fn empty_overlay() -> Vec<Option<Page>> {
    let mut v = Vec::with_capacity(PAGE_COUNT);
    v.resize_with(PAGE_COUNT, || None);
    v
}

impl Default for GuestMem {
    fn default() -> Self {
        Self::new()
    }
}

impl GuestMem {
    /// Creates a zeroed guest memory with an empty heap.
    pub fn new() -> Self {
        GuestMem {
            base: Arc::new(vec![0u8; GUEST_MEM_SIZE as usize]),
            overlay: empty_overlay(),
            dirty: 0,
            brk: HEAP_BASE,
            free: BTreeMap::new(),
            allocs: BTreeMap::new(),
            live: 0,
        }
    }

    /// Number of live (allocated, not yet freed) heap objects.
    pub fn live_allocations(&self) -> u64 {
        self.live
    }

    /// Current bump pointer; useful to verify allocation determinism.
    pub fn brk(&self) -> u64 {
        self.brk
    }

    /// Number of pages copied out of the shared base by writes since the
    /// last [`seal`](GuestMem::seal) (or construction).
    pub fn dirty_pages(&self) -> u64 {
        self.dirty
    }

    /// Folds the dirty overlay into a fresh immutable base, leaving an
    /// instance whose clones share the entire image.
    ///
    /// Called once after boot: the one-time 16 MiB copy here is what makes
    /// every later per-trial `clone` an `Arc` bump instead of a memcpy.
    pub fn seal(&mut self) {
        if self.dirty == 0 {
            return;
        }
        let mut bytes = self.base.as_ref().clone();
        for (pi, slot) in self.overlay.iter_mut().enumerate() {
            if let Some(page) = slot.take() {
                let start = pi * PAGE_SIZE as usize;
                bytes[start..start + PAGE_SIZE as usize].copy_from_slice(&page[..]);
            }
        }
        self.base = Arc::new(bytes);
        self.dirty = 0;
    }

    /// Materializes a fully private flat copy — the historical
    /// whole-memory snapshot clone. Semantically identical to `clone`, but
    /// costs a 16 MiB copy and shares nothing. Kept for benchmarking the
    /// copy-on-write path against the old behavior and for tests that pin
    /// the two bit-identical.
    pub fn deep_clone(&self) -> Self {
        GuestMem {
            base: Arc::new(self.flatten()),
            overlay: empty_overlay(),
            dirty: 0,
            brk: self.brk,
            free: self.free.clone(),
            allocs: self.allocs.clone(),
            live: self.live,
        }
    }

    /// The current byte image with all dirty pages applied.
    fn flatten(&self) -> Vec<u8> {
        let mut bytes = self.base.as_ref().clone();
        for (pi, slot) in self.overlay.iter().enumerate() {
            if let Some(page) = slot {
                let start = pi * PAGE_SIZE as usize;
                bytes[start..start + PAGE_SIZE as usize].copy_from_slice(&page[..]);
            }
        }
        bytes
    }

    /// Read view of page `pi`: the dirty copy if one exists, else the base.
    #[inline]
    fn page(&self, pi: usize) -> &[u8] {
        match &self.overlay[pi] {
            Some(p) => &p[..],
            None => {
                let start = pi * PAGE_SIZE as usize;
                &self.base[start..start + PAGE_SIZE as usize]
            }
        }
    }

    /// Write view of page `pi`, copying it out of the base on first use.
    #[inline]
    fn page_mut(&mut self, pi: usize) -> &mut [u8] {
        if self.overlay[pi].is_none() {
            let start = pi * PAGE_SIZE as usize;
            let mut page = Box::new([0u8; PAGE_SIZE as usize]);
            page.copy_from_slice(&self.base[start..start + PAGE_SIZE as usize]);
            self.overlay[pi] = Some(page);
            self.dirty += 1;
        }
        &mut self.overlay[pi].as_mut().expect("just materialized")[..]
    }

    fn check_range(addr: u64, len: u8) -> Result<(), Fault> {
        let len = u64::from(len);
        if len == 0 || len > 8 {
            return Err(Fault::BadAccess { addr, len: len as u8 });
        }
        if addr < NULL_GUARD_END {
            if addr < 0x1000 {
                return Err(Fault::NullDeref { addr });
            }
            return Err(Fault::PageFault { addr });
        }
        if addr.checked_add(len).is_none_or(|end| end > GUEST_MEM_SIZE) {
            return Err(Fault::PageFault { addr });
        }
        Ok(())
    }

    /// Reads `len` bytes (1..=8) at `addr` as a little-endian value.
    pub fn read(&self, addr: u64, len: u8) -> Result<u64, Fault> {
        Self::check_range(addr, len)?;
        let mut buf = [0u8; 8];
        let start = addr as usize;
        let len = len as usize;
        let pi = start / PAGE_SIZE as usize;
        let off = start % PAGE_SIZE as usize;
        if off + len <= PAGE_SIZE as usize {
            buf[..len].copy_from_slice(&self.page(pi)[off..off + len]);
        } else {
            // The access straddles a page boundary; split it.
            let first = PAGE_SIZE as usize - off;
            buf[..first].copy_from_slice(&self.page(pi)[off..]);
            buf[first..len].copy_from_slice(&self.page(pi + 1)[..len - first]);
        }
        Ok(u64::from_le_bytes(buf))
    }

    /// Writes the low `len` bytes (1..=8) of `value` at `addr`, little-endian.
    pub fn write(&mut self, addr: u64, len: u8, value: u64) -> Result<(), Fault> {
        Self::check_range(addr, len)?;
        let start = addr as usize;
        let len = len as usize;
        let bytes = value.to_le_bytes();
        let pi = start / PAGE_SIZE as usize;
        let off = start % PAGE_SIZE as usize;
        if off + len <= PAGE_SIZE as usize {
            self.page_mut(pi)[off..off + len].copy_from_slice(&bytes[..len]);
        } else {
            let first = PAGE_SIZE as usize - off;
            self.page_mut(pi)[off..].copy_from_slice(&bytes[..first]);
            self.page_mut(pi + 1)[..len - first].copy_from_slice(&bytes[first..len]);
        }
        Ok(())
    }

    /// Zeroes `[addr, addr + len)`; the range may span pages (max one
    /// size class, 4 KiB, so at most two).
    fn zero_range(&mut self, addr: u64, len: u64) {
        let mut pos = addr as usize;
        let end = addr as usize + len as usize;
        while pos < end {
            let pi = pos / PAGE_SIZE as usize;
            let off = pos % PAGE_SIZE as usize;
            let n = (PAGE_SIZE as usize - off).min(end - pos);
            self.page_mut(pi)[off..off + n].fill(0);
            pos += n;
        }
    }

    fn size_class(len: u64) -> Option<u64> {
        SIZE_CLASSES.iter().copied().find(|c| *c >= len)
    }

    /// Allocates `len` bytes, zeroing the returned object.
    ///
    /// Allocation is fully deterministic: the same sequence of
    /// `kmalloc`/`kfree` calls from the same snapshot yields the same
    /// addresses — the property PMC prediction relies on (§4.1).
    pub fn kmalloc(&mut self, len: u64) -> Result<u64, Fault> {
        let class = Self::size_class(len).ok_or(Fault::Oom)?;
        let addr = if let Some(a) = self.free.get_mut(&class).and_then(Vec::pop) {
            a
        } else {
            let a = self.brk;
            let end = a.checked_add(class).ok_or(Fault::Oom)?;
            if end > STACKS_BASE {
                return Err(Fault::Oom);
            }
            self.brk = end;
            a
        };
        // Fresh objects are zeroed, like kzalloc; this keeps reads of
        // just-allocated objects deterministic.
        self.zero_range(addr, class);
        self.allocs.insert(addr, class);
        self.live += 1;
        Ok(addr)
    }

    /// Returns an object of `len` bytes at `addr` to its size-class free
    /// list.
    ///
    /// The free must match a live allocation exactly: freeing an address
    /// that was never allocated (or already freed) faults, as does freeing
    /// with a length that rounds to a different size class than the
    /// original allocation. Either would corrupt the free lists — the same
    /// address filed twice hands the *same* object to two later
    /// `kmalloc`s, and a wrong-class free changes which list future
    /// allocations reuse — silently breaking the §4.1 determinism
    /// invariant PMC prediction depends on.
    pub fn kfree(&mut self, addr: u64, len: u64) -> Result<(), Fault> {
        let class = Self::size_class(len).ok_or(Fault::BadAccess { addr, len: 8 })?;
        if !(HEAP_BASE..STACKS_BASE).contains(&addr) {
            return Err(Fault::PageFault { addr });
        }
        match self.allocs.get(&addr) {
            // Double free or never-allocated address.
            None => Err(Fault::BadAccess { addr, len: 8 }),
            // Length rounds to a different class than the allocation.
            Some(&c) if c != class => Err(Fault::BadAccess { addr, len: 8 }),
            Some(_) => {
                self.allocs.remove(&addr);
                self.free.entry(class).or_default().push(addr);
                self.live = self.live.saturating_sub(1);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic differential fuzz of the CoW overlay against a flat
    /// byte-array model, driven by a splitmix64 stream.
    #[test]
    fn cow_differential_vs_flat_model() {
        use crate::rng::splitmix64;
        let window = (PAGE_SIZE * 12) as usize;
        let mut cow = GuestMem::new();
        let mut flat = vec![0u8; window];
        let mut rng = 0xC0FF_EE00_u64;
        for step in 0..4_000u32 {
            let r = splitmix64(&mut rng);
            // Half the offsets hug a page boundary so straddles are common.
            let off = if r & 1 == 0 {
                (r >> 1) % (window as u64 - 8)
            } else {
                let page = 1 + (r >> 1) % 11;
                page * PAGE_SIZE - 4
            };
            let len = 1 + ((r >> 16) % 8) as u8;
            match (r >> 8) % 10 {
                0..=4 => {
                    let value = splitmix64(&mut rng);
                    cow.write(HEAP_BASE + off, len, value).unwrap();
                    let bytes = value.to_le_bytes();
                    flat[off as usize..off as usize + len as usize]
                        .copy_from_slice(&bytes[..len as usize]);
                }
                5..=8 => {
                    let mut bytes = [0u8; 8];
                    bytes[..len as usize].copy_from_slice(
                        &flat[off as usize..off as usize + len as usize],
                    );
                    assert_eq!(
                        cow.read(HEAP_BASE + off, len).unwrap(),
                        u64::from_le_bytes(bytes),
                        "step {step}, off {off:#x}, len {len}"
                    );
                }
                _ => cow.seal(),
            }
        }
        for off in (0..window as u64 - 8).step_by(8) {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(&flat[off as usize..off as usize + 8]);
            assert_eq!(
                cow.read(HEAP_BASE + off, 8).unwrap(),
                u64::from_le_bytes(bytes),
                "final sweep at {off:#x}"
            );
        }
    }

    #[test]
    fn read_write_round_trip_all_widths() {
        let mut m = GuestMem::new();
        let a = m.kmalloc(8).unwrap();
        for len in 1u8..=8 {
            let val = 0x1122_3344_5566_7788u64 & (u64::MAX >> (64 - 8 * u32::from(len)));
            m.write(a, len, val).unwrap();
            assert_eq!(m.read(a, len).unwrap(), val, "width {len}");
        }
    }

    #[test]
    fn little_endian_overlap_semantics() {
        let mut m = GuestMem::new();
        let a = m.kmalloc(8).unwrap();
        m.write(a, 8, 0x0807_0605_0403_0201).unwrap();
        assert_eq!(m.read(a, 1).unwrap(), 0x01);
        assert_eq!(m.read(a + 2, 2).unwrap(), 0x0403);
        assert_eq!(m.read(a + 4, 4).unwrap(), 0x0807_0605);
    }

    #[test]
    fn page_straddling_access_round_trips() {
        let mut m = GuestMem::new();
        // 3 bytes before a page boundary, 5 after.
        let addr = HEAP_BASE + PAGE_SIZE - 3;
        m.write(addr, 8, 0x0807_0605_0403_0201).unwrap();
        assert_eq!(m.read(addr, 8).unwrap(), 0x0807_0605_0403_0201);
        assert_eq!(m.read(addr + 3, 1).unwrap(), 0x04);
        // Both halves are dirty now.
        assert_eq!(m.dirty_pages(), 2);
    }

    #[test]
    fn null_guard_faults() {
        let m = GuestMem::new();
        assert!(matches!(m.read(0, 8), Err(Fault::NullDeref { .. })));
        assert!(matches!(m.read(8, 4), Err(Fault::NullDeref { .. })));
        assert!(matches!(m.read(0x2000, 4), Err(Fault::PageFault { .. })));
    }

    #[test]
    fn out_of_bounds_faults() {
        let m = GuestMem::new();
        assert!(matches!(
            m.read(GUEST_MEM_SIZE - 4, 8),
            Err(Fault::PageFault { .. })
        ));
        assert!(matches!(m.read(u64::MAX, 8), Err(Fault::PageFault { .. })));
    }

    #[test]
    fn zero_and_oversized_lengths_rejected() {
        let mut m = GuestMem::new();
        let a = m.kmalloc(16).unwrap();
        assert!(matches!(m.read(a, 0), Err(Fault::BadAccess { .. })));
        assert!(matches!(m.write(a, 9, 0), Err(Fault::BadAccess { .. })));
    }

    #[test]
    fn allocation_is_deterministic() {
        let run = || {
            let mut m = GuestMem::new();
            let a = m.kmalloc(24).unwrap();
            let b = m.kmalloc(24).unwrap();
            m.kfree(a, 24).unwrap();
            let c = m.kmalloc(17).unwrap();
            (a, b, c)
        };
        assert_eq!(run(), run());
        let (a, _b, c) = run();
        // Freed object is reused LIFO within its size class.
        assert_eq!(a, c);
    }

    #[test]
    fn allocations_are_zeroed_on_reuse() {
        let mut m = GuestMem::new();
        let a = m.kmalloc(8).unwrap();
        m.write(a, 8, u64::MAX).unwrap();
        m.kfree(a, 8).unwrap();
        let b = m.kmalloc(8).unwrap();
        assert_eq!(a, b);
        assert_eq!(m.read(b, 8).unwrap(), 0);
    }

    #[test]
    fn double_free_faults_and_preserves_determinism() {
        let mut m = GuestMem::new();
        let a = m.kmalloc(32).unwrap();
        m.kfree(a, 32).unwrap();
        // The second free of the same object must fault instead of filing
        // the address twice (which would hand the same object to two later
        // kmallocs).
        assert!(matches!(m.kfree(a, 32), Err(Fault::BadAccess { .. })));
        let b = m.kmalloc(32).unwrap();
        let c = m.kmalloc(32).unwrap();
        assert_eq!(a, b);
        assert_ne!(b, c);
    }

    #[test]
    fn wild_free_faults() {
        let mut m = GuestMem::new();
        let a = m.kmalloc(64).unwrap();
        // In-heap but never handed out by kmalloc.
        assert!(matches!(m.kfree(a + 8, 64), Err(Fault::BadAccess { .. })));
        // Outside the heap entirely.
        assert!(matches!(m.kfree(stack_base(0), 64), Err(Fault::PageFault { .. })));
        assert_eq!(m.live_allocations(), 1);
    }

    #[test]
    fn wrong_size_class_free_faults() {
        let mut m = GuestMem::new();
        let a = m.kmalloc(100).unwrap(); // class 128
        // 64 rounds to class 64 ≠ 128: filing under the wrong list would
        // corrupt reuse determinism for both classes.
        assert!(matches!(m.kfree(a, 64), Err(Fault::BadAccess { .. })));
        // Any length rounding to the allocation's class is fine.
        m.kfree(a, 128).unwrap();
        assert_eq!(m.live_allocations(), 0);
    }

    #[test]
    fn snapshot_clone_is_independent() {
        let mut m = GuestMem::new();
        let a = m.kmalloc(8).unwrap();
        m.write(a, 8, 7).unwrap();
        let snap = m.clone();
        m.write(a, 8, 9).unwrap();
        assert_eq!(snap.read(a, 8).unwrap(), 7);
        assert_eq!(m.read(a, 8).unwrap(), 9);
    }

    #[test]
    fn sealed_clone_shares_pages_until_written() {
        let mut m = GuestMem::new();
        let a = m.kmalloc(8).unwrap();
        m.write(a, 8, 7).unwrap();
        m.seal();
        assert_eq!(m.dirty_pages(), 0);
        let mut trial = m.clone();
        assert_eq!(trial.dirty_pages(), 0);
        assert_eq!(trial.read(a, 8).unwrap(), 7);
        trial.write(a, 8, 9).unwrap();
        assert_eq!(trial.dirty_pages(), 1);
        // The sealed original never sees trial writes.
        assert_eq!(m.read(a, 8).unwrap(), 7);
    }

    #[test]
    fn deep_clone_matches_cow_clone() {
        let mut m = GuestMem::new();
        let a = m.kmalloc(24).unwrap();
        m.write(a, 8, 0xDEAD_BEEF).unwrap();
        m.seal();
        let mut cow = m.clone();
        let mut deep = m.deep_clone();
        // Identical semantics: same reads, same future allocations.
        assert_eq!(cow.read(a, 8).unwrap(), deep.read(a, 8).unwrap());
        assert_eq!(cow.kmalloc(24).unwrap(), deep.kmalloc(24).unwrap());
        cow.kfree(a, 24).unwrap();
        deep.kfree(a, 24).unwrap();
        assert_eq!(cow.kmalloc(20).unwrap(), deep.kmalloc(20).unwrap());
    }

    #[test]
    fn stack_mask_formula_matches_paper() {
        let tid = 1;
        let base = stack_base(tid);
        let sp = base + 0x123;
        assert_eq!(stack_range_of(sp), (base, base + STACK_SIZE));
        assert!(is_stack_addr(sp));
        assert!(!is_stack_addr(HEAP_BASE));
    }

    #[test]
    fn oom_on_giant_allocation() {
        let mut m = GuestMem::new();
        assert!(matches!(m.kmalloc(1 << 20), Err(Fault::Oom)));
    }

    #[test]
    fn heap_exhaustion_is_oom_not_panic() {
        let mut m = GuestMem::new();
        let mut n = 0u64;
        loop {
            match m.kmalloc(4096) {
                Ok(_) => n += 1,
                Err(Fault::Oom) => break,
                Err(other) => panic!("unexpected fault {other:?}"),
            }
        }
        assert!(n > 100, "expected many 4 KiB allocations, got {n}");
    }
}
