//! Paged guest memory.
//!
//! Guest memory is a sparse collection of 4 KiB pages. Accessing an
//! unmapped page returns a fault rather than mapping silently: in the
//! co-designed component this is what raises DARCO's *data request*
//! synchronization event (the page is then fetched from the authoritative
//! x86 component), while the authoritative component itself maps pages
//! on demand like an OS would.
//!
//! ## Hot-path layout
//!
//! Page storage is an arena (`slots`) indexed through a `BTreeMap` page
//! table, fronted by two small direct-mapped *L0 TLBs* (one for reads,
//! one for writes) that cache `page → slot` resolutions. The typed
//! accessors (`read_u8` … `read_u64`, `write_*`, `read_width`,
//! `write_width`) all go through one const-generic pair, `load::<N>` and
//! `store::<N>`: a single-page access that hits the TLB is a fixed-size
//! `N`-byte copy, with no map lookup and no variable-length copy call.
//! Only an access that straddles a page boundary or misses the TLB falls
//! back to the general [`GuestMem::read`]/[`GuestMem::write`], which
//! refill the TLB. The TLBs are flushed whenever the page table changes
//! ([`GuestMem::map_zero`] of a new page, [`GuestMem::install_page`] of a
//! new page, [`GuestMem::unmap`]).
//!
//! Pages holding decoded instructions can be marked with
//! [`GuestMem::mark_code_page`]; writes to marked pages bump a generation
//! counter ([`GuestMem::code_gen`]) that decode caches use to invalidate
//! stale predecoded blocks (self-modifying code). Code pages are never
//! entered into the write TLB, so every write to one takes the slow path
//! and bumps the generation exactly once per page it touches. The
//! code-page set is probed on every write-TLB refill and by the host
//! backends' self-modification checks, so it hashes with `U32Hasher`
//! rather than SipHash.

use std::cell::Cell;
use std::collections::{BTreeMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// log2 of the page size.
pub const PAGE_SHIFT: u32 = 12;
/// Guest page size in bytes (4 KiB).
pub const PAGE_SIZE: u32 = 1 << PAGE_SHIFT;

/// Number of entries in each L0 TLB (direct-mapped by low page bits).
const TLB_ENTRIES: usize = 16;
const TLB_MASK: u32 = TLB_ENTRIES as u32 - 1;
/// An invalid TLB entry (tag half is zero; tags store `page + 1`).
const TLB_INVALID: u64 = 0;

/// A multiplicative hasher for the `u32` keys of the hot guest tables
/// (page numbers here, block entry PCs in
/// [`DecodeCache`](crate::predecode::DecodeCache)). The simulator picks
/// these keys itself, so SipHash's flooding resistance buys nothing here,
/// and SipHash took about a tenth of engine time in a native run.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct U32Hasher(u64);

impl Hasher for U32Hasher {
    #[inline]
    fn write_u32(&mut self, k: u32) {
        self.0 = (self.0 ^ k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(b as u32);
        }
    }

    /// Folds the well-mixed high half into the low bits the table
    /// indexes by.
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// `BuildHasher` for [`U32Hasher`] maps and sets.
pub(crate) type U32BuildHasher = BuildHasherDefault<U32Hasher>;

/// A memory access fault: the referenced page is not mapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageFault {
    /// The exact address whose page is missing.
    pub addr: u32,
    /// Whether the access was a write.
    pub write: bool,
}

/// Sparse, paged guest memory.
///
/// All accesses are little-endian and may straddle page boundaries; an
/// access faults if *any* byte of it touches an unmapped page, and a
/// faulting access performs no partial writes.
#[derive(Debug, Clone, Default)]
pub struct GuestMem {
    /// Page number → arena slot.
    page_map: BTreeMap<u32, u32>,
    /// Page storage arena. Slots are recycled through `free_slots`.
    slots: Vec<Vec<u8>>,
    free_slots: Vec<u32>,
    /// L0 TLBs: each entry packs `(page + 1) << 32 | slot`; 0 = invalid.
    /// `Cell` lets read paths refill on miss through `&self`.
    read_tlb: [Cell<u64>; TLB_ENTRIES],
    write_tlb: [Cell<u64>; TLB_ENTRIES],
    /// Pages containing predecoded instructions (see module docs).
    code_pages: HashSet<u32, U32BuildHasher>,
    code_gen: u64,
}

impl GuestMem {
    /// Creates empty memory with no mapped pages.
    pub fn new() -> GuestMem {
        GuestMem::default()
    }

    /// Page number of an address.
    #[inline]
    pub fn page_of(addr: u32) -> u32 {
        addr >> PAGE_SHIFT
    }

    #[inline]
    fn tlb_get(tlb: &[Cell<u64>; TLB_ENTRIES], page: u32) -> Option<u32> {
        let e = tlb[(page & TLB_MASK) as usize].get();
        ((e >> 32) == page as u64 + 1).then_some(e as u32)
    }

    #[inline]
    fn tlb_fill(tlb: &[Cell<u64>; TLB_ENTRIES], page: u32, slot: u32) {
        tlb[(page & TLB_MASK) as usize].set((page as u64 + 1) << 32 | slot as u64);
    }

    fn flush_tlbs(&self) {
        for e in &self.read_tlb {
            e.set(TLB_INVALID);
        }
        for e in &self.write_tlb {
            e.set(TLB_INVALID);
        }
    }

    /// Resolves a page for reading, refilling the read TLB on miss.
    #[inline]
    fn read_slot(&self, page: u32) -> Option<&[u8]> {
        let slot = match Self::tlb_get(&self.read_tlb, page) {
            Some(s) => s,
            None => {
                let s = *self.page_map.get(&page)?;
                Self::tlb_fill(&self.read_tlb, page, s);
                s
            }
        };
        Some(&self.slots[slot as usize])
    }

    /// Resolves a page for writing. Code pages never enter the write TLB,
    /// so every write to one lands here and bumps the generation.
    #[inline]
    fn write_slot(&mut self, page: u32) -> Option<u32> {
        if let Some(s) = Self::tlb_get(&self.write_tlb, page) {
            return Some(s);
        }
        let s = *self.page_map.get(&page)?;
        if self.code_pages.contains(&page) {
            self.code_gen += 1;
        } else {
            Self::tlb_fill(&self.write_tlb, page, s);
        }
        Some(s)
    }

    /// Mutable page contents for the store-commit fast path. `Some` only
    /// for mapped *non-code* pages: writes to a marked code page must go
    /// through [`GuestMem::write`] so the decode-cache generation
    /// advances exactly once per store, matching the reference
    /// emulator's commit bump-for-bump (the generation is serialized in
    /// checkpoints, so backends must agree on its value, not just on
    /// whether it changed).
    /// `None` on a write-TLB miss as well: the caller's `write` fallback
    /// resolves the page and fills the TLB, so the next commit to it
    /// hits here. Code pages never enter the write TLB, which is what
    /// keeps them off this path.
    #[inline]
    pub fn page_for_commit(&mut self, page: u32) -> Option<&mut [u8]> {
        let s = Self::tlb_get(&self.write_tlb, page)?;
        Some(&mut self.slots[s as usize])
    }

    /// Whether the page containing `addr` is mapped.
    pub fn is_mapped(&self, addr: u32) -> bool {
        self.read_slot(Self::page_of(addr)).is_some()
    }

    /// Maps a zero-filled page (no-op if already mapped).
    pub fn map_zero(&mut self, page: u32) {
        if self.page_map.contains_key(&page) {
            return;
        }
        let slot = self.alloc_slot();
        self.page_map.insert(page, slot);
        self.flush_tlbs();
    }

    /// Installs page contents, replacing any existing mapping.
    ///
    /// # Panics
    /// Panics if `data` is not exactly [`PAGE_SIZE`] bytes.
    pub fn install_page(&mut self, page: u32, data: Vec<u8>) {
        assert_eq!(data.len(), PAGE_SIZE as usize, "page must be {PAGE_SIZE} bytes");
        match self.page_map.get(&page) {
            Some(&slot) => {
                self.slots[slot as usize] = data;
                if self.code_pages.contains(&page) {
                    self.code_gen += 1;
                }
            }
            None => {
                let slot = self.alloc_slot();
                self.slots[slot as usize] = data;
                self.page_map.insert(page, slot);
                self.flush_tlbs();
            }
        }
    }

    /// Removes a page mapping (no-op if unmapped). Subsequent accesses to
    /// the page fault.
    pub fn unmap(&mut self, page: u32) {
        if let Some(slot) = self.page_map.remove(&page) {
            self.slots[slot as usize].clear();
            self.free_slots.push(slot);
            self.flush_tlbs();
            if self.code_pages.remove(&page) {
                self.code_gen += 1;
            }
        }
    }

    fn alloc_slot(&mut self) -> u32 {
        match self.free_slots.pop() {
            Some(s) => {
                self.slots[s as usize] = vec![0u8; PAGE_SIZE as usize];
                s
            }
            None => {
                self.slots.push(vec![0u8; PAGE_SIZE as usize]);
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Marks a page as holding predecoded instructions: subsequent writes
    /// to it bump [`GuestMem::code_gen`]. Evicts it from the write TLB.
    pub fn mark_code_page(&mut self, page: u32) {
        if self.code_pages.insert(page) {
            self.write_tlb[(page & TLB_MASK) as usize].set(TLB_INVALID);
        }
    }

    /// Generation counter bumped on every write to a marked code page (and
    /// on [`GuestMem::install_page`]/[`GuestMem::unmap`] of one). Decode
    /// caches compare this to detect self-modifying code.
    #[inline]
    pub fn code_gen(&self) -> u64 {
        self.code_gen
    }

    /// Whether `page` is marked as holding predecoded instructions.
    #[inline]
    pub fn is_code_page(&self, page: u32) -> bool {
        self.code_pages.contains(&page)
    }

    /// Whether the byte range `[addr, addr+len)` touches a marked code
    /// page. Host backends use this to detect self-modifying stores
    /// before they enter a transaction.
    #[inline]
    pub fn is_code(&self, addr: u32, len: u32) -> bool {
        let first = Self::page_of(addr);
        let last = Self::page_of(addr.wrapping_add(len.saturating_sub(1)));
        self.code_pages.contains(&first) || (last != first && self.code_pages.contains(&last))
    }

    /// Returns a copy of a page's contents, if mapped.
    pub fn page(&self, page: u32) -> Option<&[u8]> {
        self.read_slot(page)
    }

    /// The in-page slice from `addr` to the end of its page, if mapped
    /// (the instruction-fetch fast path).
    #[inline]
    pub fn page_tail(&self, addr: u32) -> Option<&[u8]> {
        let pg = self.read_slot(Self::page_of(addr))?;
        Some(&pg[(addr & (PAGE_SIZE - 1)) as usize..])
    }

    /// Iterates over `(page_number, contents)` for all mapped pages.
    pub fn pages(&self) -> impl Iterator<Item = (u32, &[u8])> {
        self.page_map.iter().map(|(k, &v)| (*k, self.slots[v as usize].as_slice()))
    }

    /// Number of mapped pages.
    pub fn page_count(&self) -> usize {
        self.page_map.len()
    }

    /// Checks that `len` bytes starting at `addr` are all mapped.
    ///
    /// # Errors
    /// Returns the first missing page's fault.
    pub fn probe(&self, addr: u32, len: u32, write: bool) -> Result<(), PageFault> {
        if len == 0 {
            return Ok(());
        }
        let first = Self::page_of(addr);
        let last = Self::page_of(addr.wrapping_add(len - 1));
        let mut p = first;
        loop {
            if self.read_slot(p).is_none() {
                let fault_addr = if p == first { addr } else { p << PAGE_SHIFT };
                return Err(PageFault { addr: fault_addr, write });
            }
            if p == last {
                return Ok(());
            }
            p = p.wrapping_add(1);
        }
    }

    /// Reads `buf.len()` bytes at `addr`.
    ///
    /// # Errors
    /// Faults if any byte is unmapped; no partial reads are observable.
    pub fn read(&self, addr: u32, buf: &mut [u8]) -> Result<(), PageFault> {
        let len = buf.len() as u32;
        let off = addr & (PAGE_SIZE - 1);
        // Fast path: the access is contained in a single page.
        if len > 0 && off as u64 + len as u64 <= PAGE_SIZE as u64 {
            match self.read_slot(Self::page_of(addr)) {
                Some(pg) => {
                    buf.copy_from_slice(&pg[off as usize..(off + len) as usize]);
                    return Ok(());
                }
                None => return Err(PageFault { addr, write: false }),
            }
        }
        self.probe(addr, len, false)?;
        let mut done = 0u32;
        while done < len {
            let a = addr.wrapping_add(done);
            let pg = self.read_slot(Self::page_of(a)).expect("probed");
            let off = (a & (PAGE_SIZE - 1)) as usize;
            let n = ((PAGE_SIZE - (a & (PAGE_SIZE - 1))).min(len - done)) as usize;
            buf[done as usize..done as usize + n].copy_from_slice(&pg[off..off + n]);
            done += n as u32;
        }
        Ok(())
    }

    /// Writes `buf` at `addr`.
    ///
    /// # Errors
    /// Faults if any byte is unmapped; a faulting write changes nothing.
    pub fn write(&mut self, addr: u32, buf: &[u8]) -> Result<(), PageFault> {
        let len = buf.len() as u32;
        let off = addr & (PAGE_SIZE - 1);
        // Fast path: the access is contained in a single page.
        if len > 0 && off as u64 + len as u64 <= PAGE_SIZE as u64 {
            match self.write_slot(Self::page_of(addr)) {
                Some(slot) => {
                    self.slots[slot as usize][off as usize..(off + len) as usize]
                        .copy_from_slice(buf);
                    return Ok(());
                }
                None => return Err(PageFault { addr, write: true }),
            }
        }
        self.probe(addr, len, true)?;
        let mut done = 0u32;
        while done < len {
            let a = addr.wrapping_add(done);
            let slot = self.write_slot(Self::page_of(a)).expect("probed");
            let off = (a & (PAGE_SIZE - 1)) as usize;
            let n = ((PAGE_SIZE - (a & (PAGE_SIZE - 1))).min(len - done)) as usize;
            self.slots[slot as usize][off..off + n].copy_from_slice(&buf[done as usize..done as usize + n]);
            done += n as u32;
        }
        Ok(())
    }

    /// The typed-read path: a fixed-size copy out of the page when the
    /// access stays in one page and the read TLB hits, [`GuestMem::read`]
    /// (which refills the TLB) otherwise.
    #[inline]
    fn load<const N: usize>(&self, addr: u32) -> Result<[u8; N], PageFault> {
        let mut b = [0u8; N];
        let off = (addr & (PAGE_SIZE - 1)) as usize;
        match Self::tlb_get(&self.read_tlb, Self::page_of(addr)) {
            Some(slot) if off + N <= PAGE_SIZE as usize => {
                b.copy_from_slice(&self.slots[slot as usize][off..off + N]);
            }
            _ => self.read(addr, &mut b)?,
        }
        Ok(b)
    }

    /// The typed-write path: a fixed-size copy into the page when the
    /// access stays in one page and the write TLB hits, [`GuestMem::write`]
    /// otherwise. Code pages never enter the write TLB, so a store to one
    /// always takes `write` and bumps [`GuestMem::code_gen`].
    #[inline]
    fn store<const N: usize>(&mut self, addr: u32, b: [u8; N]) -> Result<(), PageFault> {
        let off = (addr & (PAGE_SIZE - 1)) as usize;
        match Self::tlb_get(&self.write_tlb, Self::page_of(addr)) {
            Some(slot) if off + N <= PAGE_SIZE as usize => {
                self.slots[slot as usize][off..off + N].copy_from_slice(&b);
                Ok(())
            }
            _ => self.write(addr, &b),
        }
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    /// Faults if the page is unmapped.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> Result<u8, PageFault> {
        self.load(addr).map(u8::from_le_bytes)
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    /// Faults if any byte is unmapped.
    #[inline]
    pub fn read_u16(&self, addr: u32) -> Result<u16, PageFault> {
        self.load(addr).map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    /// Faults if any byte is unmapped.
    #[inline]
    pub fn read_u32(&self, addr: u32) -> Result<u32, PageFault> {
        self.load(addr).map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    /// Faults if any byte is unmapped.
    #[inline]
    pub fn read_u64(&self, addr: u32) -> Result<u64, PageFault> {
        self.load(addr).map(u64::from_le_bytes)
    }

    /// Writes a `u8`.
    ///
    /// # Errors
    /// Faults if the page is unmapped.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, v: u8) -> Result<(), PageFault> {
        self.store(addr, v.to_le_bytes())
    }

    /// Writes a little-endian `u16`.
    ///
    /// # Errors
    /// Faults if any byte is unmapped.
    #[inline]
    pub fn write_u16(&mut self, addr: u32, v: u16) -> Result<(), PageFault> {
        self.store(addr, v.to_le_bytes())
    }

    /// Writes a little-endian `u32`.
    ///
    /// # Errors
    /// Faults if any byte is unmapped.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, v: u32) -> Result<(), PageFault> {
        self.store(addr, v.to_le_bytes())
    }

    /// Writes a little-endian `u64`.
    ///
    /// # Errors
    /// Faults if any byte is unmapped.
    #[inline]
    pub fn write_u64(&mut self, addr: u32, v: u64) -> Result<(), PageFault> {
        self.store(addr, v.to_le_bytes())
    }

    /// Reads a value of the given width, zero- or sign-extended to 32 bits.
    ///
    /// # Errors
    /// Faults if any byte is unmapped.
    #[inline]
    pub fn read_width(&self, addr: u32, width: crate::reg::Width, sign: bool) -> Result<u32, PageFault> {
        use crate::reg::Width;
        Ok(match (width, sign) {
            (Width::B, false) => self.read_u8(addr)? as u32,
            (Width::B, true) => self.read_u8(addr)? as i8 as i32 as u32,
            (Width::W, false) => self.read_u16(addr)? as u32,
            (Width::W, true) => self.read_u16(addr)? as i16 as i32 as u32,
            (Width::D, _) => self.read_u32(addr)?,
        })
    }

    /// Writes the low `width` bytes of `v`.
    ///
    /// # Errors
    /// Faults if any byte is unmapped.
    #[inline]
    pub fn write_width(&mut self, addr: u32, v: u32, width: crate::reg::Width) -> Result<(), PageFault> {
        use crate::reg::Width;
        match width {
            Width::B => self.write_u8(addr, v as u8),
            Width::W => self.write_u16(addr, v as u16),
            Width::D => self.write_u32(addr, v),
        }
    }

    /// Copies a byte range into a fresh `Vec`, mapping nothing.
    ///
    /// # Errors
    /// Faults if any byte is unmapped.
    pub fn read_vec(&self, addr: u32, len: u32) -> Result<Vec<u8>, PageFault> {
        let mut v = vec![0u8; len as usize];
        self.read(addr, &mut v)?;
        Ok(v)
    }

    /// Serializes all mapped pages, the code-page set and the SMC
    /// generation counter into `w`.
    ///
    /// Pages travel in page-number order (the `BTreeMap` iteration order),
    /// so two snapshots of identical memory are byte-identical regardless
    /// of arena slot history. Slot numbering, free lists and TLB contents
    /// are invisible state and are not serialized.
    pub fn snapshot_into(&self, w: &mut crate::wire::Wire) {
        w.put_usize(self.page_map.len());
        for (num, data) in self.pages() {
            w.put_u32(num);
            w.put_bytes(data);
        }
        let mut code: Vec<u32> = self.code_pages.iter().copied().collect();
        code.sort_unstable();
        w.put_u32s(&code);
        w.put_u64(self.code_gen);
    }

    /// Rebuilds this memory from a [`GuestMem::snapshot_into`] stream:
    /// pages are re-packed into fresh arena slots `0..n`, the free list is
    /// emptied and both TLBs start cold.
    ///
    /// # Errors
    /// Propagates wire decode failures (truncated/malformed snapshot).
    pub fn restore_from(&mut self, r: &mut crate::wire::WireReader<'_>) -> Result<(), crate::wire::WireError> {
        // Each page encodes as its number, a length and PAGE_SIZE bytes.
        let n = r.get_count(4 + 8 + PAGE_SIZE as usize)?;
        let mut page_map = BTreeMap::new();
        let mut slots = Vec::with_capacity(n);
        for _ in 0..n {
            let num = r.get_u32()?;
            let data = r.get_bytes()?;
            if data.len() != PAGE_SIZE as usize {
                return Err(crate::wire::WireError::Malformed {
                    at: r.pos(),
                    what: "page is not PAGE_SIZE bytes",
                });
            }
            page_map.insert(num, slots.len() as u32);
            slots.push(data);
        }
        let code_pages: HashSet<u32, U32BuildHasher> = r.get_u32s()?.into_iter().collect();
        let code_gen = r.get_u64()?;
        self.page_map = page_map;
        self.slots = slots;
        self.free_slots.clear();
        self.code_pages = code_pages;
        self.code_gen = code_gen;
        self.flush_tlbs();
        Ok(())
    }

    /// Compares this memory's mapped pages against another's.
    ///
    /// Only pages mapped in **both** are compared byte-for-byte (the
    /// co-designed component lazily fetches pages, so it legitimately maps a
    /// subset of the authoritative memory). Returns the first differing
    /// address, if any.
    pub fn first_difference(&self, other: &GuestMem) -> Option<u32> {
        for (num, &slot) in &self.page_map {
            if let Some(&oslot) = other.page_map.get(num) {
                let data = &self.slots[slot as usize];
                let odata = &other.slots[oslot as usize];
                if let Some(off) = data.iter().zip(odata.iter()).position(|(a, b)| a != b) {
                    return Some((num << PAGE_SHIFT) + off as u32);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_access_faults_with_address() {
        let mut m = GuestMem::new();
        assert_eq!(m.read_u32(0x5000), Err(PageFault { addr: 0x5000, write: false }));
        assert_eq!(m.write_u8(0x5001, 1), Err(PageFault { addr: 0x5001, write: true }));
        m.map_zero(5);
        assert_eq!(m.read_u32(0x5000), Ok(0));
    }

    #[test]
    fn cross_page_access_faults_atomically() {
        let mut m = GuestMem::new();
        m.map_zero(0);
        for addr in PAGE_SIZE - 8..PAGE_SIZE {
            m.write_u8(addr, 0x5A).unwrap(); // also puts page 0 in both TLBs
        }
        // Each access crosses into page 1 (unmapped): it must fault at the
        // page boundary and write nothing.
        let fault = Err(PageFault { addr: PAGE_SIZE, write: true });
        assert_eq!(m.write_u16(PAGE_SIZE - 1, 0xFFFF), fault);
        assert_eq!(m.write_u32(PAGE_SIZE - 2, 0xDEAD_BEEF), fault);
        assert_eq!(m.write_u64(PAGE_SIZE - 7, u64::MAX), fault);
        assert_eq!(m.write_width(PAGE_SIZE - 3, u32::MAX, crate::reg::Width::D), fault);
        assert_eq!(m.read_vec(PAGE_SIZE - 8, 8).unwrap(), [0x5A; 8], "no partial write");
        assert_eq!(m.read_u32(PAGE_SIZE - 2), Err(PageFault { addr: PAGE_SIZE, write: false }));
        assert_eq!(m.page_count(), 1, "nothing was mapped");
        m.map_zero(1);
        m.write_u32(0xFFE, 0xDEAD_BEEF).unwrap();
        assert_eq!(m.read_u32(0xFFE).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = GuestMem::new();
        m.map_zero(0);
        m.write_u32(0x10, 0x0403_0201).unwrap();
        assert_eq!(m.read_u8(0x10).unwrap(), 1);
        assert_eq!(m.read_u8(0x13).unwrap(), 4);
        assert_eq!(m.read_u16(0x11).unwrap(), 0x0302);
    }

    #[test]
    fn width_reads_extend_properly() {
        use crate::reg::Width;
        let mut m = GuestMem::new();
        m.map_zero(0);
        m.write_u8(0, 0x80).unwrap();
        assert_eq!(m.read_width(0, Width::B, false).unwrap(), 0x80);
        assert_eq!(m.read_width(0, Width::B, true).unwrap(), 0xFFFF_FF80);
        m.write_u16(2, 0x8000).unwrap();
        assert_eq!(m.read_width(2, Width::W, true).unwrap(), 0xFFFF_8000);
    }

    #[test]
    fn first_difference_ignores_unshared_pages() {
        let mut a = GuestMem::new();
        let mut b = GuestMem::new();
        a.map_zero(1);
        b.map_zero(1);
        b.map_zero(9); // only in b: ignored
        assert_eq!(a.first_difference(&b), None);
        b.write_u8(0x1234, 7).unwrap();
        assert_eq!(a.first_difference(&b), Some(0x1234));
    }

    #[test]
    fn install_page_replaces() {
        let mut m = GuestMem::new();
        m.map_zero(2);
        m.write_u8(0x2000, 9).unwrap();
        let mut fresh = vec![0u8; PAGE_SIZE as usize];
        fresh[0] = 42;
        m.install_page(2, fresh);
        assert_eq!(m.read_u8(0x2000).unwrap(), 42);
    }

    #[test]
    fn unmap_faults_and_remap_is_fresh() {
        let mut m = GuestMem::new();
        m.map_zero(3);
        m.write_u32(0x3000, 0xABCD).unwrap();
        assert_eq!(m.read_u32(0x3000).unwrap(), 0xABCD);
        m.unmap(3);
        assert_eq!(m.read_u32(0x3000), Err(PageFault { addr: 0x3000, write: false }));
        assert_eq!(m.write_u8(0x3000, 1), Err(PageFault { addr: 0x3000, write: true }));
        m.map_zero(3);
        assert_eq!(m.read_u32(0x3000).unwrap(), 0, "remapped page is zeroed");
    }

    #[test]
    fn tlb_sees_no_stale_entries_across_map_unmap() {
        let mut m = GuestMem::new();
        // Prime both TLBs on pages 0 and 16 (same direct-mapped set).
        m.map_zero(0);
        m.map_zero(16);
        m.write_u32(0x0, 1).unwrap();
        m.write_u32(0x10000, 2).unwrap();
        assert_eq!(m.read_u32(0x0).unwrap(), 1);
        assert_eq!(m.read_u32(0x10000).unwrap(), 2);
        // Unmapping page 0 must not leave a stale TLB entry behind.
        m.unmap(0);
        assert_eq!(m.read_u32(0x0), Err(PageFault { addr: 0, write: false }));
        assert_eq!(m.read_u32(0x10000).unwrap(), 2, "other page still mapped");
        // Remap recycles the arena slot; content must be fresh zeroes.
        m.map_zero(0);
        assert_eq!(m.read_u32(0x0).unwrap(), 0);
        m.write_u32(0x0, 3).unwrap();
        assert_eq!(m.read_u32(0x10000).unwrap(), 2, "no cross-slot aliasing");
    }

    #[test]
    fn code_page_writes_bump_generation() {
        let mut m = GuestMem::new();
        m.map_zero(1);
        m.map_zero(2);
        let g0 = m.code_gen();
        m.write_u32(0x2000, 5).unwrap();
        m.write_u32(0x1000, 0).unwrap(); // page 1 enters the write TLB...
        assert_eq!(m.code_gen(), g0, "writes to plain pages don't bump");
        m.mark_code_page(1); // ...and marking evicts it
        m.write_u32(0x2000, 6).unwrap();
        assert_eq!(m.code_gen(), g0, "other pages still don't bump");
        for i in 0..4 {
            let g = m.code_gen();
            m.write_u32(0x1010 + 4 * i, i).unwrap();
            assert_eq!(m.code_gen(), g + 1, "each store to a code page bumps once");
        }
        let g = m.code_gen();
        m.write_u8(0x1000, 0xCC).unwrap();
        m.write_u16(0x1002, 2).unwrap();
        m.write_u64(0x1008, 3).unwrap();
        m.write_width(0x1004, 4, crate::reg::Width::D).unwrap();
        assert_eq!(m.code_gen(), g + 4, "one bump per store, at every width");
        m.read_u32(0x1000).unwrap();
        assert_eq!(m.code_gen(), g + 4, "reads never bump");
        m.install_page(1, vec![0u8; PAGE_SIZE as usize]);
        assert_eq!(m.code_gen(), g + 5, "installing over a code page bumps too");
    }

    #[test]
    fn snapshot_round_trips_and_is_slot_order_independent() {
        let mut a = GuestMem::new();
        a.map_zero(1);
        a.map_zero(7);
        a.write_u32(0x1010, 0xCAFE).unwrap();
        a.mark_code_page(7);
        a.write_u8(0x7000, 0x90).unwrap(); // bumps code_gen

        // Build the same logical memory with a different slot history.
        let mut b = GuestMem::new();
        b.map_zero(3);
        b.map_zero(7);
        b.unmap(3);
        b.map_zero(1);
        b.write_u32(0x1010, 0xCAFE).unwrap();
        b.mark_code_page(7);
        b.write_u8(0x7000, 0x90).unwrap();

        let snap = |m: &GuestMem| {
            let mut w = crate::wire::Wire::new();
            m.snapshot_into(&mut w);
            w.finish()
        };
        assert_eq!(snap(&a), snap(&b), "slot history must not leak into snapshots");

        let bytes = snap(&a);
        let mut restored = GuestMem::new();
        restored.map_zero(99); // pre-existing state must be replaced
        let mut r = crate::wire::WireReader::new(&bytes);
        restored.restore_from(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(restored.read_u32(0x1010).unwrap(), 0xCAFE);
        assert!(!restored.is_mapped(99 << PAGE_SHIFT));
        assert_eq!(restored.code_gen(), a.code_gen());
        assert_eq!(snap(&restored), bytes, "re-snapshot is byte-identical");
        // Code-page tracking survives: a write to page 7 bumps the gen.
        let g = restored.code_gen();
        restored.write_u8(0x7004, 1).unwrap();
        assert!(restored.code_gen() > g);
    }

    #[test]
    fn straddling_typed_accesses_equal_bytewise_ones() {
        let mut m = GuestMem::new();
        m.map_zero(0);
        m.map_zero(1);
        // Warm both TLBs on page 0, so a straddling access would hit them.
        m.write_u8(0, 0).unwrap();
        m.read_u8(0).unwrap();
        let bytewise = |m: &GuestMem, addr: u32, n: u32| -> u64 {
            (0..n).rev().fold(0, |v, i| v << 8 | m.read_u8(addr + i).unwrap() as u64)
        };
        let set_bytes = |m: &mut GuestMem, addr: u32, n: u32, v: u64| {
            for i in 0..n {
                m.write_u8(addr + i, (v >> (8 * i)) as u8).unwrap();
            }
        };
        let (a, b) = (0x0807_0605_0403_0201u64, 0xF1E2_D3C4_B5A6_9788u64);
        for addr in PAGE_SIZE - 7..PAGE_SIZE {
            m.write_u64(addr, a).unwrap();
            assert_eq!(bytewise(&m, addr, 8), a);
            set_bytes(&mut m, addr, 8, b);
            assert_eq!(m.read_u64(addr).unwrap(), b);
            if addr >= PAGE_SIZE - 3 {
                m.write_u32(addr, a as u32).unwrap();
                assert_eq!(bytewise(&m, addr, 4), a as u32 as u64);
                set_bytes(&mut m, addr, 4, b);
                assert_eq!(m.read_u32(addr).unwrap(), b as u32);
                m.write_width(addr, a as u32, crate::reg::Width::D).unwrap();
                assert_eq!(m.read_width(addr, crate::reg::Width::D, false).unwrap(), a as u32);
            }
            if addr == PAGE_SIZE - 1 {
                m.write_u16(addr, a as u16).unwrap();
                assert_eq!(bytewise(&m, addr, 2), a as u16 as u64);
                set_bytes(&mut m, addr, 2, b);
                assert_eq!(m.read_u16(addr).unwrap(), b as u16);
                assert_eq!(
                    m.read_width(addr, crate::reg::Width::W, true).unwrap(),
                    b as u16 as i16 as i32 as u32
                );
            }
        }
    }

    #[test]
    fn page_tail_returns_in_page_slice() {
        let mut m = GuestMem::new();
        m.map_zero(0);
        m.write_u32(0xFF8, 0x11223344).unwrap();
        let tail = m.page_tail(0xFF8).unwrap();
        assert_eq!(tail.len(), 8);
        assert_eq!(tail[0], 0x44);
        assert!(m.page_tail(0x5000).is_none());
    }
}
