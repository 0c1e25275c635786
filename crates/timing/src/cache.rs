//! Set-associative cache and TLB models (LRU replacement).
//!
//! Every access of the timing models probes these, so the probe paths
//! are division-free and allocation-free: the set index and tag come from
//! shifts fixed at construction, and a cache set is a short vector that
//! is scanned for the tag and allocated by its first fill (construction
//! allocates nothing per set). The TLB checks its most recently used
//! entry before scanning: pages are unique in the map, so the entry found
//! first is the one a scan would find, and the hit path is byte-identical.

use crate::config::{CacheConfig, TlbConfig};
use darco_guest::{WireError, WireReader};

/// A set-associative LRU cache.
#[derive(Debug, Clone)]
pub struct CacheModel {
    line_shift: u32,
    set_mask: u64,
    /// log2 of the set count: `tag = line >> tag_shift`.
    tag_shift: u32,
    ways: usize,
    /// `sets[set][way] = (tag, last_use)`.
    sets: Vec<Vec<(u64, u64)>>,
    tick: u64,
    /// Accesses.
    pub accesses: u64,
    /// Misses.
    pub misses: u64,
    /// Hit latency.
    pub latency: u32,
}

impl CacheModel {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    /// Panics if the geometry is not a power of two.
    pub fn new(cfg: &CacheConfig) -> CacheModel {
        let lines = cfg.size / cfg.line;
        let sets = (lines / cfg.ways).max(1);
        assert!(sets.is_power_of_two(), "cache sets must be a power of two");
        assert!(cfg.line.is_power_of_two(), "line size must be a power of two");
        CacheModel {
            line_shift: cfg.line.trailing_zeros(),
            set_mask: (sets - 1) as u64,
            tag_shift: sets.trailing_zeros(),
            ways: cfg.ways as usize,
            sets: vec![Vec::new(); sets as usize],
            tick: 0,
            accesses: 0,
            misses: 0,
            latency: cfg.latency,
        }
    }

    /// The line number of `addr` (`addr / line`, as a shift).
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    #[inline]
    fn set_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & self.set_mask) as usize, line >> self.tag_shift)
    }

    /// Accesses `addr`; returns true on hit. Misses allocate (the caller
    /// charges next-level latency).
    ///
    /// Always inlined, like the TLB's: the core calls these on every
    /// fetch-line change and memory event, and as calls they measurably
    /// slowed the per-event path.
    #[inline(always)]
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        self.tick += 1;
        let hit = self.probe_fill(addr);
        if !hit {
            self.misses += 1;
        }
        hit
    }

    /// Inserts a line without counting an access (prefetch fill). Returns
    /// true if it was already present.
    #[inline]
    pub fn fill(&mut self, addr: u64) -> bool {
        self.tick += 1;
        self.probe_fill(addr)
    }

    /// Pure probe: returns the `(set, way)` of `addr` if it would hit,
    /// without touching any state. Pair with [`CacheModel::commit_hit`] to
    /// realize the access, or fall back to [`CacheModel::access`] on a
    /// miss. The pair `peek_hit` + `commit_hit` is byte-for-byte
    /// equivalent to one hitting `access` call.
    #[inline]
    pub fn peek_hit(&self, addr: u64) -> Option<(u32, u32)> {
        let (set, tag) = self.set_tag(addr);
        self.sets[set]
            .iter()
            .position(|e| e.0 == tag)
            .map(|way| (set as u32, way as u32))
    }

    /// Applies the bookkeeping of a hitting access previously confirmed by
    /// [`CacheModel::peek_hit`] (same tick/LRU/counter effects as
    /// [`CacheModel::access`] returning true).
    #[inline]
    pub fn commit_hit(&mut self, set: u32, way: u32) {
        self.accesses += 1;
        self.tick += 1;
        self.sets[set as usize][way as usize].1 = self.tick;
    }

    #[inline(always)]
    fn probe_fill(&mut self, addr: u64) -> bool {
        let (set, tag) = self.set_tag(addr);
        let ways = &mut self.sets[set];
        if let Some(e) = ways.iter_mut().find(|e| e.0 == tag) {
            e.1 = self.tick;
            return true;
        }
        if ways.len() >= self.ways {
            evict_lru(ways);
        }
        ways.push((tag, self.tick));
        false
    }

    /// Serializes the full cache state: geometry-independent dynamic
    /// state only (tags in their exact storage order — `swap_remove`
    /// history is part of LRU behaviour — plus the tick and the stat
    /// counters). Geometry is re-derived from config on restore.
    pub fn snapshot_into(&self, w: &mut darco_guest::Wire) {
        w.put_usize(self.sets.len());
        for ways in &self.sets {
            w.put_usize(ways.len());
            for &(tag, last) in ways {
                w.put_u64(tag);
                w.put_u64(last);
            }
        }
        w.put_u64(self.tick);
        w.put_u64(self.accesses);
        w.put_u64(self.misses);
    }

    /// Restores dynamic state from a [`CacheModel::snapshot_into`]
    /// stream. `self` must have been built from the same configuration.
    ///
    /// # Errors
    /// Wire decode failures, a set count that disagrees with this
    /// cache's geometry, or a set holding more lines than it has ways.
    pub fn restore_from(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        let nsets = r.get_usize()?;
        if nsets != self.sets.len() {
            return Err(WireError::Malformed { at: r.pos(), what: "cache snapshot geometry mismatch" });
        }
        for ways in &mut self.sets {
            let n = get_bounded(r, self.ways, "cache set holds more lines than ways")?;
            ways.clear();
            for _ in 0..n {
                let tag = r.get_u64()?;
                let last = r.get_u64()?;
                ways.push((tag, last));
            }
        }
        self.tick = r.get_u64()?;
        self.accesses = r.get_u64()?;
        self.misses = r.get_u64()?;
        Ok(())
    }

    /// Miss rate so far.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Drops the least recently used entry of a full LRU set. `swap_remove`
/// moves the last entry into the freed slot; that storage order is part
/// of the serialized state.
#[inline]
fn evict_lru(entries: &mut Vec<(u64, u64)>) {
    let lru = entries
        .iter()
        .enumerate()
        .min_by_key(|(_, e)| e.1)
        .map(|(i, _)| i)
        .expect("nonempty");
    entries.swap_remove(lru);
}

/// Reads an entry count that may not exceed `max` — a larger one would
/// silently change the model's geometry. Each entry is two `u64`s.
fn get_bounded(r: &mut WireReader<'_>, max: usize, what: &'static str) -> Result<usize, WireError> {
    let at = r.pos();
    let n = r.get_count(16)?;
    if n > max {
        return Err(WireError::Malformed { at, what });
    }
    Ok(n)
}

/// A fully associative, LRU TLB.
#[derive(Debug, Clone)]
pub struct TlbModel {
    entries: usize,
    map: Vec<(u64, u64)>, // (page, last_use)
    /// Index of the most recently used entry (a hint: checked, never
    /// trusted).
    mru: usize,
    tick: u64,
    /// Accesses.
    pub accesses: u64,
    /// Misses.
    pub misses: u64,
    /// Penalty on miss.
    pub miss_penalty: u32,
}

impl TlbModel {
    /// Builds a TLB from its configuration.
    pub fn new(cfg: &TlbConfig) -> TlbModel {
        TlbModel {
            entries: cfg.entries as usize,
            map: Vec::new(),
            mru: 0,
            tick: 0,
            accesses: 0,
            misses: 0,
            miss_penalty: cfg.miss_penalty,
        }
    }

    /// Index of the entry mapping `page`: the most recently used entry
    /// first, then a scan.
    #[inline]
    fn find(&self, page: u64) -> Option<usize> {
        match self.map.get(self.mru) {
            Some(e) if e.0 == page => Some(self.mru),
            _ => self.map.iter().position(|e| e.0 == page),
        }
    }

    /// Accesses the page of `addr` (4 KiB pages); returns true on hit.
    #[inline(always)]
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        self.tick += 1;
        let page = addr >> 12;
        if let Some(i) = self.find(page) {
            self.map[i].1 = self.tick;
            self.mru = i;
            return true;
        }
        self.misses += 1;
        if self.map.len() >= self.entries {
            evict_lru(&mut self.map);
        }
        self.map.push((page, self.tick));
        self.mru = self.map.len() - 1;
        false
    }

    /// Pure probe: index of the entry mapping `addr`'s page, or `None` if
    /// the access would miss. No state is touched; pair with
    /// [`TlbModel::commit_hit`] to realize the access exactly as a hitting
    /// [`TlbModel::access`] would.
    #[inline]
    pub fn peek_hit(&self, addr: u64) -> Option<u32> {
        self.find(addr >> 12).map(|i| i as u32)
    }

    /// Applies the bookkeeping of a hitting access previously confirmed by
    /// [`TlbModel::peek_hit`].
    #[inline]
    pub fn commit_hit(&mut self, idx: u32) {
        self.accesses += 1;
        self.tick += 1;
        self.map[idx as usize].1 = self.tick;
        self.mru = idx as usize;
    }

    /// Serializes the TLB's dynamic state (entries in storage order, tick,
    /// stat counters).
    pub fn snapshot_into(&self, w: &mut darco_guest::Wire) {
        w.put_usize(self.map.len());
        for &(page, last) in &self.map {
            w.put_u64(page);
            w.put_u64(last);
        }
        w.put_u64(self.tick);
        w.put_u64(self.accesses);
        w.put_u64(self.misses);
    }

    /// Restores dynamic state from a [`TlbModel::snapshot_into`] stream.
    ///
    /// # Errors
    /// Wire decode failures, or more entries than this TLB holds.
    pub fn restore_from(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        let n = get_bounded(r, self.entries, "tlb snapshot holds more entries than the tlb")?;
        self.map.clear();
        for _ in 0..n {
            let page = r.get_u64()?;
            let last = r.get_u64()?;
            self.map.push((page, last));
        }
        self.mru = 0;
        self.tick = r.get_u64()?;
        self.accesses = r.get_u64()?;
        self.misses = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    #[test]
    fn repeated_access_hits() {
        let mut c = CacheModel::new(&CacheConfig { size: 1024, ways: 2, line: 64, latency: 1 });
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1004), "same line");
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        // 2 ways; three conflicting lines evict the least recently used.
        let cfg = CacheConfig { size: 2 * 64, ways: 2, line: 64, latency: 1 };
        let mut c = CacheModel::new(&cfg); // 1 set
        c.access(0);
        c.access(0x40);
        c.access(0); // refresh line 0
        assert!(!c.access(0x80), "miss; evicts 0x40");
        assert!(c.access(0), "line 0 survives");
        assert!(!c.access(0x40), "0x40 was evicted");
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let cfg = CacheConfig { size: 4096, ways: 4, line: 64, latency: 1 };
        let mut c = CacheModel::new(&cfg);
        for round in 0..4 {
            for i in 0..256u64 {
                c.access(i * 64);
            }
            let _ = round;
        }
        assert!(c.miss_rate() > 0.9, "64-line cache can't hold 256 lines");
    }

    #[test]
    fn tlb_tracks_pages() {
        let mut t = TlbModel::new(&TlbConfig { entries: 2, miss_penalty: 10 });
        assert!(!t.access(0x1000));
        assert!(t.access(0x1FFF), "same page");
        t.access(0x2000);
        t.access(0x3000); // evicts 0x1000
        assert!(!t.access(0x1000));
    }

    #[test]
    fn peek_commit_pair_matches_a_hitting_access() {
        let cfg = CacheConfig { size: 1024, ways: 2, line: 64, latency: 1 };
        let mut a = CacheModel::new(&cfg);
        let mut b = CacheModel::new(&cfg);
        for c in [&mut a, &mut b] {
            c.access(0x1000);
            c.access(0x2000);
        }
        assert!(a.access(0x1000));
        let (set, way) = b.peek_hit(0x1000).expect("resident line");
        b.commit_hit(set, way);
        let mut wa = darco_guest::Wire::new();
        let mut wb = darco_guest::Wire::new();
        a.snapshot_into(&mut wa);
        b.snapshot_into(&mut wb);
        assert_eq!(wa.finish(), wb.finish());
        assert_eq!(a.peek_hit(0x3000), None, "absent line does not peek");

        let mut ta = TlbModel::new(&TlbConfig { entries: 4, miss_penalty: 8 });
        let mut tb = TlbModel::new(&TlbConfig { entries: 4, miss_penalty: 8 });
        for t in [&mut ta, &mut tb] {
            t.access(0x1000);
            t.access(0x5000);
        }
        assert!(ta.access(0x1234));
        let i = tb.peek_hit(0x1234).expect("resident page");
        tb.commit_hit(i);
        let mut wa = darco_guest::Wire::new();
        let mut wb = darco_guest::Wire::new();
        ta.snapshot_into(&mut wa);
        tb.snapshot_into(&mut wb);
        assert_eq!(wa.finish(), wb.finish());
        assert_eq!(tb.peek_hit(0x9000), None);
    }

    #[test]
    fn restore_rejects_a_set_with_more_lines_than_ways() {
        let cfg = CacheConfig { size: 2 * 64, ways: 2, line: 64, latency: 1 }; // 1 set
        let mut c = CacheModel::new(&cfg);
        c.access(0);
        c.access(0x40);
        let mut w = darco_guest::Wire::new();
        c.snapshot_into(&mut w);
        let good = w.finish();
        assert!(CacheModel::new(&cfg).restore_from(&mut WireReader::new(&good)).is_ok());
        // Same stream with a third (tag, last) pair in the set.
        let mut w = darco_guest::Wire::new();
        w.put_usize(1);
        w.put_usize(3);
        for (tag, last) in [(0, 1), (1, 2), (2, 3)] {
            w.put_u64(tag);
            w.put_u64(last);
        }
        for v in [3, 3, 2] {
            w.put_u64(v);
        }
        let bad = w.finish();
        let err = CacheModel::new(&cfg).restore_from(&mut WireReader::new(&bad)).unwrap_err();
        assert!(matches!(err, WireError::Malformed { .. }), "{err:?}");
    }

    #[test]
    fn tlb_restore_rejects_more_entries_than_the_tlb_holds() {
        let cfg = TlbConfig { entries: 2, miss_penalty: 10 };
        let mut w = darco_guest::Wire::new();
        w.put_usize(3);
        for (page, last) in [(1, 1), (2, 2), (3, 3)] {
            w.put_u64(page);
            w.put_u64(last);
        }
        for v in [3, 3, 3] {
            w.put_u64(v);
        }
        let bad = w.finish();
        let err = TlbModel::new(&cfg).restore_from(&mut WireReader::new(&bad)).unwrap_err();
        assert!(matches!(err, WireError::Malformed { .. }), "{err:?}");
        // A count beyond the stream is refused before anything is read.
        let mut w = darco_guest::Wire::new();
        w.put_usize(usize::MAX);
        let huge = w.finish();
        assert!(TlbModel::new(&cfg).restore_from(&mut WireReader::new(&huge)).is_err());
    }

    #[test]
    fn tlb_mru_hint_survives_eviction_and_restore() {
        let cfg = TlbConfig { entries: 3, miss_penalty: 10 };
        let mut t = TlbModel::new(&cfg);
        for a in [0x1000u64, 0x2000, 0x3000, 0x4000, 0x2000, 0x5000, 0x4000] {
            t.access(a);
        }
        let mut w = darco_guest::Wire::new();
        t.snapshot_into(&mut w);
        let bytes = w.finish();
        let mut u = TlbModel::new(&cfg);
        u.restore_from(&mut WireReader::new(&bytes)).unwrap();
        for a in [0x4000u64, 0x5000, 0x1000, 0x4000, 0x2000] {
            assert_eq!(t.access(a), u.access(a), "page {a:#x}");
        }
        assert_eq!((t.accesses, t.misses), (u.accesses, u.misses));
    }

    #[test]
    fn prefetch_fill_is_not_an_access() {
        let mut c = CacheModel::new(&CacheConfig { size: 1024, ways: 2, line: 64, latency: 1 });
        c.fill(0x2000);
        assert_eq!(c.accesses, 0);
        assert!(c.access(0x2000), "prefetched line hits");
    }
}
