//! Stride data prefetcher (paper §V-C: "two level TLB and cache
//! hierarchies with a stride data prefetcher").
//!
//! Training runs on every load the timing models see, so it hands the
//! addresses it issues to a callback instead of returning a list: the
//! common case issues nothing, and no case allocates.

/// PC-indexed stride prefetcher with 2-bit confidence.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    table: Vec<Entry>,
    mask: u64,
    degree: u32,
    /// Prefetches issued.
    pub issued: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    tag: u64,
    last_addr: u64,
    stride: i64,
    confidence: u8,
}

impl StridePrefetcher {
    /// Creates a prefetcher with a 256-entry table.
    pub fn new(degree: u32) -> StridePrefetcher {
        StridePrefetcher { table: vec![Entry::default(); 256], mask: 255, degree, issued: 0 }
    }

    /// Trains on a load at `pc` touching `addr`; calls `issue` with each
    /// address to prefetch, in order (none while confidence is low).
    #[inline]
    pub fn train(&mut self, pc: u64, addr: u64, mut issue: impl FnMut(u64)) {
        let e = &mut self.table[(pc & self.mask) as usize];
        if e.tag == pc {
            let stride = addr as i64 - e.last_addr as i64;
            if stride == e.stride && stride != 0 {
                e.confidence = (e.confidence + 1).min(3);
            } else {
                e.stride = stride;
                e.confidence = e.confidence.saturating_sub(1);
            }
            if e.confidence >= 2 && e.stride != 0 {
                for k in 1..=self.degree as i64 {
                    let p = addr as i64 + e.stride * k;
                    if p > 0 {
                        self.issued += 1;
                        issue(p as u64);
                    }
                }
            }
        } else {
            *e = Entry { tag: pc, last_addr: addr, stride: 0, confidence: 0 };
        }
        e.last_addr = addr;
        e.tag = pc;
    }

    /// Pure probe: would training on `(pc, addr)` issue any prefetches?
    /// No state is touched. When this returns false, a subsequent
    /// [`StridePrefetcher::train`] call is guaranteed to issue nothing
    /// (and is the way to commit the training update).
    pub fn would_issue(&self, pc: u64, addr: u64) -> bool {
        let e = self.table[(pc & self.mask) as usize];
        if e.tag != pc {
            return false;
        }
        let stride = addr as i64 - e.last_addr as i64;
        let confidence = if stride == e.stride && stride != 0 {
            (e.confidence + 1).min(3)
        } else {
            e.confidence.saturating_sub(1)
        };
        // `stride` is the value train() would leave in the entry either way.
        if confidence >= 2 && stride != 0 {
            (1..=self.degree as i64).any(|k| addr as i64 + stride * k > 0)
        } else {
            false
        }
    }

    /// Serializes the prefetcher state (training table, issue counter).
    pub fn snapshot_into(&self, w: &mut darco_guest::Wire) {
        w.put_usize(self.table.len());
        for e in &self.table {
            w.put_u64(e.tag);
            w.put_u64(e.last_addr);
            w.put_i64(e.stride);
            w.put_u8(e.confidence);
        }
        w.put_u64(self.issued);
    }

    /// Restores from a [`StridePrefetcher::snapshot_into`] stream.
    ///
    /// # Errors
    /// Wire decode failures or a table-size mismatch.
    pub fn restore_from(&mut self, r: &mut darco_guest::WireReader<'_>) -> Result<(), darco_guest::WireError> {
        let n = r.get_usize()?;
        if n != self.table.len() {
            return Err(darco_guest::WireError::Malformed {
                at: r.pos(),
                what: "prefetcher snapshot geometry mismatch",
            });
        }
        for e in &mut self.table {
            e.tag = r.get_u64()?;
            e.last_addr = r.get_u64()?;
            e.stride = r.get_i64()?;
            e.confidence = r.get_u8()?;
        }
        self.issued = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_stride_triggers_prefetch() {
        let mut p = StridePrefetcher::new(2);
        let mut got = Vec::new();
        for i in 0..8u64 {
            got.clear();
            p.train(0x10, 0x1000 + i * 64, |a| got.push(a));
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], 0x1000 + 8 * 64);
        assert_eq!(got[1], 0x1000 + 9 * 64);
    }

    #[test]
    fn would_issue_agrees_with_train() {
        let mut p = StridePrefetcher::new(2);
        let mut x = 7u64;
        for i in 0..4_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pc = x % 32;
            // Mix of strided and erratic access patterns per pc.
            let addr = if pc.is_multiple_of(2) { 0x1000 + i * 64 } else { x % (1 << 20) };
            let predicted = p.would_issue(pc, addr);
            let mut issued = false;
            p.train(pc, addr, |_| issued = true);
            assert_eq!(predicted, issued, "at step {i} pc {pc}");
        }
        assert!(p.issued > 0, "the strided half must have issued prefetches");
    }

    #[test]
    fn random_pattern_stays_quiet() {
        let mut p = StridePrefetcher::new(2);
        let addrs = [0x100u64, 0x9000, 0x44, 0x7777, 0x2100, 0x80];
        let mut total = 0;
        for (i, a) in addrs.iter().cycle().take(60).enumerate() {
            p.train(0x20, a + i as u64, |_| total += 1);
        }
        assert_eq!(total, 0, "no stable stride, no prefetches");
    }
}
