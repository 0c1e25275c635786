//! Branch prediction: gshare direction predictor + direct-mapped BTB
//! (the paper's front-end: "equipped with a BTB and gshare branch
//! predictor").

/// gshare: global history XOR PC indexes a table of 2-bit counters.
#[derive(Debug, Clone)]
pub struct Gshare {
    pht: Vec<u8>,
    mask: u64,
    ghr: u64,
    /// Conditional-branch predictions made.
    pub predictions: u64,
    /// Mispredictions.
    pub mispredicts: u64,
}

impl Gshare {
    /// Creates a predictor with `bits` of history (2^bits counters).
    pub fn new(bits: u32) -> Gshare {
        Gshare {
            pht: vec![1u8; 1 << bits], // weakly not-taken
            mask: (1u64 << bits) - 1,
            ghr: 0,
            predictions: 0,
            mispredicts: 0,
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc ^ self.ghr) & self.mask) as usize
    }

    /// Predicts the direction for a conditional branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        self.pht[self.index(pc)] >= 2
    }

    /// Pure probe: would [`Gshare::update`] with this outcome count as a
    /// correct prediction? No state is touched.
    pub fn peek_correct(&self, pc: u64, taken: bool) -> bool {
        (self.pht[self.index(pc)] >= 2) == taken
    }

    /// Updates with the actual outcome; returns whether the prediction
    /// was correct.
    pub fn update(&mut self, pc: u64, taken: bool) -> bool {
        let idx = self.index(pc);
        let pred = self.pht[idx] >= 2;
        let ctr = &mut self.pht[idx];
        if taken {
            *ctr = (*ctr + 1).min(3);
        } else {
            *ctr = ctr.saturating_sub(1);
        }
        self.ghr = (self.ghr << 1) | taken as u64;
        self.predictions += 1;
        if pred != taken {
            self.mispredicts += 1;
        }
        pred == taken
    }

    /// Serializes the predictor state (PHT, history, stat counters).
    pub fn snapshot_into(&self, w: &mut darco_guest::Wire) {
        w.put_bytes(&self.pht);
        w.put_u64(self.ghr);
        w.put_u64(self.predictions);
        w.put_u64(self.mispredicts);
    }

    /// Restores from a [`Gshare::snapshot_into`] stream; the PHT size must
    /// match this predictor's configuration.
    ///
    /// # Errors
    /// Wire decode failures or a PHT size mismatch.
    pub fn restore_from(&mut self, r: &mut darco_guest::WireReader<'_>) -> Result<(), darco_guest::WireError> {
        let pht = r.get_bytes()?;
        if pht.len() != self.pht.len() {
            return Err(darco_guest::WireError::Malformed {
                at: r.pos(),
                what: "gshare snapshot geometry mismatch",
            });
        }
        self.pht = pht;
        self.ghr = r.get_u64()?;
        self.predictions = r.get_u64()?;
        self.mispredicts = r.get_u64()?;
        Ok(())
    }
}

/// Direct-mapped branch target buffer.
#[derive(Debug, Clone)]
pub struct Btb {
    entries: Vec<Option<(u64, u64)>>, // (pc tag, target)
    mask: u64,
    /// Lookups.
    pub lookups: u64,
    /// Target misses (unknown or wrong target).
    pub target_misses: u64,
}

impl Btb {
    /// Creates a BTB with `entries` slots (power of two).
    ///
    /// # Panics
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: u32) -> Btb {
        assert!(entries.is_power_of_two());
        Btb {
            entries: vec![None; entries as usize],
            mask: (entries - 1) as u64,
            lookups: 0,
            target_misses: 0,
        }
    }

    /// Pure probe: does the slot for `pc` already hold exactly
    /// `(pc, target)`, i.e. would a lookup+update pair cause no redirect
    /// and change no entry? No state is touched.
    pub fn peek_same(&self, pc: u64, target: u64) -> bool {
        matches!(self.entries[(pc & self.mask) as usize], Some((tag, t)) if tag == pc && t == target)
    }

    /// Looks up the predicted target for a branch at `pc`; `None` if
    /// unknown. Call [`Btb::update`] with the real target afterwards.
    pub fn lookup(&mut self, pc: u64) -> Option<u64> {
        self.lookups += 1;
        match self.entries[(pc & self.mask) as usize] {
            Some((tag, target)) if tag == pc => Some(target),
            _ => None,
        }
    }

    /// Records the actual target; returns true if the prediction (or
    /// absence of one) was wrong — a front-end redirect.
    pub fn update(&mut self, pc: u64, target: u64) -> bool {
        let slot = (pc & self.mask) as usize;
        let wrong = match self.entries[slot] {
            Some((tag, t)) if tag == pc => t != target,
            _ => true,
        };
        if wrong {
            self.target_misses += 1;
        }
        self.entries[slot] = Some((pc, target));
        wrong
    }

    /// Serializes the BTB state (entries in slot order, stat counters).
    pub fn snapshot_into(&self, w: &mut darco_guest::Wire) {
        w.put_usize(self.entries.len());
        for e in &self.entries {
            match e {
                Some((tag, target)) => {
                    w.put_bool(true);
                    w.put_u64(*tag);
                    w.put_u64(*target);
                }
                None => w.put_bool(false),
            }
        }
        w.put_u64(self.lookups);
        w.put_u64(self.target_misses);
    }

    /// Restores from a [`Btb::snapshot_into`] stream; the entry count must
    /// match this BTB's configuration.
    ///
    /// # Errors
    /// Wire decode failures or an entry-count mismatch.
    pub fn restore_from(&mut self, r: &mut darco_guest::WireReader<'_>) -> Result<(), darco_guest::WireError> {
        let n = r.get_usize()?;
        if n != self.entries.len() {
            return Err(darco_guest::WireError::Malformed {
                at: r.pos(),
                what: "btb snapshot geometry mismatch",
            });
        }
        for e in &mut self.entries {
            *e = if r.get_bool()? {
                let tag = r.get_u64()?;
                let target = r.get_u64()?;
                Some((tag, target))
            } else {
                None
            };
        }
        self.lookups = r.get_u64()?;
        self.target_misses = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gshare_learns_a_bias() {
        let mut g = Gshare::new(10);
        for _ in 0..500 {
            g.update(0x40, true);
        }
        assert!(g.predict(0x40));
        let rate = g.mispredicts as f64 / g.predictions as f64;
        assert!(rate < 0.05, "biased branch should be learned: {rate}");
    }

    #[test]
    fn gshare_struggles_with_random_pattern() {
        let mut g = Gshare::new(10);
        let mut x = 0x12345u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            g.update(0x80, (x >> 33) & 1 == 1);
        }
        let rate = g.mispredicts as f64 / g.predictions as f64;
        assert!(rate > 0.3, "random branches mispredict often: {rate}");
    }

    #[test]
    fn gshare_learns_alternating_pattern_through_history() {
        let mut g = Gshare::new(10);
        for i in 0..2000 {
            g.update(0x100, i % 2 == 0);
        }
        // Last 1000: should be nearly perfect thanks to history.
        let mut wrong = 0;
        for i in 2000..3000 {
            if !g.update(0x100, i % 2 == 0) {
                wrong += 1;
            }
        }
        assert!(wrong < 50, "history should capture alternation: {wrong}");
    }

    #[test]
    fn btb_caches_targets() {
        let mut b = Btb::new(16);
        assert_eq!(b.lookup(0x40), None);
        assert!(b.update(0x40, 0x100), "first sighting is a redirect");
        assert_eq!(b.lookup(0x40), Some(0x100));
        assert!(!b.update(0x40, 0x100));
        assert!(b.update(0x40, 0x200), "target change redirects");
    }
}
