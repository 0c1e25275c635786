//! The in-order superscalar core model.
//!
//! Trace-driven: consumes the retired host-instruction stream through
//! [`InsnSink`]. Models a decoupled front-end (fetch groups, I-cache,
//! I-TLB, BTB + gshare, redirect penalties) and an in-order back-end
//! (register scoreboard, issue-width and functional-unit constraints,
//! memory hierarchy with a stride prefetcher), separated by an
//! instruction queue that lets fetch run ahead of issue.

use crate::bpred::{Btb, Gshare};
use crate::cache::{CacheModel, TlbModel};
use crate::config::TimingConfig;
use crate::prefetch::StridePrefetcher;
use darco_host::sink::{EventKind, InsnSink, RetireEvent};

/// Final simulation statistics (also the power model's activity input).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimingStats {
    /// Retired instructions.
    pub insns: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Simple integer operations.
    pub int_ops: u64,
    /// Multiplies.
    pub mul_ops: u64,
    /// Divides.
    pub div_ops: u64,
    /// FP operations.
    pub fp_ops: u64,
    /// Conditional branches.
    pub branches: u64,
    /// Direction mispredictions.
    pub mispredicts: u64,
    /// BTB redirects (unknown/wrong targets).
    pub btb_redirects: u64,
    /// L1I accesses / misses.
    pub il1_accesses: u64,
    pub il1_misses: u64,
    /// L1D accesses / misses.
    pub dl1_accesses: u64,
    pub dl1_misses: u64,
    /// L2 accesses / misses.
    pub l2_accesses: u64,
    pub l2_misses: u64,
    /// I-TLB misses.
    pub itlb_misses: u64,
    /// D-TLB misses.
    pub dtlb_misses: u64,
    /// Prefetches issued.
    pub prefetches: u64,
    /// Register file reads (power model).
    pub reg_reads: u64,
    /// Register file writes.
    pub reg_writes: u64,
}

impl TimingStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insns as f64 / self.cycles as f64
        }
    }

    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.insns == 0 {
            0.0
        } else {
            self.cycles as f64 / self.insns as f64
        }
    }

    /// Registers every statistic as a named counter under `prefix`, plus
    /// `ipc` as a gauge (single source for all timing reports).
    pub fn register_into(&self, reg: &mut darco_obs::Registry, prefix: &str) {
        let fields: [(&str, u64); 22] = [
            ("insns", self.insns),
            ("cycles", self.cycles),
            ("loads", self.loads),
            ("stores", self.stores),
            ("int_ops", self.int_ops),
            ("mul_ops", self.mul_ops),
            ("div_ops", self.div_ops),
            ("fp_ops", self.fp_ops),
            ("branches", self.branches),
            ("mispredicts", self.mispredicts),
            ("btb_redirects", self.btb_redirects),
            ("il1_accesses", self.il1_accesses),
            ("il1_misses", self.il1_misses),
            ("dl1_accesses", self.dl1_accesses),
            ("dl1_misses", self.dl1_misses),
            ("l2_accesses", self.l2_accesses),
            ("l2_misses", self.l2_misses),
            ("itlb_misses", self.itlb_misses),
            ("dtlb_misses", self.dtlb_misses),
            ("prefetches", self.prefetches),
            ("reg_reads", self.reg_reads),
            ("reg_writes", self.reg_writes),
        ];
        for (name, v) in fields {
            reg.set_counter(&format!("{prefix}.{name}"), v);
        }
        reg.set_gauge(&format!("{prefix}.ipc"), self.ipc());
    }
}

/// Rolling per-cycle resource usage for monotonic (in-order) issue:
/// instructions issued this cycle, then one count per [`Class`] (simple,
/// complex and FP units, memory read and write ports), indexed by the
/// class so the issue check needs no branch per class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Usage(pub(crate) [u32; 6]);

/// Functional-unit class; the value is its slot in [`Usage`] (slot 0
/// counts every issued instruction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    Simple = 1,
    Complex,
    Fp,
    Load,
    Store,
}

/// The in-order core.
///
/// Fields are crate-visible so the memoizing fast path
/// ([`crate::fast::FastTimer`]) can verify entry state and commit
/// recorded schedules without an abstraction tax.
#[derive(Debug)]
pub struct InOrderCore {
    pub(crate) cfg: TimingConfig,
    // front end
    pub(crate) fe_cycle: u64,
    pub(crate) fe_count: u32,
    pub(crate) last_fetch_line: u64,
    pub(crate) redirect_until: u64,
    // IQ decoupling: issue cycles of the last `iq_size` instructions.
    pub(crate) iq_ring: Vec<u64>,
    pub(crate) iq_pos: usize,
    // back end
    pub(crate) scoreboard: [u64; 128],
    pub(crate) cur_cycle: u64,
    pub(crate) usage: Usage,
    /// Per-cycle limits for each [`Usage`] slot: issue width, then the
    /// unit and port counts of the configuration.
    limits: [u32; 6],
    pub(crate) last_complete: u64,
    // structures
    pub(crate) gshare: Gshare,
    pub(crate) btb: Btb,
    pub(crate) il1: CacheModel,
    pub(crate) dl1: CacheModel,
    pub(crate) l2: CacheModel,
    pub(crate) itlb: TlbModel,
    pub(crate) dtlb: TlbModel,
    pub(crate) l2tlb: TlbModel,
    pub(crate) prefetcher: StridePrefetcher,
    // stats
    pub(crate) insns: u64,
    pub(crate) loads: u64,
    pub(crate) stores: u64,
    pub(crate) int_ops: u64,
    pub(crate) mul_ops: u64,
    pub(crate) div_ops: u64,
    pub(crate) fp_ops: u64,
    pub(crate) reg_reads: u64,
    pub(crate) reg_writes: u64,
}

impl InOrderCore {
    /// Creates a core from its configuration.
    pub fn new(cfg: TimingConfig) -> InOrderCore {
        InOrderCore {
            fe_cycle: 0,
            fe_count: 0,
            last_fetch_line: u64::MAX,
            redirect_until: 0,
            iq_ring: vec![0; cfg.iq_size.max(1) as usize],
            iq_pos: 0,
            scoreboard: [0; 128],
            cur_cycle: 0,
            usage: Usage::default(),
            limits: [
                cfg.issue_width,
                cfg.simple_units,
                cfg.complex_units,
                cfg.fp_units,
                cfg.mem_read_ports,
                cfg.mem_write_ports,
            ],
            last_complete: 0,
            gshare: Gshare::new(cfg.gshare_bits),
            btb: Btb::new(cfg.btb_entries),
            il1: CacheModel::new(&cfg.il1),
            dl1: CacheModel::new(&cfg.dl1),
            l2: CacheModel::new(&cfg.l2),
            itlb: TlbModel::new(&cfg.itlb),
            dtlb: TlbModel::new(&cfg.dtlb),
            l2tlb: TlbModel::new(&cfg.l2tlb),
            prefetcher: StridePrefetcher::new(cfg.prefetch_degree),
            insns: 0,
            loads: 0,
            stores: 0,
            int_ops: 0,
            mul_ops: 0,
            div_ops: 0,
            fp_ops: 0,
            reg_reads: 0,
            reg_writes: 0,
            cfg,
        }
    }

    /// Snapshot of the statistics (cycles = end of the last activity).
    pub fn stats(&self) -> TimingStats {
        TimingStats {
            insns: self.insns,
            cycles: self.last_complete.max(self.cur_cycle).max(self.fe_cycle),
            loads: self.loads,
            stores: self.stores,
            int_ops: self.int_ops,
            mul_ops: self.mul_ops,
            div_ops: self.div_ops,
            fp_ops: self.fp_ops,
            branches: self.gshare.predictions,
            mispredicts: self.gshare.mispredicts,
            btb_redirects: self.btb.target_misses,
            il1_accesses: self.il1.accesses,
            il1_misses: self.il1.misses,
            dl1_accesses: self.dl1.accesses,
            dl1_misses: self.dl1.misses,
            l2_accesses: self.l2.accesses,
            l2_misses: self.l2.misses,
            itlb_misses: self.itlb.misses,
            dtlb_misses: self.dtlb.misses,
            prefetches: self.prefetcher.issued,
            reg_reads: self.reg_reads,
            reg_writes: self.reg_writes,
        }
    }

    /// Serializes the full microarchitectural state — pipeline cursors,
    /// IQ ring, scoreboard, predictors, caches/TLBs, prefetcher and stat
    /// accumulators. The configuration is not serialized; restore requires
    /// a core built from the same [`TimingConfig`].
    pub fn snapshot_into(&self, w: &mut darco_guest::Wire) {
        w.put_u64(self.fe_cycle);
        w.put_u32(self.fe_count);
        w.put_u64(self.last_fetch_line);
        w.put_u64(self.redirect_until);
        w.put_usize(self.iq_ring.len());
        for &c in &self.iq_ring {
            w.put_u64(c);
        }
        w.put_usize(self.iq_pos);
        for &s in &self.scoreboard {
            w.put_u64(s);
        }
        w.put_u64(self.cur_cycle);
        for v in self.usage.0 {
            w.put_u32(v);
        }
        w.put_u64(self.last_complete);
        self.gshare.snapshot_into(w);
        self.btb.snapshot_into(w);
        self.il1.snapshot_into(w);
        self.dl1.snapshot_into(w);
        self.l2.snapshot_into(w);
        self.itlb.snapshot_into(w);
        self.dtlb.snapshot_into(w);
        self.l2tlb.snapshot_into(w);
        self.prefetcher.snapshot_into(w);
        for v in [
            self.insns,
            self.loads,
            self.stores,
            self.int_ops,
            self.mul_ops,
            self.div_ops,
            self.fp_ops,
            self.reg_reads,
            self.reg_writes,
        ] {
            w.put_u64(v);
        }
    }

    /// Restores microarchitectural state from an
    /// [`InOrderCore::snapshot_into`] stream. `self` must have been built
    /// from the same configuration as the snapshotted core.
    ///
    /// # Errors
    /// Wire decode failures or geometry mismatches against this core's
    /// configuration.
    pub fn restore_from(&mut self, r: &mut darco_guest::WireReader<'_>) -> Result<(), darco_guest::WireError> {
        self.fe_cycle = r.get_u64()?;
        self.fe_count = r.get_u32()?;
        self.last_fetch_line = r.get_u64()?;
        self.redirect_until = r.get_u64()?;
        let n = r.get_usize()?;
        if n != self.iq_ring.len() {
            return Err(darco_guest::WireError::Malformed {
                at: r.pos(),
                what: "iq ring size mismatch",
            });
        }
        for c in &mut self.iq_ring {
            *c = r.get_u64()?;
        }
        self.iq_pos = r.get_usize()?;
        if self.iq_pos >= self.iq_ring.len() {
            return Err(darco_guest::WireError::Malformed {
                at: r.pos(),
                what: "iq position out of range",
            });
        }
        for s in &mut self.scoreboard {
            *s = r.get_u64()?;
        }
        self.cur_cycle = r.get_u64()?;
        for v in &mut self.usage.0 {
            *v = r.get_u32()?;
        }
        self.last_complete = r.get_u64()?;
        self.gshare.restore_from(r)?;
        self.btb.restore_from(r)?;
        self.il1.restore_from(r)?;
        self.dl1.restore_from(r)?;
        self.l2.restore_from(r)?;
        self.itlb.restore_from(r)?;
        self.dtlb.restore_from(r)?;
        self.l2tlb.restore_from(r)?;
        self.prefetcher.restore_from(r)?;
        self.insns = r.get_u64()?;
        self.loads = r.get_u64()?;
        self.stores = r.get_u64()?;
        self.int_ops = r.get_u64()?;
        self.mul_ops = r.get_u64()?;
        self.div_ops = r.get_u64()?;
        self.fp_ops = r.get_u64()?;
        self.reg_reads = r.get_u64()?;
        self.reg_writes = r.get_u64()?;
        Ok(())
    }

    #[inline]
    pub(crate) fn classify(kind: &EventKind) -> Class {
        match kind {
            EventKind::IntAlu | EventKind::Branch { .. } | EventKind::Other => Class::Simple,
            EventKind::IntMul | EventKind::IntDiv => Class::Complex,
            EventKind::FpAdd | EventKind::FpMul | EventKind::FpDiv | EventKind::FpSqrt => Class::Fp,
            EventKind::Load { .. } => Class::Load,
            EventKind::Store { .. } => Class::Store,
        }
    }

    #[inline]
    pub(crate) fn latency_of(&self, kind: &EventKind) -> u32 {
        match kind {
            EventKind::IntMul => self.cfg.lat_mul,
            EventKind::IntDiv => self.cfg.lat_div,
            EventKind::FpAdd => self.cfg.lat_fpadd,
            EventKind::FpMul => self.cfg.lat_fpmul,
            EventKind::FpDiv => self.cfg.lat_fpdiv,
            EventKind::FpSqrt => self.cfg.lat_fpsqrt,
            _ => 1,
        }
    }

    /// Data-side memory access latency (D-TLB + D-cache hierarchy +
    /// prefetch training).
    #[inline]
    fn mem_latency(&mut self, pc: u64, addr: u64, is_load: bool) -> u32 {
        let mut lat = self.dl1.latency;
        if !self.dtlb.access(addr) {
            lat += if self.l2tlb.access(addr) {
                self.dtlb.miss_penalty
            } else {
                self.dtlb.miss_penalty + self.l2tlb.miss_penalty
            };
        }
        if !self.dl1.access(addr) {
            lat += if self.l2.access(addr) { self.l2.latency } else { self.l2.latency + self.cfg.mem_latency };
        }
        if is_load && self.cfg.prefetch {
            let (dl1, l2) = (&mut self.dl1, &mut self.l2);
            self.prefetcher.train(pc, addr, |p| {
                // Prefetch fills both levels (next-line style).
                if !dl1.fill(p) {
                    l2.fill(p);
                }
            });
        }
        lat
    }

    /// Instruction-side fetch latency for a new cache line.
    #[inline]
    fn fetch_latency(&mut self, pc_bytes: u64) -> u32 {
        let mut lat = 0;
        if !self.itlb.access(pc_bytes) {
            lat += if self.l2tlb.access(pc_bytes) {
                self.itlb.miss_penalty
            } else {
                self.itlb.miss_penalty + self.l2tlb.miss_penalty
            };
        }
        if !self.il1.access(pc_bytes) {
            lat += if self.l2.access(pc_bytes) {
                self.l2.latency
            } else {
                self.l2.latency + self.cfg.mem_latency
            };
        }
        lat
    }

    /// Moves the IQ ring cursor one slot on, wrapping without a divide.
    #[inline]
    pub(crate) fn advance_iq(&mut self) {
        self.iq_pos += 1;
        if self.iq_pos == self.iq_ring.len() {
            self.iq_pos = 0;
        }
    }

    /// Ring index of the most recently issued instruction.
    #[inline]
    pub(crate) fn last_iq_pos(&self) -> usize {
        self.iq_pos.checked_sub(1).unwrap_or(self.iq_ring.len() - 1)
    }

    /// Schedules one retired event through the whole pipeline model.
    pub(crate) fn consume(&mut self, ev: &RetireEvent) {
        let pc_bytes = ev.host_pc * 4;

        // ---- front end -----------------------------------------------------
        if self.fe_count >= self.cfg.fetch_width {
            self.fe_cycle += 1;
            self.fe_count = 0;
        }
        if self.fe_cycle < self.redirect_until {
            self.fe_cycle = self.redirect_until;
            self.fe_count = 0;
        }
        let line = self.il1.line_of(pc_bytes);
        if line != self.last_fetch_line {
            let extra = self.fetch_latency(pc_bytes);
            self.fe_cycle += extra as u64;
            self.last_fetch_line = line;
        }
        // IQ backpressure: cannot fetch more than iq_size ahead of issue.
        let gate = self.iq_ring[self.iq_pos];
        if self.fe_cycle < gate {
            self.fe_cycle = gate;
            self.fe_count = 0;
        }
        self.fe_count += 1;
        let fetched = self.fe_cycle;

        // ---- issue ---------------------------------------------------------
        let class = Self::classify(&ev.kind) as usize;
        let mut ready = fetched + self.cfg.frontend_depth as u64;
        for s in ev.srcs.into_iter().flatten() {
            ready = ready.max(self.scoreboard[s as usize & 127]);
            self.reg_reads += 1;
        }
        let mut cycle = ready.max(self.cur_cycle);
        loop {
            if cycle > self.cur_cycle {
                self.cur_cycle = cycle;
                self.usage = Usage::default();
            }
            let u = &self.usage.0;
            if u[0] < self.limits[0] && u[class] < self.limits[class] {
                break;
            }
            cycle += 1;
        }
        self.usage.0[0] += 1;
        self.usage.0[class] += 1;
        let issue = cycle;
        self.iq_ring[self.iq_pos] = issue;
        self.advance_iq();

        // ---- execute -------------------------------------------------------
        let lat = match ev.kind {
            EventKind::Load { addr, .. } => {
                self.loads += 1;
                self.mem_latency(pc_bytes, addr as u64, true)
            }
            EventKind::Store { addr, .. } => {
                self.stores += 1;
                // Stores retire through the store buffer; the cache is
                // updated (write-allocate) but the latency is hidden.
                self.mem_latency(pc_bytes, addr as u64, false);
                1
            }
            ref k => {
                match k {
                    EventKind::IntMul => self.mul_ops += 1,
                    EventKind::IntDiv => self.div_ops += 1,
                    EventKind::FpAdd | EventKind::FpMul | EventKind::FpDiv
                    | EventKind::FpSqrt => self.fp_ops += 1,
                    _ => self.int_ops += 1,
                }
                self.latency_of(k)
            }
        };
        let complete = issue + lat as u64;
        if let Some(d) = ev.dst {
            self.scoreboard[d as usize & 127] = complete;
            self.reg_writes += 1;
        }
        self.last_complete = self.last_complete.max(complete);

        // ---- branch resolution ----------------------------------------------
        if let EventKind::Branch { taken, target, cond } = ev.kind {
            let mut redirect = false;
            if cond {
                let correct = self.gshare.update(ev.host_pc, taken);
                if !correct {
                    redirect = true;
                }
            }
            if taken {
                let _ = self.btb.lookup(ev.host_pc);
                if self.btb.update(ev.host_pc, target) {
                    redirect = true;
                }
            }
            if redirect {
                self.redirect_until =
                    self.redirect_until.max(complete + self.cfg.mispredict_penalty as u64);
                self.last_fetch_line = u64::MAX;
            }
        }
        self.insns += 1;
    }
}

impl InsnSink for InOrderCore {
    #[inline]
    fn retire(&mut self, ev: &RetireEvent) {
        self.consume(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alu(pc: u64, dst: u8, a: u8, b: u8) -> RetireEvent {
        RetireEvent {
            host_pc: pc,
            kind: EventKind::IntAlu,
            dst: Some(dst),
            srcs: [Some(a), Some(b)],
        }
    }

    #[test]
    fn independent_alus_reach_issue_width_ipc() {
        let mut core = InOrderCore::new(TimingConfig::default());
        for i in 0..20_000u64 {
            let d = (i % 8) as u8 + 16;
            core.retire(&alu(i % 64, d, d, d.wrapping_add(1)));
        }
        let s = core.stats();
        let ipc = s.ipc();
        assert!(ipc > 1.6, "independent ALUs on a 2-wide core: ipc = {ipc}");
    }

    #[test]
    fn dependent_chain_limits_ipc_to_one() {
        let mut core = InOrderCore::new(TimingConfig::default());
        for i in 0..20_000u64 {
            core.retire(&alu(i % 64, 16, 16, 16)); // serial chain
        }
        let ipc = core.stats().ipc();
        assert!(ipc <= 1.05, "serial dependence chain: ipc = {ipc}");
    }

    #[test]
    fn long_latency_divides_slow_things_down() {
        let mut fast = InOrderCore::new(TimingConfig::default());
        let mut slow = InOrderCore::new(TimingConfig::default());
        for i in 0..5_000u64 {
            fast.retire(&alu(i % 64, 16, 16, 17));
            slow.retire(&RetireEvent {
                host_pc: i % 64,
                kind: EventKind::IntDiv,
                dst: Some(16),
                srcs: [Some(16), Some(17)],
            });
        }
        assert!(slow.stats().cycles > 5 * fast.stats().cycles);
    }

    #[test]
    fn cache_missing_loads_hurt() {
        let mut hit = InOrderCore::new(TimingConfig::default());
        let mut miss = InOrderCore::new(TimingConfig { prefetch: false, ..Default::default() });
        for i in 0..10_000u64 {
            hit.retire(&RetireEvent {
                host_pc: i % 16,
                kind: EventKind::Load { addr: 0x1000, bytes: 4 },
                dst: Some(16),
                srcs: [Some(17), None],
            });
            // Pointer-chasing pattern: random-ish lines over 16 MiB, and the
            // next load depends on the previous one.
            let a = (i.wrapping_mul(2654435761) % (16 << 20)) as u32;
            miss.retire(&RetireEvent {
                host_pc: i % 16,
                kind: EventKind::Load { addr: a, bytes: 4 },
                dst: Some(16),
                srcs: [Some(16), None],
            });
        }
        let (h, m) = (hit.stats(), miss.stats());
        assert!(h.dl1_misses < 10);
        assert!(m.dl1_misses > 9_000);
        assert!(m.cycles > 10 * h.cycles, "memory-bound: {} vs {}", m.cycles, h.cycles);
    }

    #[test]
    fn prefetcher_rescues_streaming_loads() {
        let run = |pf: bool| {
            let mut core =
                InOrderCore::new(TimingConfig { prefetch: pf, ..Default::default() });
            for i in 0..20_000u64 {
                // Load-to-load dependence: each miss is exposed, so the
                // prefetcher's conversion of misses to hits is visible.
                core.retire(&RetireEvent {
                    host_pc: 5,
                    kind: EventKind::Load { addr: (i * 64) as u32, bytes: 4 },
                    dst: Some(16),
                    srcs: [Some(16), None],
                });
            }
            core.stats()
        };
        let without = run(false);
        let with = run(true);
        assert!(with.prefetches > 10_000);
        assert!(
            with.cycles * 2 < without.cycles,
            "prefetching must help streaming: {} vs {}",
            with.cycles,
            without.cycles
        );
    }

    #[test]
    fn mispredicted_branches_cost_refills() {
        let run = |biased: bool| {
            let mut core = InOrderCore::new(TimingConfig::default());
            let mut x = 99u64;
            for i in 0..20_000u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let taken = if biased { true } else { (x >> 40) & 1 == 1 };
                core.retire(&RetireEvent {
                    host_pc: 7,
                    kind: EventKind::Branch {
                        taken,
                        target: if taken { 100 } else { 8 },
                        cond: true,
                    },
                    dst: None,
                    srcs: [Some(16), None],
                });
                core.retire(&alu(i % 32 + 8, (i % 8) as u8 + 16, 17, 18));
            }
            core.stats()
        };
        let good = run(true);
        let bad = run(false);
        assert!(bad.mispredicts > 20 * good.mispredicts.max(1));
        assert!(bad.cycles > good.cycles * 2, "{} vs {}", bad.cycles, good.cycles);
    }

    #[test]
    fn snapshot_mid_stream_continues_identically() {
        // A mixed stream exercising caches, predictors and the prefetcher.
        let event = |i: u64| {
            let x = i.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            match x % 5 {
                0 => RetireEvent {
                    host_pc: i % 256,
                    kind: EventKind::Load { addr: ((x >> 20) % (1 << 22)) as u32, bytes: 4 },
                    dst: Some(16 + (i % 8) as u8),
                    srcs: [Some(17), None],
                },
                1 => RetireEvent {
                    host_pc: i % 256,
                    kind: EventKind::Store { addr: ((x >> 24) % (1 << 20)) as u32, bytes: 4 },
                    dst: None,
                    srcs: [Some(16), Some(18)],
                },
                2 => RetireEvent {
                    host_pc: i % 64,
                    kind: EventKind::Branch {
                        taken: (x >> 40) & 1 == 1,
                        target: (x >> 13) % 512,
                        cond: true,
                    },
                    dst: None,
                    srcs: [Some(19), None],
                },
                _ => alu(i % 128, 16 + (i % 8) as u8, 17, 18),
            }
        };
        let mut whole = InOrderCore::new(TimingConfig::default());
        for i in 0..6_000 {
            whole.retire(&event(i));
        }

        let mut first = InOrderCore::new(TimingConfig::default());
        for i in 0..2_500 {
            first.retire(&event(i));
        }
        let mut w = darco_guest::Wire::new();
        first.snapshot_into(&mut w);
        let bytes = w.finish();

        let mut resumed = InOrderCore::new(TimingConfig::default());
        let mut r = darco_guest::WireReader::new(&bytes);
        resumed.restore_from(&mut r).unwrap();
        r.expect_end().unwrap();
        for i in 2_500..6_000 {
            resumed.retire(&event(i));
        }
        assert_eq!(resumed.stats(), whole.stats());
    }

    #[test]
    fn wider_issue_helps_parallel_code() {
        let run = |width: u32| {
            let mut core = InOrderCore::new(TimingConfig {
                issue_width: width,
                fetch_width: width * 2,
                simple_units: width,
                ..Default::default()
            });
            for i in 0..20_000u64 {
                let d = (i % 12) as u8 + 16;
                core.retire(&alu(i % 64, d, 40, 41));
            }
            core.stats()
        };
        let narrow = run(1);
        let wide = run(4);
        assert!(wide.ipc() > 2.5 * narrow.ipc());
    }
}
