//! Out-of-order core extension — the paper's §III design-choice study
//! ("wide in-order or narrow out-of-order cores").
//!
//! Same trace interface and memory hierarchy as [`crate::InOrderCore`],
//! but instructions issue as soon as their operands and a functional unit
//! are available within a ROB window, and retire in order. On identical
//! instruction streams this isolates the value of dynamic scheduling —
//! which is exactly the comparison the paper proposes (ablation A4).

use crate::bpred::{Btb, Gshare};
use crate::cache::{CacheModel, TlbModel};
use crate::config::TimingConfig;
use crate::core::TimingStats;
use crate::prefetch::StridePrefetcher;
use darco_guest::mem::IntBuildHasher;
use darco_host::sink::{EventKind, InsnSink, RetireEvent};
use std::collections::HashMap;

/// The out-of-order core model.
#[derive(Debug)]
pub struct OooCore {
    cfg: TimingConfig,
    fe_cycle: u64,
    fe_count: u32,
    last_fetch_line: u64,
    redirect_until: u64,
    rob_ring: Vec<u64>, // retire cycles of the last rob_size insns
    rob_pos: usize,
    last_retire: u64,
    scoreboard: [u64; 128],
    /// Per-cycle counters. Only ever read by key or in sorted key order,
    /// so the hasher cannot reach the results.
    usage: HashMap<u64, (u32, u32, u32, u32, u32, u32), IntBuildHasher>,
    usage_floor: u64,
    last_complete: u64,
    gshare: Gshare,
    btb: Btb,
    il1: CacheModel,
    dl1: CacheModel,
    l2: CacheModel,
    itlb: TlbModel,
    dtlb: TlbModel,
    l2tlb: TlbModel,
    prefetcher: StridePrefetcher,
    insns: u64,
    loads: u64,
    stores: u64,
    int_ops: u64,
    mul_ops: u64,
    div_ops: u64,
    fp_ops: u64,
    reg_reads: u64,
    reg_writes: u64,
}

impl OooCore {
    /// Creates an out-of-order core.
    pub fn new(cfg: TimingConfig) -> OooCore {
        OooCore {
            fe_cycle: 0,
            fe_count: 0,
            last_fetch_line: u64::MAX,
            redirect_until: 0,
            rob_ring: vec![0; cfg.rob_size.max(1) as usize],
            rob_pos: 0,
            last_retire: 0,
            scoreboard: [0; 128],
            usage: HashMap::default(),
            usage_floor: 0,
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

    /// Statistics snapshot.
    pub fn stats(&self) -> TimingStats {
        TimingStats {
            insns: self.insns,
            cycles: self.last_retire.max(self.last_complete).max(self.fe_cycle),
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

    /// Serializes the full microarchitectural state. The per-cycle usage
    /// map travels in sorted-key order so identical state yields identical
    /// bytes; configuration is not serialized (restore requires a core
    /// built from the same [`TimingConfig`]).
    pub fn snapshot_into(&self, w: &mut darco_guest::Wire) {
        w.put_u64(self.fe_cycle);
        w.put_u32(self.fe_count);
        w.put_u64(self.last_fetch_line);
        w.put_u64(self.redirect_until);
        w.put_usize(self.rob_ring.len());
        for &c in &self.rob_ring {
            w.put_u64(c);
        }
        w.put_usize(self.rob_pos);
        w.put_u64(self.last_retire);
        for &s in &self.scoreboard {
            w.put_u64(s);
        }
        let mut cycles: Vec<u64> = self.usage.keys().copied().collect();
        cycles.sort_unstable();
        w.put_usize(cycles.len());
        for c in cycles {
            let u = self.usage[&c];
            w.put_u64(c);
            for v in [u.0, u.1, u.2, u.3, u.4, u.5] {
                w.put_u32(v);
            }
        }
        w.put_u64(self.usage_floor);
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
    /// [`OooCore::snapshot_into`] stream. `self` must have been built from
    /// the same configuration as the snapshotted core.
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
        if n != self.rob_ring.len() {
            return Err(darco_guest::WireError::Malformed {
                at: r.pos(),
                what: "rob ring size mismatch",
            });
        }
        for c in &mut self.rob_ring {
            *c = r.get_u64()?;
        }
        self.rob_pos = r.get_usize()?;
        if self.rob_pos >= self.rob_ring.len() {
            return Err(darco_guest::WireError::Malformed {
                at: r.pos(),
                what: "rob position out of range",
            });
        }
        self.last_retire = r.get_u64()?;
        for s in &mut self.scoreboard {
            *s = r.get_u64()?;
        }
        let entries = r.get_usize()?;
        self.usage.clear();
        for _ in 0..entries {
            let c = r.get_u64()?;
            let u = (
                r.get_u32()?,
                r.get_u32()?,
                r.get_u32()?,
                r.get_u32()?,
                r.get_u32()?,
                r.get_u32()?,
            );
            self.usage.insert(c, u);
        }
        self.usage_floor = r.get_u64()?;
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
            lat += if self.l2.access(addr) {
                self.l2.latency
            } else {
                self.l2.latency + self.cfg.mem_latency
            };
        }
        if is_load && self.cfg.prefetch {
            let (dl1, l2) = (&mut self.dl1, &mut self.l2);
            self.prefetcher.train(pc, addr, |p| {
                if !dl1.fill(p) {
                    l2.fill(p);
                }
            });
        }
        lat
    }

    fn consume(&mut self, ev: &RetireEvent) {
        let pc_bytes = ev.host_pc * 4;
        // Front end — same as the in-order core.
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
            let mut extra = 0;
            if !self.itlb.access(pc_bytes) {
                extra += if self.l2tlb.access(pc_bytes) {
                    self.itlb.miss_penalty
                } else {
                    self.itlb.miss_penalty + self.l2tlb.miss_penalty
                };
            }
            if !self.il1.access(pc_bytes) {
                extra += if self.l2.access(pc_bytes) {
                    self.l2.latency
                } else {
                    self.l2.latency + self.cfg.mem_latency
                };
            }
            self.fe_cycle += extra as u64;
            self.last_fetch_line = line;
        }
        // ROB window: dispatch stalls until the oldest in-window insn
        // retired.
        let gate = self.rob_ring[self.rob_pos];
        if self.fe_cycle < gate {
            self.fe_cycle = gate;
            self.fe_count = 0;
        }
        self.fe_count += 1;
        let dispatch = self.fe_cycle + self.cfg.frontend_depth as u64;

        // Issue: operands + any free slot from dispatch onward (dynamic
        // scheduling: NOT constrained by older instructions' issue order).
        let mut ready = dispatch;
        for s in ev.srcs.into_iter().flatten() {
            ready = ready.max(self.scoreboard[s as usize & 127]);
            self.reg_reads += 1;
        }
        let class = |k: &EventKind| -> u8 {
            match k {
                EventKind::IntMul | EventKind::IntDiv => 1,
                EventKind::FpAdd | EventKind::FpMul | EventKind::FpDiv | EventKind::FpSqrt => 2,
                EventKind::Load { .. } => 3,
                EventKind::Store { .. } => 4,
                _ => 0,
            }
        };
        let c = class(&ev.kind);
        let mut cycle = ready;
        loop {
            let u = self.usage.entry(cycle).or_default();
            let fits = u.0 < self.cfg.issue_width
                && match c {
                    0 => u.1 < self.cfg.simple_units,
                    1 => u.2 < self.cfg.complex_units,
                    2 => u.3 < self.cfg.fp_units,
                    3 => u.4 < self.cfg.mem_read_ports,
                    _ => u.5 < self.cfg.mem_write_ports,
                };
            if fits {
                u.0 += 1;
                match c {
                    0 => u.1 += 1,
                    1 => u.2 += 1,
                    2 => u.3 += 1,
                    3 => u.4 += 1,
                    _ => u.5 += 1,
                }
                break;
            }
            cycle += 1;
        }
        let issue = cycle;

        let lat = match ev.kind {
            EventKind::Load { addr, .. } => {
                self.loads += 1;
                self.mem_latency(pc_bytes, addr as u64, true)
            }
            EventKind::Store { addr, .. } => {
                self.stores += 1;
                self.mem_latency(pc_bytes, addr as u64, false);
                1
            }
            ref k => {
                match k {
                    EventKind::IntMul => {
                        self.mul_ops += 1;
                    }
                    EventKind::IntDiv => {
                        self.div_ops += 1;
                    }
                    EventKind::FpAdd | EventKind::FpMul | EventKind::FpDiv
                    | EventKind::FpSqrt => {
                        self.fp_ops += 1;
                    }
                    _ => {
                        self.int_ops += 1;
                    }
                }
                match k {
                    EventKind::IntMul => self.cfg.lat_mul,
                    EventKind::IntDiv => self.cfg.lat_div,
                    EventKind::FpAdd => self.cfg.lat_fpadd,
                    EventKind::FpMul => self.cfg.lat_fpmul,
                    EventKind::FpDiv => self.cfg.lat_fpdiv,
                    EventKind::FpSqrt => self.cfg.lat_fpsqrt,
                    _ => 1,
                }
            }
        };
        let complete = issue + lat as u64;
        if let Some(d) = ev.dst {
            self.scoreboard[d as usize & 127] = complete;
            self.reg_writes += 1;
        }
        self.last_complete = self.last_complete.max(complete);

        // In-order retirement.
        let retire = complete.max(self.last_retire);
        self.last_retire = retire;
        self.rob_ring[self.rob_pos] = retire;
        self.rob_pos += 1;
        if self.rob_pos == self.rob_ring.len() {
            self.rob_pos = 0;
        }

        // Branch resolution at completion.
        if let EventKind::Branch { taken, target, cond } = ev.kind {
            let mut redirect = false;
            if cond && !self.gshare.update(ev.host_pc, taken) {
                redirect = true;
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
        // Prune the usage map to bound memory.
        if self.insns.is_multiple_of(4096) {
            let floor = self.usage_floor;
            let min_live = self.rob_ring.iter().copied().min().unwrap_or(0);
            if min_live > floor + 8192 {
                self.usage.retain(|&c, _| c + 512 >= min_live);
                self.usage_floor = min_live;
            }
        }
        self.insns += 1;
    }
}

impl InsnSink for OooCore {
    #[inline]
    fn retire(&mut self, ev: &RetireEvent) {
        self.consume(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InOrderCore;

    /// A load-miss followed by independent ALU work: the OoO core should
    /// hide the miss; the in-order core cannot.
    #[test]
    fn ooo_hides_load_misses_that_stall_inorder() {
        let cfg = TimingConfig { prefetch: false, ..Default::default() };
        let mut ino = InOrderCore::new(cfg.clone());
        let mut ooo = OooCore::new(cfg);
        fn feed<S: InsnSink>(sink: &mut S) {
            for i in 0..4_000u64 {
                // Missy load into r20 (pointer chase), then a *dependent* op,
                // then independent work.
                let addr = (i.wrapping_mul(2654435761) % (32 << 20)) as u32;
                sink.retire(&RetireEvent {
                    host_pc: 3,
                    kind: EventKind::Load { addr, bytes: 4 },
                    dst: Some(20),
                    srcs: [Some(21), None],
                });
                sink.retire(&RetireEvent {
                    host_pc: 4,
                    kind: EventKind::IntAlu,
                    dst: Some(22),
                    srcs: [Some(20), None],
                });
                for k in 0..6u64 {
                    let d = 24 + (k % 4) as u8;
                    sink.retire(&RetireEvent {
                        host_pc: 5 + k,
                        kind: EventKind::IntAlu,
                        dst: Some(d),
                        srcs: [Some(30), Some(31)],
                    });
                }
            }
        }
        feed(&mut ino);
        feed(&mut ooo);
        let (i, o) = (ino.stats(), ooo.stats());
        assert!(
            o.cycles * 5 < i.cycles * 4,
            "OoO should be >= 25% faster here: inorder {} vs ooo {}",
            i.cycles,
            o.cycles
        );
    }

    #[test]
    fn ooo_snapshot_mid_stream_continues_identically() {
        let event = |i: u64| {
            let x = i.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            match x % 4 {
                0 => RetireEvent {
                    host_pc: i % 200,
                    kind: EventKind::Load { addr: ((x >> 18) % (8 << 20)) as u32, bytes: 4 },
                    dst: Some(20),
                    srcs: [Some(21), None],
                },
                1 => RetireEvent {
                    host_pc: i % 48,
                    kind: EventKind::Branch {
                        taken: (x >> 39) & 1 == 1,
                        target: (x >> 11) % 256,
                        cond: true,
                    },
                    dst: None,
                    srcs: [Some(20), None],
                },
                _ => RetireEvent {
                    host_pc: i % 96,
                    kind: EventKind::IntAlu,
                    dst: Some(24 + (i % 4) as u8),
                    srcs: [Some(30), Some(31)],
                },
            }
        };
        let mut whole = OooCore::new(TimingConfig::default());
        for i in 0..9_000 {
            whole.retire(&event(i));
        }
        // Snapshot past the first usage-map prune (every 4096 insns) so
        // pruned state round-trips too.
        let mut first = OooCore::new(TimingConfig::default());
        for i in 0..5_000 {
            first.retire(&event(i));
        }
        let mut w = darco_guest::Wire::new();
        first.snapshot_into(&mut w);
        let bytes = w.finish();

        let mut resumed = OooCore::new(TimingConfig::default());
        let mut r = darco_guest::WireReader::new(&bytes);
        resumed.restore_from(&mut r).unwrap();
        r.expect_end().unwrap();
        for i in 5_000..9_000 {
            resumed.retire(&event(i));
        }
        assert_eq!(resumed.stats(), whole.stats());
    }

    #[test]
    fn rob_size_bounds_the_window() {
        let small = TimingConfig { rob_size: 4, prefetch: false, ..Default::default() };
        let big = TimingConfig { rob_size: 128, prefetch: false, ..Default::default() };
        fn feed<S: InsnSink>(sink: &mut S) {
            for i in 0..4_000u64 {
                let addr = (i.wrapping_mul(2654435761) % (32 << 20)) as u32;
                sink.retire(&RetireEvent {
                    host_pc: 3,
                    kind: EventKind::Load { addr, bytes: 4 },
                    dst: Some(20),
                    srcs: [Some(21), None],
                });
                for k in 0..10u64 {
                    sink.retire(&RetireEvent {
                        host_pc: 5 + k,
                        kind: EventKind::IntAlu,
                        dst: Some(24 + (k % 4) as u8),
                        srcs: [Some(30), Some(31)],
                    });
                }
            }
        }
        let mut s = OooCore::new(small);
        let mut b = OooCore::new(big);
        feed(&mut s);
        feed(&mut b);
        assert!(b.stats().cycles < s.stats().cycles, "bigger window hides more");
    }
}
