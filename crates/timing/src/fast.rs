//! The memoizing fast timing path.
//!
//! [`FastTimer`] wraps an [`InOrderCore`] and charges whole translated
//! blocks in one step instead of scheduling every retired instruction.
//! The first time a block shape is seen it is *learned*: it runs through
//! the full core while its per-event schedule (issue/complete cycles
//! relative to the block entry) is recorded into reused scratch buffers.
//! If the run was *clean* — every I/D-cache and TLB access hit, every
//! branch predicted, no prefetches — the schedule is copied out and
//! memoized, keyed by the block's entry pc plus a signature of the
//! schedule-relevant entry state (front-end cursor, IQ ring, scoreboard,
//! per-cycle resource usage). The first unclean event ends the recording:
//! the rest of the block goes through the core unrecorded, and nothing is
//! allocated for it.
//!
//! On later occurrences the live entry state is compared with each
//! variant's signature in place, element by element, stopping at the
//! first mismatch (no signature is built for the probe). With a match,
//! the recorded schedule is *verified* event by event with pure model
//! probes
//! ([`CacheModel::peek_hit`](crate::cache::CacheModel::peek_hit),
//! [`Gshare::peek_correct`](crate::bpred::Gshare::peek_correct), ...) and
//! committed without re-running the scheduling loops. The moment any
//! probe fails — a cache or TLB miss, a mispredict, a prefetcher about to
//! fire — the fast path *escapes*: the remaining events drop into the
//! full `InOrderCore::consume` with all model state exactly as the full
//! simulation would have left it.
//!
//! Because probes are pure and commits are byte-equivalent to hitting
//! accesses, the fast path is **bit-identical** to full simulation: every
//! statistic, every cycle count, every model's serialized state matches
//! `timing_mode=full` exactly. "Fast" buys back the per-event scheduling
//! arithmetic, not accuracy — the headline speedups come from the SMARTS
//! sampling campaign layered on top (see `darco_core::sampling`).
//!
//! Events that arrive one at a time through [`InsnSink::retire`] (the
//! TOL-overhead stream the engine synthesizes) and incomplete blocks go
//! straight to `InOrderCore::consume`; in timed runs they are most of
//! the events, so the core's per-event path is kept cheap too (DESIGN.md
//! §16).

use std::collections::HashMap;

use crate::config::TimingConfig;
use crate::core::{InOrderCore, TimingStats, Usage};
use darco_guest::mem::IntBuildHasher;
use darco_host::sink::{EventKind, InsnSink, RetireEvent};

/// Blocks longer than this are not memoized (replayed in full instead);
/// bounds per-variant memory and signature length.
const MAX_BLOCK_EVENTS: usize = 512;
/// Distinct entry-state variants kept per block, replaced round-robin.
const MAX_VARIANTS: usize = 4;
/// Distinct block entry pcs memoized before the table is reset.
const MAX_BASES: usize = 4096;
/// Consecutive escaping replays after which a variant is dropped so the
/// block can be re-learned (its recorded shape no longer matches reality,
/// e.g. the working set shifted for good).
const STALE_STREAK: u32 = 8;

/// Canonical "can never affect the schedule" marker in signatures.
const SENT: i64 = i64::MIN;

/// Recorded per-event schedule, relative to the block-entry issue cycle.
#[derive(Debug, Clone)]
struct EventRec {
    /// Host pc (word units) — verified against the live event.
    pc: u64,
    /// Kind/operand fingerprint — verified against the live event.
    fp: u32,
    /// Fetch line of this pc.
    line: u64,
    /// Whether fetching this event touched a new line (I-side probes).
    line_changed: bool,
    /// Issue cycle − entry `cur_cycle`.
    issue_rel: u64,
    /// Completion cycle − entry `cur_cycle`.
    complete_rel: u64,
    /// Front-end cycle after the event − entry `cur_cycle` (can be
    /// negative when fetch runs behind the back end).
    fe_rel: i64,
    fe_count_after: u32,
    cur_rel_after: u64,
    usage_after: Usage,
}

/// One memoized (entry-state signature → schedule) pair.
#[derive(Debug, Clone)]
struct Variant {
    sig: Vec<i64>,
    /// Distinct source registers of the block, first-occurrence order;
    /// their entry scoreboard values are part of the signature.
    regs: Vec<u8>,
    recs: Vec<EventRec>,
    /// Consecutive escapes since the last full fast replay.
    streak: u32,
}

#[derive(Debug, Default)]
struct BaseMemo {
    variants: Vec<Variant>,
    next_replace: usize,
}

/// Fast-path telemetry (the `fast.*` metric namespace).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastStats {
    /// Blocks charged entirely from a memoized schedule.
    pub memo_blocks: u64,
    /// Events charged from memoized schedules (including before escapes).
    pub memo_events: u64,
    /// Replays that escaped to the full core mid-block.
    pub escapes: u64,
    /// Schedules learned (clean replays memoized).
    pub learns: u64,
    /// Blocks replayed in full without a memo attempt (incomplete blocks,
    /// oversized blocks, unclean replays).
    pub plain_blocks: u64,
    /// Times the memo table hit its capacity and was reset.
    pub memo_clears: u64,
}

impl FastStats {
    /// Registers the telemetry as counters under `prefix`.
    pub fn register_into(&self, reg: &mut darco_obs::Registry, prefix: &str) {
        let fields: [(&str, u64); 6] = [
            ("memo_blocks", self.memo_blocks),
            ("memo_events", self.memo_events),
            ("escapes", self.escapes),
            ("learns", self.learns),
            ("plain_blocks", self.plain_blocks),
            ("memo_clears", self.memo_clears),
        ];
        for (name, v) in fields {
            reg.set_counter(&format!("{prefix}.{name}"), v);
        }
    }
}

/// Reused buffers of [`learn`]: a block's schedule is recorded here and
/// copied into a [`Variant`] only when it turns out clean.
#[derive(Debug, Default)]
struct Scratch {
    regs: Vec<u8>,
    sig: Vec<i64>,
    recs: Vec<EventRec>,
}

/// Block-memoizing timing sink; see the module docs.
#[derive(Debug)]
pub struct FastTimer {
    core: InOrderCore,
    memo: HashMap<u64, BaseMemo, IntBuildHasher>,
    stats: FastStats,
    scratch: Scratch,
}

impl FastTimer {
    /// Creates a fast timer over an in-order core with this configuration.
    pub fn new(cfg: TimingConfig) -> FastTimer {
        FastTimer {
            core: InOrderCore::new(cfg),
            memo: HashMap::default(),
            stats: FastStats::default(),
            scratch: Scratch::default(),
        }
    }

    /// Final timing statistics — identical to what `timing_mode=full`
    /// reports for the same event stream.
    pub fn stats(&self) -> TimingStats {
        self.core.stats()
    }

    /// Fast-path telemetry. Deterministic for a given cold-start run, but
    /// not preserved across snapshot/restore boundaries the way timing
    /// state is (the memo table restarts cold), so these belong in live
    /// metrics, not byte-compared artifacts.
    pub fn fast_stats(&self) -> FastStats {
        self.stats
    }

    /// The wrapped full core (read-only).
    pub fn core(&self) -> &InOrderCore {
        &self.core
    }

    /// Serializes the timing state: the wrapped core in its exact wire
    /// format, then the fast-path telemetry. The memo table is *not*
    /// serialized — a restored timer re-learns block schedules, which
    /// changes nothing observable in the timing results (memoization is
    /// bit-exact either way).
    pub fn snapshot_into(&self, w: &mut darco_guest::Wire) {
        self.core.snapshot_into(w);
        for v in [
            self.stats.memo_blocks,
            self.stats.memo_events,
            self.stats.escapes,
            self.stats.learns,
            self.stats.plain_blocks,
            self.stats.memo_clears,
        ] {
            w.put_u64(v);
        }
    }

    /// Restores from a [`FastTimer::snapshot_into`] stream; the memo table
    /// starts cold.
    ///
    /// # Errors
    /// Wire decode failures or core geometry mismatches.
    pub fn restore_from(&mut self, r: &mut darco_guest::WireReader<'_>) -> Result<(), darco_guest::WireError> {
        self.core.restore_from(r)?;
        self.stats.memo_blocks = r.get_u64()?;
        self.stats.memo_events = r.get_u64()?;
        self.stats.escapes = r.get_u64()?;
        self.stats.learns = r.get_u64()?;
        self.stats.plain_blocks = r.get_u64()?;
        self.stats.memo_clears = r.get_u64()?;
        self.memo.clear();
        Ok(())
    }
}

/// Kind + operand fingerprint. Operand *identity* pins the recorded
/// schedule; addresses, directions and targets are deliberately excluded —
/// they only reach the schedule through model outcomes (miss latencies,
/// redirects), and those are re-verified live with pure probes on every
/// replay.
fn fingerprint(ev: &RetireEvent) -> u32 {
    let d = match ev.kind {
        EventKind::IntAlu => 0u32,
        EventKind::IntMul => 1,
        EventKind::IntDiv => 2,
        EventKind::FpAdd => 3,
        EventKind::FpMul => 4,
        EventKind::FpDiv => 5,
        EventKind::FpSqrt => 6,
        EventKind::Load { .. } => 7,
        EventKind::Store { .. } => 8,
        EventKind::Branch { .. } => 9,
        EventKind::Other => 10,
    };
    let r = |x: Option<u8>| x.map_or(255u32, |v| v as u32);
    d | (r(ev.dst) << 8) | (r(ev.srcs[0]) << 16) | (r(ev.srcs[1]) << 24)
}

/// Walks the schedule-relevant entry-state signature, canonicalized
/// relative to the entry `cur_cycle` so the same block shape matches at
/// any absolute cycle, handing each element to `f` and stopping (with
/// `false`) the moment `f` returns false. Values that provably cannot
/// influence the schedule (stale IQ gates, scoreboard entries below the
/// dependence floor) are collapsed to [`SENT`].
fn sig_walk(
    core: &InOrderCore,
    regs: &[u8],
    n_events: usize,
    first_line: u64,
    mut f: impl FnMut(i64) -> bool,
) -> bool {
    let c0 = core.cur_cycle as i64;
    let head = [
        core.fe_cycle as i64 - c0,
        core.fe_count as i64,
        (core.last_fetch_line == first_line) as i64,
        // A redirect deadline already behind the front end can never
        // clamp it.
        if core.redirect_until <= core.fe_cycle { SENT } else { core.redirect_until as i64 - c0 },
    ];
    if !head.into_iter().chain(core.usage.0.map(i64::from)).all(&mut f) {
        return false;
    }
    // IQ gates read by the first min(n, iq) events, oldest slot first;
    // entries at or behind the front end never backpressure.
    let (wrapped, from_pos) = core.iq_ring.split_at(core.iq_pos);
    let n_from_pos = n_events.min(from_pos.len());
    let n_wrapped = (n_events - n_from_pos).min(wrapped.len());
    let stale = |&e: &u64| if e <= core.fe_cycle { SENT } else { e as i64 - c0 };
    if !from_pos[..n_from_pos].iter().all(|e| f(stale(e)))
        || !wrapped[..n_wrapped].iter().all(|e| f(stale(e)))
    {
        return false;
    }
    // Scoreboard entries below max(fe+depth, cur) are dominated by the
    // fetch/issue floor and cannot lengthen any dependence.
    let floor = core.cur_cycle.max(core.fe_cycle + core.cfg.frontend_depth as u64);
    regs.iter().all(|&r| {
        let s = core.scoreboard[r as usize & 127];
        f(if s <= floor { SENT } else { s as i64 - c0 })
    })
}

/// Whether the live entry state matches `v`'s recorded signature —
/// compared element by element in place, stopping at the first mismatch.
fn sig_matches(core: &InOrderCore, v: &Variant) -> bool {
    let mut want = v.sig.iter();
    sig_walk(core, &v.regs, v.recs.len(), v.recs[0].line, |x| want.next() == Some(&x))
        && want.next().is_none()
}

/// Sum of the counters a clean replay never moves: I/D-cache and TLB
/// misses, mispredicts, BTB redirects and prefetches.
fn unclean_count(core: &InOrderCore) -> u64 {
    core.il1.misses
        + core.dl1.misses
        + core.itlb.misses
        + core.dtlb.misses
        + core.gshare.mispredicts
        + core.btb.target_misses
        + core.prefetcher.issued
}

/// Replays a memoized schedule against the live event stream. Returns how
/// many leading events were verified and committed; the caller routes the
/// remainder (if any) through the full core. Events `0..returned` have
/// all their model/stat/scoreboard effects applied exactly as
/// [`InOrderCore::consume`] would have; events from the returned index on
/// have touched nothing.
fn replay(core: &mut InOrderCore, v: &Variant, events: &[RetireEvent]) -> usize {
    let c0 = core.cur_cycle;
    let n = events.len().min(v.recs.len());
    let mut loads = 0u64;
    let mut stores = 0u64;
    let mut int_ops = 0u64;
    let mut mul_ops = 0u64;
    let mut div_ops = 0u64;
    let mut fp_ops = 0u64;
    let mut reg_reads = 0u64;
    let mut reg_writes = 0u64;
    let mut max_complete = 0u64;
    let mut j = 0usize;
    'scan: while j < n {
        let ev = &events[j];
        let rec = &v.recs[j];
        if ev.host_pc != rec.pc || fingerprint(ev) != rec.fp {
            break;
        }
        let pc_bytes = ev.host_pc * 4;
        // ---- verify: pure probes, nothing touched yet -------------------
        let iside = if rec.line_changed {
            let Some(ti) = core.itlb.peek_hit(pc_bytes) else { break };
            let Some(ih) = core.il1.peek_hit(pc_bytes) else { break };
            Some((ti, ih))
        } else {
            None
        };
        let dside = match ev.kind {
            EventKind::Load { addr, .. } | EventKind::Store { addr, .. } => {
                let addr = addr as u64;
                let Some(di) = core.dtlb.peek_hit(addr) else { break };
                let Some(dh) = core.dl1.peek_hit(addr) else { break };
                if matches!(ev.kind, EventKind::Load { .. })
                    && core.cfg.prefetch
                    && core.prefetcher.would_issue(pc_bytes, addr)
                {
                    break;
                }
                Some((di, dh))
            }
            EventKind::Branch { taken, target, cond } => {
                if cond && !core.gshare.peek_correct(ev.host_pc, taken) {
                    break 'scan;
                }
                if taken && !core.btb.peek_same(ev.host_pc, target) {
                    break 'scan;
                }
                None
            }
            _ => None,
        };
        // ---- commit: exactly one hitting access per probed model --------
        if let Some((ti, (is_, iw))) = iside {
            core.itlb.commit_hit(ti);
            core.il1.commit_hit(is_, iw);
        }
        match ev.kind {
            EventKind::Load { addr, .. } => {
                let (di, (ds, dw)) = dside.expect("verified above");
                core.dtlb.commit_hit(di);
                core.dl1.commit_hit(ds, dw);
                if core.cfg.prefetch {
                    core.prefetcher
                        .train(pc_bytes, addr as u64, |_| debug_assert!(false, "would_issue said quiet"));
                }
                loads += 1;
            }
            EventKind::Store { addr, .. } => {
                let _ = addr;
                let (di, (ds, dw)) = dside.expect("verified above");
                core.dtlb.commit_hit(di);
                core.dl1.commit_hit(ds, dw);
                stores += 1;
            }
            EventKind::Branch { taken, target, cond } => {
                if cond {
                    let correct = core.gshare.update(ev.host_pc, taken);
                    debug_assert!(correct, "peek said predicted");
                }
                if taken {
                    let _ = core.btb.lookup(ev.host_pc);
                    let wrong = core.btb.update(ev.host_pc, target);
                    debug_assert!(!wrong, "peek said same target");
                }
                int_ops += 1;
            }
            EventKind::IntMul => mul_ops += 1,
            EventKind::IntDiv => div_ops += 1,
            EventKind::FpAdd | EventKind::FpMul | EventKind::FpDiv | EventKind::FpSqrt => {
                fp_ops += 1
            }
            EventKind::IntAlu | EventKind::Other => int_ops += 1,
        }
        reg_reads += ev.srcs.iter().flatten().count() as u64;
        // The recorded schedule lands in the IQ ring and scoreboard
        // eagerly — an escape at a later event keeps these, exactly as the
        // full core would have written them.
        core.iq_ring[core.iq_pos] = c0 + rec.issue_rel;
        core.advance_iq();
        let complete = c0 + rec.complete_rel;
        if let Some(d) = ev.dst {
            core.scoreboard[d as usize & 127] = complete;
            reg_writes += 1;
        }
        max_complete = max_complete.max(complete);
        j += 1;
    }
    if j > 0 {
        // Roll the scalar pipeline state forward to just after event j-1.
        let rec = &v.recs[j - 1];
        core.fe_cycle = (c0 as i64 + rec.fe_rel) as u64;
        core.fe_count = rec.fe_count_after;
        core.last_fetch_line = rec.line;
        core.cur_cycle = c0 + rec.cur_rel_after;
        core.usage = rec.usage_after;
        core.last_complete = core.last_complete.max(max_complete);
        core.insns += j as u64;
        core.loads += loads;
        core.stores += stores;
        core.int_ops += int_ops;
        core.mul_ops += mul_ops;
        core.div_ops += div_ops;
        core.fp_ops += fp_ops;
        core.reg_reads += reg_reads;
        core.reg_writes += reg_writes;
        // `redirect_until` is untouched: a clean prefix never redirects,
        // and entry redirect effects are baked into the recorded fe_rel.
    }
    j
}

/// Runs the block through the full core while recording its schedule
/// into `scratch`. Returns a memoizable variant only when the replay was
/// clean: no cache, TLB or prediction misses and no prefetches, anywhere
/// in the block. The first unclean event ends the recording — the rest of
/// the block goes through the core unrecorded — and only a clean block
/// allocates.
fn learn(core: &mut InOrderCore, events: &[RetireEvent], scratch: &mut Scratch) -> Option<Variant> {
    let Scratch { regs, sig, recs } = scratch;
    regs.clear();
    sig.clear();
    recs.clear();
    let mut seen = [0u64; 2];
    for ev in events {
        for s in ev.srcs.into_iter().flatten() {
            let r = s & 127;
            let (word, bit) = (&mut seen[r as usize >> 6], 1u64 << (r & 63));
            if *word & bit == 0 {
                *word |= bit;
                regs.push(r);
            }
        }
    }
    let first_line = core.il1.line_of(events[0].host_pc * 4);
    sig_walk(core, regs, events.len(), first_line, |x| {
        sig.push(x);
        true
    });

    let clean = unclean_count(core);
    let c0 = core.cur_cycle;
    for (i, ev) in events.iter().enumerate() {
        let line = core.il1.line_of(ev.host_pc * 4);
        let line_changed = line != core.last_fetch_line;
        core.consume(ev);
        if unclean_count(core) != clean {
            for ev in &events[i + 1..] {
                core.consume(ev);
            }
            return None;
        }
        let issue = core.iq_ring[core.last_iq_pos()];
        let complete = match ev.dst {
            Some(d) => core.scoreboard[d as usize & 127],
            None => {
                issue
                    + match ev.kind {
                        EventKind::Load { .. } => core.dl1.latency as u64,
                        EventKind::Store { .. } => 1,
                        ref k => core.latency_of(k) as u64,
                    }
            }
        };
        recs.push(EventRec {
            pc: ev.host_pc,
            fp: fingerprint(ev),
            line,
            line_changed,
            issue_rel: issue - c0,
            complete_rel: complete - c0,
            fe_rel: core.fe_cycle as i64 - c0 as i64,
            fe_count_after: core.fe_count,
            cur_rel_after: core.cur_cycle - c0,
            usage_after: core.usage,
        });
    }
    Some(Variant { sig: sig.clone(), regs: regs.clone(), recs: recs.clone(), streak: 0 })
}

impl InsnSink for FastTimer {
    #[inline]
    fn retire(&mut self, ev: &RetireEvent) {
        self.core.consume(ev);
    }

    fn wants_blocks(&self) -> bool {
        true
    }

    fn retire_block(&mut self, events: &[RetireEvent], complete: bool) {
        let FastTimer { core, memo, stats, scratch } = self;
        if events.is_empty() {
            return;
        }
        let n = events.len();
        if !complete || n > MAX_BLOCK_EVENTS {
            for ev in events {
                core.consume(ev);
            }
            stats.plain_blocks += 1;
            return;
        }
        let base = events[0].host_pc;
        if let Some(bm) = memo.get_mut(&base) {
            if let Some(vi) = bm.variants.iter().position(|v| sig_matches(core, v)) {
                let v = &mut bm.variants[vi];
                let j = replay(core, v, events);
                stats.memo_events += j as u64;
                if j == n {
                    v.streak = 0;
                    stats.memo_blocks += 1;
                } else {
                    v.streak += 1;
                    if v.streak >= STALE_STREAK {
                        bm.variants.remove(vi);
                    }
                    stats.escapes += 1;
                    // The prefix is committed; the rest goes through the
                    // full core against the exact same model state.
                    for ev in &events[j..] {
                        core.consume(ev);
                    }
                }
                return;
            }
        }
        // Unknown shape (or unseen entry state): learn it.
        match learn(core, events, scratch) {
            Some(v) => {
                if memo.len() >= MAX_BASES && !memo.contains_key(&base) {
                    memo.clear();
                    stats.memo_clears += 1;
                }
                let bm = memo.entry(base).or_default();
                if bm.variants.len() >= MAX_VARIANTS {
                    let slot = bm.next_replace % MAX_VARIANTS;
                    bm.variants[slot] = v;
                    bm.next_replace += 1;
                } else {
                    bm.variants.push(v);
                }
                stats.learns += 1;
            }
            None => stats.plain_blocks += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TimingConfig;

    fn lcg(x: &mut u64) -> u64 {
        *x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *x
    }

    /// A block of `len` events at `base`: a loop body shape with a load, a
    /// few dependent ALUs, a store and a backwards branch.
    fn block(base: u64, len: usize, addr: u32, taken: bool) -> Vec<RetireEvent> {
        let mut evs = Vec::new();
        evs.push(RetireEvent {
            host_pc: base,
            kind: EventKind::Load { addr, bytes: 4 },
            dst: Some(16),
            srcs: [Some(17), None],
        });
        for k in 1..len.saturating_sub(2) {
            evs.push(RetireEvent {
                host_pc: base + k as u64,
                kind: EventKind::IntAlu,
                dst: Some(16 + (k % 4) as u8),
                srcs: [Some(16), Some(17)],
            });
        }
        evs.push(RetireEvent {
            host_pc: base + len as u64 - 2,
            kind: EventKind::Store { addr, bytes: 4 },
            dst: None,
            srcs: [Some(16), Some(17)],
        });
        evs.push(RetireEvent {
            host_pc: base + len as u64 - 1,
            kind: EventKind::Branch { taken, target: base, cond: true },
            dst: None,
            srcs: [Some(18), None],
        });
        evs
    }

    #[test]
    fn steady_loop_goes_fast_and_stays_bit_identical() {
        let mut fast = FastTimer::new(TimingConfig::default());
        let mut full = InOrderCore::new(TimingConfig::default());
        let b = block(0x100, 12, 0x4000, true);
        for _ in 0..500 {
            fast.retire_block(&b, true);
            for ev in &b {
                full.consume(ev);
            }
        }
        assert_eq!(fast.stats(), full.stats(), "fast path must be exact");
        let fs = fast.fast_stats();
        assert!(fs.memo_blocks > 400, "steady loop must be memoized: {fs:?}");
        // Serialized microarchitectural state must match too, not just the
        // stat summary.
        let mut wa = darco_guest::Wire::new();
        let mut wb = darco_guest::Wire::new();
        fast.core().snapshot_into(&mut wa);
        full.snapshot_into(&mut wb);
        assert_eq!(wa.finish(), wb.finish());
    }

    #[test]
    fn chaotic_blocks_escape_but_never_diverge() {
        let mut fast = FastTimer::new(TimingConfig::default());
        let mut full = InOrderCore::new(TimingConfig::default());
        let mut x = 42u64;
        for i in 0..3_000u64 {
            let r = lcg(&mut x);
            let base = 0x100 + (r % 8) * 0x40;
            let len = 6 + (r % 6) as usize;
            // Mostly-stable per-block address with occasional far misses
            // and direction flips, to force escapes at every probe type.
            let addr = if r.is_multiple_of(11) { ((r >> 16) % (64 << 20)) as u32 } else { 0x4000 + (base as u32 & 0xFFF) };
            let taken = if r.is_multiple_of(7) { i.is_multiple_of(2) } else { true };
            let complete = !r.is_multiple_of(13);
            let b = block(base, len, addr, taken);
            fast.retire_block(&b, complete);
            for ev in &b {
                full.consume(ev);
            }
        }
        assert_eq!(fast.stats(), full.stats(), "fast path must be exact under chaos");
        let fs = fast.fast_stats();
        assert!(fs.memo_blocks > 0, "some blocks must replay fast: {fs:?}");
        assert!(fs.escapes > 0, "the perturbations must force escapes: {fs:?}");
        assert!(fs.plain_blocks > 0, "incomplete blocks take the plain path: {fs:?}");
        let mut wa = darco_guest::Wire::new();
        let mut wb = darco_guest::Wire::new();
        fast.core().snapshot_into(&mut wa);
        full.snapshot_into(&mut wb);
        assert_eq!(wa.finish(), wb.finish(), "full serialized state must match");
    }

    #[test]
    fn interleaved_retire_and_blocks_stay_exact() {
        // Overhead events (per-event retire) interleaved with blocks, as
        // the engine produces when TOL overhead accounting is on.
        let mut fast = FastTimer::new(TimingConfig::default());
        let mut full = InOrderCore::new(TimingConfig::default());
        let b = block(0x200, 10, 0x8000, true);
        for i in 0..300u64 {
            fast.retire_block(&b, true);
            for ev in &b {
                full.consume(ev);
            }
            let ov = RetireEvent {
                host_pc: 0x7000 + i % 4,
                kind: EventKind::IntAlu,
                dst: Some(20),
                srcs: [Some(20), None],
            };
            fast.retire(&ov);
            full.consume(&ov);
        }
        assert_eq!(fast.stats(), full.stats());
    }

    #[test]
    fn snapshot_restore_roundtrips_and_continues_exactly() {
        let cfg = TimingConfig::default();
        let mut fast = FastTimer::new(cfg.clone());
        let b = block(0x300, 8, 0x2000, true);
        for _ in 0..100 {
            fast.retire_block(&b, true);
        }
        let mut w = darco_guest::Wire::new();
        fast.snapshot_into(&mut w);
        let bytes = w.finish();

        let mut resumed = FastTimer::new(cfg);
        let mut r = darco_guest::WireReader::new(&bytes);
        resumed.restore_from(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(resumed.fast_stats(), fast.fast_stats());
        for _ in 0..100 {
            fast.retire_block(&b, true);
            resumed.retire_block(&b, true);
        }
        assert_eq!(resumed.stats(), fast.stats(), "restored timer continues identically");
    }
}
