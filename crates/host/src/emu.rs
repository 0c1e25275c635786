//! The transactional host functional emulator.
//!
//! Executes translated host code out of the software layer's code cache.
//! The execution model implements the co-designed speculation support of
//! §III and §V-B of the paper:
//!
//! * **Checkpoints** — `chkpt` commits the running transaction and
//!   snapshots the register files. All stores between checkpoints go to a
//!   *gated store buffer* and reach guest memory only on commit, so any
//!   failure can roll the architectural state back to the last checkpoint.
//! * **Asserts** — `assert.z`/`assert.nz` verify the speculated direction
//!   of a branch that the superblock optimizer removed; a failing assert
//!   rolls back and returns [`ExitCause::AssertFail`], after which the
//!   software layer re-executes the region in interpretation mode.
//! * **Alias detection** — speculatively hoisted loads record
//!   `(address, size, original sequence number)` in a hardware table; a
//!   store whose sequence number is *older* than an already-executed
//!   load's and whose bytes overlap it raises [`ExitCause::AliasFail`].
//!   Store-to-load forwarding is filtered by sequence number, and commit
//!   drains the store buffer in original program order, so the scheduler
//!   may freely reorder memory operations as long as hoisted loads carry
//!   the `spec` mark.
//! * **Precise faults** — guest page faults and division by zero also roll
//!   back to the checkpoint, which is what lets the controller service a
//!   DARCO *data request* and simply re-enter the translation.
//!
//! All of that machinery lives in the emulator's [`HostState`], whose
//! methods (commit, rollback, slow load and store, register-op semantics)
//! this loop calls. The native backend runs over the same state and calls
//! the same methods from its slow paths; what stays here is the
//! instruction dispatch and the retire-event stream the timing models
//! consume.

use crate::insn::{add_rel, FAluOp, FUnOp2, HAluOp, HInsn};
use crate::sink::{EventKind, InsnSink, RetireEvent};
use crate::state::{HostState, CAUSE_ASSERT, CAUSE_DIV_ZERO, CAUSE_EXIT, CAUSE_TRIP};
use darco_guest::{GuestMem, Width};
use std::collections::HashMap;

/// Indirect-branch translation cache: guest address → host address.
pub type IbtcTable = HashMap<u32, usize>;

/// Guest effective address of the software profile counter table (used
/// only to give `count` instructions realistic memory traffic for the
/// timing simulator).
pub const PROF_TABLE_ADDR: u32 = 0xF800_0000;

/// The software layer's profile counter table, updated by `count`
/// instructions. A counter whose `trip` is non-zero causes an exit to the
/// software layer when it reaches that value (hot-region promotion).
#[derive(Debug, Clone, Default)]
pub struct ProfTable {
    /// Counter values.
    pub counts: Vec<u64>,
    /// Trip thresholds (0 = never trips).
    pub trips: Vec<u64>,
}

impl ProfTable {
    /// Creates an empty table.
    pub fn new() -> ProfTable {
        ProfTable::default()
    }

    /// Allocates a counter with the given trip threshold, returning its
    /// index.
    pub fn alloc(&mut self, trip: u64) -> u32 {
        self.counts.push(0);
        self.trips.push(trip);
        (self.counts.len() - 1) as u32
    }

    /// Reads a counter.
    pub fn count(&self, idx: u32) -> u64 {
        self.counts[idx as usize]
    }
}

/// Why execution left the code cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitCause {
    /// A `tolexit`, unpatched `chainslot`, or missed `ibtcjmp` with this id.
    Exit { id: u16 },
    /// An assert failed; state was rolled back to the last checkpoint.
    AssertFail,
    /// Speculative memory reordering was wrong; rolled back.
    AliasFail,
    /// A guest page was unmapped; rolled back.
    PageFault {
        /// Faulting guest address.
        addr: u32,
        /// Whether the access was a write.
        write: bool,
    },
    /// Integer division by zero; rolled back (the interpreter re-executes
    /// the region and raises the precise guest fault).
    DivByZero,
    /// A software profile counter reached its trip threshold; the software
    /// layer promotes the region (exit is at a checkpoint boundary).
    ProfileTrip {
        /// The tripped counter's index.
        idx: u32,
    },
    /// The instruction budget ran out; stopped at a checkpoint boundary
    /// with the previous transaction committed.
    Fuel,
    /// A store targeted a marked code page (self-modifying code); rolled
    /// back before the store entered the transaction. The software layer
    /// interprets forward so the write lands with the interpreter's
    /// per-instruction visibility, then flushes stale translations.
    SmcWrite {
        /// Guest address the store targeted.
        addr: u32,
    },
}

/// Result of one [`HostEmulator::execute`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExitInfo {
    /// Why execution stopped.
    pub cause: ExitCause,
    /// Host instructions executed (weighted by [`HInsn::dyn_cost`]),
    /// including speculative work that was rolled back.
    pub executed: u64,
    /// Host address (word index) where execution stopped.
    pub host_pc: usize,
    /// Host address of the last checkpoint (the rollback point).
    pub chkpt_pc: usize,
}

/// Aggregate emulator counters (`#[repr(C)]`: part of the [`HostState`]
/// layout native code addresses).
#[repr(C)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmuCounters {
    /// Checkpoints taken.
    pub chkpts: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Assert failures.
    pub assert_fails: u64,
    /// Alias-detection failures.
    pub alias_fails: u64,
    /// Page-fault rollbacks.
    pub page_faults: u64,
    /// IBTC hits.
    pub ibtc_hits: u64,
    /// IBTC misses.
    pub ibtc_misses: u64,
    /// Self-modifying-store transaction aborts.
    pub smc_aborts: u64,
}

/// The host functional emulator: the [`HostState`] (register files, into
/// which the software layer maps the guest architectural state, and the
/// speculation machinery) plus the retire-event buffer of block-granular
/// sinks. It dereferences to its state, so `emu.iregs`, `emu.counters`
/// and the other state fields read as fields of the emulator.
pub struct HostEmulator {
    st: Box<HostState>,
    /// Retire events buffered for block-granular sinks
    /// ([`InsnSink::wants_blocks`]); drained at architectural boundaries.
    block_buf: Vec<RetireEvent>,
}

impl Default for HostEmulator {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for HostEmulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostEmulator")
            .field("counters", &self.counters)
            .field("buffered_stores", &self.store_len)
            .finish()
    }
}

impl std::ops::Deref for HostEmulator {
    type Target = HostState;
    fn deref(&self) -> &HostState {
        &self.st
    }
}

impl std::ops::DerefMut for HostEmulator {
    fn deref_mut(&mut self) -> &mut HostState {
        &mut self.st
    }
}

impl HostEmulator {
    /// Creates an emulator with zeroed register files.
    pub fn new() -> HostEmulator {
        HostEmulator { st: HostState::new_boxed(), block_buf: Vec::new() }
    }

    /// Executes host code starting at word index `entry` until an exit
    /// condition occurs.
    ///
    /// `fuel` is an absolute bound on the guest-retired counter
    /// (`gcnt_bb + gcnt_sb`); it is only checked at checkpoint boundaries
    /// so the stop point is always architecturally clean.
    #[allow(clippy::too_many_arguments)]
    pub fn execute<S: InsnSink>(
        &mut self,
        code: &[HInsn],
        entry: usize,
        mem: &mut GuestMem,
        ibtc: &IbtcTable,
        prof: &mut ProfTable,
        fuel: u64,
        sink: &mut S,
    ) -> ExitInfo {
        let st = &mut *self.st;
        let block_buf = &mut self.block_buf;
        let mut pc = entry;
        // Hoisted once: per-instruction delivery vs block buffering is a
        // property of the sink, decided before the hot loop.
        let buffered = sink.wants_blocks();
        block_buf.clear();
        st.begin(pc, fuel);

        // Event delivery: per-instruction for plain sinks, buffered for
        // block-granular ones. The stream a buffered sink sees across
        // `retire_block` calls is event-for-event identical to what a
        // plain sink sees through `retire`.
        macro_rules! emit {
            ($ev:expr) => {{
                let ev = $ev;
                if buffered {
                    block_buf.push(ev);
                } else {
                    sink.retire(&ev);
                }
            }};
        }

        macro_rules! flush {
            ($complete:expr) => {
                if buffered && !block_buf.is_empty() {
                    sink.retire_block(block_buf, $complete);
                    block_buf.clear();
                }
            };
        }

        // Leaves with the exit info the state already holds; `complete`
        // tells a block sink whether the buffered tail committed.
        macro_rules! exit {
            ($complete:expr) => {{
                flush!($complete);
                return st.exit_info();
            }};
        }

        loop {
            let insn = code[pc];
            st.executed += insn.dyn_cost();
            st.unattributed += insn.dyn_cost();
            let mut next = pc + 1;
            match insn {
                HInsn::Alu { op, rd, ra, rb } => {
                    if matches!(op, HAluOp::Div | HAluOp::Rem) && st.iregs[rb.index()] == 0 {
                        emit!(RetireEvent::plain(pc as u64, EventKind::IntDiv));
                        st.rollback(pc, CAUSE_DIV_ZERO, 0, 0);
                        exit!(false);
                    }
                    st.reg_op(insn);
                    emit!(RetireEvent {
                        host_pc: pc as u64,
                        kind: alu_kind(op),
                        dst: Some(rd.0),
                        srcs: [Some(ra.0), Some(rb.0)],
                    });
                }
                HInsn::AluI { op, rd, ra, imm } => {
                    if matches!(op, HAluOp::Div | HAluOp::Rem) && imm == 0 {
                        emit!(RetireEvent::plain(pc as u64, EventKind::IntDiv));
                        st.rollback(pc, CAUSE_DIV_ZERO, 0, 0);
                        exit!(false);
                    }
                    st.reg_op(insn);
                    emit!(RetireEvent {
                        host_pc: pc as u64,
                        kind: alu_kind(op),
                        dst: Some(rd.0),
                        srcs: [Some(ra.0), None],
                    });
                }
                HInsn::Lui { rd, .. } | HInsn::Li16 { rd, .. } => {
                    st.reg_op(insn);
                    emit!(RetireEvent {
                        host_pc: pc as u64,
                        kind: EventKind::IntAlu,
                        dst: Some(rd.0),
                        srcs: [None, None],
                    });
                }
                HInsn::OriZ { rd, .. } => {
                    st.reg_op(insn);
                    emit!(RetireEvent {
                        host_pc: pc as u64,
                        kind: EventKind::IntAlu,
                        dst: Some(rd.0),
                        srcs: [Some(rd.0), None],
                    });
                }
                HInsn::Load { rd, base, off, width, sign, spec, seq } => {
                    let addr = st.iregs[base.index()].wrapping_add(off as u32);
                    let len = width.bytes() as u8;
                    emit!(RetireEvent {
                        host_pc: pc as u64,
                        kind: EventKind::Load { addr, bytes: len },
                        dst: Some(rd.0),
                        srcs: [Some(base.0), None],
                    });
                    let Some(raw) = st.load(mem, pc, addr, len, seq, spec) else { exit!(false) };
                    st.iregs[rd.index()] = extend(raw, width, sign);
                }
                HInsn::Store { rs, base, off, width, spec: _, seq } => {
                    let addr = st.iregs[base.index()].wrapping_add(off as u32);
                    let len = width.bytes() as u8;
                    emit!(RetireEvent {
                        host_pc: pc as u64,
                        kind: EventKind::Store { addr, bytes: len },
                        dst: None,
                        srcs: [Some(rs.0), Some(base.0)],
                    });
                    if !st.store(mem, pc, addr, len, st.iregs[rs.index()] as u64, seq) {
                        exit!(false);
                    }
                }
                HInsn::LoadF { fd, base, off, spec, seq } => {
                    let addr = st.iregs[base.index()].wrapping_add(off as u32);
                    emit!(RetireEvent {
                        host_pc: pc as u64,
                        kind: EventKind::Load { addr, bytes: 8 },
                        dst: Some(crate::sink::fp_reg(fd.0)),
                        srcs: [Some(base.0), None],
                    });
                    let Some(raw) = st.load(mem, pc, addr, 8, seq, spec) else { exit!(false) };
                    st.fregs[fd.index()] = f64::from_bits(raw);
                }
                HInsn::StoreF { fs, base, off, spec: _, seq } => {
                    let addr = st.iregs[base.index()].wrapping_add(off as u32);
                    emit!(RetireEvent {
                        host_pc: pc as u64,
                        kind: EventKind::Store { addr, bytes: 8 },
                        dst: None,
                        srcs: [Some(crate::sink::fp_reg(fs.0)), Some(base.0)],
                    });
                    if !st.store(mem, pc, addr, 8, st.fregs[fs.index()].to_bits(), seq) {
                        exit!(false);
                    }
                }
                HInsn::B { rel } => {
                    next = add_rel(pc, rel);
                    emit!(RetireEvent {
                        host_pc: pc as u64,
                        kind: EventKind::Branch { taken: true, target: next as u64, cond: false },
                        dst: None,
                        srcs: [None, None],
                    });
                }
                HInsn::Bl { rel } => {
                    st.iregs[crate::regs::R_LINK.index()] = (pc + 1) as u32;
                    next = add_rel(pc, rel);
                    emit!(RetireEvent {
                        host_pc: pc as u64,
                        kind: EventKind::Branch { taken: true, target: next as u64, cond: false },
                        dst: Some(crate::regs::R_LINK.0),
                        srcs: [None, None],
                    });
                }
                HInsn::Blr => {
                    next = st.iregs[crate::regs::R_LINK.index()] as usize;
                    emit!(RetireEvent {
                        host_pc: pc as u64,
                        kind: EventKind::Branch { taken: true, target: next as u64, cond: false },
                        dst: None,
                        srcs: [Some(crate::regs::R_LINK.0), None],
                    });
                }
                HInsn::Bz { rs, rel } | HInsn::Bnz { rs, rel } => {
                    let taken = (st.iregs[rs.index()] == 0) == matches!(insn, HInsn::Bz { .. });
                    let target = add_rel(pc, rel);
                    if taken {
                        next = target;
                    }
                    emit!(RetireEvent {
                        host_pc: pc as u64,
                        kind: EventKind::Branch { taken, target: target as u64, cond: true },
                        dst: None,
                        srcs: [Some(rs.0), None],
                    });
                }
                HInsn::FAlu { op, fd, fa, fb } => {
                    st.reg_op(insn);
                    emit!(RetireEvent {
                        host_pc: pc as u64,
                        kind: falu_kind(op),
                        dst: Some(crate::sink::fp_reg(fd.0)),
                        srcs: [Some(crate::sink::fp_reg(fa.0)), Some(crate::sink::fp_reg(fb.0))],
                    });
                }
                HInsn::FUn { op, fd, fa } => {
                    st.reg_op(insn);
                    let kind = if op == FUnOp2::Sqrt { EventKind::FpSqrt } else { EventKind::FpAdd };
                    emit!(RetireEvent {
                        host_pc: pc as u64,
                        kind,
                        dst: Some(crate::sink::fp_reg(fd.0)),
                        srcs: [Some(crate::sink::fp_reg(fa.0)), None],
                    });
                }
                HInsn::FCmp { rd, fa, fb, .. } => {
                    st.reg_op(insn);
                    emit!(RetireEvent {
                        host_pc: pc as u64,
                        kind: EventKind::FpAdd,
                        dst: Some(rd.0),
                        srcs: [Some(crate::sink::fp_reg(fa.0)), Some(crate::sink::fp_reg(fb.0))],
                    });
                }
                HInsn::CvtIF { fd, ra } => {
                    st.reg_op(insn);
                    emit!(RetireEvent {
                        host_pc: pc as u64,
                        kind: EventKind::FpAdd,
                        dst: Some(crate::sink::fp_reg(fd.0)),
                        srcs: [Some(ra.0), None],
                    });
                }
                HInsn::CvtFI { rd, fa } => {
                    st.reg_op(insn);
                    emit!(RetireEvent {
                        host_pc: pc as u64,
                        kind: EventKind::FpAdd,
                        dst: Some(rd.0),
                        srcs: [Some(crate::sink::fp_reg(fa.0)), None],
                    });
                }
                HInsn::FLoadImm { fd, .. } => {
                    st.reg_op(insn);
                    emit!(RetireEvent {
                        host_pc: pc as u64,
                        kind: EventKind::Other,
                        dst: Some(crate::sink::fp_reg(fd.0)),
                        srcs: [None, None],
                    });
                }
                HInsn::Chkpt => {
                    // The committed transaction is a complete block; the
                    // checkpoint event itself opens the next one, so memo
                    // blocks are keyed by their checkpoint pc.
                    flush!(true);
                    emit!(RetireEvent::plain(pc as u64, EventKind::Other));
                    if st.chkpt(mem, pc) {
                        exit!(false);
                    }
                }
                HInsn::Commit => {
                    st.commit(mem);
                    emit!(RetireEvent::plain(pc as u64, EventKind::Other));
                }
                HInsn::AssertZ { rs } | HInsn::AssertNz { rs } => {
                    emit!(RetireEvent {
                        host_pc: pc as u64,
                        kind: EventKind::IntAlu,
                        dst: None,
                        srcs: [Some(rs.0), None],
                    });
                    if (st.iregs[rs.index()] == 0) != matches!(insn, HInsn::AssertZ { .. }) {
                        st.rollback(pc, CAUSE_ASSERT, 0, 0);
                        exit!(false);
                    }
                }
                HInsn::TolExit { id } | HInsn::ChainSlot { id } => {
                    emit!(RetireEvent::plain(pc as u64, EventKind::Other));
                    st.exit_commit(mem, pc, CAUSE_EXIT, id as u32);
                    exit!(true);
                }
                HInsn::IbtcJmp { rs, id } => {
                    let guest_target = st.iregs[rs.index()];
                    // The software IBTC probe: hash, table load, compare.
                    let table_addr = 0xF000_0000u32 | ((guest_target >> 2) & 0x3FF) << 3;
                    emit!(RetireEvent {
                        host_pc: pc as u64,
                        kind: EventKind::IntAlu,
                        dst: Some(57),
                        srcs: [Some(rs.0), None],
                    });
                    emit!(RetireEvent::plain(pc as u64, EventKind::IntAlu));
                    emit!(RetireEvent {
                        host_pc: pc as u64,
                        kind: EventKind::Load { addr: table_addr, bytes: 8 },
                        dst: Some(58),
                        srcs: [Some(57), None],
                    });
                    emit!(RetireEvent {
                        host_pc: pc as u64,
                        kind: EventKind::IntAlu,
                        dst: None,
                        srcs: [Some(58), None],
                    });
                    emit!(RetireEvent::plain(pc as u64, EventKind::IntAlu));
                    let hit = st.ibtc_probe(ibtc, mem, guest_target, pc, id);
                    let target = hit.map_or(pc as u64 + 1, |hpc| hpc as u64);
                    emit!(RetireEvent {
                        host_pc: pc as u64,
                        kind: EventKind::Branch { taken: hit.is_some(), target, cond: false },
                        dst: None,
                        srcs: [Some(58), None],
                    });
                    match hit {
                        Some(hpc) => next = hpc,
                        None => exit!(true),
                    }
                }
                HInsn::Gcnt { n, sb } => {
                    // Attribute host work since the previous attribution
                    // point to this mode (fig. 5's per-mode emulation cost).
                    if sb {
                        st.gcnt_sb += n as u64;
                        st.host_sb += st.unattributed;
                    } else {
                        st.gcnt_bb += n as u64;
                        st.host_bb += st.unattributed;
                    }
                    st.unattributed = 0;
                }
                HInsn::Count { idx } => {
                    let slot = PROF_TABLE_ADDR + idx * 8;
                    emit!(RetireEvent {
                        host_pc: pc as u64,
                        kind: EventKind::Load { addr: slot, bytes: 8 },
                        dst: Some(59),
                        srcs: [None, None],
                    });
                    emit!(RetireEvent {
                        host_pc: pc as u64,
                        kind: EventKind::IntAlu,
                        dst: Some(59),
                        srcs: [Some(59), None],
                    });
                    emit!(RetireEvent {
                        host_pc: pc as u64,
                        kind: EventKind::Store { addr: slot, bytes: 8 },
                        dst: None,
                        srcs: [Some(59), None],
                    });
                    let i = idx as usize;
                    prof.counts[i] += 1;
                    if prof.trips[i] != 0 && prof.counts[i] == prof.trips[i] {
                        st.exit_commit(mem, pc, CAUSE_TRIP, idx);
                        exit!(true);
                    }
                }
                HInsn::Nop => {
                    emit!(RetireEvent::plain(pc as u64, EventKind::IntAlu));
                }
            }
            pc = next;
        }
    }
}

#[inline]
fn extend(raw: u64, width: Width, sign: bool) -> u32 {
    match (width, sign) {
        (Width::B, false) => raw as u8 as u32,
        (Width::B, true) => raw as u8 as i8 as i32 as u32,
        (Width::W, false) => raw as u16 as u32,
        (Width::W, true) => raw as u16 as i16 as i32 as u32,
        (Width::D, _) => raw as u32,
    }
}

/// Evaluates a host integer ALU operation (division by zero must be
/// checked by the caller).
pub fn eval_halu(op: HAluOp, a: u32, b: u32) -> u32 {
    match op {
        HAluOp::Add => a.wrapping_add(b),
        HAluOp::Sub => a.wrapping_sub(b),
        HAluOp::Mul => a.wrapping_mul(b),
        HAluOp::MulHS => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
        HAluOp::Div => (a as i32).wrapping_div(b as i32) as u32,
        HAluOp::Rem => (a as i32).wrapping_rem(b as i32) as u32,
        HAluOp::And => a & b,
        HAluOp::Or => a | b,
        HAluOp::Xor => a ^ b,
        HAluOp::Shl => a << (b & 31),
        HAluOp::Shr => a >> (b & 31),
        HAluOp::Sar => ((a as i32) >> (b & 31)) as u32,
        HAluOp::SltS => ((a as i32) < (b as i32)) as u32,
        HAluOp::SltU => (a < b) as u32,
        HAluOp::Seq => (a == b) as u32,
        HAluOp::Sne => (a != b) as u32,
        HAluOp::SleS => ((a as i32) <= (b as i32)) as u32,
        HAluOp::SleU => (a <= b) as u32,
        HAluOp::Parity => (a as u8).count_ones().is_multiple_of(2) as u32,
        HAluOp::Sext8 => a as u8 as i8 as i32 as u32,
        HAluOp::Sext16 => a as u16 as i16 as i32 as u32,
    }
}

/// Evaluates a host FP binary operation (GISA min/max semantics).
pub fn eval_falu(op: FAluOp, a: f64, b: f64) -> f64 {
    match op {
        FAluOp::Add => a + b,
        FAluOp::Sub => a - b,
        FAluOp::Mul => a * b,
        FAluOp::Div => a / b,
        FAluOp::Min => {
            if a.is_nan() || b.is_nan() {
                f64::NAN
            } else if a < b {
                a
            } else {
                b
            }
        }
        FAluOp::Max => {
            if a.is_nan() || b.is_nan() {
                f64::NAN
            } else if a > b {
                a
            } else {
                b
            }
        }
    }
}

fn alu_kind(op: HAluOp) -> EventKind {
    match op {
        HAluOp::Mul | HAluOp::MulHS => EventKind::IntMul,
        HAluOp::Div | HAluOp::Rem => EventKind::IntDiv,
        _ => EventKind::IntAlu,
    }
}

fn falu_kind(op: FAluOp) -> EventKind {
    match op {
        FAluOp::Mul => EventKind::FpMul,
        FAluOp::Div => EventKind::FpDiv,
        _ => EventKind::FpAdd,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::HReg;
    use crate::sink::{DynSink, NullSink};

    fn run(code: Vec<HInsn>, setup: impl FnOnce(&mut HostEmulator, &mut GuestMem)) -> (HostEmulator, GuestMem, ExitInfo) {
        let mut emu = HostEmulator::new();
        let mut mem = GuestMem::new();
        mem.map_zero(0);
        mem.map_zero(1);
        setup(&mut emu, &mut mem);
        let ibtc = IbtcTable::new();
        let mut prof = ProfTable::new();
        let info = emu.execute(&code, 0, &mut mem, &ibtc, &mut prof, u64::MAX, &mut NullSink);
        (emu, mem, info)
    }

    #[test]
    fn basic_alu_and_exit() {
        let code = vec![
            HInsn::Chkpt,
            HInsn::Li16 { rd: HReg(16), imm: 21 },
            HInsn::AluI { op: HAluOp::Add, rd: HReg(16), ra: HReg(16), imm: 21 },
            HInsn::TolExit { id: 5 },
        ];
        let (emu, _, info) = run(code, |_, _| {});
        assert_eq!(info.cause, ExitCause::Exit { id: 5 });
        assert_eq!(emu.iregs[16], 42);
        assert_eq!(info.executed, 4);
    }

    #[test]
    fn stores_are_gated_until_commit() {
        // Store, then assert-fail: the store must not reach memory.
        let code = vec![
            HInsn::Chkpt,
            HInsn::Li16 { rd: HReg(16), imm: 77 },
            HInsn::Store { rs: HReg(16), base: HReg(17), off: 0x100, width: Width::D, spec: false, seq: 0 },
            HInsn::AssertZ { rs: HReg(16) }, // fails (r16 = 77)
            HInsn::TolExit { id: 0 },
        ];
        let (emu, mem, info) = run(code, |_, _| {});
        assert_eq!(info.cause, ExitCause::AssertFail);
        assert_eq!(mem.read_u32(0x100).unwrap(), 0, "gated store must be squashed");
        // Registers rolled back too.
        assert_eq!(emu.iregs[16], 0);
        assert_eq!(info.chkpt_pc, 0);
    }

    #[test]
    fn store_to_load_forwarding_within_transaction() {
        let code = vec![
            HInsn::Chkpt,
            HInsn::Li16 { rd: HReg(16), imm: 1234 },
            HInsn::Store { rs: HReg(16), base: HReg(17), off: 0x80, width: Width::D, spec: false, seq: 1 },
            HInsn::Load { rd: HReg(18), base: HReg(17), off: 0x80, width: Width::D, sign: false, spec: false, seq: 2 },
            HInsn::TolExit { id: 0 },
        ];
        let (emu, mem, info) = run(code, |_, _| {});
        assert_eq!(info.cause, ExitCause::Exit { id: 0 });
        assert_eq!(emu.iregs[18], 1234, "load must see the buffered store");
        assert_eq!(mem.read_u32(0x80).unwrap(), 1234, "exit commits");
    }

    #[test]
    fn seq_filtered_forwarding_models_hoisted_store() {
        // A store with seq 5 hoisted above a load with seq 2: the load must
        // NOT see it (program order: load first).
        let code = vec![
            HInsn::Chkpt,
            HInsn::Li16 { rd: HReg(16), imm: 99 },
            HInsn::Store { rs: HReg(16), base: HReg(17), off: 0x40, width: Width::D, spec: false, seq: 5 },
            HInsn::Load { rd: HReg(18), base: HReg(17), off: 0x40, width: Width::D, sign: false, spec: false, seq: 2 },
            HInsn::TolExit { id: 0 },
        ];
        let (emu, mem, _) = run(code, |_, mem| {
            mem.write_u32(0x40, 7).unwrap();
        });
        assert_eq!(emu.iregs[18], 7, "load sees pre-store memory");
        assert_eq!(mem.read_u32(0x40).unwrap(), 99, "commit applies the younger store");
    }

    #[test]
    fn alias_violation_detected_for_hoisted_load() {
        // Load with seq 7 speculatively hoisted above a store with seq 3 to
        // the same address: when the store executes, it must fail.
        let code = vec![
            HInsn::Chkpt,
            HInsn::Load { rd: HReg(18), base: HReg(17), off: 0x40, width: Width::D, sign: false, spec: true, seq: 7 },
            HInsn::Li16 { rd: HReg(16), imm: 5 },
            HInsn::Store { rs: HReg(16), base: HReg(17), off: 0x40, width: Width::D, spec: false, seq: 3 },
            HInsn::TolExit { id: 0 },
        ];
        let (emu, _, info) = run(code, |_, _| {});
        assert_eq!(info.cause, ExitCause::AliasFail);
        assert_eq!(emu.counters.alias_fails, 1);
    }

    #[test]
    fn disjoint_hoisted_load_is_fine() {
        let code = vec![
            HInsn::Chkpt,
            HInsn::Load { rd: HReg(18), base: HReg(17), off: 0x40, width: Width::D, sign: false, spec: true, seq: 7 },
            HInsn::Li16 { rd: HReg(16), imm: 5 },
            HInsn::Store { rs: HReg(16), base: HReg(17), off: 0x48, width: Width::D, spec: false, seq: 3 },
            HInsn::TolExit { id: 0 },
        ];
        let (_, _, info) = run(code, |_, _| {});
        assert_eq!(info.cause, ExitCause::Exit { id: 0 });
    }

    #[test]
    fn commit_applies_stores_in_program_order() {
        // Two stores to the same address executed in reverse program order:
        // memory must end with the younger store's value.
        let code = vec![
            HInsn::Chkpt,
            HInsn::Li16 { rd: HReg(16), imm: 2 },
            HInsn::Li16 { rd: HReg(19), imm: 1 },
            HInsn::Store { rs: HReg(16), base: HReg(17), off: 0x20, width: Width::D, spec: false, seq: 9 },
            HInsn::Store { rs: HReg(19), base: HReg(17), off: 0x20, width: Width::D, spec: false, seq: 4 },
            HInsn::TolExit { id: 0 },
        ];
        let (_, mem, _) = run(code, |_, _| {});
        assert_eq!(mem.read_u32(0x20).unwrap(), 2, "seq 9 wins over seq 4");
    }

    #[test]
    fn page_fault_rolls_back() {
        let code = vec![
            HInsn::Chkpt,
            HInsn::Li16 { rd: HReg(16), imm: 3 },
            HInsn::Lui { rd: HReg(17), imm: 0x7000 },
            HInsn::Load { rd: HReg(18), base: HReg(17), off: 0, width: Width::D, sign: false, spec: false, seq: 0 },
            HInsn::TolExit { id: 0 },
        ];
        let (emu, _, info) = run(code, |_, _| {});
        assert_eq!(info.cause, ExitCause::PageFault { addr: 0x7000_0000, write: false });
        assert_eq!(emu.iregs[16], 0, "rolled back");
        assert_eq!(emu.iregs[17], 0, "rolled back");
    }

    #[test]
    fn div_by_zero_rolls_back() {
        let code = vec![
            HInsn::Chkpt,
            HInsn::Li16 { rd: HReg(16), imm: 10 },
            HInsn::Alu { op: HAluOp::Div, rd: HReg(16), ra: HReg(16), rb: HReg(20) },
            HInsn::TolExit { id: 0 },
        ];
        let (emu, _, info) = run(code, |_, _| {});
        assert_eq!(info.cause, ExitCause::DivByZero);
        assert_eq!(emu.iregs[16], 0);
    }

    #[test]
    fn fuel_stops_at_checkpoint() {
        // A self-loop retiring 3 guest insns per iteration; guest fuel must
        // stop it cleanly at a checkpoint.
        let code = vec![
            HInsn::Chkpt,
            HInsn::AluI { op: HAluOp::Add, rd: HReg(16), ra: HReg(16), imm: 1 },
            HInsn::Gcnt { n: 3, sb: true },
            HInsn::B { rel: -4 },
        ];
        let mut emu = HostEmulator::new();
        let mut mem = GuestMem::new();
        let ibtc = IbtcTable::new();
        let mut prof = ProfTable::new();
        let info = emu.execute(&code, 0, &mut mem, &ibtc, &mut prof, 100, &mut NullSink);
        assert_eq!(info.cause, ExitCause::Fuel);
        assert_eq!(info.host_pc, 0);
        assert!(emu.gcnt_sb >= 100 && emu.gcnt_sb < 110, "stops near the target");
        assert!(emu.iregs[16] > 0, "committed iterations persist");
    }

    #[test]
    fn ibtc_hit_and_miss() {
        let code = vec![
            HInsn::Chkpt,
            HInsn::Li16 { rd: HReg(16), imm: 0x500 },
            HInsn::IbtcJmp { rs: HReg(16), id: 9 },
            HInsn::Nop,
            // target translation:
            HInsn::Chkpt,
            HInsn::Li16 { rd: HReg(17), imm: 1 },
            HInsn::TolExit { id: 1 },
        ];
        let mut emu = HostEmulator::new();
        let mut mem = GuestMem::new();
        let mut ibtc = IbtcTable::new();
        let mut prof = ProfTable::new();
        // Miss first.
        let info = emu.execute(&code, 0, &mut mem, &ibtc, &mut prof, u64::MAX, &mut NullSink);
        assert_eq!(info.cause, ExitCause::Exit { id: 9 });
        assert_eq!(emu.counters.ibtc_misses, 1);
        // Now hit.
        ibtc.insert(0x500, 4);
        let info = emu.execute(&code, 0, &mut mem, &ibtc, &mut prof, u64::MAX, &mut NullSink);
        assert_eq!(info.cause, ExitCause::Exit { id: 1 });
        assert_eq!(emu.iregs[17], 1);
        assert_eq!(emu.counters.ibtc_hits, 1);
    }

    #[test]
    fn ibtc_jump_costs_probe_sequence() {
        let code = vec![
            HInsn::Chkpt,
            HInsn::IbtcJmp { rs: HReg(16), id: 2 },
        ];
        let mut emu = HostEmulator::new();
        let mut mem = GuestMem::new();
        let ibtc = IbtcTable::new();
        let mut prof = ProfTable::new();
        let info = emu.execute(&code, 0, &mut mem, &ibtc, &mut prof, u64::MAX, &mut NullSink);
        assert_eq!(info.executed, 1 + 6, "chkpt + 6-slot IBTC probe");
    }

    #[test]
    fn block_delivery_matches_per_event_stream() {
        #[derive(Default)]
        struct PerEvent(Vec<RetireEvent>);
        impl InsnSink for PerEvent {
            fn retire(&mut self, ev: &RetireEvent) {
                self.0.push(*ev);
            }
        }
        #[derive(Default)]
        struct Blocks {
            events: Vec<RetireEvent>,
            blocks: Vec<(usize, bool)>,
        }
        impl InsnSink for Blocks {
            fn retire(&mut self, ev: &RetireEvent) {
                self.events.push(*ev);
            }
            fn wants_blocks(&self) -> bool {
                true
            }
            fn retire_block(&mut self, events: &[RetireEvent], complete: bool) {
                self.blocks.push((events.len(), complete));
                self.events.extend_from_slice(events);
            }
        }
        // Two committed transactions, then an assert-fail rollback.
        let code = vec![
            HInsn::Chkpt,
            HInsn::Li16 { rd: HReg(16), imm: 2 },
            HInsn::Store { rs: HReg(16), base: HReg(17), off: 0x20, width: Width::D, spec: false, seq: 0 },
            HInsn::Chkpt,
            HInsn::AluI { op: HAluOp::Add, rd: HReg(16), ra: HReg(16), imm: 1 },
            HInsn::AssertZ { rs: HReg(16) }, // fails: r16 == 3
            HInsn::TolExit { id: 0 },
        ];
        let run_with = |sink: &mut dyn InsnSink| {
            let mut emu = HostEmulator::new();
            let mut mem = GuestMem::new();
            mem.map_zero(0);
            let ibtc = IbtcTable::new();
            let mut prof = ProfTable::new();
            emu.execute(&code, 0, &mut mem, &ibtc, &mut prof, u64::MAX, &mut DynSink(sink))
        };
        let mut per_event = PerEvent::default();
        let a = run_with(&mut per_event);
        let mut blocks = Blocks::default();
        let b = run_with(&mut blocks);
        assert_eq!(a, b, "exit info must not depend on delivery granularity");
        assert_eq!(per_event.0, blocks.events, "streams must be identical");
        // First transaction flushes complete at the second chkpt; the
        // rolled-back tail flushes incomplete.
        assert_eq!(blocks.blocks.first().map(|b| b.1), Some(true));
        assert_eq!(blocks.blocks.last().map(|b| b.1), Some(false));
    }

    #[test]
    fn subword_store_and_signed_load() {
        let code = vec![
            HInsn::Chkpt,
            HInsn::Li16 { rd: HReg(16), imm: -1 }, // 0xFFFFFFFF
            HInsn::Store { rs: HReg(16), base: HReg(17), off: 0x10, width: Width::B, spec: false, seq: 0 },
            HInsn::Load { rd: HReg(18), base: HReg(17), off: 0x10, width: Width::B, sign: true, spec: false, seq: 1 },
            HInsn::Load { rd: HReg(19), base: HReg(17), off: 0x10, width: Width::W, sign: false, spec: false, seq: 2 },
            HInsn::TolExit { id: 0 },
        ];
        let (emu, _, _) = run(code, |_, _| {});
        assert_eq!(emu.iregs[18], 0xFFFF_FFFF);
        assert_eq!(emu.iregs[19], 0x0000_00FF, "only one byte was stored");
    }
}
