//! HISA-fragment → x86-64 lowering.
//!
//! A *fragment* is a single-entry slice of the host-code arena, scanned
//! forward from the entry until the first unconditional terminator with
//! no pending forward branch target beyond it. In-range branch targets
//! become local labels; out-of-range targets become patchable
//! continue-exits (the trampoline chains them directly in native code).
//!
//! Bit-identity rules the whole lowering:
//! * every instruction's `dyn_cost` is accumulated into a compile-time
//!   `pending` counter and flushed to the state's `executed`/`unattributed`
//!   *before* the instruction's effects, exactly like the emulator's
//!   cost-before-execute ordering;
//! * integer division, `Parity`, `MulHS`, FP min/max, FP compares and
//!   float→int conversion are lowered with explicit fix-ups so they match
//!   `eval_halu`/`eval_falu` (Rust semantics) bit for bit;
//! * memory runs an inline L0-TLB hit fast path whose guard conditions
//!   are strictly conservative — anything that could need store-buffer
//!   overlay, alias checks, faults or sorted insertion falls back to the
//!   slow-path helpers, which call the same `HostState` methods as the
//!   emulator.
//!
//! Every state access is `[r15 + disp32]` on the shared
//! [`HostState`](crate::state::HostState), with offsets from `exec`.

use super::exec::{
    freg_off, ireg_off, O_CONT_TARGET, O_EXECUTED, O_GCNT_BB, O_GCNT_SB, O_HELPER_EXIT, O_HOST_BB,
    O_HOST_SB, O_IBTC_CMP_SITE, O_IBTC_GUARD_SITE, O_IBTC_HITS, O_IBTC_JMP_SITE, O_IBTC_PC,
    O_PATCH_KIND, O_PATCH_SITE, O_PROF_COUNTS, O_PROF_TRIPS, O_SPEC_BLOOM, O_SPEC_BUF, O_SPEC_HI,
    O_SPEC_LEN, O_SPEC_LO, O_STORE_BLOOM, O_STORE_BUF, O_STORE_HI, O_STORE_LAST_SEQ, O_STORE_LEN,
    O_STORE_LO, O_TLB, O_UNATTR,
};
use super::x64::{
    Alu, Asm, Lab, Reg, CC_A, CC_AE, CC_B, CC_BE, CC_E, CC_NE, CC_NP, CC_P, R12, R13, R14, R15,
    R8, RAX, RBP, RBX, RCX, RDI, RDX, RSI, XMM0, XMM1,
};
use crate::insn::{add_rel, FCmpOp, FUnOp2, HAluOp, HInsn};
use crate::state::{
    CAUSE_ASSERT, CAUSE_DIV_ZERO, CAUSE_EXIT, CAUSE_TRIP, RANGE_SPLIT, SPEC_CAP, STORE_CAP,
    TLB_SLOTS,
};
use darco_guest::Width;
use std::collections::{BTreeSet, HashMap};

/// Helper entry addresses, resolved by the engine.
pub(super) struct Helpers {
    pub chkpt: usize,
    pub commit: usize,
    pub exit_commit: usize,
    pub rollback: usize,
    pub slow_load: usize,
    pub slow_store: usize,
    pub ibtc: usize,
    pub bl_routine: usize,
}

/// Compiled fragment.
pub(super) struct FragOut {
    pub bytes: Vec<u8>,
    /// Distinct guest registers the fragment used beyond the cached set.
    pub spills: u64,
    /// One-past-the-last arena word the fragment's code depends on; a
    /// mutation anywhere in `[entry, end)` makes the code stale.
    pub end: usize,
}

/// Host registers holding cached guest integer registers (callee-saved,
/// so they survive helper calls).
const HOST_CACHE: [Reg; 5] = [RBX, RBP, R12, R13, R14];
/// Guest integer registers eligible for caching: r0–r55. The runtime
/// scratch/link registers r56–r63 stay in memory so the `Bl` routine
/// helper can mutate them behind the fragment's back.
const CACHE_CANDIDATES: usize = 56;
const MAX_FRAG: usize = 8192;

const SSE_ADD: u8 = 0x58;
const SSE_MUL: u8 = 0x59;
const SSE_SUB: u8 = 0x5C;
const SSE_DIV: u8 = 0x5E;
const SSE_SQRT: u8 = 0x51;

struct Scan {
    end: usize,
    targets: BTreeSet<usize>,
    /// Whether the fragment was cut before a terminator (needs a
    /// synthetic fallthrough continue-exit to `end`).
    fallthrough: bool,
}

fn scan(arena: &[HInsn], entry: usize) -> Scan {
    let mut targets = BTreeSet::new();
    let mut max_tgt = entry;
    let mut p = entry;
    loop {
        if p >= arena.len() {
            return Scan { end: p, targets, fallthrough: true };
        }
        let mut term = false;
        match arena[p] {
            HInsn::B { rel } => {
                let t = add_rel(p, rel);
                if t >= entry && t < entry + MAX_FRAG {
                    targets.insert(t);
                    max_tgt = max_tgt.max(t);
                }
                term = true;
            }
            HInsn::Bz { rel, .. } | HInsn::Bnz { rel, .. } => {
                let t = add_rel(p, rel);
                if t >= entry && t < entry + MAX_FRAG {
                    targets.insert(t);
                    max_tgt = max_tgt.max(t);
                }
            }
            HInsn::Blr
            | HInsn::TolExit { .. }
            | HInsn::ChainSlot { .. }
            | HInsn::IbtcJmp { .. } => term = true,
            _ => {}
        }
        if term && p >= max_tgt {
            return Scan { end: p + 1, targets, fallthrough: false };
        }
        p += 1;
        if p - entry >= MAX_FRAG {
            return Scan { end: p, targets, fallthrough: true };
        }
    }
}

/// Integer-register references of one instruction: (reads, write).
fn ireg_refs(insn: &HInsn) -> ([Option<usize>; 2], Option<usize>) {
    match *insn {
        HInsn::Alu { rd, ra, rb, .. } => ([Some(ra.index()), Some(rb.index())], Some(rd.index())),
        HInsn::AluI { rd, ra, .. } => ([Some(ra.index()), None], Some(rd.index())),
        HInsn::Lui { rd, .. } | HInsn::Li16 { rd, .. } => ([None, None], Some(rd.index())),
        HInsn::OriZ { rd, .. } => ([Some(rd.index()), None], Some(rd.index())),
        HInsn::Load { rd, base, .. } => ([Some(base.index()), None], Some(rd.index())),
        HInsn::Store { rs, base, .. } => ([Some(rs.index()), Some(base.index())], None),
        HInsn::LoadF { base, .. } | HInsn::StoreF { base, .. } => {
            ([Some(base.index()), None], None)
        }
        HInsn::Bz { rs, .. } | HInsn::Bnz { rs, .. } => ([Some(rs.index()), None], None),
        HInsn::FCmp { rd, .. } => ([None, None], Some(rd.index())),
        HInsn::CvtIF { ra, .. } => ([Some(ra.index()), None], None),
        HInsn::CvtFI { rd, .. } => ([None, None], Some(rd.index())),
        HInsn::AssertZ { rs } | HInsn::AssertNz { rs } => ([Some(rs.index()), None], None),
        HInsn::IbtcJmp { rs, .. } => ([Some(rs.index()), None], None),
        _ => ([None, None], None),
    }
}

struct Lowerer<'x> {
    a: Asm,
    arena: &'x [HInsn],
    entry: usize,
    end: usize,
    frag_base: usize,
    h: &'x Helpers,
    labels: HashMap<usize, Lab>,
    /// guest ireg → cached host reg.
    cached: HashMap<usize, Reg>,
    /// Cached registers written somewhere in the fragment (flush set).
    written: Vec<(usize, Reg)>,
    pending: u64,
    ret0: Lab,
    /// External branch target → continue-exit stub label.
    cont_stubs: HashMap<usize, Lab>,
}

impl Lowerer<'_> {
    fn flush_pending(&mut self) {
        if self.pending > 0 {
            let n = i32::try_from(self.pending).expect("fragment cost fits imm32");
            self.a.alu_mem64_imm(Alu::Add, R15, O_EXECUTED, n);
            self.a.alu_mem64_imm(Alu::Add, R15, O_UNATTR, n);
            self.pending = 0;
        }
    }

    fn flush_regs(&mut self) {
        for &(g, host) in &self.written {
            self.a.mov_mem_r32(R15, ireg_off(g), host);
        }
    }

    fn reload_regs(&mut self) {
        for (&g, &host) in &self.cached.clone() {
            self.a.mov_r32_mem(host, R15, ireg_off(g));
        }
    }

    /// Value of guest ireg `r` in a host register: the cached register
    /// itself, or a load into `scratch`.
    fn read_ireg(&mut self, r: usize, scratch: Reg) -> Reg {
        match self.cached.get(&r) {
            Some(&h) => h,
            None => {
                self.a.mov_r32_mem(scratch, R15, ireg_off(r));
                scratch
            }
        }
    }

    fn write_ireg(&mut self, r: usize, src: Reg) {
        match self.cached.get(&r) {
            Some(&h) => {
                if h != src {
                    self.a.mov_rr32(h, src);
                }
            }
            None => self.a.mov_mem_r32(R15, ireg_off(r), src),
        }
    }

    fn write_ireg_imm(&mut self, r: usize, v: u32) {
        match self.cached.get(&r) {
            Some(&h) => self.a.mov_r32_imm(h, v),
            None => self.a.mov_mem32_imm(R15, ireg_off(r), v),
        }
    }

    fn call_helper(&mut self, addr: usize) {
        self.a.mov_r64_imm(RAX, addr as u64);
        self.a.call_r(RAX);
    }

    /// Emits a patchable continue-exit: record target + patch site, then
    /// return CONTINUE. The 5-byte jmp initially falls through; once the
    /// trampoline patches its rel32, control flows straight into the
    /// target fragment. Registers must already be flushed.
    fn emit_cont_exit(&mut self, target: usize) {
        self.a.mov_mem64_imm(R15, O_CONT_TARGET, target as i32);
        self.a.mov_mem64_imm(R15, O_PATCH_KIND, 1);
        let site = self.a.jmp_rel(0);
        self.a.mov_mem64_imm(R15, O_PATCH_SITE, (self.frag_base + site) as i32);
        self.a.mov_r32_imm(RAX, 1);
        self.a.ret();
    }

    fn cont_stub(&mut self, target: usize) -> Lab {
        if let Some(&l) = self.cont_stubs.get(&target) {
            return l;
        }
        let l = self.a.new_label();
        self.cont_stubs.insert(target, l);
        l
    }

    /// Inline rollback exit (assert failures, division by zero).
    fn emit_rollback(&mut self, pc: usize, cause: u32) {
        self.a.mov_rr64(RDI, R15);
        self.a.mov_r32_imm(RSI, pc as u32);
        self.a.mov_r32_imm(RDX, cause);
        self.a.alu_rr32(Alu::Xor, RCX, RCX);
        self.a.alu_rr32(Alu::Xor, R8, R8);
        self.call_helper(self.h.rollback);
        self.a.jmp(self.ret0);
    }

    /// Computes the guest effective address `base + off` into esi.
    fn emit_addr(&mut self, base: usize, off: i32) {
        let b = self.read_ireg(base, RSI);
        self.a.lea_r32(RSI, b, off);
    }

    /// The shared TLB tag check: on hit, leaves the slot pointer in rax
    /// and the in-page offset in rdx; on miss jumps to `slow`. Clobbers
    /// rax, rcx, rdx. Expects the address in esi (upper bits zero).
    fn emit_tlb_check(&mut self, len: u8, slow: Lab) {
        self.a.mov_rr32(RCX, RSI);
        self.a.shift_r32_imm(5, RCX, 12); // page
        self.a.mov_rr32(RAX, RCX);
        self.a.alu_r32_imm(Alu::And, RAX, TLB_SLOTS as u32 - 1);
        self.a.shift_r32_imm(4, RAX, 4); // slot * 16
        self.a.alu_rr64(Alu::Add, RAX, R15);
        self.a.alu_r32_imm(Alu::Add, RCX, 1); // tag = page + 1
        self.a.cmp_mem64_r(RAX, O_TLB, RCX);
        self.a.jcc(CC_NE, slow);
        self.a.mov_rr32(RDX, RSI);
        self.a.alu_r32_imm(Alu::And, RDX, 0xFFF);
        self.a.alu_r32_imm(Alu::Cmp, RDX, 4096 - len as u32);
        self.a.jcc(CC_A, slow);
    }

    /// Appends an entry to a flat transaction buffer (store or spec log).
    /// Leaves the slot address in rcx. Expects the guest address in esi.
    fn emit_buf_append(&mut self, len_field: i32, buf_off: i32, seq: u16, len: u8) {
        self.a.mov_r32_mem(RCX, R15, len_field);
        self.a.shift_r32_imm(4, RCX, 4);
        self.a.lea_r64(RCX, RCX, buf_off);
        self.a.alu_rr64(Alu::Add, RCX, R15);
        self.a.mov_mem16_imm(RCX, 0, seq);
        self.a.mov_mem8_imm(RCX, 2, len);
        self.a.mov_mem_r32(RCX, 4, RSI);
        self.a.alu_mem32_imm(Alu::Add, R15, len_field, 1);
    }

    /// Updates a `lo`/`hi` byte-range pair with `[esi, esi+len)`.
    /// Clobbers rdx.
    fn emit_range_update_one(&mut self, lo_off: i32, hi_off: i32, len: u8) {
        let keep_lo = self.a.new_label();
        self.a.cmp_mem64_r(R15, lo_off, RSI); // lo - addr
        self.a.jcc(CC_BE, keep_lo); // lo <= addr
        self.a.mov_mem_r64(R15, lo_off, RSI);
        self.a.bind(keep_lo);
        let keep_hi = self.a.new_label();
        self.a.lea_r64(RDX, RSI, len as i32); // end = addr + len
        self.a.cmp_mem64_r(R15, hi_off, RDX); // hi - end
        self.a.jcc(CC_AE, keep_hi); // hi >= end
        self.a.mov_mem_r64(R15, hi_off, RDX);
        self.a.bind(keep_hi);
    }

    /// Extends whichever of the two screen ranges `addr` falls in
    /// (`lo_off` pair below `RANGE_SPLIT`, the `+16`-offset pair above).
    fn emit_range_update(&mut self, lo_off: i32, hi_off: i32, len: u8) {
        let upper = self.a.new_label();
        let done = self.a.new_label();
        self.a.alu_r32_imm(Alu::Cmp, RSI, RANGE_SPLIT);
        self.a.jcc(CC_AE, upper);
        self.emit_range_update_one(lo_off, hi_off, len);
        self.a.jmp(done);
        self.a.bind(upper);
        self.emit_range_update_one(lo_off + 16, hi_off + 16, len);
        self.a.bind(done);
    }

    /// Jumps to `maybe` when `[addr, addr+len)` may overlap either screen
    /// range of the `lo_off`/`hi_off` pair (second range at `+16`).
    fn emit_range_screen(&mut self, lo_off: i32, hi_off: i32, len: u8, maybe: Lab) {
        for (lo, hi) in [(lo_off, hi_off), (lo_off + 16, hi_off + 16)] {
            let disjoint = self.a.new_label();
            self.a.cmp_mem64_r(R15, hi, RSI); // hi - addr
            self.a.jcc(CC_BE, disjoint); // hi <= addr
            self.a.lea_r64(RCX, RSI, len as i32);
            self.a.cmp_mem64_r(R15, lo, RCX); // lo - end
            self.a.jcc(CC_B, maybe); // lo < end → possible overlap
            self.a.bind(disjoint);
        }
    }

    /// Builds the access's bloom mask in rdx: bits for granules
    /// `addr >> 3` and its successor (mod 64, via `rol`) — a superset of
    /// the granules any `len <= 8` access touches, so one mask covers the
    /// whole access with no length branch. Clobbers rcx, rdx.
    fn emit_bloom_mask(&mut self) {
        self.a.mov_rr32(RCX, RSI);
        self.a.shift_r32_imm(5, RCX, 3); // granule = addr >> 3
        self.a.mov_r32_imm(RDX, 3);
        self.a.rol64_cl(RDX);
    }

    /// Jumps to `slow` when the bloom filter at `bloom_off` has a bit set
    /// for the access at `esi`; falls through on a miss, which proves no
    /// logged access can alias this one.
    fn emit_bloom_check(&mut self, bloom_off: i32, slow: Lab) {
        self.emit_bloom_mask();
        self.a.test_mem64_r(R15, bloom_off, RDX);
        self.a.jcc(CC_NE, slow);
    }

    /// Sets the bloom bits at `bloom_off` for the access at `esi`.
    /// Clobbers rcx, rdx.
    fn emit_bloom_set(&mut self, bloom_off: i32) {
        self.emit_bloom_mask();
        self.a.alu_mem64_r(Alu::Or, R15, bloom_off, RDX);
    }

    /// The combined two-level alias screen: the range screen first (two
    /// `[lo, hi)` intervals, split at `RANGE_SPLIT`), then on a suspected
    /// overlap the granule bloom filter. Only a positive from *both*
    /// levels takes `slow` — ranges catch far-apart traffic cheaply,
    /// the bloom separates interleaved accesses the ranges fuse.
    fn emit_overlap_screen(&mut self, lo_off: i32, hi_off: i32, bloom_off: i32, len: u8, slow: Lab) {
        let maybe = self.a.new_label();
        let clear = self.a.new_label();
        self.emit_range_screen(lo_off, hi_off, len, maybe);
        self.a.jmp(clear);
        self.a.bind(maybe);
        self.emit_bloom_check(bloom_off, slow);
        self.a.bind(clear);
    }

    /// Integer ALU lowering matching `eval_halu` exactly.
    fn lower_alu(&mut self, pc: usize, op: HAluOp, rd: usize, ra: usize, b: AluSrc) {
        if matches!(op, HAluOp::Div | HAluOp::Rem) {
            self.flush_pending();
            if let AluSrc::Imm(0) = b {
                self.emit_rollback(pc, CAUSE_DIV_ZERO);
                return;
            }
            let a_reg = self.read_ireg(ra, RAX);
            if a_reg != RAX {
                self.a.mov_rr32(RAX, a_reg);
            }
            match b {
                AluSrc::Reg(rb) => {
                    let b_reg = self.read_ireg(rb, RCX);
                    if b_reg != RCX {
                        self.a.mov_rr32(RCX, b_reg);
                    }
                    let nonzero = self.a.new_label();
                    self.a.test_rr32(RCX, RCX);
                    self.a.jcc(CC_NE, nonzero);
                    self.emit_rollback(pc, CAUSE_DIV_ZERO);
                    self.a.bind(nonzero);
                }
                AluSrc::Imm(v) => self.a.mov_r32_imm(RCX, v),
            }
            // b == -1 wraps (INT_MIN / -1) in Rust but traps in idiv:
            // Div → wrapping negate, Rem → 0.
            let general = self.a.new_label();
            let done = self.a.new_label();
            self.a.alu_r32_imm(Alu::Cmp, RCX, u32::MAX);
            self.a.jcc(CC_NE, general);
            if op == HAluOp::Div {
                self.a.neg_r32(RAX);
            } else {
                self.a.alu_rr32(Alu::Xor, RAX, RAX);
            }
            self.a.jmp(done);
            self.a.bind(general);
            self.a.cdq();
            self.a.idiv_r32(RCX);
            if op == HAluOp::Rem {
                self.a.mov_rr32(RAX, RDX);
            }
            self.a.bind(done);
            self.write_ireg(rd, RAX);
            return;
        }

        // Value of `a` in eax.
        let load_a = |s: &mut Self| {
            let r = s.read_ireg(ra, RAX);
            if r != RAX {
                s.a.mov_rr32(RAX, r);
            }
        };
        // Second operand into ecx (reg, mem or imm).
        let load_b = |s: &mut Self, scratch: Reg| -> Reg {
            match b {
                AluSrc::Reg(rb) => s.read_ireg(rb, scratch),
                AluSrc::Imm(v) => {
                    s.a.mov_r32_imm(scratch, v);
                    scratch
                }
            }
        };
        match op {
            HAluOp::Add | HAluOp::Sub | HAluOp::And | HAluOp::Or | HAluOp::Xor => {
                let x = match op {
                    HAluOp::Add => Alu::Add,
                    HAluOp::Sub => Alu::Sub,
                    HAluOp::And => Alu::And,
                    HAluOp::Or => Alu::Or,
                    _ => Alu::Xor,
                };
                load_a(self);
                match b {
                    AluSrc::Imm(v) => self.a.alu_r32_imm(x, RAX, v),
                    AluSrc::Reg(rb) => {
                        let r = self.read_ireg(rb, RCX);
                        self.a.alu_rr32(x, RAX, r);
                    }
                }
                self.write_ireg(rd, RAX);
            }
            HAluOp::Mul => {
                load_a(self);
                let r = load_b(self, RCX);
                self.a.imul_rr32(RAX, r);
                self.write_ireg(rd, RAX);
            }
            HAluOp::MulHS => {
                load_a(self);
                let r = load_b(self, RCX);
                if r != RCX {
                    self.a.mov_rr32(RCX, r);
                }
                self.a.movsxd(RAX, RAX);
                self.a.movsxd(RCX, RCX);
                self.a.imul_rr64(RAX, RCX);
                self.a.shr_r64_imm(RAX, 32);
                self.write_ireg(rd, RAX);
            }
            HAluOp::Shl | HAluOp::Shr | HAluOp::Sar => {
                load_a(self);
                let r = load_b(self, RCX);
                if r != RCX {
                    self.a.mov_rr32(RCX, r);
                }
                let ext = match op {
                    HAluOp::Shl => 4,
                    HAluOp::Shr => 5,
                    _ => 7,
                };
                self.a.shift_cl(ext, RAX); // hardware masks the count & 31
                self.write_ireg(rd, RAX);
            }
            HAluOp::SltS | HAluOp::SltU | HAluOp::Seq | HAluOp::Sne | HAluOp::SleS
            | HAluOp::SleU => {
                load_a(self);
                match b {
                    AluSrc::Imm(v) => self.a.alu_r32_imm(Alu::Cmp, RAX, v),
                    AluSrc::Reg(rb) => {
                        let r = self.read_ireg(rb, RCX);
                        self.a.alu_rr32(Alu::Cmp, RAX, r);
                    }
                }
                let cc = match op {
                    HAluOp::SltS => super::x64::CC_L,
                    HAluOp::SltU => CC_B,
                    HAluOp::Seq => CC_E,
                    HAluOp::Sne => CC_NE,
                    HAluOp::SleS => super::x64::CC_LE,
                    _ => CC_BE,
                };
                self.a.setcc(cc, RAX);
                self.a.movzx8_rr(RAX, RAX);
                self.write_ireg(rd, RAX);
            }
            HAluOp::Parity => {
                // x86 PF is the parity of the low result byte: set when
                // the number of ones is even, which is exactly
                // `(a as u8).count_ones() % 2 == 0`.
                load_a(self);
                self.a.alu_r32_imm(Alu::And, RAX, 0xFF);
                self.a.setcc(CC_P, RAX);
                self.a.movzx8_rr(RAX, RAX);
                self.write_ireg(rd, RAX);
            }
            HAluOp::Sext8 => {
                let r = self.read_ireg(ra, RAX);
                self.a.movsx8_rr(RAX, r);
                self.write_ireg(rd, RAX);
            }
            HAluOp::Sext16 => {
                let r = self.read_ireg(ra, RAX);
                self.a.movsx16_rr(RAX, r);
                self.write_ireg(rd, RAX);
            }
            HAluOp::Div | HAluOp::Rem => unreachable!(),
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the HInsn load fields
    fn lower_load(
        &mut self,
        pc: usize,
        rd_int: Option<usize>,
        fd: Option<usize>,
        base: usize,
        off: i32,
        width: Width,
        sign: bool,
        spec: bool,
        seq: u16,
    ) {
        let len = if fd.is_some() { 8 } else { width.bytes() as u8 };
        self.flush_pending();
        self.emit_addr(base, off);
        let slow = self.a.new_label();
        let done = self.a.new_label();

        // Store-buffer overlap? (possible forwarding → slow path)
        self.emit_overlap_screen(O_STORE_LO, O_STORE_HI, O_STORE_BLOOM, len, slow);
        if spec {
            self.a.alu_mem32_imm(Alu::Cmp, R15, O_SPEC_LEN, SPEC_CAP as u32);
            self.a.jcc(CC_AE, slow);
        }
        self.emit_tlb_check(len, slow);
        self.a.mov_r64_mem(RCX, RAX, O_TLB + 8); // page data pointer
        self.a.alu_rr64(Alu::Add, RCX, RDX);
        if fd.is_some() {
            self.a.movsd_x_mem(XMM0, RCX, 0);
        } else {
            match (width, sign) {
                (Width::B, false) => self.a.movzx8_mem(RAX, RCX, 0),
                (Width::B, true) => self.a.movsx8_mem(RAX, RCX, 0),
                (Width::W, false) => self.a.movzx16_mem(RAX, RCX, 0),
                (Width::W, true) => self.a.movsx16_mem(RAX, RCX, 0),
                (Width::D, _) => self.a.mov_r32_mem(RAX, RCX, 0),
            }
        }
        if spec {
            self.emit_buf_append(O_SPEC_LEN, O_SPEC_BUF, seq, len);
            self.emit_bloom_set(O_SPEC_BLOOM);
            self.emit_range_update(O_SPEC_LO, O_SPEC_HI, len);
        }
        self.a.jmp(done);

        self.a.bind(slow);
        self.a.mov_rr64(RDI, R15);
        self.a.mov_r32_imm(RDX, pc as u32);
        let desc = seq as u32 | (u32::from(len) << 16) | (u32::from(spec) << 24);
        self.a.mov_r32_imm(RCX, desc);
        self.call_helper(self.h.slow_load);
        self.a.alu_mem32_imm(Alu::Cmp, R15, O_HELPER_EXIT, 0);
        self.a.jcc(CC_NE, self.ret0);
        if fd.is_some() {
            self.a.movq_x_r(XMM0, RAX);
        } else if sign {
            // The raw value is zero-extended by construction; only
            // sign-extension needs an instruction.
            match width {
                Width::B => self.a.movsx8_rr(RAX, RAX),
                Width::W => self.a.movsx16_rr(RAX, RAX),
                Width::D => {}
            }
        }
        self.a.bind(done);
        if let Some(fd) = fd {
            self.a.movsd_mem_x(R15, freg_off(fd), XMM0);
        } else if let Some(rd) = rd_int {
            self.write_ireg(rd, RAX);
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the HInsn store fields
    fn lower_store(
        &mut self,
        pc: usize,
        rs_int: Option<usize>,
        fs: Option<usize>,
        base: usize,
        off: i32,
        width: Width,
        seq: u16,
    ) {
        let len = if fs.is_some() { 8 } else { width.bytes() as u8 };
        self.flush_pending();
        self.emit_addr(base, off);
        // Data into r8 (64-bit value, exactly what the buffer holds).
        if let Some(fs) = fs {
            self.a.movsd_x_mem(XMM0, R15, freg_off(fs));
            self.a.movq_r_x(R8, XMM0);
        } else if let Some(rs) = rs_int {
            let r = self.read_ireg(rs, R8);
            if r != R8 {
                self.a.mov_rr32(R8, r);
            } else {
                // Loaded via mov r32 → already zero-extended.
            }
        }
        let slow = self.a.new_label();
        let done = self.a.new_label();

        // Conservative alias screen: disjoint from every logged
        // speculative load → the seq-aware check cannot fire.
        self.emit_overlap_screen(O_SPEC_LO, O_SPEC_HI, O_SPEC_BLOOM, len, slow);
        // In-order append only (sorted insert goes slow).
        self.a.alu_mem32_imm(Alu::Cmp, R15, O_STORE_LAST_SEQ, seq as u32);
        self.a.jcc(CC_A, slow);
        self.a.alu_mem32_imm(Alu::Cmp, R15, O_STORE_LEN, STORE_CAP as u32);
        self.a.jcc(CC_AE, slow);
        // Probe: the write-probe only checks mapped-ness, which the read
        // TLB tag answers.
        self.emit_tlb_check(len, slow);
        self.emit_buf_append(O_STORE_LEN, O_STORE_BUF, seq, len);
        self.a.mov_mem_r64(RCX, 8, R8);
        self.a.mov_mem32_imm(R15, O_STORE_LAST_SEQ, seq as u32);
        self.emit_bloom_set(O_STORE_BLOOM);
        self.emit_range_update(O_STORE_LO, O_STORE_HI, len);
        self.a.jmp(done);

        self.a.bind(slow);
        self.a.mov_rr64(RDI, R15);
        self.a.mov_r32_imm(RDX, pc as u32);
        let desc = seq as u32 | (u32::from(len) << 16);
        self.a.mov_r32_imm(RCX, desc);
        self.call_helper(self.h.slow_store);
        self.a.alu_mem32_imm(Alu::Cmp, R15, O_HELPER_EXIT, 0);
        self.a.jcc(CC_NE, self.ret0);
        self.a.bind(done);
    }

    fn lower_insn(&mut self, pc: usize) {
        let insn = self.arena[pc];
        self.pending += insn.dyn_cost();
        match insn {
            HInsn::Nop => {}
            HInsn::Alu { op, rd, ra, rb } => {
                self.lower_alu(pc, op, rd.index(), ra.index(), AluSrc::Reg(rb.index()));
            }
            HInsn::AluI { op, rd, ra, imm } => {
                self.lower_alu(pc, op, rd.index(), ra.index(), AluSrc::Imm(imm as i32 as u32));
            }
            HInsn::Lui { rd, imm } => self.write_ireg_imm(rd.index(), (imm as u32) << 16),
            HInsn::Li16 { rd, imm } => self.write_ireg_imm(rd.index(), imm as i32 as u32),
            HInsn::OriZ { rd, imm } => {
                let rd = rd.index();
                match self.cached.get(&rd) {
                    Some(&h) => self.a.alu_r32_imm(Alu::Or, h, imm as u32),
                    None => {
                        self.a.mov_r32_mem(RAX, R15, ireg_off(rd));
                        self.a.alu_r32_imm(Alu::Or, RAX, imm as u32);
                        self.a.mov_mem_r32(R15, ireg_off(rd), RAX);
                    }
                }
            }
            HInsn::Load { rd, base, off, width, sign, spec, seq } => {
                self.lower_load(pc, Some(rd.index()), None, base.index(), off, width, sign, spec, seq);
            }
            HInsn::LoadF { fd, base, off, spec, seq } => {
                self.lower_load(pc, None, Some(fd.index()), base.index(), off, Width::D, false, spec, seq);
            }
            HInsn::Store { rs, base, off, width, spec: _, seq } => {
                self.lower_store(pc, Some(rs.index()), None, base.index(), off, width, seq);
            }
            HInsn::StoreF { fs, base, off, spec: _, seq } => {
                self.lower_store(pc, None, Some(fs.index()), base.index(), off, Width::D, seq);
            }
            HInsn::B { rel } => {
                let t = add_rel(pc, rel);
                self.flush_pending();
                if t >= self.entry && t < self.end {
                    let l = self.labels[&t];
                    self.a.jmp(l);
                } else {
                    self.flush_regs();
                    self.emit_cont_exit(t);
                }
            }
            HInsn::Bz { rs, rel } | HInsn::Bnz { rs, rel } => {
                let t = add_rel(pc, rel);
                self.flush_pending();
                let v = self.read_ireg(rs.index(), RAX);
                self.a.test_rr32(v, v);
                let cc = if matches!(insn, HInsn::Bz { .. }) { CC_E } else { CC_NE };
                if t >= self.entry && t < self.end {
                    let l = self.labels[&t];
                    self.a.jcc(cc, l);
                } else {
                    let stub = self.cont_stub(t);
                    self.a.jcc(cc, stub);
                }
            }
            HInsn::Bl { rel } => {
                let t = add_rel(pc, rel);
                self.flush_pending();
                self.a.mov_mem32_imm(R15, ireg_off(63), (pc + 1) as u32);
                self.flush_regs();
                self.a.mov_rr64(RDI, R15);
                self.a.mov_r32_imm(RSI, t as u32);
                self.call_helper(self.h.bl_routine);
                self.reload_regs();
            }
            HInsn::Blr => {
                self.flush_pending();
                self.flush_regs();
                self.a.mov_r32_mem(RAX, R15, ireg_off(63));
                self.a.mov_mem_r64(R15, O_CONT_TARGET, RAX);
                self.a.mov_mem64_imm(R15, O_PATCH_KIND, 0);
                self.a.mov_r32_imm(RAX, 1);
                self.a.ret();
            }
            HInsn::Chkpt => {
                self.flush_pending();
                self.flush_regs();
                self.a.mov_rr64(RDI, R15);
                self.a.mov_r32_imm(RSI, pc as u32);
                self.call_helper(self.h.chkpt);
                self.a.alu_r64_imm(Alu::Cmp, RAX, 0);
                self.a.jcc(CC_NE, self.ret0);
            }
            HInsn::Commit => {
                self.flush_pending();
                self.a.mov_rr64(RDI, R15);
                self.call_helper(self.h.commit);
            }
            HInsn::TolExit { id } | HInsn::ChainSlot { id } => {
                self.flush_pending();
                self.flush_regs();
                self.a.mov_rr64(RDI, R15);
                self.a.mov_r32_imm(RSI, pc as u32);
                self.a.mov_r32_imm(RDX, CAUSE_EXIT);
                self.a.mov_r32_imm(RCX, id as u32);
                self.call_helper(self.h.exit_commit);
                self.a.jmp(self.ret0);
            }
            HInsn::AssertZ { rs } | HInsn::AssertNz { rs } => {
                self.flush_pending();
                let v = self.read_ireg(rs.index(), RAX);
                self.a.test_rr32(v, v);
                let ok = self.a.new_label();
                let cc = if matches!(insn, HInsn::AssertZ { .. }) { CC_E } else { CC_NE };
                self.a.jcc(cc, ok);
                self.emit_rollback(pc, CAUSE_ASSERT);
                self.a.bind(ok);
            }
            HInsn::Gcnt { n, sb } => {
                self.flush_pending();
                let (gcnt, host) = if sb { (O_GCNT_SB, O_HOST_SB) } else { (O_GCNT_BB, O_HOST_BB) };
                self.a.alu_mem64_imm(Alu::Add, R15, gcnt, n as i32);
                self.a.mov_r64_mem(RAX, R15, O_UNATTR);
                self.a.alu_mem64_r(Alu::Add, R15, host, RAX);
                self.a.mov_mem64_imm(R15, O_UNATTR, 0);
            }
            HInsn::Count { idx } => {
                self.flush_pending();
                let disp = i32::try_from(idx as u64 * 8).expect("profile table fits disp32");
                self.a.mov_r64_mem(RAX, R15, O_PROF_COUNTS);
                self.a.inc_mem64(RAX, disp);
                self.a.mov_r64_mem(RCX, R15, O_PROF_TRIPS);
                self.a.mov_r64_mem(RCX, RCX, disp);
                let skip = self.a.new_label();
                self.a.alu_r64_imm(Alu::Cmp, RCX, 0);
                self.a.jcc(CC_E, skip);
                self.a.cmp_mem64_r(RAX, disp, RCX);
                self.a.jcc(CC_NE, skip);
                self.flush_regs();
                self.a.mov_rr64(RDI, R15);
                self.a.mov_r32_imm(RSI, pc as u32);
                self.a.mov_r32_imm(RDX, CAUSE_TRIP);
                self.a.mov_r32_imm(RCX, idx);
                self.call_helper(self.h.exit_commit);
                self.a.jmp(self.ret0);
                self.a.bind(skip);
            }
            HInsn::IbtcJmp { rs, id } => {
                self.flush_pending();
                self.flush_regs();
                let v = self.read_ireg(rs.index(), RSI);
                if v != RSI {
                    self.a.mov_rr32(RSI, v);
                }
                self.a.mov_mem_r64(R15, O_IBTC_PC, RSI);
                let probe = self.a.new_label();
                // Monomorphic inline cache: guarded off until the
                // trampoline patches pc + target and opens the guard.
                let guard_site = self.a.jmp(probe);
                self.a.alu_r32_imm(Alu::Cmp, RSI, 0);
                let cmp_site = self.a.pos() - 4;
                self.a.jcc(CC_NE, probe);
                self.a.inc_mem64(R15, O_IBTC_HITS);
                let jmp_site = self.a.jmp_rel(0);
                self.a.bind(probe);
                self.a.mov_rr64(RDI, R15);
                self.a.mov_r32_imm(RDX, pc as u32);
                self.a.mov_r32_imm(RCX, id as u32);
                self.call_helper(self.h.ibtc);
                self.a.alu_r64_imm(Alu::Cmp, RAX, 0);
                self.a.jcc(CC_E, self.ret0); // miss → DONE
                self.a.alu_r64_imm(Alu::Sub, RAX, 1);
                self.a.mov_mem_r64(R15, O_CONT_TARGET, RAX);
                self.a.mov_mem64_imm(R15, O_PATCH_KIND, 2);
                self.a.mov_mem64_imm(R15, O_IBTC_GUARD_SITE, (self.frag_base + guard_site) as i32);
                self.a.mov_mem64_imm(R15, O_IBTC_CMP_SITE, (self.frag_base + cmp_site) as i32);
                self.a.mov_mem64_imm(R15, O_IBTC_JMP_SITE, (self.frag_base + jmp_site) as i32);
                self.a.mov_r32_imm(RAX, 1);
                self.a.ret();
            }
            HInsn::FAlu { op, fd, fa, fb } => {
                use crate::insn::FAluOp;
                let (fd, fa, fb) = (fd.index(), fa.index(), fb.index());
                self.a.movsd_x_mem(XMM0, R15, freg_off(fa));
                self.a.movsd_x_mem(XMM1, R15, freg_off(fb));
                match op {
                    FAluOp::Add => self.a.sse_arith(SSE_ADD, XMM0, XMM1),
                    FAluOp::Sub => self.a.sse_arith(SSE_SUB, XMM0, XMM1),
                    FAluOp::Mul => self.a.sse_arith(SSE_MUL, XMM0, XMM1),
                    FAluOp::Div => self.a.sse_arith(SSE_DIV, XMM0, XMM1),
                    FAluOp::Min | FAluOp::Max => {
                        // eval_falu: NaN if either is NaN, else strict
                        // `if a<b {a} else {b}` (resp. `a>b`).
                        self.flush_pending();
                        let nan = self.a.new_label();
                        let keep_a = self.a.new_label();
                        let store = self.a.new_label();
                        self.a.ucomisd(XMM0, XMM1);
                        self.a.jcc(CC_P, nan);
                        self.a.jcc(if op == FAluOp::Min { CC_B } else { CC_A }, keep_a);
                        self.a.movapd_xx(XMM0, XMM1);
                        self.a.jmp(store);
                        self.a.bind(nan);
                        self.a.mov_r64_imm(RAX, f64::NAN.to_bits());
                        self.a.movq_x_r(XMM0, RAX);
                        self.a.bind(keep_a);
                        self.a.bind(store);
                    }
                }
                self.a.movsd_mem_x(R15, freg_off(fd), XMM0);
            }
            HInsn::FUn { op, fd, fa } => {
                let (fd, fa) = (fd.index(), fa.index());
                match op {
                    FUnOp2::Mov => {
                        self.a.mov_r64_mem(RAX, R15, freg_off(fa));
                        self.a.mov_mem_r64(R15, freg_off(fd), RAX);
                    }
                    FUnOp2::Sqrt => {
                        self.a.movsd_x_mem(XMM0, R15, freg_off(fa));
                        self.a.sse_arith(SSE_SQRT, XMM0, XMM0);
                        self.a.movsd_mem_x(R15, freg_off(fd), XMM0);
                    }
                    FUnOp2::Abs | FUnOp2::Neg => {
                        // Rust f64::abs / -x are pure sign-bit ops.
                        let mask: u64 =
                            if op == FUnOp2::Abs { 0x7FFF_FFFF_FFFF_FFFF } else { 0x8000_0000_0000_0000 };
                        self.a.mov_r64_mem(RAX, R15, freg_off(fa));
                        self.a.mov_r64_imm(RCX, mask);
                        if op == FUnOp2::Abs {
                            self.a.alu_rr64(Alu::And, RAX, RCX);
                        } else {
                            self.a.alu_rr64(Alu::Xor, RAX, RCX);
                        }
                        self.a.mov_mem_r64(R15, freg_off(fd), RAX);
                    }
                }
            }
            HInsn::FCmp { op, rd, fa, fb } => {
                let (fa, fb) = (fa.index(), fb.index());
                self.a.movsd_x_mem(XMM0, R15, freg_off(fa));
                self.a.movsd_x_mem(XMM1, R15, freg_off(fb));
                match op {
                    FCmpOp::Lt | FCmpOp::Le => {
                        // a<b ⇔ b>a; `seta`/`setae` are false on
                        // unordered, matching Rust comparisons on NaN.
                        self.a.ucomisd(XMM1, XMM0);
                        self.a.setcc(if op == FCmpOp::Lt { CC_A } else { CC_AE }, RAX);
                        self.a.movzx8_rr(RAX, RAX);
                    }
                    FCmpOp::Eq => {
                        self.a.ucomisd(XMM0, XMM1);
                        self.a.setcc(CC_NP, RAX);
                        self.a.setcc(CC_E, RCX);
                        self.a.movzx8_rr(RAX, RAX);
                        self.a.movzx8_rr(RCX, RCX);
                        self.a.alu_rr32(Alu::And, RAX, RCX);
                    }
                    FCmpOp::Unord => {
                        self.a.ucomisd(XMM0, XMM1);
                        self.a.setcc(CC_P, RAX);
                        self.a.movzx8_rr(RAX, RAX);
                    }
                }
                self.write_ireg(rd.index(), RAX);
            }
            HInsn::CvtIF { fd, ra } => {
                let r = self.read_ireg(ra.index(), RAX);
                self.a.cvtsi2sd(XMM0, r);
                self.a.movsd_mem_x(R15, freg_off(fd.index()), XMM0);
            }
            HInsn::CvtFI { rd, fa } => {
                // Rust `f64 as i32` saturates and maps NaN → 0; cvttsd2si
                // reports all of those as 0x8000_0000, so fix up.
                self.flush_pending();
                let done = self.a.new_label();
                let nan = self.a.new_label();
                let pos = self.a.new_label();
                self.a.movsd_x_mem(XMM0, R15, freg_off(fa.index()));
                self.a.cvttsd2si(RAX, XMM0);
                self.a.alu_r32_imm(Alu::Cmp, RAX, 0x8000_0000);
                self.a.jcc(CC_NE, done);
                self.a.ucomisd(XMM0, XMM0);
                self.a.jcc(CC_P, nan);
                self.a.xorpd(XMM1, XMM1);
                self.a.ucomisd(XMM0, XMM1);
                self.a.jcc(CC_A, pos);
                self.a.jmp(done); // negative overflow: i32::MIN is right
                self.a.bind(pos);
                self.a.mov_r32_imm(RAX, 0x7FFF_FFFF);
                self.a.jmp(done);
                self.a.bind(nan);
                self.a.alu_rr32(Alu::Xor, RAX, RAX);
                self.a.bind(done);
                self.write_ireg(rd.index(), RAX);
            }
            HInsn::FLoadImm { fd, bits } => {
                self.a.mov_r64_imm(RAX, bits);
                self.a.mov_mem_r64(R15, freg_off(fd.index()), RAX);
            }
        }
    }
}

enum AluSrc {
    Reg(usize),
    Imm(u32),
}

/// Compiles the fragment entered at `entry`. `frag_base` is the offset
/// the code will be placed at in the buffer (patch sites are recorded as
/// absolute buffer offsets).
pub(super) fn compile_fragment(
    arena: &[HInsn],
    entry: usize,
    frag_base: usize,
    h: &Helpers,
) -> FragOut {
    let scan = scan(arena, entry);

    // Use counts for register caching; reads and writes both count.
    let mut counts = [0u32; CACHE_CANDIDATES];
    let mut writes = [false; CACHE_CANDIDATES];
    for insn in &arena[entry..scan.end] {
        let (reads, write) = ireg_refs(insn);
        for r in reads.into_iter().flatten() {
            if r < CACHE_CANDIDATES {
                counts[r] += 1;
            }
        }
        if let Some(r) = write {
            if r < CACHE_CANDIDATES {
                counts[r] += 1;
                writes[r] = true;
            }
        }
    }
    let mut ranked: Vec<usize> = (0..CACHE_CANDIDATES).filter(|&r| counts[r] > 0).collect();
    ranked.sort_by_key(|&r| (std::cmp::Reverse(counts[r]), r));
    let distinct = ranked.len() as u64;
    let mut cached = HashMap::new();
    let mut written = Vec::new();
    for (i, &g) in ranked.iter().take(HOST_CACHE.len()).enumerate() {
        cached.insert(g, HOST_CACHE[i]);
        if writes[g] {
            written.push((g, HOST_CACHE[i]));
        }
    }
    let spills = distinct.saturating_sub(HOST_CACHE.len() as u64);

    let mut a = Asm::new();
    let ret0 = a.new_label();
    let mut lw = Lowerer {
        a,
        arena,
        entry,
        end: scan.end,
        frag_base,
        h,
        labels: HashMap::new(),
        cached,
        written,
        pending: 0,
        ret0,
        cont_stubs: HashMap::new(),
    };
    for &t in scan.targets.iter().filter(|&&t| t < scan.end) {
        let l = lw.a.new_label();
        lw.labels.insert(t, l);
    }

    // Preamble: pull the cached set into host registers.
    for (&g, &host) in &lw.cached.clone() {
        lw.a.mov_r32_mem(host, R15, ireg_off(g));
    }

    for p in entry..scan.end {
        if let Some(&l) = lw.labels.get(&p) {
            lw.flush_pending();
            lw.a.bind(l);
        }
        lw.lower_insn(p);
    }
    if scan.fallthrough {
        lw.flush_pending();
        lw.flush_regs();
        lw.emit_cont_exit(scan.end);
    }

    // Continue-exit stubs for conditional out-of-fragment branches.
    for (t, l) in lw.cont_stubs.clone() {
        lw.a.bind(l);
        lw.flush_regs();
        lw.emit_cont_exit(t);
    }

    // Shared DONE epilogue.
    lw.a.bind(lw.ret0);
    lw.a.alu_rr32(Alu::Xor, RAX, RAX);
    lw.a.ret();

    FragOut { bytes: lw.a.finish(), spills, end: scan.end }
}
