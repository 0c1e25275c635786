//! Static verification of emitted x86-64 machine code (DESIGN.md §13,
//! stage 2 of the translation-validation pipeline).
//!
//! The lowerer ([`super::lower`]) emits a closed, small subset of x86-64
//! through [`super::x64::Asm`]. This module re-decodes every compiled
//! fragment with a self-contained decoder for exactly that subset and
//! runs an abstract interpreter over the decoded instructions, proving
//! the machine-code invariants the IR-level verifier cannot see:
//!
//! * **register discipline** — nothing writes the pinned context pointer
//!   `r15` or `rsp` (the thunk owns both; with no `rsp` writes and no
//!   push/pop in the subset, stack balance follows);
//! * **helper-call shape** — every indirect call is
//!   `mov rax, imm64; call rax` with the immediate equal to a registered
//!   helper entry point;
//! * **context bounds** — every `[r15 + disp]` access (including pointers
//!   derived from `r15` by bounded index arithmetic, like TLB slots and
//!   transaction-buffer entries) stays inside the shared
//!   [`HostState`](crate::state::HostState) layout;
//! * **memory discipline** — every other load/store goes through a
//!   pointer proven to be a bounds-checked L0-TLB page pointer (guard
//!   compare + `ja slow` observed) or a profile-table pointer loaded from
//!   the context; anything else must have gone to a helper;
//! * **branch targets** — every rel32 branch lands on a decoded
//!   instruction boundary inside the fragment (unpatched chain/IBTC
//!   sites have rel32 = 0, which is the next boundary by construction).
//!
//! The abstract domain is deliberately simple: known immediates, upper
//! bounds established by `and`/`movzx`/guarded compares, and tagged
//! pointers (context / guest page / profile table) with a constant
//! offset. State is reset at every branch target (except the pinned
//! `r15`), so the proof is per straight-line path — exactly how the
//! lowerer reasons, which keeps the checker precise enough to accept
//! every legitimate fragment while rejecting single-instruction
//! corruptions like a planted `mov r15, ...`.

use super::exec::{O_PROF_COUNTS, O_PROF_TRIPS, O_TLB};
use super::x64::{Alu, CC_A, CC_AE};
use super::CheckKind;
use crate::state::{HostState, TLB_SLOTS};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// One checker finding: what invariant broke, where in the fragment.
pub(super) struct CheckFinding {
    pub kind: CheckKind,
    /// Byte offset of the offending instruction inside the fragment.
    pub off: usize,
    pub msg: String,
}

impl fmt::Display for CheckFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] at +{:#x}: {}", self.kind.name(), self.off, self.msg)
    }
}

// ---------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------

/// Register-or-memory operand (all memory operands in the emitted subset
/// are `[base + disp32]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Rm {
    Reg(u8),
    Mem { base: u8, disp: i32 },
}

/// A decoded instruction of the emitter's subset, carrying exactly the
/// operands of the [`super::x64::Asm`] method that emitted it (so a
/// decoded fragment can be re-emitted byte-identically).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Op {
    MovLoad { w: bool, dst: u8, base: u8, disp: i32 },
    MovStore { w: bool, base: u8, disp: i32, src: u8 },
    MovRR { w: bool, dst: u8, src: u8 },
    MovImm32 { dst: u8, imm: u32 },
    MovImm64 { dst: u8, imm: u64 },
    /// `mov <size> [base+disp], imm` — size 1/2/4/8 bytes (8 stores a
    /// sign-extended imm32).
    MovMemImm { size: u8, base: u8, disp: i32, imm: u32 },
    /// movzx/movsx of an 8- or 16-bit source into a 32-bit register.
    Movx { sign: bool, width: u8, dst: u8, rm: Rm },
    Movsxd { dst: u8, src: u8 },
    AluRR { w: bool, op: Alu, dst: u8, src: u8 },
    AluLoad { op: Alu, dst: u8, base: u8, disp: i32 },
    AluImm { w: bool, op: Alu, dst: u8, imm: u32 },
    AluMemImm { w: bool, op: Alu, base: u8, disp: i32, imm: u32 },
    /// Store-form 64-bit ALU: `op qword [base+disp], src`.
    AluMemR { op: Alu, base: u8, disp: i32, src: u8 },
    Rol64Cl { r: u8 },
    TestMemR { base: u8, disp: i32, src: u8 },
    TestRR { a: u8, b: u8 },
    ImulRR { w: bool, dst: u8, src: u8 },
    Cdq,
    Idiv { r: u8 },
    Neg { r: u8 },
    ShiftCl { ext: u8, r: u8 },
    Shr64Imm { r: u8, imm: u8 },
    ShiftImm { ext: u8, r: u8, imm: u8 },
    Setcc { cc: u8, r: u8 },
    IncMem64 { base: u8, disp: i32 },
    Lea { w: bool, dst: u8, base: u8, disp: i32 },
    CallR { r: u8 },
    Ret,
    Jmp { rel: i32 },
    Jcc { cc: u8, rel: i32 },
    Ud2,
    MovsdLoad { dst: u8, base: u8, disp: i32 },
    MovsdStore { base: u8, disp: i32, src: u8 },
    MovapdXX { dst: u8, src: u8 },
    SseArith { opcode: u8, dst: u8, src: u8 },
    Ucomisd { a: u8, b: u8 },
    Andpd { dst: u8, src: u8 },
    Xorpd { dst: u8, src: u8 },
    MovqXR { dst: u8, src: u8 },
    MovqRX { dst: u8, src: u8 },
    Cvttsd2si { dst: u8, src: u8 },
    Cvtsi2sd { dst: u8, src: u8 },
}

#[derive(Debug, Clone, Copy)]
pub(super) struct Decoded {
    pub off: usize,
    pub len: usize,
    pub op: Op,
}

struct Dec<'a> {
    b: &'a [u8],
    p: usize,
}

impl Dec<'_> {
    fn u8(&mut self) -> Result<u8, String> {
        let v = *self.b.get(self.p).ok_or("truncated instruction")?;
        self.p += 1;
        Ok(v)
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.p).copied()
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes([self.u8()?, self.u8()?]))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes([self.u8()?, self.u8()?, self.u8()?, self.u8()?]))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from(self.u32()?) | (u64::from(self.u32()?) << 32))
    }

    /// ModRM (+ SIB + disp32 for memory operands): returns the extended
    /// reg field and the r/m operand.
    fn modrm(&mut self, rex: u8) -> Result<(u8, Rm), String> {
        let m = self.u8()?;
        let reg = ((m >> 3) & 7) + if rex & 4 != 0 { 8 } else { 0 };
        let rm_lo = m & 7;
        let bump = if rex & 1 != 0 { 8 } else { 0 };
        match m >> 6 {
            0b11 => Ok((reg, Rm::Reg(rm_lo + bump))),
            0b10 => {
                if rm_lo == 4 {
                    let sib = self.u8()?;
                    if sib != 0x24 {
                        return Err(format!("unexpected SIB byte {sib:#04x}"));
                    }
                }
                let disp = self.u32()? as i32;
                Ok((reg, Rm::Mem { base: rm_lo + bump, disp }))
            }
            other => Err(format!("unsupported ModRM mod={other}")),
        }
    }
}

fn mem(rm: Rm) -> Result<(u8, i32), String> {
    match rm {
        Rm::Mem { base, disp } => Ok((base, disp)),
        Rm::Reg(_) => Err("expected memory operand".into()),
    }
}

fn reg(rm: Rm) -> Result<u8, String> {
    match rm {
        Rm::Reg(r) => Ok(r),
        Rm::Mem { .. } => Err("expected register operand".into()),
    }
}

fn alu_from_rm_opcode(b: u8) -> Option<Alu> {
    match b {
        0x03 => Some(Alu::Add),
        0x2B => Some(Alu::Sub),
        0x23 => Some(Alu::And),
        0x0B => Some(Alu::Or),
        0x33 => Some(Alu::Xor),
        0x3B => Some(Alu::Cmp),
        _ => None,
    }
}

fn alu_from_mr_opcode(b: u8) -> Option<Alu> {
    match b {
        0x01 => Some(Alu::Add),
        0x29 => Some(Alu::Sub),
        0x21 => Some(Alu::And),
        0x09 => Some(Alu::Or),
        0x31 => Some(Alu::Xor),
        0x39 => Some(Alu::Cmp),
        _ => None,
    }
}

fn alu_from_imm_ext(e: u8) -> Option<Alu> {
    match e {
        0 => Some(Alu::Add),
        1 => Some(Alu::Or),
        4 => Some(Alu::And),
        5 => Some(Alu::Sub),
        6 => Some(Alu::Xor),
        7 => Some(Alu::Cmp),
        _ => None,
    }
}

/// Decodes the instruction at `off`; returns the op and its length.
fn decode_one(bytes: &[u8], off: usize) -> Result<(Op, usize), String> {
    let mut d = Dec { b: bytes, p: off };
    let mut p66 = false;
    let mut pf2 = false;
    loop {
        match d.peek() {
            Some(0x66) if !p66 => {
                p66 = true;
                d.p += 1;
            }
            Some(0xF2) if !pf2 => {
                pf2 = true;
                d.p += 1;
            }
            _ => break,
        }
    }
    let mut rex = 0u8;
    if let Some(b) = d.peek() {
        if (0x40..=0x4F).contains(&b) {
            rex = b;
            d.p += 1;
        }
    }
    if rex & 2 != 0 {
        return Err("REX.X is never emitted".into());
    }
    let w = rex & 8 != 0;
    let opc = d.u8()?;
    let op = match opc {
        0x0F => {
            let o2 = d.u8()?;
            match o2 {
                0x10 | 0x11 if pf2 => {
                    let (x, rm) = d.modrm(rex)?;
                    let (base, disp) = mem(rm)?;
                    if o2 == 0x10 {
                        Op::MovsdLoad { dst: x, base, disp }
                    } else {
                        Op::MovsdStore { base, disp, src: x }
                    }
                }
                0x28 if p66 => {
                    let (dst, rm) = d.modrm(rex)?;
                    Op::MovapdXX { dst, src: reg(rm)? }
                }
                0x2A if pf2 => {
                    let (dst, rm) = d.modrm(rex)?;
                    Op::Cvtsi2sd { dst, src: reg(rm)? }
                }
                0x2C if pf2 => {
                    let (dst, rm) = d.modrm(rex)?;
                    Op::Cvttsd2si { dst, src: reg(rm)? }
                }
                0x2E if p66 => {
                    let (a, rm) = d.modrm(rex)?;
                    Op::Ucomisd { a, b: reg(rm)? }
                }
                0x51 | 0x58 | 0x59 | 0x5C | 0x5E if pf2 => {
                    let (dst, rm) = d.modrm(rex)?;
                    Op::SseArith { opcode: o2, dst, src: reg(rm)? }
                }
                0x54 if p66 => {
                    let (dst, rm) = d.modrm(rex)?;
                    Op::Andpd { dst, src: reg(rm)? }
                }
                0x57 if p66 => {
                    let (dst, rm) = d.modrm(rex)?;
                    Op::Xorpd { dst, src: reg(rm)? }
                }
                0x6E if p66 && w => {
                    let (dst, rm) = d.modrm(rex)?;
                    Op::MovqXR { dst, src: reg(rm)? }
                }
                0x7E if p66 && w => {
                    let (src, rm) = d.modrm(rex)?;
                    Op::MovqRX { dst: reg(rm)?, src }
                }
                0x80..=0x8F if !p66 && !pf2 => Op::Jcc { cc: o2 - 0x80, rel: d.u32()? as i32 },
                0x90..=0x9F if !p66 && !pf2 => {
                    let (ext, rm) = d.modrm(rex)?;
                    if ext & 7 != 0 {
                        return Err("setcc with nonzero reg field".into());
                    }
                    Op::Setcc { cc: o2 - 0x90, r: reg(rm)? }
                }
                0xAF => {
                    let (dst, rm) = d.modrm(rex)?;
                    Op::ImulRR { w, dst, src: reg(rm)? }
                }
                0xB6 | 0xB7 | 0xBE | 0xBF => {
                    let (dst, rm) = d.modrm(rex)?;
                    let sign = o2 >= 0xBE;
                    let width = if o2 & 1 == 0 { 8 } else { 16 };
                    Op::Movx { sign, width, dst, rm }
                }
                0x0B => Op::Ud2,
                other => return Err(format!("unknown 0F opcode {other:#04x}")),
            }
        }
        0x01 | 0x09 | 0x21 | 0x29 | 0x31 | 0x39 => {
            if !w {
                return Err("store-form ALU is only emitted 64-bit".into());
            }
            let aop = alu_from_mr_opcode(opc).expect("matched above");
            let (src, rm) = d.modrm(rex)?;
            let (base, disp) = mem(rm)?;
            Op::AluMemR { op: aop, base, disp, src }
        }
        0x03 | 0x0B | 0x23 | 0x2B | 0x33 | 0x3B => {
            let aop = alu_from_rm_opcode(opc).expect("matched above");
            let (dst, rm) = d.modrm(rex)?;
            match rm {
                Rm::Reg(src) => Op::AluRR { w, op: aop, dst, src },
                Rm::Mem { base, disp } => {
                    if w {
                        return Err("64-bit ALU load form is never emitted".into());
                    }
                    Op::AluLoad { op: aop, dst, base, disp }
                }
            }
        }
        0x63 => {
            if !w {
                return Err("movsxd without REX.W".into());
            }
            let (dst, rm) = d.modrm(rex)?;
            Op::Movsxd { dst, src: reg(rm)? }
        }
        0x81 => {
            let (ext, rm) = d.modrm(rex)?;
            let aop = alu_from_imm_ext(ext & 7)
                .ok_or_else(|| format!("bad 0x81 extension {}", ext & 7))?;
            match rm {
                Rm::Reg(r) => Op::AluImm { w, op: aop, dst: r, imm: d.u32()? },
                Rm::Mem { base, disp } => {
                    Op::AluMemImm { w, op: aop, base, disp, imm: d.u32()? }
                }
            }
        }
        0x85 => {
            let (r, rm) = d.modrm(rex)?;
            match rm {
                Rm::Mem { base, disp } => {
                    if !w {
                        return Err("32-bit test-mem is never emitted".into());
                    }
                    Op::TestMemR { base, disp, src: r }
                }
                Rm::Reg(a) => {
                    if w {
                        return Err("64-bit test-reg is never emitted".into());
                    }
                    Op::TestRR { a, b: r }
                }
            }
        }
        0x89 => {
            let (src, rm) = d.modrm(rex)?;
            match rm {
                Rm::Mem { base, disp } => Op::MovStore { w, base, disp, src },
                Rm::Reg(dst) => Op::MovRR { w, dst, src },
            }
        }
        0x8B => {
            let (dst, rm) = d.modrm(rex)?;
            let (base, disp) = mem(rm)?;
            Op::MovLoad { w, dst, base, disp }
        }
        0x8D => {
            let (dst, rm) = d.modrm(rex)?;
            let (base, disp) = mem(rm)?;
            Op::Lea { w, dst, base, disp }
        }
        0x99 => Op::Cdq,
        0xB8..=0xBF => {
            let dst = (opc - 0xB8) + if rex & 1 != 0 { 8 } else { 0 };
            if w {
                Op::MovImm64 { dst, imm: d.u64()? }
            } else {
                Op::MovImm32 { dst, imm: d.u32()? }
            }
        }
        0xC1 => {
            let (ext, rm) = d.modrm(rex)?;
            let r = reg(rm)?;
            let ext = ext & 7;
            if w {
                if ext != 5 {
                    return Err(format!("64-bit shift-imm /{ext} is never emitted"));
                }
                Op::Shr64Imm { r, imm: d.u8()? }
            } else {
                if !matches!(ext, 4 | 5 | 7) {
                    return Err(format!("bad shift extension /{ext}"));
                }
                Op::ShiftImm { ext, r, imm: d.u8()? }
            }
        }
        0xC3 => Op::Ret,
        0xC6 => {
            let (ext, rm) = d.modrm(rex)?;
            if ext & 7 != 0 {
                return Err("mov-imm8 with nonzero reg field".into());
            }
            let (base, disp) = mem(rm)?;
            Op::MovMemImm { size: 1, base, disp, imm: u32::from(d.u8()?) }
        }
        0xC7 => {
            let (ext, rm) = d.modrm(rex)?;
            if ext & 7 != 0 {
                return Err("mov-imm with nonzero reg field".into());
            }
            let (base, disp) = mem(rm)?;
            if p66 {
                Op::MovMemImm { size: 2, base, disp, imm: u32::from(d.u16()?) }
            } else {
                Op::MovMemImm { size: if w { 8 } else { 4 }, base, disp, imm: d.u32()? }
            }
        }
        0xD3 => {
            let (ext, rm) = d.modrm(rex)?;
            let r = reg(rm)?;
            let ext = ext & 7;
            if w {
                if ext != 0 {
                    return Err(format!("64-bit D3 /{ext} is never emitted"));
                }
                Op::Rol64Cl { r }
            } else {
                if !matches!(ext, 4 | 5 | 7) {
                    return Err(format!("bad shift-cl extension /{ext}"));
                }
                Op::ShiftCl { ext, r }
            }
        }
        0xE9 => Op::Jmp { rel: d.u32()? as i32 },
        0xF7 => {
            let (ext, rm) = d.modrm(rex)?;
            let r = reg(rm)?;
            match ext & 7 {
                7 => Op::Idiv { r },
                3 => Op::Neg { r },
                e => return Err(format!("bad 0xF7 extension /{e}")),
            }
        }
        0xFF => {
            let (ext, rm) = d.modrm(rex)?;
            match (ext & 7, rm) {
                (0, Rm::Mem { base, disp }) => {
                    if !w {
                        return Err("32-bit inc-mem is never emitted".into());
                    }
                    Op::IncMem64 { base, disp }
                }
                (2, Rm::Reg(r)) => Op::CallR { r },
                (e, _) => return Err(format!("bad 0xFF form /{e}")),
            }
        }
        other => return Err(format!("unknown opcode {other:#04x}")),
    };
    Ok((op, d.p - off))
}

/// Decodes the whole fragment, or reports the offset where decoding
/// failed.
pub(super) fn decode_all(bytes: &[u8]) -> Result<Vec<Decoded>, (usize, String)> {
    let mut out = Vec::new();
    let mut off = 0;
    while off < bytes.len() {
        let (op, len) = decode_one(bytes, off).map_err(|e| (off, e))?;
        out.push(Decoded { off, len, op });
        off += len;
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Abstract interpreter
// ---------------------------------------------------------------------

const RSP: u8 = 4;
const R15: u8 = 15;
const PAGE: u64 = 4096;

/// What the checker knows about a register's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbsVal {
    Top,
    /// Exactly this value (helper addresses, small constants).
    Imm(u64),
    /// Unsigned value `<= bound`.
    Bounded(u64),
    /// Context pointer plus a constant byte offset.
    CtxPtr(u64),
    /// Bounds-checked guest-page data pointer plus a constant offset.
    PagePtr(u64),
    /// Profile-table pointer (`prof_counts` / `prof_trips`).
    TablePtr,
}

use AbsVal::{Bounded, CtxPtr, Imm, PagePtr, TablePtr, Top};

/// A compare whose very next instruction may refine a bound.
#[derive(Debug, Clone, Copy)]
enum LastCmp {
    RegImm { r: u8, imm: u32 },
    CtxImm { eff: i64, imm: u32 },
}

/// Classification of one memory access.
enum MemClass {
    Ctx(i64),
    Page,
    Table,
    Bad(String),
}

fn trunc32(v: AbsVal) -> AbsVal {
    match v {
        Imm(x) => Imm(x & 0xFFFF_FFFF),
        Bounded(m) => Bounded(m.min(u64::from(u32::MAX))),
        _ => Bounded(u64::from(u32::MAX)),
    }
}

struct Checker<'a> {
    regs: [AbsVal; 16],
    /// Known upper bounds of 32-bit context fields (`cmp dword
    /// [r15+eff], imm` + `ja`/`jae` guards), by effective offset.
    bounds: HashMap<i64, u64>,
    cmp: Option<LastCmp>,
    helpers: &'a [usize],
    findings: Vec<CheckFinding>,
}

impl<'a> Checker<'a> {
    fn new(helpers: &'a [usize]) -> Checker<'a> {
        let mut c = Checker {
            regs: [Top; 16],
            bounds: HashMap::new(),
            cmp: None,
            helpers,
            findings: Vec::new(),
        };
        c.regs[R15 as usize] = CtxPtr(0);
        c
    }

    /// Join-free merge at a branch target: forget everything except the
    /// pinned context pointer.
    fn reset(&mut self) {
        self.regs = [Top; 16];
        self.regs[R15 as usize] = CtxPtr(0);
        self.bounds.clear();
        self.cmp = None;
    }

    fn finding(&mut self, kind: CheckKind, off: usize, msg: String) {
        self.findings.push(CheckFinding { kind, off, msg });
    }

    /// Register write with pinned-register discipline.
    fn write(&mut self, off: usize, r: u8, v: AbsVal) {
        if r == R15 || r == RSP {
            let name = if r == R15 { "r15 (context pointer)" } else { "rsp" };
            self.finding(
                CheckKind::RegDiscipline,
                off,
                format!("write to pinned register {name}"),
            );
            return;
        }
        self.regs[r as usize] = v;
    }

    /// Classifies and bounds-checks a `[base + disp]` access of `len`
    /// bytes; records a finding when it cannot be proven safe.
    fn mem(&mut self, off: usize, base: u8, disp: i32, len: u8) -> MemClass {
        let ctx_size = std::mem::size_of::<HostState>() as i64;
        let cls = match self.regs[base as usize] {
            CtxPtr(m) => {
                let eff = m as i64 + i64::from(disp);
                if eff < 0 || eff + i64::from(len) > ctx_size {
                    MemClass::Bad(format!(
                        "context access at offset {eff} (+{len}) outside HostState ({ctx_size} bytes)"
                    ))
                } else {
                    MemClass::Ctx(eff)
                }
            }
            PagePtr(m) => {
                let eff = m as i64 + i64::from(disp);
                if eff < 0 || eff + i64::from(len) > PAGE as i64 {
                    MemClass::Bad(format!(
                        "page access at offset {eff} (+{len}) not proven within the 4 KiB page"
                    ))
                } else {
                    MemClass::Page
                }
            }
            TablePtr => {
                if disp < 0 {
                    MemClass::Bad("negative profile-table offset".into())
                } else {
                    MemClass::Table
                }
            }
            other => MemClass::Bad(format!(
                "access through r{base} = {other:?}, not a proven context/page/table pointer"
            )),
        };
        if let MemClass::Bad(msg) = &cls {
            let kind = if matches!(self.regs[base as usize], CtxPtr(_)) {
                CheckKind::CtxBounds
            } else {
                CheckKind::MemDiscipline
            };
            self.finding(kind, off, msg.clone());
        }
        cls
    }

    /// A store to a context field invalidates any bound established for
    /// it (e.g. the transaction-buffer length after its increment).
    fn store_effect(&mut self, cls: &MemClass) {
        if let MemClass::Ctx(eff) = cls {
            self.bounds.remove(eff);
        }
    }

    /// Value produced by a load, refined by what is known about the
    /// loaded context field.
    fn load_value(&mut self, cls: &MemClass, len: u8, w: bool) -> AbsVal {
        match (cls, w) {
            (MemClass::Ctx(eff), false) => match self.bounds.get(eff) {
                Some(&b) => Bounded(b),
                None => Bounded(u64::from(u32::MAX)),
            },
            (MemClass::Ctx(eff), true) => {
                let tlb_lo = i64::from(O_TLB);
                let tlb_hi = tlb_lo + (TLB_SLOTS as i64) * 16;
                if len == 8 && *eff >= tlb_lo && *eff + 8 <= tlb_hi && (*eff - tlb_lo) % 16 == 8 {
                    // The data-pointer half of a TLB slot: a valid page
                    // pointer whenever the adjacent tag matched.
                    PagePtr(0)
                } else if len == 8
                    && (*eff == i64::from(O_PROF_COUNTS) || *eff == i64::from(O_PROF_TRIPS))
                {
                    TablePtr
                } else {
                    Top
                }
            }
            (_, false) => Bounded(u64::from(u32::MAX)),
            (_, true) => Top,
        }
    }

    fn step(&mut self, d: &Decoded) {
        let off = d.off;
        let prev_cmp = self.cmp.take();
        match d.op {
            Op::MovLoad { w, dst, base, disp } => {
                let cls = self.mem(off, base, disp, if w { 8 } else { 4 });
                let v = self.load_value(&cls, if w { 8 } else { 4 }, w);
                self.write(off, dst, v);
            }
            Op::MovStore { w, base, disp, src: _ } => {
                let cls = self.mem(off, base, disp, if w { 8 } else { 4 });
                self.store_effect(&cls);
            }
            Op::MovRR { w, dst, src } => {
                let v = if w { self.regs[src as usize] } else { trunc32(self.regs[src as usize]) };
                self.write(off, dst, v);
            }
            Op::MovImm32 { dst, imm } => self.write(off, dst, Imm(u64::from(imm))),
            Op::MovImm64 { dst, imm } => self.write(off, dst, Imm(imm)),
            Op::MovMemImm { size, base, disp, imm: _ } => {
                let cls = self.mem(off, base, disp, size);
                self.store_effect(&cls);
            }
            Op::Movx { sign, width, dst, rm } => {
                if let Rm::Mem { base, disp } = rm {
                    self.mem(off, base, disp, width / 8);
                }
                let v = if sign {
                    Bounded(u64::from(u32::MAX))
                } else if width == 8 {
                    Bounded(0xFF)
                } else {
                    Bounded(0xFFFF)
                };
                self.write(off, dst, v);
            }
            Op::Movsxd { dst, .. } => self.write(off, dst, Top),
            Op::AluRR { w, op, dst, src } => {
                if op == Alu::Cmp {
                    return;
                }
                let (a, b) = (self.regs[dst as usize], self.regs[src as usize]);
                let mut v = match op {
                    Alu::Add => match (a, b) {
                        (Imm(x), Imm(y)) => Imm(x.wrapping_add(y)),
                        (CtxPtr(m), Imm(x) | Bounded(x)) | (Imm(x) | Bounded(x), CtxPtr(m)) => {
                            CtxPtr(m.saturating_add(x))
                        }
                        (PagePtr(m), Imm(x) | Bounded(x)) | (Imm(x) | Bounded(x), PagePtr(m)) => {
                            PagePtr(m.saturating_add(x))
                        }
                        (Imm(x) | Bounded(x), Imm(y) | Bounded(y)) => match x.checked_add(y) {
                            Some(s) => Bounded(s),
                            None => Top,
                        },
                        _ => Top,
                    },
                    Alu::And => match (a, b) {
                        (Imm(x), Imm(y)) => Imm(x & y),
                        (Imm(m) | Bounded(m), _) | (_, Imm(m) | Bounded(m)) => Bounded(m),
                        _ => Top,
                    },
                    Alu::Sub => match (a, b) {
                        (Imm(x), Imm(y)) => Imm(x.wrapping_sub(y)),
                        _ => Top,
                    },
                    _ => Top,
                };
                if !w {
                    v = trunc32(v);
                }
                self.write(off, dst, v);
            }
            Op::AluLoad { op, dst, base, disp } => {
                self.mem(off, base, disp, 4);
                if op != Alu::Cmp {
                    self.write(off, dst, Bounded(u64::from(u32::MAX)));
                }
            }
            Op::AluImm { w, op, dst, imm } => {
                if op == Alu::Cmp {
                    if !w {
                        self.cmp = Some(LastCmp::RegImm { r: dst, imm });
                    }
                    return;
                }
                let a = self.regs[dst as usize];
                let x = u64::from(imm);
                let mut v = match op {
                    Alu::Add => match a {
                        Imm(y) => Imm(y.wrapping_add(x)),
                        Bounded(m) => match m.checked_add(x) {
                            Some(s) => Bounded(s),
                            None => Top,
                        },
                        CtxPtr(m) => CtxPtr(m.saturating_add(x)),
                        PagePtr(m) => PagePtr(m.saturating_add(x)),
                        _ => Top,
                    },
                    Alu::And => match a {
                        Imm(y) => Imm(y & x),
                        _ => Bounded(x),
                    },
                    Alu::Sub => match a {
                        Imm(y) => Imm(y.wrapping_sub(x)),
                        _ => Top,
                    },
                    _ => Top,
                };
                if !w {
                    v = trunc32(v);
                }
                self.write(off, dst, v);
            }
            Op::AluMemImm { w: _, op, base, disp, imm } => {
                let cls = self.mem(off, base, disp, if d.op_is_wide() { 8 } else { 4 });
                if op == Alu::Cmp {
                    if let MemClass::Ctx(eff) = cls {
                        self.cmp = Some(LastCmp::CtxImm { eff, imm });
                    }
                } else {
                    self.store_effect(&cls);
                }
            }
            Op::AluMemR { op, base, disp, src: _ } => {
                let cls = self.mem(off, base, disp, 8);
                if op != Alu::Cmp {
                    self.store_effect(&cls);
                }
            }
            Op::Rol64Cl { r } => self.write(off, r, Top),
            Op::TestMemR { base, disp, .. } => {
                self.mem(off, base, disp, 8);
            }
            Op::TestRR { .. } | Op::Ud2 | Op::Ret => {}
            Op::ImulRR { w, dst, .. } => {
                let v = if w { Top } else { Bounded(u64::from(u32::MAX)) };
                self.write(off, dst, v);
            }
            Op::Cdq => self.write(off, 2, Bounded(u64::from(u32::MAX))),
            Op::Idiv { .. } => {
                self.write(off, 0, Bounded(u64::from(u32::MAX)));
                self.write(off, 2, Bounded(u64::from(u32::MAX)));
            }
            Op::Neg { r } => self.write(off, r, Bounded(u64::from(u32::MAX))),
            Op::ShiftCl { r, .. } => self.write(off, r, Bounded(u64::from(u32::MAX))),
            Op::Shr64Imm { r, imm } => {
                let v = match self.regs[r as usize] {
                    Imm(x) => Imm(x >> (imm & 63)),
                    Bounded(m) => Bounded(m >> (imm & 63)),
                    _ => Top,
                };
                self.write(off, r, v);
            }
            Op::ShiftImm { ext, r, imm } => {
                let sh = u32::from(imm & 31);
                let v = match (ext, self.regs[r as usize]) {
                    (4, Imm(x)) => Imm(u64::from((x as u32) << sh)),
                    (4, Bounded(m)) => match u32::try_from(m).ok().and_then(|m| m.checked_shl(sh)) {
                        Some(s) => Bounded(u64::from(s)),
                        None => Bounded(u64::from(u32::MAX)),
                    },
                    (5, Imm(x)) => Imm(u64::from((x as u32) >> sh)),
                    (5, Bounded(m)) => Bounded(u64::from(u32::try_from(m.min(u64::from(u32::MAX))).expect("clamped") >> sh)),
                    (5, _) => Bounded(u64::from(u32::MAX >> sh)),
                    _ => Bounded(u64::from(u32::MAX)),
                };
                self.write(off, r, v);
            }
            Op::Setcc { r, .. } => self.write(off, r, Top),
            Op::IncMem64 { base, disp } => {
                let cls = self.mem(off, base, disp, 8);
                self.store_effect(&cls);
            }
            Op::Lea { w, dst, base, disp } => {
                let v = if !w {
                    Bounded(u64::from(u32::MAX))
                } else {
                    match self.regs[base as usize] {
                        Imm(m) => Imm(m.wrapping_add(disp as i64 as u64)),
                        Bounded(m) if disp >= 0 => Bounded(m.saturating_add(disp as u64)),
                        CtxPtr(m) if disp >= 0 => CtxPtr(m.saturating_add(disp as u64)),
                        PagePtr(m) if disp >= 0 => PagePtr(m.saturating_add(disp as u64)),
                        _ => Top,
                    }
                };
                self.write(off, dst, v);
            }
            Op::CallR { r } => {
                let target_ok = r == 0
                    && matches!(self.regs[0], Imm(a) if self.helpers.contains(&(a as usize)));
                if !target_ok {
                    self.finding(
                        CheckKind::HelperCall,
                        off,
                        format!(
                            "indirect call through r{r} = {:?} is not `mov rax, <helper>; call rax`",
                            self.regs[r as usize]
                        ),
                    );
                }
                // SysV: caller-saved registers die, and the helper may
                // have grown the transaction buffers.
                for cs in [0u8, 1, 2, 6, 7, 8, 9, 10, 11] {
                    self.regs[cs as usize] = Top;
                }
                self.bounds.clear();
            }
            Op::Jmp { .. } => {}
            Op::Jcc { cc, .. } => {
                // `cmp x, imm` immediately followed by `ja`/`jae slow`
                // bounds x on the fall-through path.
                if let Some(c) = prev_cmp {
                    let bound = match cc {
                        CC_A => Some(u64::from(c.imm())),
                        CC_AE => u64::from(c.imm()).checked_sub(1),
                        _ => None,
                    };
                    if let Some(b) = bound {
                        match c {
                            LastCmp::RegImm { r, .. } => {
                                if r != R15 && r != RSP {
                                    self.regs[r as usize] = Bounded(b);
                                }
                            }
                            LastCmp::CtxImm { eff, .. } => {
                                self.bounds.insert(eff, b);
                            }
                        }
                    }
                }
            }
            Op::MovsdLoad { base, disp, .. } => {
                self.mem(off, base, disp, 8);
            }
            Op::MovsdStore { base, disp, .. } => {
                let cls = self.mem(off, base, disp, 8);
                self.store_effect(&cls);
            }
            Op::MovapdXX { .. }
            | Op::SseArith { .. }
            | Op::Ucomisd { .. }
            | Op::Andpd { .. }
            | Op::Xorpd { .. }
            | Op::MovqXR { .. }
            | Op::Cvtsi2sd { .. } => {}
            Op::MovqRX { dst, .. } => self.write(off, dst, Top),
            Op::Cvttsd2si { dst, .. } => self.write(off, dst, Bounded(u64::from(u32::MAX))),
        }
    }
}

impl LastCmp {
    fn imm(self) -> u32 {
        match self {
            LastCmp::RegImm { imm, .. } | LastCmp::CtxImm { imm, .. } => imm,
        }
    }
}

impl Decoded {
    /// Whether an `AluMemImm` was the 64-bit form (affects the access
    /// width only).
    fn op_is_wide(&self) -> bool {
        matches!(self.op, Op::AluMemImm { w: true, .. })
    }
}

/// Checks one compiled fragment: decodes it, validates every rel32
/// branch target, and abstract-interprets the instruction stream.
/// `helpers` is the set of valid helper entry addresses.
pub(super) fn check_fragment(bytes: &[u8], helpers: &[usize]) -> Vec<CheckFinding> {
    let decoded = match decode_all(bytes) {
        Ok(d) => d,
        Err((off, msg)) => {
            return vec![CheckFinding {
                kind: CheckKind::Decode,
                off,
                msg: format!("undecodable bytes: {msg}"),
            }]
        }
    };
    let boundaries: BTreeSet<usize> = decoded.iter().map(|d| d.off).collect();
    let mut checker = Checker::new(helpers);
    let mut targets = BTreeSet::new();
    for d in &decoded {
        let rel = match d.op {
            Op::Jmp { rel } => Some(rel),
            Op::Jcc { rel, .. } => Some(rel),
            _ => None,
        };
        if let Some(rel) = rel {
            let t = d.off as i64 + d.len as i64 + i64::from(rel);
            if t < 0 || t >= bytes.len() as i64 || !boundaries.contains(&(t as usize)) {
                checker.finding(
                    CheckKind::BranchTarget,
                    d.off,
                    format!("rel32 branch to +{t:#x} is not an instruction boundary in the fragment"),
                );
            } else {
                targets.insert(t as usize);
            }
        }
    }
    for d in &decoded {
        if targets.contains(&d.off) {
            checker.reset();
        }
        checker.step(d);
    }
    checker.findings
}

#[cfg(test)]
mod tests {
    use super::super::lower::{compile_fragment, Helpers};
    use super::super::x64::{Asm, Lab, CC_E, CC_NE, RAX, RCX, RDI, RSI, R12, R15, R8, XMM0, XMM1};
    use super::*;
    use crate::insn::{FAluOp, HAluOp, HInsn};
    use crate::regs::{HFreg, HReg};
    use darco_guest::prng::{Rng, SmallRng};
    use darco_guest::Width;
    use std::collections::BTreeMap;

    fn fake_helpers() -> Helpers {
        // Distinct, recognizable non-code addresses; the checker only
        // compares them, never calls them.
        Helpers {
            chkpt: 0x1000,
            commit: 0x1008,
            exit_commit: 0x1010,
            rollback: 0x1020,
            slow_load: 0x1028,
            slow_store: 0x1030,
            ibtc: 0x1038,
            bl_routine: 0x1040,
        }
    }

    fn helper_list(h: &Helpers) -> Vec<usize> {
        vec![
            h.chkpt,
            h.commit,
            h.exit_commit,
            h.rollback,
            h.slow_load,
            h.slow_store,
            h.ibtc,
            h.bl_routine,
        ]
    }

    /// A representative arena exercising every lowering family: ALU
    /// (including div and compares), loads/stores (int + float, spec),
    /// FP arithmetic and conversions, branches in and out of the
    /// fragment, profiling, transactions and the IBTC.
    fn sample_arena() -> Vec<HInsn> {
        vec![
            HInsn::Chkpt,
            HInsn::Li16 { rd: HReg(1), imm: 100 },
            HInsn::Li16 { rd: HReg(2), imm: 7 },
            HInsn::Alu { op: HAluOp::Add, rd: HReg(3), ra: HReg(1), rb: HReg(2) },
            HInsn::AluI { op: HAluOp::Shl, rd: HReg(4), ra: HReg(3), imm: 2 },
            HInsn::Alu { op: HAluOp::Div, rd: HReg(5), ra: HReg(1), rb: HReg(2) },
            HInsn::Alu { op: HAluOp::SltU, rd: HReg(6), ra: HReg(5), rb: HReg(1) },
            HInsn::Alu { op: HAluOp::MulHS, rd: HReg(7), ra: HReg(1), rb: HReg(2) },
            HInsn::Load {
                rd: HReg(8),
                base: HReg(1),
                off: 4,
                width: Width::D,
                sign: false,
                spec: true,
                seq: 1,
            },
            HInsn::Store { rs: HReg(8), base: HReg(1), off: 8, width: Width::W, spec: false, seq: 2 },
            HInsn::LoadF { fd: HFreg(0), base: HReg(1), off: 16, spec: false, seq: 3 },
            HInsn::FAlu { op: FAluOp::Mul, fd: HFreg(1), fa: HFreg(0), fb: HFreg(0) },
            HInsn::FAlu { op: FAluOp::Min, fd: HFreg(2), fa: HFreg(1), fb: HFreg(0) },
            HInsn::CvtFI { rd: HReg(9), fa: HFreg(2) },
            HInsn::CvtIF { fd: HFreg(3), ra: HReg(9) },
            HInsn::StoreF { fs: HFreg(3), base: HReg(1), off: 24, spec: false, seq: 4 },
            HInsn::AssertNz { rs: HReg(1) },
            HInsn::Gcnt { n: 12, sb: true },
            HInsn::Count { idx: 3 },
            HInsn::Bz { rs: HReg(6), rel: 2 },
            HInsn::Commit,
            HInsn::TolExit { id: 1 },
            HInsn::IbtcJmp { rs: HReg(8), id: 2 },
        ]
    }

    #[test]
    fn real_fragment_verifies_clean() {
        let h = fake_helpers();
        let arena = sample_arena();
        let out = compile_fragment(&arena, 0, 0, &h);
        let findings = check_fragment(&out.bytes, &helper_list(&h));
        assert!(
            findings.is_empty(),
            "legitimate fragment flagged:\n{}",
            findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
        );
    }

    #[test]
    fn planted_r15_clobber_is_flagged() {
        let h = fake_helpers();
        let arena = sample_arena();
        let mut out = compile_fragment(&arena, 0, 0, &h);
        // `mov r15, r15`: a runtime no-op, but a forbidden write — the
        // exact mutation `plant_clobber` injects.
        out.bytes.extend_from_slice(&[0x4D, 0x89, 0xFF]);
        let findings = check_fragment(&out.bytes, &helper_list(&h));
        assert!(
            findings.iter().any(|f| f.kind == CheckKind::RegDiscipline),
            "clobber not caught: {:?}",
            findings.iter().map(|f| f.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn corrupted_byte_is_a_decode_finding() {
        let h = fake_helpers();
        let arena = sample_arena();
        let mut out = compile_fragment(&arena, 0, 0, &h);
        out.bytes[0] = 0x06; // not an opcode the emitter produces
        let findings = check_fragment(&out.bytes, &helper_list(&h));
        assert!(findings.iter().any(|f| f.kind == CheckKind::Decode));
    }

    #[test]
    fn unproven_pointer_and_ctx_oob_are_flagged() {
        let mut a = Asm::new();
        a.mov_r32_mem(RAX, RCX, 0); // rcx: never established
        a.mov_r32_mem(RAX, R15, std::mem::size_of::<HostState>() as i32); // past the ctx
        a.ret();
        let findings = check_fragment(&a.finish(), &[]);
        assert!(findings.iter().any(|f| f.kind == CheckKind::MemDiscipline));
        assert!(findings.iter().any(|f| f.kind == CheckKind::CtxBounds));
    }

    #[test]
    fn rogue_call_and_bad_branch_are_flagged() {
        let mut a = Asm::new();
        a.mov_r64_imm(RAX, 0xDEAD_BEEF); // not a registered helper
        a.call_r(RAX);
        a.jmp_rel(1); // lands inside the next instruction's immediate
        a.mov_r64_imm(RCX, 0);
        a.ret();
        let findings = check_fragment(&a.finish(), &[0x1000]);
        assert!(findings.iter().any(|f| f.kind == CheckKind::HelperCall));
        assert!(findings.iter().any(|f| f.kind == CheckKind::BranchTarget));
    }

    #[test]
    fn tlb_fast_path_without_bounds_guard_is_flagged() {
        // A page-pointer deref whose in-page offset was never compared
        // against 4096-len must not verify.
        let mut a = Asm::new();
        a.mov_r64_mem(RCX, R15, O_TLB + 8); // page data pointer
        a.mov_r32_mem(RAX, RSI, 0); // rsi unproven — and unbounded
        a.alu_rr64(Alu::Add, RCX, RSI);
        a.ret();
        let findings = check_fragment(&a.finish(), &[]);
        assert!(findings.iter().any(|f| f.kind == CheckKind::MemDiscipline));
    }

    // ---- decoder round-trip property test ----

    /// Re-emits a decoded instruction stream through `Asm`; bytes must
    /// come back identical (labels are re-bound at the decoded branch
    /// targets).
    fn reemit(decoded: &[Decoded], total_len: usize) -> Vec<u8> {
        let mut a = Asm::new();
        let mut labels: BTreeMap<usize, Lab> = BTreeMap::new();
        for d in decoded {
            if let Op::Jcc { rel, .. } = d.op {
                let t = (d.off as i64 + d.len as i64 + i64::from(rel)) as usize;
                labels.entry(t).or_insert_with(|| a.new_label());
            }
        }
        for d in decoded {
            if let Some(&l) = labels.get(&d.off) {
                a.bind(l);
            }
            assert_eq!(a.pos(), d.off, "re-emission drifted at {:?}", d.op);
            match d.op {
                Op::MovLoad { w: false, dst, base, disp } => a.mov_r32_mem(dst, base, disp),
                Op::MovLoad { w: true, dst, base, disp } => a.mov_r64_mem(dst, base, disp),
                Op::MovStore { w: false, base, disp, src } => a.mov_mem_r32(base, disp, src),
                Op::MovStore { w: true, base, disp, src } => a.mov_mem_r64(base, disp, src),
                Op::MovRR { w: false, dst, src } => a.mov_rr32(dst, src),
                Op::MovRR { w: true, dst, src } => a.mov_rr64(dst, src),
                Op::MovImm32 { dst, imm } => a.mov_r32_imm(dst, imm),
                Op::MovImm64 { dst, imm } => a.mov_r64_imm(dst, imm),
                Op::MovMemImm { size: 1, base, disp, imm } => a.mov_mem8_imm(base, disp, imm as u8),
                Op::MovMemImm { size: 2, base, disp, imm } => {
                    a.mov_mem16_imm(base, disp, imm as u16)
                }
                Op::MovMemImm { size: 4, base, disp, imm } => a.mov_mem32_imm(base, disp, imm),
                Op::MovMemImm { size: _, base, disp, imm } => {
                    a.mov_mem64_imm(base, disp, imm as i32)
                }
                Op::Movx { sign, width, dst, rm } => match (sign, width == 8, rm) {
                    (false, true, Rm::Mem { base, disp }) => a.movzx8_mem(dst, base, disp),
                    (false, false, Rm::Mem { base, disp }) => a.movzx16_mem(dst, base, disp),
                    (true, true, Rm::Mem { base, disp }) => a.movsx8_mem(dst, base, disp),
                    (true, false, Rm::Mem { base, disp }) => a.movsx16_mem(dst, base, disp),
                    (false, true, Rm::Reg(src)) => a.movzx8_rr(dst, src),
                    (false, false, Rm::Reg(src)) => a.movzx16_rr(dst, src),
                    (true, true, Rm::Reg(src)) => a.movsx8_rr(dst, src),
                    (true, false, Rm::Reg(src)) => a.movsx16_rr(dst, src),
                },
                Op::Movsxd { dst, src } => a.movsxd(dst, src),
                Op::AluRR { w: false, op, dst, src } => a.alu_rr32(op, dst, src),
                Op::AluRR { w: true, op, dst, src } => a.alu_rr64(op, dst, src),
                Op::AluLoad { op, dst, base, disp } => a.alu_r32_mem(op, dst, base, disp),
                Op::AluImm { w: false, op, dst, imm } => a.alu_r32_imm(op, dst, imm),
                Op::AluImm { w: true, op, dst, imm } => a.alu_r64_imm(op, dst, imm as i32),
                Op::AluMemImm { w: false, op, base, disp, imm } => {
                    a.alu_mem32_imm(op, base, disp, imm)
                }
                Op::AluMemImm { w: true, op, base, disp, imm } => {
                    a.alu_mem64_imm(op, base, disp, imm as i32)
                }
                Op::AluMemR { op, base, disp, src } => a.alu_mem64_r(op, base, disp, src),
                Op::Rol64Cl { r } => a.rol64_cl(r),
                Op::TestMemR { base, disp, src } => a.test_mem64_r(base, disp, src),
                Op::TestRR { a: x, b } => a.test_rr32(x, b),
                Op::ImulRR { w: false, dst, src } => a.imul_rr32(dst, src),
                Op::ImulRR { w: true, dst, src } => a.imul_rr64(dst, src),
                Op::Cdq => a.cdq(),
                Op::Idiv { r } => a.idiv_r32(r),
                Op::Neg { r } => a.neg_r32(r),
                Op::ShiftCl { ext, r } => a.shift_cl(ext, r),
                Op::Shr64Imm { r, imm } => a.shr_r64_imm(r, imm),
                Op::ShiftImm { ext, r, imm } => a.shift_r32_imm(ext, r, imm),
                Op::Setcc { cc, r } => a.setcc(cc, r),
                Op::IncMem64 { base, disp } => a.inc_mem64(base, disp),
                Op::Lea { w: false, dst, base, disp } => a.lea_r32(dst, base, disp),
                Op::Lea { w: true, dst, base, disp } => a.lea_r64(dst, base, disp),
                Op::CallR { r } => a.call_r(r),
                Op::Ret => a.ret(),
                Op::Jmp { rel } => {
                    a.jmp_rel(rel);
                }
                Op::Jcc { cc, rel } => {
                    let t = (d.off as i64 + d.len as i64 + i64::from(rel)) as usize;
                    a.jcc(cc, labels[&t]);
                }
                Op::Ud2 => a.ud2(),
                Op::MovsdLoad { dst, base, disp } => a.movsd_x_mem(dst, base, disp),
                Op::MovsdStore { base, disp, src } => a.movsd_mem_x(base, disp, src),
                Op::MovapdXX { dst, src } => a.movapd_xx(dst, src),
                Op::SseArith { opcode, dst, src } => a.sse_arith(opcode, dst, src),
                Op::Ucomisd { a: x, b } => a.ucomisd(x, b),
                Op::Andpd { dst, src } => a.andpd(dst, src),
                Op::Xorpd { dst, src } => a.xorpd(dst, src),
                Op::MovqXR { dst, src } => a.movq_x_r(dst, src),
                Op::MovqRX { dst, src } => a.movq_r_x(dst, src),
                Op::Cvttsd2si { dst, src } => a.cvttsd2si(dst, src),
                Op::Cvtsi2sd { dst, src } => a.cvtsi2sd(dst, src),
            }
        }
        for (&t, &l) in &labels {
            if t == total_len {
                a.bind(l);
            }
        }
        a.finish()
    }

    /// Emits one random instruction through every emitter method family.
    fn random_insn(a: &mut Asm, rng: &mut SmallRng, backward: &[usize]) {
        let r = |rng: &mut SmallRng| rng.gen_range(0u8..16);
        // Avoid rsp as a base only because the emitter itself never uses
        // it with an index-free SIB in a way the decoder rejects; every
        // other register, including r12/r13, exercises the SIB/disp
        // special cases.
        let base = |rng: &mut SmallRng| *[0u8, 1, 3, 5, 6, 7, 12, 13, 15].get(rng.gen_range(0usize..9)).unwrap();
        let xmm = |rng: &mut SmallRng| rng.gen_range(0u8..2);
        let disp = |rng: &mut SmallRng| rng.gen_range(-4096i32..4096);
        let alu = |rng: &mut SmallRng| {
            [Alu::Add, Alu::Sub, Alu::And, Alu::Or, Alu::Xor, Alu::Cmp][rng.gen_range(0usize..6)]
        };
        let cc = |rng: &mut SmallRng| {
            [0x2u8, 0x3, 0x4, 0x5, 0x6, 0x7, 0xA, 0xB, 0xC, 0xD, 0xE, 0xF][rng.gen_range(0usize..12)]
        };
        match rng.gen_range(0u32..40) {
            0 => a.mov_r32_mem(r(rng), base(rng), disp(rng)),
            1 => a.mov_mem_r32(base(rng), disp(rng), r(rng)),
            2 => a.mov_r64_mem(r(rng), base(rng), disp(rng)),
            3 => a.mov_mem_r64(base(rng), disp(rng), r(rng)),
            4 => a.mov_rr32(r(rng), r(rng)),
            5 => a.mov_rr64(r(rng), r(rng)),
            6 => a.mov_r32_imm(r(rng), rng.gen()),
            7 => a.mov_r64_imm(r(rng), rng.gen()),
            8 => a.mov_mem32_imm(base(rng), disp(rng), rng.gen()),
            9 => a.mov_mem64_imm(base(rng), disp(rng), rng.gen::<i32>()),
            10 => a.mov_mem16_imm(base(rng), disp(rng), rng.gen()),
            11 => a.mov_mem8_imm(base(rng), disp(rng), rng.gen()),
            12 => match rng.gen_range(0u32..4) {
                0 => a.movzx8_mem(r(rng), base(rng), disp(rng)),
                1 => a.movzx16_mem(r(rng), base(rng), disp(rng)),
                2 => a.movsx8_mem(r(rng), base(rng), disp(rng)),
                _ => a.movsx16_mem(r(rng), base(rng), disp(rng)),
            },
            13 => match rng.gen_range(0u32..4) {
                0 => a.movzx8_rr(r(rng), r(rng)),
                1 => a.movzx16_rr(r(rng), r(rng)),
                2 => a.movsx8_rr(r(rng), r(rng)),
                _ => a.movsx16_rr(r(rng), r(rng)),
            },
            14 => a.movsxd(r(rng), r(rng)),
            15 => a.alu_rr32(alu(rng), r(rng), r(rng)),
            16 => a.alu_rr64(alu(rng), r(rng), r(rng)),
            17 => a.alu_r32_mem(alu(rng), r(rng), base(rng), disp(rng)),
            18 => a.alu_r32_imm(alu(rng), r(rng), rng.gen()),
            19 => a.alu_r64_imm(alu(rng), r(rng), rng.gen::<i32>()),
            20 => a.alu_mem32_imm(alu(rng), base(rng), disp(rng), rng.gen()),
            21 => a.alu_mem64_imm(alu(rng), base(rng), disp(rng), rng.gen::<i32>()),
            22 => a.alu_mem64_r(alu(rng), base(rng), disp(rng), r(rng)),
            23 => a.rol64_cl(r(rng)),
            24 => a.test_mem64_r(base(rng), disp(rng), r(rng)),
            25 => a.test_rr32(r(rng), r(rng)),
            26 => {
                if rng.gen_bool(0.5) {
                    a.imul_rr32(r(rng), r(rng))
                } else {
                    a.imul_rr64(r(rng), r(rng))
                }
            }
            27 => {
                a.cdq();
                a.idiv_r32(r(rng));
                a.neg_r32(r(rng));
            }
            28 => a.shift_cl([4u8, 5, 7][rng.gen_range(0usize..3)], r(rng)),
            29 => a.shr_r64_imm(r(rng), rng.gen_range(0u8..64)),
            30 => a.shift_r32_imm([4u8, 5, 7][rng.gen_range(0usize..3)], r(rng), rng.gen_range(0u8..32)),
            31 => a.setcc(cc(rng), r(rng)),
            32 => a.inc_mem64(base(rng), disp(rng)),
            33 => {
                if rng.gen_bool(0.5) {
                    a.lea_r32(r(rng), base(rng), disp(rng))
                } else {
                    a.lea_r64(r(rng), base(rng), disp(rng))
                }
            }
            34 => a.call_r(r(rng)),
            35 => match rng.gen_range(0u32..5) {
                0 => a.movsd_x_mem(xmm(rng), base(rng), disp(rng)),
                1 => a.movsd_mem_x(base(rng), disp(rng), xmm(rng)),
                2 => a.movapd_xx(xmm(rng), xmm(rng)),
                3 => a.sse_arith([0x51u8, 0x58, 0x59, 0x5C, 0x5E][rng.gen_range(0usize..5)], xmm(rng), xmm(rng)),
                _ => a.ucomisd(xmm(rng), xmm(rng)),
            },
            36 => match rng.gen_range(0u32..6) {
                0 => a.andpd(xmm(rng), xmm(rng)),
                1 => a.xorpd(xmm(rng), xmm(rng)),
                2 => a.movq_x_r(xmm(rng), r(rng)),
                3 => a.movq_r_x(r(rng), xmm(rng)),
                4 => a.cvttsd2si(r(rng), xmm(rng)),
                _ => a.cvtsi2sd(xmm(rng), r(rng)),
            },
            37 => {
                a.ud2();
            }
            38 => {
                // Backward jcc to a previously recorded boundary.
                if let Some(&t) = backward.get(rng.gen_range(0usize..backward.len().max(1))) {
                    let l = a.new_label();
                    let here = a.pos();
                    a.jcc(cc(rng), l);
                    // Bind by emitting the label at the recorded offset
                    // is impossible after the fact; instead jump forward
                    // to the next instruction when no backward target.
                    let _ = (t, here);
                    a.bind(l);
                } else {
                    a.ud2();
                }
            }
            _ => {
                // Forward jmp over one filler instruction, plus a jcc to
                // the same place — covers both rel32 encoders.
                let l = a.new_label();
                a.jmp(l);
                a.mov_r32_imm(r(rng), rng.gen());
                a.bind(l);
                let l2 = a.new_label();
                a.jcc(cc(rng), l2);
                a.bind(l2);
            }
        }
    }

    #[test]
    fn emit_decode_reemit_is_byte_identical() {
        for seed in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(0xC0DE_C0DE ^ seed);
            let mut a = Asm::new();
            let n = rng.gen_range(4usize..40);
            for _ in 0..n {
                random_insn(&mut a, &mut rng, &[]);
            }
            a.ret();
            let bytes = a.finish();
            let decoded = decode_all(&bytes)
                .unwrap_or_else(|(off, e)| panic!("seed {seed}: decode failed at +{off}: {e}"));
            let back = reemit(&decoded, bytes.len());
            assert_eq!(back, bytes, "seed {seed}: re-emission differs");
        }
    }

    #[test]
    fn real_fragment_decodes_and_reemits_byte_identical() {
        let h = fake_helpers();
        let arena = sample_arena();
        let out = compile_fragment(&arena, 0, 0, &h);
        let decoded = decode_all(&out.bytes)
            .unwrap_or_else(|(off, e)| panic!("decode failed at +{off}: {e}"));
        let back = reemit(&decoded, out.bytes.len());
        assert_eq!(back, out.bytes);
    }

    #[test]
    fn decoder_reports_offset_of_bad_byte() {
        let mut a = Asm::new();
        a.mov_r32_imm(RAX, 5);
        let mut bytes = a.finish();
        let at = bytes.len();
        bytes.push(0x06);
        assert_eq!(decode_all(&bytes).unwrap_err().0, at);
    }

    #[test]
    fn store_append_pattern_verifies_through_bound_refinement() {
        use super::super::exec::{O_STORE_BUF, O_STORE_LEN};
        use crate::state::STORE_CAP;
        let mut a = Asm::new();
        let slow = a.new_label();
        a.alu_mem32_imm(Alu::Cmp, R15, O_STORE_LEN, STORE_CAP as u32);
        a.jcc(CC_AE, slow);
        a.mov_r32_mem(RCX, R15, O_STORE_LEN);
        a.shift_r32_imm(4, RCX, 4);
        a.lea_r64(RCX, RCX, O_STORE_BUF);
        a.alu_rr64(Alu::Add, RCX, R15);
        a.mov_mem16_imm(RCX, 0, 7);
        a.mov_mem_r64(RCX, 8, R8);
        a.bind(slow);
        a.ret();
        let findings = check_fragment(&a.finish(), &[]);
        assert!(
            findings.is_empty(),
            "bounded buffer append flagged: {:?}",
            findings.iter().map(|f| f.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unguarded_buffer_index_is_flagged() {
        use super::super::exec::{O_STORE_BUF, O_STORE_LEN};
        // Same pattern minus the capacity guard: the index is unbounded,
        // so the slot store cannot be proven inside the context.
        let mut a = Asm::new();
        a.mov_r32_mem(RCX, R15, O_STORE_LEN);
        a.shift_r32_imm(4, RCX, 4);
        a.lea_r64(RCX, RCX, O_STORE_BUF);
        a.alu_rr64(Alu::Add, RCX, R15);
        a.mov_mem_r64(RCX, 8, R8);
        a.ret();
        let findings = check_fragment(&a.finish(), &[]);
        assert!(findings.iter().any(|f| f.kind == CheckKind::CtxBounds));
    }

    #[test]
    fn helper_call_shape_is_accepted() {
        let mut a = Asm::new();
        a.mov_rr64(RDI, R15);
        a.mov_r32_imm(RSI, 42);
        a.mov_r64_imm(RAX, 0x1000);
        a.call_r(RAX);
        a.ret();
        let findings = check_fragment(&a.finish(), &[0x1000]);
        assert!(findings.is_empty());
    }

    #[test]
    fn decode_covers_sse_and_fp_paths() {
        let mut a = Asm::new();
        a.movsd_x_mem(XMM0, R15, 256);
        a.movsd_x_mem(XMM1, R12, 8);
        a.sse_arith(0x58, XMM0, XMM1);
        a.ucomisd(XMM0, XMM1);
        a.setcc(CC_E, RSI); // forced-REX setcc on sil
        a.setcc(CC_NE, RAX);
        a.movq_x_r(XMM1, R8);
        a.movq_r_x(RCX, XMM0);
        a.cvttsd2si(RAX, XMM0);
        a.cvtsi2sd(XMM1, RCX);
        a.movsd_mem_x(R15, 264, XMM0);
        a.ret();
        let bytes = a.finish();
        let decoded = decode_all(&bytes).expect("decodes");
        assert_eq!(reemit(&decoded, bytes.len()), bytes);
    }
}
