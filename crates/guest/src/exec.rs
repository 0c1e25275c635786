//! The guest architectural executor — GISA's semantic specification.
//!
//! [`step`] fetches, decodes and executes exactly one instruction.
//! Both the authoritative component (`darco-xcomp`) and the TOL
//! interpreter (`darco-tol`) are built on this function, and the
//! translator's output is validated against it, so this module is the
//! single source of truth for instruction semantics.
//!
//! Two properties are load-bearing for the rest of the system:
//!
//! 1. **Fault atomicity** — a step that returns a [`Fault`] leaves the
//!    architectural state completely unchanged, so the instruction can be
//!    re-executed after the controller installs the missing page.
//! 2. **`REP` restartability** — repeated string instructions execute one
//!    element per step, updating `ECX`/`ESI`/`EDI` as they go and leaving
//!    `EIP` in place ([`Next::RepContinue`]), exactly like x86's
//!    interruptible `REP MOVS`.

use crate::encode::{decode, DecodeError, MAX_INSN_LEN};
use crate::insn::{AluOp, FBinOp, FUnOp, Insn, RepCond, ShiftAmount, ShiftOp, UnaryOp};
use crate::mem::{GuestMem, PageFault};
use crate::reg::{Addr, Flags, Gpr, Width};
use crate::softfp;
use crate::state::GuestState;
use std::fmt;

/// Control-flow outcome of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Fall through to the next sequential instruction.
    Seq,
    /// Transfer to an explicit target (taken branch, call, return).
    Jump(u32),
    /// A `REP` string instruction performed one element and must re-execute.
    RepContinue,
    /// A system call; `EIP` has been advanced past the instruction.
    Syscall,
    /// The program halted.
    Halt,
}

/// Execution fault. Faults are precise: state is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Memory access touched an unmapped page.
    Page(PageFault),
    /// Integer division by zero.
    DivByZero { pc: u32 },
    /// Undecodable instruction bytes.
    BadOpcode { pc: u32 },
}

impl From<PageFault> for Fault {
    fn from(pf: PageFault) -> Fault {
        Fault::Page(pf)
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Page(pf) => write!(
                f,
                "page fault ({}) at {:#010x}",
                if pf.write { "write" } else { "read" },
                pf.addr
            ),
            Fault::DivByZero { pc } => write!(f, "division by zero at {pc:#010x}"),
            Fault::BadOpcode { pc } => write!(f, "bad opcode at {pc:#010x}"),
        }
    }
}

impl std::error::Error for Fault {}

/// Result of one successful [`step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepInfo {
    /// Address of the executed instruction.
    pub pc: u32,
    /// Its encoded length.
    pub len: u32,
    /// The executed instruction.
    pub insn: Insn,
    /// Control-flow outcome.
    pub next: Next,
}

/// Fetches and decodes the instruction at `pc`.
///
/// # Errors
/// - [`Fault::Page`] if the instruction bytes touch an unmapped page;
/// - [`Fault::BadOpcode`] if the bytes are not a valid instruction.
pub fn fetch(mem: &GuestMem, pc: u32) -> Result<(Insn, u32), Fault> {
    // Fast path: decode straight out of the page the PC lives in. This
    // succeeds unless the instruction straddles a page boundary.
    if let Some(tail) = mem.page_tail(pc) {
        if tail.len() >= MAX_INSN_LEN {
            return match decode(&tail[..MAX_INSN_LEN]) {
                Ok((insn, len)) => Ok((insn, len as u32)),
                Err(_) => Err(Fault::BadOpcode { pc }),
            };
        }
        if let Ok((insn, len)) = decode(tail) {
            return Ok((insn, len as u32));
        }
    }
    // Slow path: byte-at-a-time across the page boundary (or faulting).
    let mut buf = [0u8; MAX_INSN_LEN];
    let mut available = 0;
    let mut fault: Option<PageFault> = None;
    for (i, slot) in buf.iter_mut().enumerate() {
        match mem.read_u8(pc.wrapping_add(i as u32)) {
            Ok(b) => {
                *slot = b;
                available = i + 1;
            }
            Err(pf) => {
                fault = Some(pf);
                break;
            }
        }
    }
    match decode(&buf[..available]) {
        Ok((insn, len)) => Ok((insn, len as u32)),
        Err(DecodeError::UnexpectedEnd) => match fault {
            Some(pf) => Err(Fault::Page(pf)),
            None => Err(Fault::BadOpcode { pc }),
        },
        Err(DecodeError::BadOpcode(_)) => Err(Fault::BadOpcode { pc }),
    }
}

/// Executes one instruction: fetch, decode, execute, advance `EIP`.
///
/// # Errors
/// Propagates [`Fault`]s; the state is unchanged on fault.
pub fn step(st: &mut GuestState) -> Result<StepInfo, Fault> {
    let pc = st.eip;
    let (insn, len) = fetch(&st.mem, pc)?;
    let next = exec_insn(st, &insn, pc, len)?;
    st.eip = match next {
        Next::Seq | Next::Syscall | Next::Halt => pc.wrapping_add(len),
        Next::Jump(t) => t,
        Next::RepContinue => pc,
    };
    Ok(StepInfo { pc, len, insn, next })
}

/// Computes the effective address of a memory operand.
#[inline]
pub fn effective_addr(st: &GuestState, a: &Addr) -> u32 {
    let mut ea = a.disp as u32;
    if let Some(b) = a.base {
        ea = ea.wrapping_add(st.gpr(b));
    }
    if let Some(i) = a.index {
        ea = ea.wrapping_add(st.gpr(i) << a.scale.shift());
    }
    ea
}

/// Evaluates a two-operand ALU operation, updating `fl` exactly as the
/// architecture specifies, and returns the result.
///
/// Exposed so that optimizer tests can cross-check constant folding.
#[inline]
pub fn eval_alu(op: AluOp, a: u32, b: u32, fl: &mut Flags) -> u32 {
    let cin = fl.cf as u32;
    let (r, cf, of) = match op {
        AluOp::Add => {
            let (r, c) = a.overflowing_add(b);
            let of = ((a ^ r) & (b ^ r)) >> 31 != 0;
            (r, c, of)
        }
        AluOp::Adc => {
            let (r1, c1) = a.overflowing_add(b);
            let (r, c2) = r1.overflowing_add(cin);
            let of = ((a ^ r) & (b ^ r)) >> 31 != 0;
            (r, c1 || c2, of)
        }
        AluOp::Sub => {
            let r = a.wrapping_sub(b);
            let of = ((a ^ b) & (a ^ r)) >> 31 != 0;
            (r, a < b, of)
        }
        AluOp::Sbb => {
            let r = a.wrapping_sub(b).wrapping_sub(cin);
            let cf = (a as u64) < (b as u64) + (cin as u64);
            let of = ((a ^ b) & (a ^ r)) >> 31 != 0;
            (r, cf, of)
        }
        AluOp::And => (a & b, false, false),
        AluOp::Or => (a | b, false, false),
        AluOp::Xor => (a ^ b, false, false),
    };
    fl.cf = cf;
    fl.of = of;
    fl.set_result(r);
    r
}

/// Evaluates a unary ALU operation with its architectural flag behaviour.
pub fn eval_unary(op: UnaryOp, a: u32, fl: &mut Flags) -> u32 {
    match op {
        UnaryOp::Inc => {
            let r = a.wrapping_add(1);
            fl.of = a == 0x7FFF_FFFF;
            fl.set_result(r); // CF preserved (x86 quirk)
            r
        }
        UnaryOp::Dec => {
            let r = a.wrapping_sub(1);
            fl.of = a == 0x8000_0000;
            fl.set_result(r);
            r
        }
        UnaryOp::Not => !a, // no flags
        UnaryOp::Neg => {
            let r = 0u32.wrapping_sub(a);
            fl.cf = a != 0;
            fl.of = a == 0x8000_0000;
            fl.set_result(r);
            r
        }
    }
}

/// Evaluates a shift/rotate with its architectural flag behaviour.
pub fn eval_shift(op: ShiftOp, a: u32, amount: u32, fl: &mut Flags) -> u32 {
    let amt = amount & 31;
    if amt == 0 {
        return a; // no result change, no flag change
    }
    match op {
        ShiftOp::Shl => {
            let r = a << amt;
            fl.cf = (a >> (32 - amt)) & 1 != 0;
            fl.of = false;
            fl.set_result(r);
            r
        }
        ShiftOp::Shr => {
            let r = a >> amt;
            fl.cf = (a >> (amt - 1)) & 1 != 0;
            fl.of = false;
            fl.set_result(r);
            r
        }
        ShiftOp::Sar => {
            let r = ((a as i32) >> amt) as u32;
            fl.cf = (a >> (amt - 1)) & 1 != 0;
            fl.of = false;
            fl.set_result(r);
            r
        }
        ShiftOp::Rol => {
            let r = a.rotate_left(amt);
            fl.cf = r & 1 != 0;
            fl.of = false;
            r // ZF/SF/PF unchanged
        }
        ShiftOp::Ror => {
            let r = a.rotate_right(amt);
            fl.cf = r >> 31 != 0;
            fl.of = false;
            r
        }
    }
}

/// Evaluates a signed multiply with architectural flag behaviour.
pub fn eval_imul(a: u32, b: u32, fl: &mut Flags) -> u32 {
    let full = (a as i32 as i64) * (b as i32 as i64);
    let r = full as u32;
    let ovf = full != (r as i32 as i64);
    fl.cf = ovf;
    fl.of = ovf;
    fl.set_result(r);
    r
}

/// Architectural signed division (quotient). `i32::MIN / -1` wraps.
#[inline]
pub fn eval_idiv(a: u32, b: u32) -> u32 {
    (a as i32).wrapping_div(b as i32) as u32
}

/// Architectural signed remainder. `i32::MIN % -1` is 0.
#[inline]
pub fn eval_irem(a: u32, b: u32) -> u32 {
    (a as i32).wrapping_rem(b as i32) as u32
}

/// Evaluates an FP binary operation.
///
/// A NaN operand propagates as on x86 SSE: the result is `a` if it is a
/// NaN, else `b`, made quiet. Rust leaves the NaN a `+` returns open, and
/// the compiler may commute the operands differently in each copy it
/// inlines, so the rule is applied explicitly; every copy of this
/// function then returns the same bits.
#[inline]
pub fn eval_fbin(op: FBinOp, a: f64, b: f64) -> f64 {
    let arith = |r: f64| {
        if !r.is_nan() || !(a.is_nan() || b.is_nan()) {
            return r;
        }
        let nan = if a.is_nan() { a } else { b };
        f64::from_bits(nan.to_bits() | 1 << 51)
    };
    match op {
        FBinOp::Add => arith(a + b),
        FBinOp::Sub => arith(a - b),
        FBinOp::Mul => arith(a * b),
        FBinOp::Div => arith(a / b),
        // IEEE-style min/max that propagate the first operand on NaN ties
        // is messy; GISA defines: NaN in either operand yields NaN.
        FBinOp::Min => {
            if a.is_nan() || b.is_nan() {
                f64::NAN
            } else if a < b {
                a
            } else {
                b
            }
        }
        FBinOp::Max => {
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

/// Evaluates an FP unary operation (`sin`/`cos` follow [`softfp`]).
#[inline]
pub fn eval_funary(op: FUnOp, a: f64) -> f64 {
    match op {
        FUnOp::Sqrt => a.sqrt(),
        FUnOp::Abs => a.abs(),
        FUnOp::Neg => -a,
        FUnOp::Sin => softfp::sin_spec(a),
        FUnOp::Cos => softfp::cos_spec(a),
    }
}

/// Sets flags for `fcmp` (x86 `comisd` convention).
pub fn eval_fcmp(a: f64, b: f64, fl: &mut Flags) {
    if a.is_nan() || b.is_nan() {
        fl.zf = true;
        fl.cf = true;
        fl.pf = true;
    } else {
        fl.zf = a == b;
        fl.cf = a < b;
        fl.pf = false;
    }
    fl.sf = false;
    fl.of = false;
}

/// Executes a decoded instruction at `pc` with encoded length `len`.
///
/// On success, the caller updates `EIP` according to the returned [`Next`]
/// (as [`step`] does). On fault the state is unchanged.
///
/// # Errors
/// Returns [`Fault`] for unmapped memory, division by zero.
#[inline]
pub fn exec_insn(st: &mut GuestState, insn: &Insn, pc: u32, len: u32) -> Result<Next, Fault> {
    let fallthrough = pc.wrapping_add(len);
    match *insn {
        Insn::MovRR { dst, src } => st.set_gpr(dst, st.gpr(src)),
        Insn::MovRI { dst, imm } => st.set_gpr(dst, imm as u32),
        Insn::Load { dst, addr, width, sign } => {
            let ea = effective_addr(st, &addr);
            let v = st.mem.read_width(ea, width, sign)?;
            st.set_gpr(dst, v);
        }
        Insn::Store { addr, src, width } => {
            let ea = effective_addr(st, &addr);
            st.mem.write_width(ea, st.gpr(src), width)?;
        }
        Insn::StoreI { addr, imm, width } => {
            let ea = effective_addr(st, &addr);
            st.mem.write_width(ea, imm as u32, width)?;
        }
        Insn::Lea { dst, addr } => {
            let ea = effective_addr(st, &addr);
            st.set_gpr(dst, ea);
        }
        Insn::Xchg { a, b } => {
            let (va, vb) = (st.gpr(a), st.gpr(b));
            st.set_gpr(a, vb);
            st.set_gpr(b, va);
        }
        Insn::Cmov { cc, dst, src } => {
            if st.flags.cond(cc) {
                st.set_gpr(dst, st.gpr(src));
            }
        }
        Insn::Setcc { cc, dst } => {
            st.set_gpr(dst, st.flags.cond(cc) as u32);
        }
        Insn::Push { src } => {
            let sp = st.gpr(Gpr::Esp).wrapping_sub(4);
            st.mem.write_u32(sp, st.gpr(src))?;
            st.set_gpr(Gpr::Esp, sp);
        }
        Insn::PushI { imm } => {
            let sp = st.gpr(Gpr::Esp).wrapping_sub(4);
            st.mem.write_u32(sp, imm as u32)?;
            st.set_gpr(Gpr::Esp, sp);
        }
        Insn::Pop { dst } => {
            let sp = st.gpr(Gpr::Esp);
            let v = st.mem.read_u32(sp)?;
            st.set_gpr(Gpr::Esp, sp.wrapping_add(4));
            st.set_gpr(dst, v);
        }
        Insn::AluRR { op, dst, src } => {
            let r = eval_alu(op, st.gpr(dst), st.gpr(src), &mut st.flags);
            st.set_gpr(dst, r);
        }
        Insn::AluRI { op, dst, imm } => {
            let r = eval_alu(op, st.gpr(dst), imm as u32, &mut st.flags);
            st.set_gpr(dst, r);
        }
        Insn::AluRM { op, dst, addr } => {
            let ea = effective_addr(st, &addr);
            let m = st.mem.read_u32(ea)?;
            let r = eval_alu(op, st.gpr(dst), m, &mut st.flags);
            st.set_gpr(dst, r);
        }
        Insn::AluMR { op, addr, src } => {
            let ea = effective_addr(st, &addr);
            let m = st.mem.read_u32(ea)?;
            // The read probed the same bytes the write will touch, so the
            // write below cannot fault and flag updates are safe.
            let r = eval_alu(op, m, st.gpr(src), &mut st.flags);
            st.mem.write_u32(ea, r).expect("probed by read");
        }
        Insn::AluMI { op, addr, imm } => {
            let ea = effective_addr(st, &addr);
            let m = st.mem.read_u32(ea)?;
            let r = eval_alu(op, m, imm as u32, &mut st.flags);
            st.mem.write_u32(ea, r).expect("probed by read");
        }
        Insn::CmpRR { a, b } => {
            eval_alu(AluOp::Sub, st.gpr(a), st.gpr(b), &mut st.flags);
        }
        Insn::CmpRI { a, imm } => {
            eval_alu(AluOp::Sub, st.gpr(a), imm as u32, &mut st.flags);
        }
        Insn::CmpRM { a, addr } => {
            let ea = effective_addr(st, &addr);
            let m = st.mem.read_u32(ea)?;
            eval_alu(AluOp::Sub, st.gpr(a), m, &mut st.flags);
        }
        Insn::TestRR { a, b } => {
            eval_alu(AluOp::And, st.gpr(a), st.gpr(b), &mut st.flags);
        }
        Insn::TestRI { a, imm } => {
            eval_alu(AluOp::And, st.gpr(a), imm as u32, &mut st.flags);
        }
        Insn::Unary { op, dst } => {
            let r = eval_unary(op, st.gpr(dst), &mut st.flags);
            st.set_gpr(dst, r);
        }
        Insn::UnaryM { op, addr, width } => {
            let ea = effective_addr(st, &addr);
            let m = st.mem.read_width(ea, width, false)?;
            let r = eval_unary(op, m, &mut st.flags);
            st.mem.write_width(ea, r, width).expect("probed by read");
        }
        Insn::Shift { op, dst, amount } => {
            let amt = match amount {
                ShiftAmount::Imm(n) => n as u32,
                ShiftAmount::Cl => st.gpr(Gpr::Ecx),
            };
            let r = eval_shift(op, st.gpr(dst), amt, &mut st.flags);
            st.set_gpr(dst, r);
        }
        Insn::Imul { dst, src } => {
            let r = eval_imul(st.gpr(dst), st.gpr(src), &mut st.flags);
            st.set_gpr(dst, r);
        }
        Insn::ImulI { dst, src, imm } => {
            let r = eval_imul(st.gpr(src), imm as u32, &mut st.flags);
            st.set_gpr(dst, r);
        }
        Insn::Idiv { dst, src } => {
            let d = st.gpr(src);
            if d == 0 {
                return Err(Fault::DivByZero { pc });
            }
            st.set_gpr(dst, eval_idiv(st.gpr(dst), d));
        }
        Insn::Irem { dst, src } => {
            let d = st.gpr(src);
            if d == 0 {
                return Err(Fault::DivByZero { pc });
            }
            st.set_gpr(dst, eval_irem(st.gpr(dst), d));
        }
        Insn::Jmp { rel } => return Ok(Next::Jump(fallthrough.wrapping_add(rel as u32))),
        Insn::Jcc { cc, rel } => {
            if st.flags.cond(cc) {
                return Ok(Next::Jump(fallthrough.wrapping_add(rel as u32)));
            }
        }
        Insn::JmpInd { target } => return Ok(Next::Jump(st.gpr(target))),
        Insn::Call { rel } => {
            let sp = st.gpr(Gpr::Esp).wrapping_sub(4);
            st.mem.write_u32(sp, fallthrough)?;
            st.set_gpr(Gpr::Esp, sp);
            return Ok(Next::Jump(fallthrough.wrapping_add(rel as u32)));
        }
        Insn::CallInd { target } => {
            let t = st.gpr(target);
            let sp = st.gpr(Gpr::Esp).wrapping_sub(4);
            st.mem.write_u32(sp, fallthrough)?;
            st.set_gpr(Gpr::Esp, sp);
            return Ok(Next::Jump(t));
        }
        Insn::Ret => {
            let sp = st.gpr(Gpr::Esp);
            let t = st.mem.read_u32(sp)?;
            st.set_gpr(Gpr::Esp, sp.wrapping_add(4));
            return Ok(Next::Jump(t));
        }
        Insn::Movs { width, rep } => return exec_string(st, StringOp::Movs, width, rep_kind(rep)),
        Insn::Stos { width, rep } => return exec_string(st, StringOp::Stos, width, rep_kind(rep)),
        Insn::Lods { width, rep } => return exec_string(st, StringOp::Lods, width, rep_kind(rep)),
        Insn::Scas { width, rep } => {
            return exec_string(st, StringOp::Scas, width, rep_cond_kind(rep))
        }
        Insn::Cmps { width, rep } => {
            return exec_string(st, StringOp::Cmps, width, rep_cond_kind(rep))
        }
        Insn::Fld { dst, addr } => {
            let ea = effective_addr(st, &addr);
            let v = f64::from_bits(st.mem.read_u64(ea)?);
            st.set_fpr(dst, v);
        }
        Insn::Fst { addr, src } => {
            let ea = effective_addr(st, &addr);
            st.mem.write_u64(ea, st.fpr(src).to_bits())?;
        }
        Insn::FldI { dst, bits } => st.set_fpr(dst, f64::from_bits(bits)),
        Insn::FmovRR { dst, src } => st.set_fpr(dst, st.fpr(src)),
        Insn::Fbin { op, dst, src } => {
            let r = eval_fbin(op, st.fpr(dst), st.fpr(src));
            st.set_fpr(dst, r);
        }
        Insn::FbinM { op, dst, addr } => {
            let ea = effective_addr(st, &addr);
            let m = f64::from_bits(st.mem.read_u64(ea)?);
            let r = eval_fbin(op, st.fpr(dst), m);
            st.set_fpr(dst, r);
        }
        Insn::Funary { op, dst } => {
            let r = eval_funary(op, st.fpr(dst));
            st.set_fpr(dst, r);
        }
        Insn::Fcmp { a, b } => eval_fcmp(st.fpr(a), st.fpr(b), &mut st.flags),
        Insn::Cvtsi2f { dst, src } => st.set_fpr(dst, st.gpr(src) as i32 as f64),
        Insn::Cvtf2si { dst, src } => st.set_gpr(dst, st.fpr(src) as i32 as u32),
        Insn::Syscall => return Ok(Next::Syscall),
        Insn::Halt => return Ok(Next::Halt),
        Insn::Nop => {}
    }
    Ok(Next::Seq)
}

#[derive(Clone, Copy, PartialEq)]
enum StringOp {
    Movs,
    Stos,
    Lods,
    Scas,
    Cmps,
}

#[derive(Clone, Copy, PartialEq)]
enum RepKind {
    None,
    Plain,
    While(RepCond),
}

fn rep_kind(rep: bool) -> RepKind {
    if rep {
        RepKind::Plain
    } else {
        RepKind::None
    }
}

fn rep_cond_kind(rep: Option<RepCond>) -> RepKind {
    match rep {
        None => RepKind::None,
        Some(c) => RepKind::While(c),
    }
}

/// Executes one element of a string operation. With a `REP` prefix, `ECX`
/// is the element counter; pointers always advance upward (GISA has no
/// direction flag).
fn exec_string(st: &mut GuestState, op: StringOp, width: Width, rep: RepKind) -> Result<Next, Fault> {
    let w = width.bytes();
    if rep != RepKind::None && st.gpr(Gpr::Ecx) == 0 {
        return Ok(Next::Seq);
    }
    // Perform all memory accesses (and collect register updates) before
    // mutating anything, for fault atomicity.
    let esi = st.gpr(Gpr::Esi);
    let edi = st.gpr(Gpr::Edi);
    match op {
        StringOp::Movs => {
            let v = st.mem.read_width(esi, width, false)?;
            st.mem.write_width(edi, v, width)?;
            st.set_gpr(Gpr::Esi, esi.wrapping_add(w));
            st.set_gpr(Gpr::Edi, edi.wrapping_add(w));
        }
        StringOp::Stos => {
            st.mem.write_width(edi, st.gpr(Gpr::Eax), width)?;
            st.set_gpr(Gpr::Edi, edi.wrapping_add(w));
        }
        StringOp::Lods => {
            let v = st.mem.read_width(esi, width, false)?;
            st.set_gpr(Gpr::Esi, esi.wrapping_add(w));
            st.set_gpr(Gpr::Eax, v);
        }
        StringOp::Scas => {
            let m = st.mem.read_width(edi, width, false)?;
            let a = truncate(st.gpr(Gpr::Eax), width);
            eval_alu(AluOp::Sub, a, m, &mut st.flags);
            st.set_gpr(Gpr::Edi, edi.wrapping_add(w));
        }
        StringOp::Cmps => {
            let a = st.mem.read_width(esi, width, false)?;
            let b = st.mem.read_width(edi, width, false)?;
            eval_alu(AluOp::Sub, a, b, &mut st.flags);
            st.set_gpr(Gpr::Esi, esi.wrapping_add(w));
            st.set_gpr(Gpr::Edi, edi.wrapping_add(w));
        }
    }
    match rep {
        RepKind::None => Ok(Next::Seq),
        RepKind::Plain => {
            let ecx = st.gpr(Gpr::Ecx).wrapping_sub(1);
            st.set_gpr(Gpr::Ecx, ecx);
            Ok(if ecx != 0 { Next::RepContinue } else { Next::Seq })
        }
        RepKind::While(c) => {
            let ecx = st.gpr(Gpr::Ecx).wrapping_sub(1);
            st.set_gpr(Gpr::Ecx, ecx);
            let cont = match c {
                RepCond::Eq => st.flags.zf,
                RepCond::Ne => !st.flags.zf,
            };
            Ok(if ecx != 0 && cont { Next::RepContinue } else { Next::Seq })
        }
    }
}

fn truncate(v: u32, width: Width) -> u32 {
    match width {
        Width::B => v & 0xFF,
        Width::W => v & 0xFFFF,
        Width::D => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::program::DEFAULT_CODE_BASE;
    use crate::reg::{Cond, Fpr};

    fn run(build: impl FnOnce(&mut Asm)) -> GuestState {
        let mut a = Asm::new(DEFAULT_CODE_BASE);
        build(&mut a);
        a.halt();
        let p = a.into_program();
        let mut st = GuestState::boot(&p);
        for _ in 0..1_000_000 {
            match step(&mut st).unwrap().next {
                Next::Halt => return st,
                Next::Syscall => panic!("unexpected syscall"),
                _ => {}
            }
        }
        panic!("program did not halt");
    }

    #[test]
    fn arithmetic_and_flags() {
        let st = run(|a| {
            a.mov_ri(Gpr::Eax, i32::MAX);
            a.alu_ri(AluOp::Add, Gpr::Eax, 1); // overflow
        });
        assert_eq!(st.gpr(Gpr::Eax), 0x8000_0000);
        assert!(st.flags.of);
        assert!(!st.flags.cf);
        assert!(st.flags.sf);
    }

    #[test]
    fn adc_chains_carry() {
        let st = run(|a| {
            a.mov_ri(Gpr::Eax, -1);
            a.alu_ri(AluOp::Add, Gpr::Eax, 1); // CF=1, EAX=0
            a.mov_ri(Gpr::Ebx, 5);
            a.alu_ri(AluOp::Adc, Gpr::Ebx, 0); // EBX = 5 + 0 + CF
        });
        assert_eq!(st.gpr(Gpr::Ebx), 6);
    }

    #[test]
    fn inc_preserves_carry() {
        let st = run(|a| {
            a.mov_ri(Gpr::Eax, -1);
            a.alu_ri(AluOp::Add, Gpr::Eax, 1); // CF=1
            a.emit(Insn::Unary { op: UnaryOp::Inc, dst: Gpr::Eax });
            a.emit(Insn::Setcc { cc: Cond::B, dst: Gpr::Ecx }); // reads CF
        });
        assert_eq!(st.gpr(Gpr::Ecx), 1, "INC must not clobber CF");
    }

    #[test]
    fn push_pop_call_ret() {
        let st = run(|a| {
            a.mov_ri(Gpr::Ebx, 0x1234);
            a.push(Gpr::Ebx);
            a.pop(Gpr::Ecx);
            let f = a.label();
            let after = a.label();
            a.call_to(f);
            a.jmp_to(after); // skip over the function body
            a.bind(f);
            a.mov_ri(Gpr::Edx, 99);
            a.ret();
            a.bind(after);
        });
        assert_eq!(st.gpr(Gpr::Ecx), 0x1234);
        assert_eq!(st.gpr(Gpr::Edx), 99);
    }

    #[test]
    fn rep_movs_copies_and_is_restartable() {
        let mut a = Asm::new(DEFAULT_CODE_BASE);
        a.mov_ri(Gpr::Esi, 0x0040_0000);
        a.mov_ri(Gpr::Edi, 0x0040_0100);
        a.mov_ri(Gpr::Ecx, 8);
        a.emit(Insn::Movs { width: Width::D, rep: true });
        a.halt();
        let p = a.into_program().with_data((0u8..64).collect());
        let mut st = GuestState::boot(&p);
        let mut steps = 0;
        loop {
            let info = step(&mut st).unwrap();
            steps += 1;
            if info.next == Next::Halt {
                break;
            }
        }
        // 3 movs + 8 string elements + halt
        assert_eq!(steps, 3 + 8 + 1);
        for i in 0..32 {
            assert_eq!(
                st.mem.read_u8(0x0040_0100 + i).unwrap(),
                st.mem.read_u8(0x0040_0000 + i).unwrap()
            );
        }
        assert_eq!(st.gpr(Gpr::Ecx), 0);
    }

    #[test]
    fn repne_scas_finds_byte() {
        let mut a = Asm::new(DEFAULT_CODE_BASE);
        a.mov_ri(Gpr::Edi, 0x0040_0000);
        a.mov_ri(Gpr::Ecx, 100);
        a.mov_ri(Gpr::Eax, 7);
        a.emit(Insn::Scas { width: Width::B, rep: Some(RepCond::Ne) });
        a.halt();
        let mut data = vec![0u8; 64];
        data[13] = 7;
        let p = a.into_program().with_data(data);
        let mut st = GuestState::boot(&p);
        loop {
            if step(&mut st).unwrap().next == Next::Halt {
                break;
            }
        }
        assert_eq!(st.gpr(Gpr::Edi), 0x0040_0000 + 14, "EDI one past the match");
        assert!(st.flags.zf);
    }

    #[test]
    fn faults_preserve_state() {
        let mut a = Asm::new(DEFAULT_CODE_BASE);
        a.mov_ri(Gpr::Ebx, 0x7000_0000); // unmapped
        a.store(crate::reg::Addr::base(Gpr::Ebx), Gpr::Eax, Width::D);
        a.halt();
        let p = a.into_program();
        let mut st = GuestState::boot(&p);
        step(&mut st).unwrap();
        let before = st.clone();
        let err = step(&mut st).unwrap_err();
        assert!(matches!(err, Fault::Page(pf) if pf.write && pf.addr == 0x7000_0000));
        assert_eq!(st.first_reg_mismatch(&before, true), None);
        assert_eq!(st.eip, before.eip);
        // Install the page and re-execute: now it succeeds.
        st.mem.map_zero(0x7000_0000 >> 12);
        assert_eq!(step(&mut st).unwrap().next, Next::Seq);
    }

    #[test]
    fn div_by_zero_faults() {
        let mut a = Asm::new(DEFAULT_CODE_BASE);
        a.mov_ri(Gpr::Eax, 10);
        a.mov_ri(Gpr::Ebx, 0);
        a.emit(Insn::Idiv { dst: Gpr::Eax, src: Gpr::Ebx });
        let p = a.into_program();
        let mut st = GuestState::boot(&p);
        step(&mut st).unwrap();
        step(&mut st).unwrap();
        assert!(matches!(step(&mut st).unwrap_err(), Fault::DivByZero { .. }));
    }

    #[test]
    fn idiv_min_by_minus_one_wraps() {
        let st = run(|a| {
            a.mov_ri(Gpr::Eax, i32::MIN);
            a.mov_ri(Gpr::Ebx, -1);
            a.emit(Insn::Idiv { dst: Gpr::Eax, src: Gpr::Ebx });
        });
        assert_eq!(st.gpr(Gpr::Eax), i32::MIN as u32);
    }

    #[test]
    fn fp_ops_and_compare() {
        let st = run(|a| {
            a.fld_i(Fpr::new(0), 2.0);
            a.fld_i(Fpr::new(1), 3.0);
            a.emit(Insn::Fbin { op: FBinOp::Mul, dst: Fpr::new(0), src: Fpr::new(1) });
            a.emit(Insn::Funary { op: FUnOp::Sqrt, dst: Fpr::new(0) });
            a.emit(Insn::Fcmp { a: Fpr::new(0), b: Fpr::new(1) }); // sqrt(6) < 3
            a.emit(Insn::Setcc { cc: Cond::B, dst: Gpr::Eax });
        });
        assert_eq!(st.fpr(Fpr::new(0)), 6.0f64.sqrt());
        assert_eq!(st.gpr(Gpr::Eax), 1);
    }

    #[test]
    fn fbin_nan_propagation_follows_sse() {
        let pos = f64::from_bits(0x7FF4_0000_0000_57B0); // signalling
        let neg = f64::from_bits(0xFFFF_F840_0000_57B0);
        let quiet = |x: f64| x.to_bits() | 1 << 51;
        for op in [FBinOp::Add, FBinOp::Sub, FBinOp::Mul, FBinOp::Div] {
            let f = |a: f64, b: f64| eval_fbin(op, std::hint::black_box(a), std::hint::black_box(b)).to_bits();
            assert_eq!(f(pos, neg), quiet(pos), "{op:?}: the first NaN wins");
            assert_eq!(f(neg, pos), quiet(neg), "{op:?}");
            assert_eq!(f(1.5, pos), quiet(pos), "{op:?}: a NaN second operand");
            assert_eq!(f(neg, 1.5), quiet(neg), "{op:?}");
        }
        assert_eq!(eval_fbin(FBinOp::Add, 1.5, 2.0), 3.5);
    }

    #[test]
    fn sin_matches_spec() {
        let st = run(|a| {
            a.fld_i(Fpr::new(2), 1.25);
            a.emit(Insn::Funary { op: FUnOp::Sin, dst: Fpr::new(2) });
        });
        assert_eq!(st.fpr(Fpr::new(2)).to_bits(), softfp::sin_spec(1.25).to_bits());
    }

    #[test]
    fn shifts_by_zero_keep_flags() {
        let st = run(|a| {
            a.mov_ri(Gpr::Eax, -1);
            a.alu_ri(AluOp::Add, Gpr::Eax, 1); // CF=1, ZF=1
            a.emit(Insn::Shift { op: ShiftOp::Shl, dst: Gpr::Ebx, amount: ShiftAmount::Imm(0) });
            a.emit(Insn::Setcc { cc: Cond::B, dst: Gpr::Ecx });
            a.emit(Insn::Setcc { cc: Cond::E, dst: Gpr::Edx });
        });
        assert_eq!(st.gpr(Gpr::Ecx), 1);
        assert_eq!(st.gpr(Gpr::Edx), 1);
    }

    #[test]
    fn cmov_and_branches() {
        let st = run(|a| {
            a.mov_ri(Gpr::Eax, 5);
            a.cmp_ri(Gpr::Eax, 5);
            a.mov_ri(Gpr::Ebx, 111);
            a.mov_ri(Gpr::Ecx, 222);
            a.emit(Insn::Cmov { cc: Cond::E, dst: Gpr::Ebx, src: Gpr::Ecx });
            let skip = a.label();
            a.jcc_to(Cond::Ne, skip); // not taken
            a.mov_ri(Gpr::Edx, 1);
            a.bind(skip);
        });
        assert_eq!(st.gpr(Gpr::Ebx), 222);
        assert_eq!(st.gpr(Gpr::Edx), 1);
    }
}
