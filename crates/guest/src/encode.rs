//! Variable-length byte encoding of guest instructions.
//!
//! GISA instructions occupy 1 to 10 bytes, mirroring x86's variable length
//! (which is what makes a guest front-end/decoder non-trivial and why
//! DARCO's software layer decodes once and caches translations). The
//! encoder and decoder are exact inverses; see the round-trip property
//! test at the bottom of this module.

use crate::insn::{AluOp, FBinOp, FUnOp, Insn, RepCond, ShiftAmount, ShiftOp, UnaryOp};
use crate::reg::{Addr, Cond, Fpr, Gpr, Scale, Width};
use std::fmt;

/// Error returned by [`decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The byte stream ended in the middle of an instruction.
    UnexpectedEnd,
    /// The opcode byte is not a valid instruction.
    BadOpcode(u8),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "unexpected end of instruction stream"),
            DecodeError::BadOpcode(op) => write!(f, "invalid opcode byte {op:#04x}"),
        }
    }
}

impl std::error::Error for DecodeError {}

// Opcode space. Grouped by family; gaps are reserved.
const OP_MOV_RR: u8 = 0x01;
const OP_MOV_RI: u8 = 0x02;
const OP_LOAD: u8 = 0x03;
const OP_STORE: u8 = 0x04;
const OP_STORE_I: u8 = 0x05;
const OP_LEA: u8 = 0x06;
const OP_XCHG: u8 = 0x07;
const OP_CMOV: u8 = 0x08;
const OP_SETCC: u8 = 0x09;
const OP_PUSH: u8 = 0x0a;
const OP_PUSH_I: u8 = 0x0b;
const OP_POP: u8 = 0x0c;

const OP_ALU_RR: u8 = 0x10;
const OP_ALU_RI: u8 = 0x11;
const OP_ALU_RM: u8 = 0x12;
const OP_ALU_MR: u8 = 0x13;
const OP_ALU_MI: u8 = 0x14;
const OP_CMP_RR: u8 = 0x15;
const OP_CMP_RI: u8 = 0x16;
const OP_CMP_RM: u8 = 0x17;
const OP_TEST_RR: u8 = 0x18;
const OP_TEST_RI: u8 = 0x19;
const OP_UNARY: u8 = 0x1a;
const OP_UNARY_M: u8 = 0x1b;
const OP_SHIFT_I: u8 = 0x1c;
const OP_SHIFT_CL: u8 = 0x1d;
const OP_IMUL: u8 = 0x1e;
const OP_IMUL_I: u8 = 0x1f;
const OP_IDIV: u8 = 0x20;
const OP_IREM: u8 = 0x21;

const OP_JMP: u8 = 0x30;
const OP_JCC: u8 = 0x31;
const OP_JMP_IND: u8 = 0x32;
const OP_CALL: u8 = 0x33;
const OP_CALL_IND: u8 = 0x34;
const OP_RET: u8 = 0x35;

const OP_MOVS: u8 = 0x40;
const OP_STOS: u8 = 0x41;
const OP_LODS: u8 = 0x42;
const OP_SCAS: u8 = 0x43;
const OP_CMPS: u8 = 0x44;

const OP_FLD: u8 = 0x50;
const OP_FST: u8 = 0x51;
const OP_FLD_I: u8 = 0x52;
const OP_FMOV_RR: u8 = 0x53;
const OP_FBIN: u8 = 0x54;
const OP_FBIN_M: u8 = 0x55;
const OP_FUNARY: u8 = 0x56;
const OP_FCMP: u8 = 0x57;
const OP_CVT_SI2F: u8 = 0x58;
const OP_CVT_F2SI: u8 = 0x59;

const OP_SYSCALL: u8 = 0x70;
const OP_HALT: u8 = 0x71;
const OP_NOP: u8 = 0x72;

/// Maximum encoded length of any instruction, in bytes
/// (a memory-form ALU op with 32-bit displacement and 32-bit immediate).
pub const MAX_INSN_LEN: usize = 12;

/// Encodes one instruction, appending its bytes to `out`.
///
/// Returns the encoded length.
pub fn encode(insn: &Insn, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    match *insn {
        Insn::MovRR { dst, src } => {
            out.push(OP_MOV_RR);
            out.push(regs2(dst, src));
        }
        Insn::MovRI { dst, imm } => {
            out.push(OP_MOV_RI);
            out.push(dst.index() as u8);
            imm32(imm, out);
        }
        Insn::Load { dst, addr, width, sign } => {
            out.push(OP_LOAD);
            out.push((dst.index() as u8) << 4 | (width as u8) << 1 | sign as u8);
            enc_addr(addr, out);
        }
        Insn::Store { addr, src, width } => {
            out.push(OP_STORE);
            out.push((src.index() as u8) << 4 | (width as u8) << 1);
            enc_addr(addr, out);
        }
        Insn::StoreI { addr, imm, width } => {
            out.push(OP_STORE_I);
            out.push(width as u8);
            enc_addr(addr, out);
            imm32(imm, out);
        }
        Insn::Lea { dst, addr } => {
            out.push(OP_LEA);
            out.push(dst.index() as u8);
            enc_addr(addr, out);
        }
        Insn::Xchg { a, b } => {
            out.push(OP_XCHG);
            out.push(regs2(a, b));
        }
        Insn::Cmov { cc, dst, src } => {
            out.push(OP_CMOV);
            out.push(cc.index() as u8);
            out.push(regs2(dst, src));
        }
        Insn::Setcc { cc, dst } => {
            out.push(OP_SETCC);
            out.push((cc.index() as u8) << 4 | dst.index() as u8);
        }
        Insn::Push { src } => {
            out.push(OP_PUSH);
            out.push(src.index() as u8);
        }
        Insn::PushI { imm } => {
            out.push(OP_PUSH_I);
            imm32(imm, out);
        }
        Insn::Pop { dst } => {
            out.push(OP_POP);
            out.push(dst.index() as u8);
        }
        Insn::AluRR { op, dst, src } => {
            out.push(OP_ALU_RR);
            out.push(op as u8);
            out.push(regs2(dst, src));
        }
        Insn::AluRI { op, dst, imm } => {
            out.push(OP_ALU_RI);
            out.push((op as u8) << 4 | dst.index() as u8);
            imm32(imm, out);
        }
        Insn::AluRM { op, dst, addr } => {
            out.push(OP_ALU_RM);
            out.push((op as u8) << 4 | dst.index() as u8);
            enc_addr(addr, out);
        }
        Insn::AluMR { op, addr, src } => {
            out.push(OP_ALU_MR);
            out.push((op as u8) << 4 | src.index() as u8);
            enc_addr(addr, out);
        }
        Insn::AluMI { op, addr, imm } => {
            out.push(OP_ALU_MI);
            out.push(op as u8);
            enc_addr(addr, out);
            imm32(imm, out);
        }
        Insn::CmpRR { a, b } => {
            out.push(OP_CMP_RR);
            out.push(regs2(a, b));
        }
        Insn::CmpRI { a, imm } => {
            out.push(OP_CMP_RI);
            out.push(a.index() as u8);
            imm32(imm, out);
        }
        Insn::CmpRM { a, addr } => {
            out.push(OP_CMP_RM);
            out.push(a.index() as u8);
            enc_addr(addr, out);
        }
        Insn::TestRR { a, b } => {
            out.push(OP_TEST_RR);
            out.push(regs2(a, b));
        }
        Insn::TestRI { a, imm } => {
            out.push(OP_TEST_RI);
            out.push(a.index() as u8);
            imm32(imm, out);
        }
        Insn::Unary { op, dst } => {
            out.push(OP_UNARY);
            out.push((op as u8) << 4 | dst.index() as u8);
        }
        Insn::UnaryM { op, addr, width } => {
            out.push(OP_UNARY_M);
            out.push((op as u8) << 2 | width as u8);
            enc_addr(addr, out);
        }
        Insn::Shift { op, dst, amount } => match amount {
            ShiftAmount::Imm(n) => {
                out.push(OP_SHIFT_I);
                out.push((op as u8) << 3 | dst.index() as u8);
                out.push(n);
            }
            ShiftAmount::Cl => {
                out.push(OP_SHIFT_CL);
                out.push((op as u8) << 3 | dst.index() as u8);
            }
        },
        Insn::Imul { dst, src } => {
            out.push(OP_IMUL);
            out.push(regs2(dst, src));
        }
        Insn::ImulI { dst, src, imm } => {
            out.push(OP_IMUL_I);
            out.push(regs2(dst, src));
            imm32(imm, out);
        }
        Insn::Idiv { dst, src } => {
            out.push(OP_IDIV);
            out.push(regs2(dst, src));
        }
        Insn::Irem { dst, src } => {
            out.push(OP_IREM);
            out.push(regs2(dst, src));
        }
        Insn::Jmp { rel } => {
            out.push(OP_JMP);
            imm32(rel, out);
        }
        Insn::Jcc { cc, rel } => {
            out.push(OP_JCC);
            out.push(cc.index() as u8);
            imm32(rel, out);
        }
        Insn::JmpInd { target } => {
            out.push(OP_JMP_IND);
            out.push(target.index() as u8);
        }
        Insn::Call { rel } => {
            out.push(OP_CALL);
            imm32(rel, out);
        }
        Insn::CallInd { target } => {
            out.push(OP_CALL_IND);
            out.push(target.index() as u8);
        }
        Insn::Ret => out.push(OP_RET),
        Insn::Movs { width, rep } => {
            out.push(OP_MOVS);
            out.push((width as u8) << 2 | rep as u8);
        }
        Insn::Stos { width, rep } => {
            out.push(OP_STOS);
            out.push((width as u8) << 2 | rep as u8);
        }
        Insn::Lods { width, rep } => {
            out.push(OP_LODS);
            out.push((width as u8) << 2 | rep as u8);
        }
        Insn::Scas { width, rep } => {
            out.push(OP_SCAS);
            out.push((width as u8) << 2 | repc(rep));
        }
        Insn::Cmps { width, rep } => {
            out.push(OP_CMPS);
            out.push((width as u8) << 2 | repc(rep));
        }
        Insn::Fld { dst, addr } => {
            out.push(OP_FLD);
            out.push(dst.0);
            enc_addr(addr, out);
        }
        Insn::Fst { addr, src } => {
            out.push(OP_FST);
            out.push(src.0);
            enc_addr(addr, out);
        }
        Insn::FldI { dst, bits } => {
            out.push(OP_FLD_I);
            out.push(dst.0);
            out.extend_from_slice(&bits.to_le_bytes());
        }
        Insn::FmovRR { dst, src } => {
            out.push(OP_FMOV_RR);
            out.push(dst.0 << 4 | src.0);
        }
        Insn::Fbin { op, dst, src } => {
            out.push(OP_FBIN);
            out.push(op as u8);
            out.push(dst.0 << 4 | src.0);
        }
        Insn::FbinM { op, dst, addr } => {
            out.push(OP_FBIN_M);
            out.push((op as u8) << 3 | dst.0);
            enc_addr(addr, out);
        }
        Insn::Funary { op, dst } => {
            out.push(OP_FUNARY);
            out.push((op as u8) << 3 | dst.0);
        }
        Insn::Fcmp { a, b } => {
            out.push(OP_FCMP);
            out.push(a.0 << 4 | b.0);
        }
        Insn::Cvtsi2f { dst, src } => {
            out.push(OP_CVT_SI2F);
            out.push(dst.0 << 4 | src.index() as u8);
        }
        Insn::Cvtf2si { dst, src } => {
            out.push(OP_CVT_F2SI);
            out.push((dst.index() as u8) << 4 | src.0);
        }
        Insn::Syscall => out.push(OP_SYSCALL),
        Insn::Halt => out.push(OP_HALT),
        Insn::Nop => out.push(OP_NOP),
    }
    out.len() - start
}

/// Decodes one instruction from the front of `bytes`.
///
/// Returns the instruction and its encoded length.
///
/// # Errors
/// Returns [`DecodeError`] if the bytes do not form a valid instruction.
pub fn decode(bytes: &[u8]) -> Result<(Insn, usize), DecodeError> {
    let mut c = Cursor { bytes, pos: 0 };
    let op = c.u8()?;
    let insn = match op {
        OP_MOV_RR => {
            let (dst, src) = c.regs2()?;
            Insn::MovRR { dst, src }
        }
        OP_MOV_RI => Insn::MovRI { dst: c.gpr()?, imm: c.i32()? },
        OP_LOAD => {
            let b = c.u8()?;
            Insn::Load {
                dst: Gpr::from_index((b >> 4) as usize & 7),
                width: width(b >> 1, op)?,
                sign: b & 1 != 0,
                addr: c.addr()?,
            }
        }
        OP_STORE => {
            let b = c.u8()?;
            Insn::Store {
                src: Gpr::from_index((b >> 4) as usize & 7),
                width: width(b >> 1, op)?,
                addr: c.addr()?,
            }
        }
        OP_STORE_I => {
            let width = width(c.u8()?, op)?;
            let addr = c.addr()?;
            Insn::StoreI { addr, imm: c.i32()?, width }
        }
        OP_LEA => Insn::Lea { dst: c.gpr()?, addr: c.addr()? },
        OP_XCHG => {
            let (a, b) = c.regs2()?;
            Insn::Xchg { a, b }
        }
        OP_CMOV => {
            let cc = Cond::from_index(c.u8()? as usize & 15);
            let (dst, src) = c.regs2()?;
            Insn::Cmov { cc, dst, src }
        }
        OP_SETCC => {
            let b = c.u8()?;
            Insn::Setcc {
                cc: Cond::from_index((b >> 4) as usize),
                dst: Gpr::from_index(b as usize & 7),
            }
        }
        OP_PUSH => Insn::Push { src: c.gpr()? },
        OP_PUSH_I => Insn::PushI { imm: c.i32()? },
        OP_POP => Insn::Pop { dst: c.gpr()? },
        OP_ALU_RR => {
            let aop = alu_op(c.u8()?, op)?;
            let (dst, src) = c.regs2()?;
            Insn::AluRR { op: aop, dst, src }
        }
        OP_ALU_RI => {
            let b = c.u8()?;
            Insn::AluRI {
                op: alu_op(b >> 4, op)?,
                dst: Gpr::from_index(b as usize & 7),
                imm: c.i32()?,
            }
        }
        OP_ALU_RM => {
            let b = c.u8()?;
            Insn::AluRM {
                op: alu_op(b >> 4, op)?,
                dst: Gpr::from_index(b as usize & 7),
                addr: c.addr()?,
            }
        }
        OP_ALU_MR => {
            let b = c.u8()?;
            Insn::AluMR {
                op: alu_op(b >> 4, op)?,
                src: Gpr::from_index(b as usize & 7),
                addr: c.addr()?,
            }
        }
        OP_ALU_MI => {
            let aop = alu_op(c.u8()?, op)?;
            let addr = c.addr()?;
            Insn::AluMI { op: aop, addr, imm: c.i32()? }
        }
        OP_CMP_RR => {
            let (a, b) = c.regs2()?;
            Insn::CmpRR { a, b }
        }
        OP_CMP_RI => Insn::CmpRI { a: c.gpr()?, imm: c.i32()? },
        OP_CMP_RM => Insn::CmpRM { a: c.gpr()?, addr: c.addr()? },
        OP_TEST_RR => {
            let (a, b) = c.regs2()?;
            Insn::TestRR { a, b }
        }
        OP_TEST_RI => Insn::TestRI { a: c.gpr()?, imm: c.i32()? },
        OP_UNARY => {
            let b = c.u8()?;
            if (b >> 4) > 3 {
                return Err(DecodeError::BadOpcode(op));
            }
            Insn::Unary {
                op: UnaryOp::from_index((b >> 4) as usize),
                dst: Gpr::from_index(b as usize & 7),
            }
        }
        OP_UNARY_M => {
            let b = c.u8()?;
            if (b >> 2) > 3 || (b & 3) > 2 {
                return Err(DecodeError::BadOpcode(op));
            }
            Insn::UnaryM {
                op: UnaryOp::from_index((b >> 2) as usize),
                width: Width::from_index(b as usize & 3),
                addr: c.addr()?,
            }
        }
        OP_SHIFT_I => {
            let b = c.u8()?;
            let n = c.u8()?;
            Insn::Shift {
                op: shift_op(b >> 3, op)?,
                dst: Gpr::from_index(b as usize & 7),
                amount: ShiftAmount::Imm(n),
            }
        }
        OP_SHIFT_CL => {
            let b = c.u8()?;
            Insn::Shift {
                op: shift_op(b >> 3, op)?,
                dst: Gpr::from_index(b as usize & 7),
                amount: ShiftAmount::Cl,
            }
        }
        OP_IMUL => {
            let (dst, src) = c.regs2()?;
            Insn::Imul { dst, src }
        }
        OP_IMUL_I => {
            let (dst, src) = c.regs2()?;
            Insn::ImulI { dst, src, imm: c.i32()? }
        }
        OP_IDIV => {
            let (dst, src) = c.regs2()?;
            Insn::Idiv { dst, src }
        }
        OP_IREM => {
            let (dst, src) = c.regs2()?;
            Insn::Irem { dst, src }
        }
        OP_JMP => Insn::Jmp { rel: c.i32()? },
        OP_JCC => {
            let cc = Cond::from_index(c.u8()? as usize & 15);
            Insn::Jcc { cc, rel: c.i32()? }
        }
        OP_JMP_IND => Insn::JmpInd { target: c.gpr()? },
        OP_CALL => Insn::Call { rel: c.i32()? },
        OP_CALL_IND => Insn::CallInd { target: c.gpr()? },
        OP_RET => Insn::Ret,
        OP_MOVS | OP_STOS | OP_LODS => {
            let b = c.u8()?;
            if (b >> 2) > 2 {
                return Err(DecodeError::BadOpcode(op));
            }
            let width = Width::from_index((b >> 2) as usize);
            let rep = b & 1 != 0;
            match op {
                OP_MOVS => Insn::Movs { width, rep },
                OP_STOS => Insn::Stos { width, rep },
                _ => Insn::Lods { width, rep },
            }
        }
        OP_SCAS | OP_CMPS => {
            let b = c.u8()?;
            if (b >> 2) > 2 {
                return Err(DecodeError::BadOpcode(op));
            }
            let width = Width::from_index((b >> 2) as usize);
            let rep = match b & 3 {
                0 => None,
                1 => Some(RepCond::Eq),
                2 => Some(RepCond::Ne),
                _ => return Err(DecodeError::BadOpcode(op)),
            };
            if op == OP_SCAS {
                Insn::Scas { width, rep }
            } else {
                Insn::Cmps { width, rep }
            }
        }
        OP_FLD => Insn::Fld { dst: c.fpr()?, addr: c.addr()? },
        OP_FST => {
            let src = c.fpr()?;
            Insn::Fst { addr: c.addr()?, src }
        }
        OP_FLD_I => {
            let dst = c.fpr()?;
            let mut b = [0u8; 8];
            for x in &mut b {
                *x = c.u8()?;
            }
            Insn::FldI { dst, bits: u64::from_le_bytes(b) }
        }
        OP_FMOV_RR => {
            let b = c.u8()?;
            Insn::FmovRR { dst: Fpr::new(b >> 4 & 7), src: Fpr::new(b & 7) }
        }
        OP_FBIN => {
            let o = c.u8()?;
            if o > 5 {
                return Err(DecodeError::BadOpcode(op));
            }
            let b = c.u8()?;
            Insn::Fbin {
                op: FBinOp::from_index(o as usize),
                dst: Fpr::new(b >> 4 & 7),
                src: Fpr::new(b & 7),
            }
        }
        OP_FBIN_M => {
            let b = c.u8()?;
            if (b >> 3) > 5 {
                return Err(DecodeError::BadOpcode(op));
            }
            Insn::FbinM {
                op: FBinOp::from_index((b >> 3) as usize),
                dst: Fpr::new(b & 7),
                addr: c.addr()?,
            }
        }
        OP_FUNARY => {
            let b = c.u8()?;
            if (b >> 3) > 4 {
                return Err(DecodeError::BadOpcode(op));
            }
            Insn::Funary { op: FUnOp::from_index((b >> 3) as usize), dst: Fpr::new(b & 7) }
        }
        OP_FCMP => {
            let b = c.u8()?;
            Insn::Fcmp { a: Fpr::new(b >> 4 & 7), b: Fpr::new(b & 7) }
        }
        OP_CVT_SI2F => {
            let b = c.u8()?;
            Insn::Cvtsi2f { dst: Fpr::new(b >> 4 & 7), src: Gpr::from_index(b as usize & 7) }
        }
        OP_CVT_F2SI => {
            let b = c.u8()?;
            Insn::Cvtf2si { dst: Gpr::from_index((b >> 4) as usize & 7), src: Fpr::new(b & 7) }
        }
        OP_SYSCALL => Insn::Syscall,
        OP_HALT => Insn::Halt,
        OP_NOP => Insn::Nop,
        other => return Err(DecodeError::BadOpcode(other)),
    };
    Ok((insn, c.pos))
}

fn alu_op(bits: u8, op: u8) -> Result<AluOp, DecodeError> {
    let bits = bits & 15;
    if bits as usize >= AluOp::ALL.len() {
        return Err(DecodeError::BadOpcode(op));
    }
    Ok(AluOp::from_index(bits as usize))
}

fn width(bits: u8, op: u8) -> Result<Width, DecodeError> {
    let bits = bits & 3;
    if bits > Width::D as u8 {
        return Err(DecodeError::BadOpcode(op));
    }
    Ok(Width::from_index(bits as usize))
}

fn shift_op(bits: u8, op: u8) -> Result<ShiftOp, DecodeError> {
    if bits as usize >= ShiftOp::ALL.len() {
        return Err(DecodeError::BadOpcode(op));
    }
    Ok(ShiftOp::from_index(bits as usize))
}

fn repc(rep: Option<RepCond>) -> u8 {
    match rep {
        None => 0,
        Some(RepCond::Eq) => 1,
        Some(RepCond::Ne) => 2,
    }
}

fn regs2(a: Gpr, b: Gpr) -> u8 {
    (a.index() as u8) << 4 | b.index() as u8
}

fn imm32(v: i32, out: &mut Vec<u8>) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn enc_addr(a: Addr, out: &mut Vec<u8>) {
    let mut mode: u8 = 0;
    if let Some(b) = a.base {
        mode |= 0x80 | (b.index() as u8) << 4;
    }
    if let Some(i) = a.index {
        mode |= 0x08 | i.index() as u8;
    }
    out.push(mode);
    let disp_size: u8 = if a.disp == 0 {
        0
    } else if (-128..128).contains(&a.disp) {
        1
    } else {
        2
    };
    out.push((a.scale as u8) | disp_size << 2);
    match disp_size {
        1 => out.push(a.disp as u8),
        2 => out.extend_from_slice(&a.disp.to_le_bytes()),
        _ => {}
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.bytes.get(self.pos).ok_or(DecodeError::UnexpectedEnd)?;
        self.pos += 1;
        Ok(b)
    }

    fn i32(&mut self) -> Result<i32, DecodeError> {
        let mut b = [0u8; 4];
        for x in &mut b {
            *x = self.u8()?;
        }
        Ok(i32::from_le_bytes(b))
    }

    fn gpr(&mut self) -> Result<Gpr, DecodeError> {
        Ok(Gpr::from_index(self.u8()? as usize & 7))
    }

    fn fpr(&mut self) -> Result<Fpr, DecodeError> {
        Ok(Fpr::new(self.u8()? & 7))
    }

    fn regs2(&mut self) -> Result<(Gpr, Gpr), DecodeError> {
        let b = self.u8()?;
        Ok((Gpr::from_index((b >> 4) as usize & 7), Gpr::from_index(b as usize & 7)))
    }

    fn addr(&mut self) -> Result<Addr, DecodeError> {
        let mode = self.u8()?;
        let sb = self.u8()?;
        let base =
            if mode & 0x80 != 0 { Some(Gpr::from_index((mode >> 4) as usize & 7)) } else { None };
        let index = if mode & 0x08 != 0 { Some(Gpr::from_index(mode as usize & 7)) } else { None };
        let scale = Scale::from_index(sb as usize & 3);
        let disp = match sb >> 2 & 3 {
            0 => 0,
            1 => self.u8()? as i8 as i32,
            _ => self.i32()?,
        };
        Ok(Addr { base, index, scale, disp })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::arbitrary_insn;
    use crate::prng::SmallRng;

    #[test]
    fn roundtrip_hand_picked() {
        let cases = [
            Insn::Nop,
            Insn::MovRI { dst: Gpr::Eax, imm: -1 },
            Insn::Load {
                dst: Gpr::Edx,
                addr: Addr::full(Gpr::Ebx, Gpr::Ecx, Scale::S8, -4096),
                width: Width::W,
                sign: true,
            },
            Insn::Shift { op: ShiftOp::Sar, dst: Gpr::Edi, amount: ShiftAmount::Cl },
            Insn::FldI { dst: Fpr::new(7), bits: f64::to_bits(-0.5) },
            Insn::Cmps { width: Width::B, rep: Some(RepCond::Ne) },
            Insn::Jcc { cc: Cond::G, rel: -1234567 },
        ];
        for insn in cases {
            let mut buf = Vec::new();
            let len = encode(&insn, &mut buf);
            assert!(len <= MAX_INSN_LEN);
            let (got, glen) = decode(&buf).unwrap();
            assert_eq!(got, insn);
            assert_eq!(glen, len);
        }
    }

    #[test]
    fn roundtrip_randomized() {
        let mut rng = SmallRng::seed_from_u64(0xDA5C0);
        for _ in 0..20_000 {
            let insn = arbitrary_insn(&mut rng);
            let mut buf = Vec::new();
            let len = encode(&insn, &mut buf);
            assert!(len <= MAX_INSN_LEN, "{insn:?} too long: {len}");
            let (got, glen) = decode(&buf).expect("decode");
            assert_eq!(got, insn);
            assert_eq!(glen, len, "{insn:?}");
        }
    }

    #[test]
    fn decode_never_panics_on_two_byte_prefixes() {
        // Guest code is untrusted input: a program may jump into data.
        let mut buf = [0u8; MAX_INSN_LEN];
        for op in 0..=255u8 {
            for b in 0..=255u8 {
                buf[0] = op;
                buf[1] = b;
                if let Ok((_, len)) = decode(&buf) {
                    assert!(len <= buf.len(), "[{op:#04x}, {b:#04x}] overran: {len}");
                }
            }
        }
        for (op, b) in [(OP_LOAD, 3 << 1), (OP_STORE, 3 << 1), (OP_STORE_I, 3)] {
            buf[0] = op;
            buf[1] = b;
            assert_eq!(decode(&buf), Err(DecodeError::BadOpcode(op)), "width 3 under {op:#04x}");
        }
    }

    #[test]
    fn decode_rejects_bad_opcode() {
        assert_eq!(decode(&[0xff]), Err(DecodeError::BadOpcode(0xff)));
        assert_eq!(decode(&[]), Err(DecodeError::UnexpectedEnd));
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut buf = Vec::new();
        encode(&Insn::MovRI { dst: Gpr::Eax, imm: 77 }, &mut buf);
        for cut in 1..buf.len() {
            assert_eq!(decode(&buf[..cut]), Err(DecodeError::UnexpectedEnd), "cut at {cut}");
        }
    }

    #[test]
    fn decoding_is_a_prefix_code() {
        // Decoding must consume exactly the instruction's bytes even when
        // followed by arbitrary trailing garbage.
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..2_000 {
            let insn = arbitrary_insn(&mut rng);
            let mut buf = Vec::new();
            let len = encode(&insn, &mut buf);
            buf.extend_from_slice(&[0xAB, 0xCD, 0xEF]);
            let (got, glen) = decode(&buf).unwrap();
            assert_eq!((got, glen), (insn, len));
        }
    }
}
