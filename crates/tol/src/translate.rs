//! Guest → IR translation: block decoding, the instruction translator
//! with lazy guest-flag tracking, and BBM/SBM region construction
//! (paper §V-B2/§V-B3).
//!
//! Translation builds regions directly in SSA form (every definition gets
//! a fresh virtual register), which removes anti and output dependences —
//! the effect of the paper's SSA transformation. Guest flags are tracked
//! symbolically: a flag-writing instruction only records *which* operation
//! last defined the flags; consumers materialize exactly the flags (or the
//! fused condition) they need, and exits publish a deferred descriptor.
//!
//! A few instructions are excluded from translation and fall back to the
//! interpreter safety net (paper §V-B1): `REP`-prefixed string operations,
//! shifts by `CL`, and rotates. These either have data-dependent iteration
//! counts or flag semantics that depend on older flag state in ways the
//! deferred descriptor cannot express.

use darco_guest::exec::{self};
use darco_guest::insn::{AluOp, Insn, ShiftAmount, ShiftOp, UnaryOp};
use darco_guest::predecode::MAX_BLOCK_INSNS;
use darco_guest::reg::{Addr, Cond, Width};
use darco_guest::{Fault, GuestMem};
use darco_host::{FAluOp, FCmpOp, FUnOp2, HAluOp};
use darco_ir::{ExitDesc, ExitKind, FlagsKind, Inst, IrOp, RegClass, Region, VReg};
use std::collections::HashMap;

/// A decoded guest instruction with its location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodedInsn {
    /// Address.
    pub pc: u32,
    /// Encoded length.
    pub len: u32,
    /// The instruction.
    pub insn: Insn,
}

/// How a decoded block ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TermKind {
    /// Conditional branch.
    Jcc {
        cc: Cond,
        target: u32,
        fall: u32,
    },
    /// Unconditional direct jump.
    Jmp {
        target: u32,
    },
    /// Direct call (pushes `ret`, continues at `target`).
    Call {
        target: u32,
        ret: u32,
    },
    /// Indirect control transfer (`jmp r`, `call r`, `ret`).
    Indirect,
    /// System call at `pc`.
    Syscall {
        pc: u32,
    },
    /// Program halt.
    Halt,
    /// Artificial split of an overlong straight-line run.
    Split {
        next: u32,
    },
}

/// A decoded basic block ready for translation.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPlan {
    /// Entry PC.
    pub pc: u32,
    /// Non-terminating instructions.
    pub body: Vec<DecodedInsn>,
    /// The terminating instruction (absent for splits and for
    /// syscall/halt, which are not translated).
    pub term: Option<DecodedInsn>,
    /// Terminator classification.
    pub term_kind: TermKind,
    /// Whether every instruction is translatable.
    pub translatable: bool,
}

impl BlockPlan {
    /// Guest instructions this block retires when executed to the end
    /// (body plus a translated terminator; syscall/halt are executed by
    /// the authoritative component and not counted here).
    pub fn retired_insns(&self) -> u32 {
        self.body.len() as u32 + self.term.is_some() as u32
    }
}

/// True for instructions excluded from translation (interpreter handles
/// them — the paper's safety net).
pub fn excluded_from_translation(insn: &Insn) -> bool {
    match insn {
        Insn::Shift { amount: ShiftAmount::Cl, .. } => true,
        Insn::Shift { op: ShiftOp::Rol | ShiftOp::Ror, .. } => true,
        Insn::Movs { rep, .. } | Insn::Stos { rep, .. } | Insn::Lods { rep, .. } => *rep,
        Insn::Scas { rep, .. } | Insn::Cmps { rep, .. } => rep.is_some(),
        _ => false,
    }
}

/// Decodes one basic block starting at `pc`.
///
/// # Errors
/// Propagates fetch faults (unmapped code page, bad opcode).
pub fn decode_block(mem: &GuestMem, pc: u32) -> Result<BlockPlan, Fault> {
    let mut body = Vec::new();
    let mut cur = pc;
    let mut translatable = true;
    loop {
        let (insn, len) = exec::fetch(mem, cur)?;
        if excluded_from_translation(&insn) {
            translatable = false;
        }
        let d = DecodedInsn { pc: cur, len, insn };
        if insn.ends_block() {
            let after = cur.wrapping_add(len);
            let (term, term_kind) = match insn {
                Insn::Jcc { cc, rel } => (
                    Some(d),
                    TermKind::Jcc { cc, target: after.wrapping_add(rel as u32), fall: after },
                ),
                Insn::Jmp { rel } => {
                    (Some(d), TermKind::Jmp { target: after.wrapping_add(rel as u32) })
                }
                Insn::Call { rel } => (
                    Some(d),
                    TermKind::Call { target: after.wrapping_add(rel as u32), ret: after },
                ),
                Insn::JmpInd { .. } | Insn::CallInd { .. } | Insn::Ret => {
                    (Some(d), TermKind::Indirect)
                }
                Insn::Syscall => (None, TermKind::Syscall { pc: cur }),
                Insn::Halt => (None, TermKind::Halt),
                _ => unreachable!(),
            };
            return Ok(BlockPlan { pc, body, term, term_kind, translatable });
        }
        body.push(d);
        cur = after_of(&d);
        if body.len() >= MAX_BLOCK_INSNS {
            return Ok(BlockPlan {
                pc,
                body,
                term: None,
                term_kind: TermKind::Split { next: cur },
                translatable,
            });
        }
    }
}

fn after_of(d: &DecodedInsn) -> u32 {
    d.pc.wrapping_add(d.len)
}

// ---------------------------------------------------------------------------

const CF: usize = 0;
const ZF: usize = 1;
const SF: usize = 2;
const OF: usize = 3;
const PF: usize = 4;

/// Symbolic guest-flag state during translation.
#[derive(Debug, Clone)]
enum FlagState {
    /// Flags are whatever they were on region entry.
    Entry,
    /// Flags defined by a descriptor-expressible producer.
    Deferred { kind: FlagsKind, a: VReg, b: VReg },
    /// `inc`/`dec`: CF preserved from the previous state.
    IncDec { inc: bool, a: VReg, prev: Box<FlagState> },
    /// `adc`/`sbb` with carry-in (not descriptor-expressible at exits).
    AdcSbb { add: bool, a: VReg, b: VReg, cin: VReg },
    /// FP compare (x86 `comisd` semantics).
    Fcmp { a: VReg, b: VReg },
    /// All five flags materialized as 0/1 vregs (CF, ZF, SF, OF, PF).
    Mat([VReg; 5]),
}

/// Incremental region builder shared by BBM and SBM construction.
pub struct RegionBuilder {
    /// The region being built.
    pub region: Region,
    gprs: [Option<VReg>; 8],
    fprs: [Option<VReg>; 8],
    flag_state: FlagState,
    consts: HashMap<u32, VReg>,
    seq: u16,
    gcnt: u32,
    strict_flags: bool,
    cur_pc: u32,
}

impl RegionBuilder {
    /// Creates a builder for a region entered at `entry_pc`.
    pub fn new(entry_pc: u32, strict_flags: bool) -> RegionBuilder {
        RegionBuilder {
            region: Region::new(entry_pc),
            gprs: [None; 8],
            fprs: [None; 8],
            flag_state: FlagState::Entry,
            consts: HashMap::new(),
            seq: 0,
            gcnt: 0,
            strict_flags,
            cur_pc: entry_pc,
        }
    }

    /// Guest instructions translated so far.
    pub fn gcnt(&self) -> u32 {
        self.gcnt
    }

    /// Counts one retired guest instruction that needed no emitted code
    /// (straightened jumps inside superblocks).
    pub fn bump_gcnt(&mut self) {
        self.gcnt += 1;
    }

    /// Sets the guest PC used for debug attribution of emitted IR.
    pub fn set_cur_pc(&mut self, pc: u32) {
        self.cur_pc = pc;
    }

    fn gpr(&mut self, g: darco_guest::Gpr) -> VReg {
        let i = g.index();
        if let Some(v) = self.gprs[i] {
            return v;
        }
        if let Some(v) = self.region.entry.gprs[i] {
            self.gprs[i] = Some(v);
            return v;
        }
        let nv = self.region.new_vreg(RegClass::Int);
        self.region.entry.gprs[i] = Some(nv);
        self.gprs[i] = Some(nv);
        nv
    }

    fn set_gpr(&mut self, g: darco_guest::Gpr, v: VReg) {
        self.gprs[g.index()] = Some(v);
    }

    fn fpr(&mut self, f: darco_guest::Fpr) -> VReg {
        let i = f.index();
        if let Some(v) = self.fprs[i] {
            return v;
        }
        let nv = self.region.new_vreg(RegClass::Fp);
        self.region.entry.fprs[i] = Some(nv);
        self.fprs[i] = Some(nv);
        nv
    }

    fn set_fpr(&mut self, f: darco_guest::Fpr, v: VReg) {
        self.fprs[f.index()] = Some(v);
    }

    fn entry_flag(&mut self, bit: usize) -> VReg {
        if let Some(v) = self.region.entry.flags[bit] {
            return v;
        }
        let nv = self.region.new_vreg(RegClass::Int);
        self.region.entry.flags[bit] = Some(nv);
        nv
    }

    fn ci(&mut self, c: u32) -> VReg {
        if let Some(&v) = self.consts.get(&c) {
            return v;
        }
        let v = self.emit_i(IrOp::ConstI(c), vec![]);
        self.consts.insert(c, v);
        v
    }

    fn cfp(&mut self, bits: u64) -> VReg {
        self.emit_f(IrOp::ConstF(bits), vec![])
    }

    fn emit_i(&mut self, op: IrOp, srcs: Vec<VReg>) -> VReg {
        let dst = self.region.new_vreg(RegClass::Int);
        let mut inst = Inst::new(op, Some(dst), srcs);
        inst.guest_pc = self.cur_pc;
        self.region.push(inst);
        dst
    }

    fn emit_f(&mut self, op: IrOp, srcs: Vec<VReg>) -> VReg {
        let dst = self.region.new_vreg(RegClass::Fp);
        let mut inst = Inst::new(op, Some(dst), srcs);
        inst.guest_pc = self.cur_pc;
        self.region.push(inst);
        dst
    }

    fn alu(&mut self, op: HAluOp, a: VReg, b: VReg) -> VReg {
        self.emit_i(IrOp::Alu(op), vec![a, b])
    }

    fn alu_ci(&mut self, op: HAluOp, a: VReg, c: u32) -> VReg {
        let b = self.ci(c);
        self.alu(op, a, b)
    }

    fn next_seq(&mut self) -> u16 {
        self.seq += 1;
        assert!(self.seq < 0x8000, "region memory-op sequence space exceeded");
        self.seq
    }

    fn load(&mut self, addr: VReg, width: Width, sign: bool) -> VReg {
        let dst = self.region.new_vreg(RegClass::Int);
        let mut inst = Inst::new(IrOp::Load { width, sign }, Some(dst), vec![addr]);
        inst.seq = self.next_seq();
        inst.guest_pc = self.cur_pc;
        self.region.push(inst);
        dst
    }

    fn store(&mut self, addr: VReg, val: VReg, width: Width) {
        let mut inst = Inst::new(IrOp::Store { width }, None, vec![addr, val]);
        inst.seq = self.next_seq();
        inst.guest_pc = self.cur_pc;
        self.region.push(inst);
    }

    fn loadf(&mut self, addr: VReg) -> VReg {
        let dst = self.region.new_vreg(RegClass::Fp);
        let mut inst = Inst::new(IrOp::LoadF, Some(dst), vec![addr]);
        inst.seq = self.next_seq();
        inst.guest_pc = self.cur_pc;
        self.region.push(inst);
        dst
    }

    fn storef(&mut self, addr: VReg, val: VReg) {
        let mut inst = Inst::new(IrOp::StoreF, None, vec![addr, val]);
        inst.seq = self.next_seq();
        inst.guest_pc = self.cur_pc;
        self.region.push(inst);
    }

    /// Effective address of a guest memory operand.
    fn ea(&mut self, a: &Addr) -> VReg {
        let mut cur: Option<VReg> = a.base.map(|b| self.gpr(b));
        if let Some(ix) = a.index {
            let ixv = self.gpr(ix);
            let scaled = if a.scale.shift() == 0 {
                ixv
            } else {
                self.alu_ci(HAluOp::Shl, ixv, a.scale.shift())
            };
            cur = Some(match cur {
                Some(c) => self.alu(HAluOp::Add, c, scaled),
                None => scaled,
            });
        }
        match (cur, a.disp) {
            (Some(c), 0) => c,
            (Some(c), d) => self.alu_ci(HAluOp::Add, c, d as u32),
            (None, d) => self.ci(d as u32),
        }
    }

    // -- flags ---------------------------------------------------------------

    fn set_flags(&mut self, state: FlagState) {
        if self.strict_flags {
            let mat = self.materialize_flags(&state);
            self.flag_state = FlagState::Mat(mat);
        } else {
            self.flag_state = state;
        }
    }

    fn materialize_flags(&mut self, state: &FlagState) -> [VReg; 5] {
        [
            self.flag_from(state.clone(), CF),
            self.flag_from(state.clone(), ZF),
            self.flag_from(state.clone(), SF),
            self.flag_from(state.clone(), OF),
            self.flag_from(state.clone(), PF),
        ]
    }

    fn get_flag(&mut self, bit: usize) -> VReg {
        let st = self.flag_state.clone();
        self.flag_from(st, bit)
    }

    fn flag_from(&mut self, state: FlagState, bit: usize) -> VReg {
        match state {
            FlagState::Entry => self.entry_flag(bit),
            FlagState::Mat(f) => f[bit],
            FlagState::Deferred { kind, a, b } => self.flag_from_desc(kind, a, b, bit),
            FlagState::IncDec { inc, a, prev } => {
                if bit == CF {
                    self.flag_from(*prev, CF)
                } else {
                    let one = self.ci(1);
                    let r = if inc {
                        self.alu(HAluOp::Add, a, one)
                    } else {
                        self.alu(HAluOp::Sub, a, one)
                    };
                    match bit {
                        ZF => self.alu_ci(HAluOp::Seq, r, 0),
                        SF => self.alu_ci(HAluOp::Shr, r, 31),
                        PF => self.emit_i(IrOp::Alu(HAluOp::Parity), vec![r]),
                        OF => {
                            let lim = if inc { 0x7FFF_FFFF } else { 0x8000_0000 };
                            self.alu_ci(HAluOp::Seq, a, lim)
                        }
                        _ => unreachable!(),
                    }
                }
            }
            FlagState::AdcSbb { add, a, b, cin } => {
                // r and carries computed per the architectural formulas.
                let t = if add {
                    self.alu(HAluOp::Add, a, b)
                } else {
                    self.alu(HAluOp::Sub, a, b)
                };
                let r = if add {
                    self.alu(HAluOp::Add, t, cin)
                } else {
                    self.alu(HAluOp::Sub, t, cin)
                };
                match bit {
                    CF => {
                        if add {
                            let c1 = self.alu(HAluOp::SltU, t, a);
                            let c2 = self.alu(HAluOp::SltU, r, t);
                            self.alu(HAluOp::Or, c1, c2)
                        } else {
                            // a < b + cin (u64) = (a<b) | ((a==b) & cin)
                            let lt = self.alu(HAluOp::SltU, a, b);
                            let eq = self.alu(HAluOp::Seq, a, b);
                            let e2 = self.alu(HAluOp::And, eq, cin);
                            self.alu(HAluOp::Or, lt, e2)
                        }
                    }
                    ZF => self.alu_ci(HAluOp::Seq, r, 0),
                    SF => self.alu_ci(HAluOp::Shr, r, 31),
                    PF => self.emit_i(IrOp::Alu(HAluOp::Parity), vec![r]),
                    OF => {
                        let (x, y) = if add {
                            let xa = self.alu(HAluOp::Xor, a, r);
                            let xb = self.alu(HAluOp::Xor, b, r);
                            (xa, xb)
                        } else {
                            let xa = self.alu(HAluOp::Xor, a, b);
                            let xb = self.alu(HAluOp::Xor, a, r);
                            (xa, xb)
                        };
                        let m = self.alu(HAluOp::And, x, y);
                        self.alu_ci(HAluOp::Shr, m, 31)
                    }
                    _ => unreachable!(),
                }
            }
            FlagState::Fcmp { a, b } => {
                let u = self.emit_i(IrOp::FCmp(FCmpOp::Unord), vec![a, b]);
                match bit {
                    CF => {
                        let lt = self.emit_i(IrOp::FCmp(FCmpOp::Lt), vec![a, b]);
                        self.alu(HAluOp::Or, lt, u)
                    }
                    ZF => {
                        let eq = self.emit_i(IrOp::FCmp(FCmpOp::Eq), vec![a, b]);
                        self.alu(HAluOp::Or, eq, u)
                    }
                    PF => u,
                    SF | OF => self.ci(0),
                    _ => unreachable!(),
                }
            }
        }
    }

    fn flag_from_desc(&mut self, kind: FlagsKind, a: VReg, b: VReg, bit: usize) -> VReg {
        match kind {
            FlagsKind::Sub => match bit {
                CF => self.alu(HAluOp::SltU, a, b),
                ZF => self.alu(HAluOp::Seq, a, b),
                SF => {
                    let r = self.alu(HAluOp::Sub, a, b);
                    self.alu_ci(HAluOp::Shr, r, 31)
                }
                OF => {
                    let r = self.alu(HAluOp::Sub, a, b);
                    let x = self.alu(HAluOp::Xor, a, b);
                    let y = self.alu(HAluOp::Xor, a, r);
                    let m = self.alu(HAluOp::And, x, y);
                    self.alu_ci(HAluOp::Shr, m, 31)
                }
                PF => {
                    let r = self.alu(HAluOp::Sub, a, b);
                    self.emit_i(IrOp::Alu(HAluOp::Parity), vec![r])
                }
                _ => unreachable!(),
            },
            FlagsKind::Add => {
                let r = self.alu(HAluOp::Add, a, b);
                match bit {
                    CF => self.alu(HAluOp::SltU, r, a),
                    ZF => self.alu_ci(HAluOp::Seq, r, 0),
                    SF => self.alu_ci(HAluOp::Shr, r, 31),
                    OF => {
                        let x = self.alu(HAluOp::Xor, a, r);
                        let y = self.alu(HAluOp::Xor, b, r);
                        let m = self.alu(HAluOp::And, x, y);
                        self.alu_ci(HAluOp::Shr, m, 31)
                    }
                    PF => self.emit_i(IrOp::Alu(HAluOp::Parity), vec![r]),
                    _ => unreachable!(),
                }
            }
            FlagsKind::Logic => match bit {
                CF | OF => self.ci(0),
                ZF => self.alu_ci(HAluOp::Seq, a, 0),
                SF => self.alu_ci(HAluOp::Shr, a, 31),
                PF => self.emit_i(IrOp::Alu(HAluOp::Parity), vec![a]),
                _ => unreachable!(),
            },
            FlagsKind::Imul => {
                let r = self.alu(HAluOp::Mul, a, b);
                match bit {
                    CF | OF => {
                        let hi = self.alu(HAluOp::MulHS, a, b);
                        let sx = self.alu_ci(HAluOp::Sar, r, 31);
                        self.alu(HAluOp::Sne, hi, sx)
                    }
                    ZF => self.alu_ci(HAluOp::Seq, r, 0),
                    SF => self.alu_ci(HAluOp::Shr, r, 31),
                    PF => self.emit_i(IrOp::Alu(HAluOp::Parity), vec![r]),
                    _ => unreachable!(),
                }
            }
            FlagsKind::Shl | FlagsKind::Shr | FlagsKind::Sar => {
                // `b` is a constant vreg holding the (non-zero) amount; we
                // regenerate the shifted result for result flags.
                let op = match kind {
                    FlagsKind::Shl => HAluOp::Shl,
                    FlagsKind::Shr => HAluOp::Shr,
                    _ => HAluOp::Sar,
                };
                let r = self.alu(op, a, b);
                match bit {
                    CF => match kind {
                        FlagsKind::Shl => {
                            let c32 = self.ci(32);
                            let sh = self.alu(HAluOp::Sub, c32, b);
                            let x = self.alu(HAluOp::Shr, a, sh);
                            self.alu_ci(HAluOp::And, x, 1)
                        }
                        _ => {
                            let one = self.ci(1);
                            let am1 = self.alu(HAluOp::Sub, b, one);
                            let x = self.alu(HAluOp::Shr, a, am1);
                            self.alu(HAluOp::And, x, one)
                        }
                    },
                    OF => self.ci(0),
                    ZF => self.alu_ci(HAluOp::Seq, r, 0),
                    SF => self.alu_ci(HAluOp::Shr, r, 31),
                    PF => self.emit_i(IrOp::Alu(HAluOp::Parity), vec![r]),
                    _ => unreachable!(),
                }
            }
            FlagsKind::Inc | FlagsKind::Dec => {
                unreachable!("Inc/Dec handled via FlagState::IncDec")
            }
        }
    }

    /// Evaluates condition code `cc` to a 0/1 vreg, using fused fast paths
    /// when the current flag state allows (the key to the paper's low
    /// branch emulation cost).
    pub fn eval_cond(&mut self, cc: Cond) -> VReg {
        // Fast path: flags from a subtraction/compare.
        if let FlagState::Deferred { kind: FlagsKind::Sub, a, b } = self.flag_state {
            let fused = match cc {
                Cond::E => Some(self.alu(HAluOp::Seq, a, b)),
                Cond::Ne => Some(self.alu(HAluOp::Sne, a, b)),
                Cond::B => Some(self.alu(HAluOp::SltU, a, b)),
                Cond::Ae => Some(self.alu(HAluOp::SleU, b, a)),
                Cond::Be => Some(self.alu(HAluOp::SleU, a, b)),
                Cond::A => Some(self.alu(HAluOp::SltU, b, a)),
                Cond::L => Some(self.alu(HAluOp::SltS, a, b)),
                Cond::Ge => Some(self.alu(HAluOp::SleS, b, a)),
                Cond::Le => Some(self.alu(HAluOp::SleS, a, b)),
                Cond::G => Some(self.alu(HAluOp::SltS, b, a)),
                _ => None,
            };
            if let Some(v) = fused {
                return v;
            }
        }
        // Fast path: flags from a logic result.
        if let FlagState::Deferred { kind: FlagsKind::Logic, a, .. } = self.flag_state {
            let fused = match cc {
                Cond::E => Some(self.alu_ci(HAluOp::Seq, a, 0)),
                Cond::Ne => Some(self.alu_ci(HAluOp::Sne, a, 0)),
                Cond::S => Some(self.alu_ci(HAluOp::Shr, a, 31)),
                Cond::B => Some(self.ci(0)), // CF = 0
                Cond::Ae => Some(self.ci(1)),
                _ => None,
            };
            if let Some(v) = fused {
                return v;
            }
        }
        // Generic: combine materialized flags.
        let one = self.ci(1);
        match cc {
            Cond::O => self.get_flag(OF),
            Cond::No => {
                let f = self.get_flag(OF);
                self.alu(HAluOp::Xor, f, one)
            }
            Cond::B => self.get_flag(CF),
            Cond::Ae => {
                let f = self.get_flag(CF);
                self.alu(HAluOp::Xor, f, one)
            }
            Cond::E => self.get_flag(ZF),
            Cond::Ne => {
                let f = self.get_flag(ZF);
                self.alu(HAluOp::Xor, f, one)
            }
            Cond::Be => {
                let c = self.get_flag(CF);
                let z = self.get_flag(ZF);
                self.alu(HAluOp::Or, c, z)
            }
            Cond::A => {
                let c = self.get_flag(CF);
                let z = self.get_flag(ZF);
                let o = self.alu(HAluOp::Or, c, z);
                self.alu(HAluOp::Xor, o, one)
            }
            Cond::S => self.get_flag(SF),
            Cond::Ns => {
                let f = self.get_flag(SF);
                self.alu(HAluOp::Xor, f, one)
            }
            Cond::P => self.get_flag(PF),
            Cond::Np => {
                let f = self.get_flag(PF);
                self.alu(HAluOp::Xor, f, one)
            }
            Cond::L => {
                let s = self.get_flag(SF);
                let o = self.get_flag(OF);
                self.alu(HAluOp::Xor, s, o)
            }
            Cond::Ge => {
                let s = self.get_flag(SF);
                let o = self.get_flag(OF);
                let x = self.alu(HAluOp::Xor, s, o);
                self.alu(HAluOp::Xor, x, one)
            }
            Cond::Le => {
                let s = self.get_flag(SF);
                let o = self.get_flag(OF);
                let x = self.alu(HAluOp::Xor, s, o);
                let z = self.get_flag(ZF);
                self.alu(HAluOp::Or, x, z)
            }
            Cond::G => {
                let s = self.get_flag(SF);
                let o = self.get_flag(OF);
                let x = self.alu(HAluOp::Xor, s, o);
                let z = self.get_flag(ZF);
                let le = self.alu(HAluOp::Or, x, z);
                self.alu(HAluOp::Xor, le, one)
            }
        }
    }

    // -- exits ----------------------------------------------------------------

    /// Builds an exit descriptor capturing the current guest-state
    /// mapping, flag state and retired-instruction count.
    pub fn exit_desc(&mut self, kind: ExitKind) -> ExitDesc {
        let mut e = ExitDesc::new(kind);
        e.gcnt = self.gcnt.min(u16::MAX as u32) as u16;
        for i in 0..8 {
            // Only publish values that changed since entry.
            if self.gprs[i].is_some() && self.gprs[i] != self.region.entry.gprs[i] {
                e.gprs[i] = self.gprs[i];
            }
            if self.fprs[i].is_some() && self.fprs[i] != self.region.entry.fprs[i] {
                e.fprs[i] = self.fprs[i];
            }
        }
        match self.flag_state.clone() {
            FlagState::Entry => {}
            FlagState::Deferred { kind, a, b } => e.deferred = Some((kind, a, b)),
            FlagState::IncDec { inc, a, prev } => {
                e.flags[CF] = Some(self.flag_from(*prev, CF));
                e.deferred = Some((if inc { FlagsKind::Inc } else { FlagsKind::Dec }, a, a));
            }
            st @ (FlagState::AdcSbb { .. } | FlagState::Fcmp { .. }) => {
                let f = self.materialize_flags(&st);
                for (i, v) in f.into_iter().enumerate() {
                    e.flags[i] = Some(v);
                }
            }
            FlagState::Mat(f) => {
                for (i, v) in f.into_iter().enumerate() {
                    e.flags[i] = Some(v);
                }
            }
        }
        e
    }

    /// Adds an exit and returns its index.
    pub fn push_exit(&mut self, e: ExitDesc) -> usize {
        self.region.exits.push(e);
        self.region.exits.len() - 1
    }

    /// Emits a conditional side exit.
    pub fn exit_if(&mut self, cond: VReg, exit: usize) {
        let mut inst = Inst::new(IrOp::ExitIf { exit }, None, vec![cond]);
        inst.guest_pc = self.cur_pc;
        self.region.push(inst);
    }

    /// Emits the terminal exit.
    pub fn exit_always(&mut self, exit: usize) {
        let mut inst = Inst::new(IrOp::ExitAlways { exit }, None, vec![]);
        inst.guest_pc = self.cur_pc;
        self.region.push(inst);
    }

    /// Emits an assert (speculated branch direction check).
    pub fn assert(&mut self, cond: VReg, expect_nz: bool) {
        let mut inst = Inst::new(IrOp::Assert { expect_nz }, None, vec![cond]);
        inst.guest_pc = self.cur_pc;
        // Asserts take a program-order sequence number like memory ops do:
        // the DDG keeps stores below earlier asserts (a store must not
        // retire on a failing speculative path) and the verifier checks
        // the ordering by comparing `seq` against instruction indices.
        inst.seq = self.next_seq();
        self.region.push(inst);
    }

    // -- instruction translation ----------------------------------------------

    /// Translates one (non-terminating, non-excluded) guest instruction.
    ///
    /// # Panics
    /// Panics on excluded or block-ending instructions (callers filter).
    pub fn translate_insn(&mut self, d: &DecodedInsn) {
        use darco_guest::Gpr;
        assert!(!excluded_from_translation(&d.insn), "excluded insn reached translator");
        self.cur_pc = d.pc;
        self.gcnt += 1;
        match d.insn {
            Insn::MovRR { dst, src } => {
                let v = self.gpr(src);
                self.set_gpr(dst, v);
            }
            Insn::MovRI { dst, imm } => {
                let v = self.ci(imm as u32);
                self.set_gpr(dst, v);
            }
            Insn::Load { dst, addr, width, sign } => {
                let a = self.ea(&addr);
                let v = self.load(a, width, sign);
                self.set_gpr(dst, v);
            }
            Insn::Store { addr, src, width } => {
                let a = self.ea(&addr);
                let v = self.gpr(src);
                self.store(a, v, width);
            }
            Insn::StoreI { addr, imm, width } => {
                let a = self.ea(&addr);
                let v = self.ci(imm as u32);
                self.store(a, v, width);
            }
            Insn::Lea { dst, addr } => {
                let a = self.ea(&addr);
                self.set_gpr(dst, a);
            }
            Insn::Xchg { a, b } => {
                let va = self.gpr(a);
                let vb = self.gpr(b);
                self.set_gpr(a, vb);
                self.set_gpr(b, va);
            }
            Insn::Cmov { cc, dst, src } => {
                let c = self.eval_cond(cc);
                let zero = self.ci(0);
                let mask = self.alu(HAluOp::Sub, zero, c);
                let nmask = self.alu_ci(HAluOp::Xor, mask, u32::MAX);
                let vs = self.gpr(src);
                let vd = self.gpr(dst);
                let t1 = self.alu(HAluOp::And, vs, mask);
                let t2 = self.alu(HAluOp::And, vd, nmask);
                let r = self.alu(HAluOp::Or, t1, t2);
                self.set_gpr(dst, r);
            }
            Insn::Setcc { cc, dst } => {
                let c = self.eval_cond(cc);
                self.set_gpr(dst, c);
            }
            Insn::Push { src } => {
                let v = self.gpr(src);
                self.push_value(v);
            }
            Insn::PushI { imm } => {
                let v = self.ci(imm as u32);
                self.push_value(v);
            }
            Insn::Pop { dst } => {
                let sp = self.gpr(Gpr::Esp);
                let v = self.load(sp, Width::D, false);
                let sp2 = self.alu_ci(HAluOp::Add, sp, 4);
                self.set_gpr(Gpr::Esp, sp2);
                self.set_gpr(dst, v);
            }
            Insn::AluRR { op, dst, src } => {
                let a = self.gpr(dst);
                let b = self.gpr(src);
                let r = self.guest_alu(op, a, b);
                self.set_gpr(dst, r);
            }
            Insn::AluRI { op, dst, imm } => {
                let a = self.gpr(dst);
                let b = self.ci(imm as u32);
                let r = self.guest_alu(op, a, b);
                self.set_gpr(dst, r);
            }
            Insn::AluRM { op, dst, addr } => {
                let ea = self.ea(&addr);
                let m = self.load(ea, Width::D, false);
                let a = self.gpr(dst);
                let r = self.guest_alu(op, a, m);
                self.set_gpr(dst, r);
            }
            Insn::AluMR { op, addr, src } => {
                let ea = self.ea(&addr);
                let m = self.load(ea, Width::D, false);
                let b = self.gpr(src);
                let r = self.guest_alu(op, m, b);
                self.store(ea, r, Width::D);
            }
            Insn::AluMI { op, addr, imm } => {
                let ea = self.ea(&addr);
                let m = self.load(ea, Width::D, false);
                let b = self.ci(imm as u32);
                let r = self.guest_alu(op, m, b);
                self.store(ea, r, Width::D);
            }
            Insn::CmpRR { a, b } => {
                let va = self.gpr(a);
                let vb = self.gpr(b);
                self.set_flags(FlagState::Deferred { kind: FlagsKind::Sub, a: va, b: vb });
            }
            Insn::CmpRI { a, imm } => {
                let va = self.gpr(a);
                let vb = self.ci(imm as u32);
                self.set_flags(FlagState::Deferred { kind: FlagsKind::Sub, a: va, b: vb });
            }
            Insn::CmpRM { a, addr } => {
                let ea = self.ea(&addr);
                let m = self.load(ea, Width::D, false);
                let va = self.gpr(a);
                self.set_flags(FlagState::Deferred { kind: FlagsKind::Sub, a: va, b: m });
            }
            Insn::TestRR { a, b } => {
                let va = self.gpr(a);
                let vb = self.gpr(b);
                let r = self.alu(HAluOp::And, va, vb);
                self.set_flags(FlagState::Deferred { kind: FlagsKind::Logic, a: r, b: r });
            }
            Insn::TestRI { a, imm } => {
                let va = self.gpr(a);
                let r = self.alu_ci(HAluOp::And, va, imm as u32);
                self.set_flags(FlagState::Deferred { kind: FlagsKind::Logic, a: r, b: r });
            }
            Insn::Unary { op, dst } => {
                let a = self.gpr(dst);
                let r = self.guest_unary(op, a);
                self.set_gpr(dst, r);
            }
            Insn::UnaryM { op, addr, width } => {
                let ea = self.ea(&addr);
                let m = self.load(ea, width, false);
                let r = self.guest_unary(op, m);
                self.store(ea, r, width);
            }
            Insn::Shift { op, dst, amount } => {
                let amt = match amount {
                    ShiftAmount::Imm(n) => n as u32 & 31,
                    ShiftAmount::Cl => unreachable!("CL shifts are excluded"),
                };
                if amt == 0 {
                    return; // no result change, no flag change
                }
                let a = self.gpr(dst);
                let (hop, fk) = match op {
                    ShiftOp::Shl => (HAluOp::Shl, FlagsKind::Shl),
                    ShiftOp::Shr => (HAluOp::Shr, FlagsKind::Shr),
                    ShiftOp::Sar => (HAluOp::Sar, FlagsKind::Sar),
                    ShiftOp::Rol | ShiftOp::Ror => unreachable!("rotates are excluded"),
                };
                let amtv = self.ci(amt);
                let r = self.alu(hop, a, amtv);
                self.set_gpr(dst, r);
                self.set_flags(FlagState::Deferred { kind: fk, a, b: amtv });
            }
            Insn::Imul { dst, src } => {
                let a = self.gpr(dst);
                let b = self.gpr(src);
                let r = self.alu(HAluOp::Mul, a, b);
                self.set_gpr(dst, r);
                self.set_flags(FlagState::Deferred { kind: FlagsKind::Imul, a, b });
            }
            Insn::ImulI { dst, src, imm } => {
                let a = self.gpr(src);
                let b = self.ci(imm as u32);
                let r = self.alu(HAluOp::Mul, a, b);
                self.set_gpr(dst, r);
                self.set_flags(FlagState::Deferred { kind: FlagsKind::Imul, a, b });
            }
            Insn::Idiv { dst, src } => {
                let a = self.gpr(dst);
                let b = self.gpr(src);
                let r = self.alu(HAluOp::Div, a, b);
                self.set_gpr(dst, r);
            }
            Insn::Irem { dst, src } => {
                let a = self.gpr(dst);
                let b = self.gpr(src);
                let r = self.alu(HAluOp::Rem, a, b);
                self.set_gpr(dst, r);
            }
            Insn::Movs { width, rep: false } => {
                use darco_guest::Gpr::{Edi, Esi};
                let esi = self.gpr(Esi);
                let edi = self.gpr(Edi);
                let v = self.load(esi, width, false);
                self.store(edi, v, width);
                let w = width.bytes();
                let esi2 = self.alu_ci(HAluOp::Add, esi, w);
                let edi2 = self.alu_ci(HAluOp::Add, edi, w);
                self.set_gpr(Esi, esi2);
                self.set_gpr(Edi, edi2);
            }
            Insn::Stos { width, rep: false } => {
                use darco_guest::Gpr::{Eax, Edi};
                let edi = self.gpr(Edi);
                let v = self.gpr(Eax);
                self.store(edi, v, width);
                let edi2 = self.alu_ci(HAluOp::Add, edi, width.bytes());
                self.set_gpr(Edi, edi2);
            }
            Insn::Lods { width, rep: false } => {
                use darco_guest::Gpr::{Eax, Esi};
                let esi = self.gpr(Esi);
                let v = self.load(esi, width, false);
                let esi2 = self.alu_ci(HAluOp::Add, esi, width.bytes());
                self.set_gpr(Esi, esi2);
                self.set_gpr(Eax, v);
            }
            Insn::Scas { width, rep: None } => {
                use darco_guest::Gpr::{Eax, Edi};
                let edi = self.gpr(Edi);
                let m = self.load(edi, width, false);
                let eax = self.gpr(Eax);
                let a = match width {
                    Width::D => eax,
                    Width::W => self.alu_ci(HAluOp::And, eax, 0xFFFF),
                    Width::B => self.alu_ci(HAluOp::And, eax, 0xFF),
                };
                self.set_flags(FlagState::Deferred { kind: FlagsKind::Sub, a, b: m });
                let edi2 = self.alu_ci(HAluOp::Add, edi, width.bytes());
                self.set_gpr(Edi, edi2);
            }
            Insn::Cmps { width, rep: None } => {
                use darco_guest::Gpr::{Edi, Esi};
                let esi = self.gpr(Esi);
                let edi = self.gpr(Edi);
                let a = self.load(esi, width, false);
                let b = self.load(edi, width, false);
                self.set_flags(FlagState::Deferred { kind: FlagsKind::Sub, a, b });
                let w = width.bytes();
                let esi2 = self.alu_ci(HAluOp::Add, esi, w);
                let edi2 = self.alu_ci(HAluOp::Add, edi, w);
                self.set_gpr(Esi, esi2);
                self.set_gpr(Edi, edi2);
            }
            Insn::Movs { .. }
            | Insn::Stos { .. }
            | Insn::Lods { .. }
            | Insn::Scas { .. }
            | Insn::Cmps { .. } => unreachable!("REP strings are excluded"),
            Insn::Fld { dst, addr } => {
                let ea = self.ea(&addr);
                let v = self.loadf(ea);
                self.set_fpr(dst, v);
            }
            Insn::Fst { addr, src } => {
                let ea = self.ea(&addr);
                let v = self.fpr(src);
                self.storef(ea, v);
            }
            Insn::FldI { dst, bits } => {
                let v = self.cfp(bits);
                self.set_fpr(dst, v);
            }
            Insn::FmovRR { dst, src } => {
                let v = self.fpr(src);
                self.set_fpr(dst, v);
            }
            Insn::Fbin { op, dst, src } => {
                let a = self.fpr(dst);
                let b = self.fpr(src);
                let r = self.emit_f(IrOp::FAlu(fbin_host(op)), vec![a, b]);
                self.set_fpr(dst, r);
            }
            Insn::FbinM { op, dst, addr } => {
                let ea = self.ea(&addr);
                let b = self.loadf(ea);
                let a = self.fpr(dst);
                let r = self.emit_f(IrOp::FAlu(fbin_host(op)), vec![a, b]);
                self.set_fpr(dst, r);
            }
            Insn::Funary { op, dst } => {
                let a = self.fpr(dst);
                let r = match op {
                    darco_guest::FUnOp::Sqrt => self.emit_f(IrOp::FUn(FUnOp2::Sqrt), vec![a]),
                    darco_guest::FUnOp::Abs => self.emit_f(IrOp::FUn(FUnOp2::Abs), vec![a]),
                    darco_guest::FUnOp::Neg => self.emit_f(IrOp::FUn(FUnOp2::Neg), vec![a]),
                    darco_guest::FUnOp::Sin => self.emit_f(IrOp::FSin, vec![a]),
                    darco_guest::FUnOp::Cos => self.emit_f(IrOp::FCos, vec![a]),
                };
                self.set_fpr(dst, r);
            }
            Insn::Fcmp { a, b } => {
                let va = self.fpr(a);
                let vb = self.fpr(b);
                self.set_flags(FlagState::Fcmp { a: va, b: vb });
            }
            Insn::Cvtsi2f { dst, src } => {
                let a = self.gpr(src);
                let r = self.emit_f(IrOp::CvtIF, vec![a]);
                self.set_fpr(dst, r);
            }
            Insn::Cvtf2si { dst, src } => {
                let a = self.fpr(src);
                let r = self.emit_i(IrOp::CvtFI, vec![a]);
                self.set_gpr(dst, r);
            }
            Insn::Nop => {}
            Insn::Jmp { .. }
            | Insn::Jcc { .. }
            | Insn::JmpInd { .. }
            | Insn::Call { .. }
            | Insn::CallInd { .. }
            | Insn::Ret
            | Insn::Syscall
            | Insn::Halt => unreachable!("terminators are handled by region construction"),
        }
    }

    fn push_value(&mut self, v: VReg) {
        use darco_guest::Gpr::Esp;
        let sp = self.gpr(Esp);
        let sp2 = self.alu_ci(HAluOp::Sub, sp, 4);
        self.store(sp2, v, Width::D);
        self.set_gpr(Esp, sp2);
    }

    fn guest_alu(&mut self, op: AluOp, a: VReg, b: VReg) -> VReg {
        match op {
            AluOp::Add => {
                let r = self.alu(HAluOp::Add, a, b);
                self.set_flags(FlagState::Deferred { kind: FlagsKind::Add, a, b });
                r
            }
            AluOp::Sub => {
                let r = self.alu(HAluOp::Sub, a, b);
                self.set_flags(FlagState::Deferred { kind: FlagsKind::Sub, a, b });
                r
            }
            AluOp::Adc => {
                let cin = self.get_flag(CF);
                let t = self.alu(HAluOp::Add, a, b);
                let r = self.alu(HAluOp::Add, t, cin);
                self.set_flags(FlagState::AdcSbb { add: true, a, b, cin });
                r
            }
            AluOp::Sbb => {
                let cin = self.get_flag(CF);
                let t = self.alu(HAluOp::Sub, a, b);
                let r = self.alu(HAluOp::Sub, t, cin);
                self.set_flags(FlagState::AdcSbb { add: false, a, b, cin });
                r
            }
            AluOp::And => {
                let r = self.alu(HAluOp::And, a, b);
                self.set_flags(FlagState::Deferred { kind: FlagsKind::Logic, a: r, b: r });
                r
            }
            AluOp::Or => {
                let r = self.alu(HAluOp::Or, a, b);
                self.set_flags(FlagState::Deferred { kind: FlagsKind::Logic, a: r, b: r });
                r
            }
            AluOp::Xor => {
                let r = self.alu(HAluOp::Xor, a, b);
                self.set_flags(FlagState::Deferred { kind: FlagsKind::Logic, a: r, b: r });
                r
            }
        }
    }

    fn guest_unary(&mut self, op: UnaryOp, a: VReg) -> VReg {
        match op {
            UnaryOp::Inc => {
                let r = self.alu_ci(HAluOp::Add, a, 1);
                let prev = std::mem::replace(&mut self.flag_state, FlagState::Entry);
                self.set_flags(FlagState::IncDec { inc: true, a, prev: Box::new(prev) });
                r
            }
            UnaryOp::Dec => {
                let r = self.alu_ci(HAluOp::Sub, a, 1);
                let prev = std::mem::replace(&mut self.flag_state, FlagState::Entry);
                self.set_flags(FlagState::IncDec { inc: false, a, prev: Box::new(prev) });
                r
            }
            UnaryOp::Not => self.alu_ci(HAluOp::Xor, a, u32::MAX),
            UnaryOp::Neg => {
                let zero = self.ci(0);
                let r = self.alu(HAluOp::Sub, zero, a);
                self.set_flags(FlagState::Deferred { kind: FlagsKind::Sub, a: zero, b: a });
                r
            }
        }
    }
}

fn fbin_host(op: darco_guest::FBinOp) -> FAluOp {
    match op {
        darco_guest::FBinOp::Add => FAluOp::Add,
        darco_guest::FBinOp::Sub => FAluOp::Sub,
        darco_guest::FBinOp::Mul => FAluOp::Mul,
        darco_guest::FBinOp::Div => FAluOp::Div,
        darco_guest::FBinOp::Min => FAluOp::Min,
        darco_guest::FBinOp::Max => FAluOp::Max,
    }
}

// ---------------------------------------------------------------------------

/// Per-block edge-profiling counter indices allocated by the TOL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeCounters {
    /// Counter bumped on the taken exit.
    pub taken: u32,
    /// Counter bumped on the fallthrough exit.
    pub fall: u32,
}

/// Builds a BBM region for one basic block (paper §V-B2).
pub fn build_bb_region(
    plan: &BlockPlan,
    edge_counters: Option<EdgeCounters>,
    strict_flags: bool,
) -> Region {
    let mut b = RegionBuilder::new(plan.pc, strict_flags);
    for d in &plan.body {
        b.translate_insn(d);
    }
    finish_terminal(&mut b, plan, edge_counters);
    b.region
}

/// Emits the terminal exits for a block's terminator (used by both BBM
/// regions and the final block of a superblock).
pub fn finish_terminal(
    b: &mut RegionBuilder,
    plan: &BlockPlan,
    edge_counters: Option<EdgeCounters>,
) {
    use darco_guest::Gpr;
    match plan.term_kind {
        TermKind::Jcc { cc, target, fall } => {
            b.cur_pc = plan.term.unwrap().pc;
            b.gcnt += 1;
            let cond = b.eval_cond(cc);
            let mut taken = b.exit_desc(ExitKind::Jump { target });
            taken.count_idx = edge_counters.map(|e| e.taken);
            let taken_idx = b.push_exit(taken);
            b.exit_if(cond, taken_idx);
            let mut fallthrough = b.exit_desc(ExitKind::Jump { target: fall });
            fallthrough.count_idx = edge_counters.map(|e| e.fall);
            let fall_idx = b.push_exit(fallthrough);
            b.exit_always(fall_idx);
        }
        TermKind::Jmp { target } => {
            b.cur_pc = plan.term.unwrap().pc;
            b.gcnt += 1;
            let e = b.exit_desc(ExitKind::Jump { target });
            let idx = b.push_exit(e);
            b.exit_always(idx);
        }
        TermKind::Call { target, ret } => {
            b.cur_pc = plan.term.unwrap().pc;
            b.gcnt += 1;
            let retv = b.ci(ret);
            b.push_value(retv);
            let e = b.exit_desc(ExitKind::Jump { target });
            let idx = b.push_exit(e);
            b.exit_always(idx);
        }
        TermKind::Indirect => {
            let term = plan.term.unwrap();
            b.cur_pc = term.pc;
            b.gcnt += 1;
            let target = match term.insn {
                Insn::JmpInd { target } => b.gpr(target),
                Insn::CallInd { target } => {
                    let t = b.gpr(target);
                    let retv = b.ci(after_of(&term));
                    b.push_value(retv);
                    t
                }
                Insn::Ret => {
                    let sp = b.gpr(Gpr::Esp);
                    let v = b.load(sp, Width::D, false);
                    let sp2 = b.alu_ci(HAluOp::Add, sp, 4);
                    b.set_gpr(Gpr::Esp, sp2);
                    v
                }
                other => unreachable!("not an indirect terminator: {other:?}"),
            };
            let mut e = b.exit_desc(ExitKind::Indirect);
            e.indirect_target = Some(target);
            let idx = b.push_exit(e);
            b.exit_always(idx);
        }
        TermKind::Syscall { pc } => {
            let e = b.exit_desc(ExitKind::Syscall { pc });
            let idx = b.push_exit(e);
            b.exit_always(idx);
        }
        TermKind::Halt => {
            let e = b.exit_desc(ExitKind::Halt);
            let idx = b.push_exit(e);
            b.exit_always(idx);
        }
        TermKind::Split { next } => {
            let e = b.exit_desc(ExitKind::Jump { target: next });
            let idx = b.push_exit(e);
            b.exit_always(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darco_guest::program::DEFAULT_CODE_BASE;
    use darco_guest::{Asm, Gpr};

    fn decode_first(build: impl FnOnce(&mut Asm)) -> (BlockPlan, GuestMem) {
        let mut a = Asm::new(DEFAULT_CODE_BASE);
        build(&mut a);
        let p = a.into_program();
        let mut mem = GuestMem::new();
        p.map_into(&mut mem);
        (decode_block(&mem, DEFAULT_CODE_BASE).unwrap(), mem)
    }

    #[test]
    fn decode_classifies_terminators() {
        let (p, _) = decode_first(|a| {
            a.mov_ri(Gpr::Eax, 1);
            a.cmp_ri(Gpr::Eax, 2);
            let l = a.here();
            a.jcc_to(Cond::Ne, l);
        });
        assert_eq!(p.body.len(), 2);
        assert!(matches!(p.term_kind, TermKind::Jcc { cc: Cond::Ne, .. }));
        assert!(p.translatable);

        let (p, _) = decode_first(|a| {
            a.syscall();
        });
        assert!(matches!(p.term_kind, TermKind::Syscall { .. }));
        assert!(p.term.is_none());
        assert_eq!(p.retired_insns(), 0);
    }

    #[test]
    fn decode_flags_untranslatable_blocks() {
        let (p, _) = decode_first(|a| {
            a.emit(Insn::Movs { width: Width::B, rep: true });
            a.ret();
        });
        assert!(!p.translatable);
        let (p, _) = decode_first(|a| {
            a.emit(Insn::Shift {
                op: ShiftOp::Shl,
                dst: Gpr::Eax,
                amount: ShiftAmount::Cl,
            });
            a.ret();
        });
        assert!(!p.translatable);
    }

    #[test]
    fn decode_splits_long_blocks() {
        let (p, _) = decode_first(|a| {
            for _ in 0..(MAX_BLOCK_INSNS + 40) {
                a.nop();
            }
            a.ret();
        });
        assert_eq!(p.body.len(), MAX_BLOCK_INSNS);
        assert!(matches!(p.term_kind, TermKind::Split { .. }));
    }

    #[test]
    fn bb_region_for_compare_branch_is_compact() {
        // cmp + jcc must fuse into a single compare host op (plus exits):
        // the paper's low branch emulation cost.
        let (p, _) = decode_first(|a| {
            a.cmp_ri(Gpr::Eax, 10);
            let l = a.here();
            a.jcc_to(Cond::L, l);
        });
        let region = build_bb_region(&p, None, false);
        region.validate();
        // One ConstI + one fused SltS + exits.
        let alus = region
            .insts
            .iter()
            .filter(|i| matches!(i.op, IrOp::Alu(_)))
            .count();
        assert_eq!(alus, 1, "cmp+jl must fuse to one SltS:\n{region}");
        // Exits carry the retired-instruction count (cmp + jcc = 2).
        assert_eq!(region.exits[0].gcnt, 2);
        assert_eq!(region.exits[1].gcnt, 2);
    }

    #[test]
    fn region_publishes_deferred_flags_at_exit() {
        let (p, _) = decode_first(|a| {
            a.alu_ri(AluOp::Add, Gpr::Eax, 7);
            a.ret();
        });
        let region = build_bb_region(&p, None, false);
        region.validate();
        // The terminal (indirect) exit must carry the Add descriptor.
        let exit = &region.exits[0];
        assert!(matches!(exit.deferred, Some((FlagsKind::Add, _, _))));
        assert_eq!(exit.kind, ExitKind::Indirect);
    }

    #[test]
    fn strict_flags_materializes_instead() {
        let (p, _) = decode_first(|a| {
            a.alu_ri(AluOp::Add, Gpr::Eax, 7);
            a.ret();
        });
        let region = build_bb_region(&p, None, true);
        region.validate();
        let exit = &region.exits[0];
        assert!(exit.deferred.is_none());
        assert!(exit.flags.iter().all(|f| f.is_some()), "all five flags materialized");
    }

    #[test]
    fn xchg_is_free_and_swaps_exit_map() {
        let (p, _) = decode_first(|a| {
            a.emit(Insn::Xchg { a: Gpr::Eax, b: Gpr::Ebx });
            a.emit(Insn::Jmp { rel: 0 });
        });
        let region = build_bb_region(&p, None, false);
        region.validate();
        let e = &region.exits[0];
        // eax's exit value is ebx's entry vreg and vice versa.
        assert_eq!(e.gprs[0], region.entry.gprs[3]);
        assert_eq!(e.gprs[3], region.entry.gprs[0]);
    }

    #[test]
    fn call_pushes_return_address() {
        let (p, _) = decode_first(|a| {
            let f = a.label();
            a.call_to(f);
            a.bind(f);
            a.ret();
        });
        assert!(matches!(p.term_kind, TermKind::Call { .. }));
        let region = build_bb_region(&p, None, false);
        region.validate();
        assert!(region.insts.iter().any(|i| i.op.is_store()), "call stores the return pc");
        // ESP changed: published at exit.
        assert!(region.exits[0].gprs[Gpr::Esp.index()].is_some());
    }

    #[test]
    fn edge_counters_attach_to_jcc_exits() {
        let (p, _) = decode_first(|a| {
            a.cmp_ri(Gpr::Ecx, 0);
            let l = a.here();
            a.jcc_to(Cond::Ne, l);
        });
        let region =
            build_bb_region(&p, Some(EdgeCounters { taken: 11, fall: 22 }), false);
        assert_eq!(region.exits[0].count_idx, Some(11));
        assert_eq!(region.exits[1].count_idx, Some(22));
    }
}
