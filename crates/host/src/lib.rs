//! # HISA — the co-designed host ISA of the DARCO reproduction
//!
//! DARCO's host is a "PowerPC-like RISC" with co-designed extensions for
//! speculative execution (ISPASS 2017, §III and §V-B). This crate defines
//! that host:
//!
//! * 64 integer + 64 floating-point registers with a fixed [register
//!   convention](regs) that pins the guest architectural state to host
//!   registers (the paper's "map guest architectural registers directly on
//!   the host registers" emulation-cost optimization);
//! * a RISC instruction set ([`HInsn`]) with compare-into-register +
//!   branch-on-register control flow and fixed 32-bit [encodings](encode)
//!   (speculative memory operations use a two-word "molecule" carrying
//!   their original program-order sequence number);
//! * the co-designed speculation primitives the paper describes:
//!   `chkpt`/`commit` transactions with a gated store buffer, `assert`
//!   instructions that replace biased branches inside superblocks, and
//!   alias detection for speculatively reordered memory operations, held
//!   in one [`state::HostState`] that the reference emulator
//!   ([`emu::HostEmulator`]) and the native backend both execute over;
//! * code-cache glue: patchable [`HInsn::ChainSlot`] exits for translation
//!   chaining and [`HInsn::IbtcJmp`] for the indirect-branch translation
//!   cache;
//! * hand-written host [runtime routines](runtime) for the guest's
//!   software-emulated `sin`/`cos`, operation-for-operation identical to
//!   the architectural spec in `darco_guest::softfp`.
//!
//! The emulator is *transactional*: every translation begins with `chkpt`,
//! stores are buffered until commit, and any assert failure, alias
//! violation or page fault rolls the whole transaction back — exactly the
//! recovery model that lets DARCO's software layer fall back to
//! interpretation after a speculation failure.

pub mod codegen;
pub mod emu;
pub mod encode;
pub mod hasm;
pub mod insn;
pub mod regs;
pub mod runtime;
pub mod sink;
pub mod state;

pub use codegen::{new_backend, Backend, HostCodeGen, JitStats};
pub use emu::{ExitCause, ExitInfo, HostEmulator, IbtcTable, ProfTable};
pub use encode::{decode_insn, encode_insn, HDecodeError};
pub use hasm::HAsm;
pub use insn::{FAluOp, FCmpOp, FUnOp2, HAluOp, HInsn};
pub use regs::{HFreg, HReg};
pub use sink::{CountingSink, DynSink, EventKind, InsnSink, NullSink, RetireEvent};
pub use state::HostState;
