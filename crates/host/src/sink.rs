//! Retired-instruction event stream.
//!
//! DARCO's timing simulator "receives the dynamic instruction stream from
//! the co-designed component" (§V-C). [`InsnSink`] is that interface: the
//! host emulator (and the TOL-overhead synthesizer) push one
//! [`RetireEvent`] per executed host instruction; the timing simulator in
//! `darco-timing` implements the trait.

/// Classified retired host instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Simple integer operation (1-cycle class).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide/remainder.
    IntDiv,
    /// FP add/sub/compare/convert class.
    FpAdd,
    /// FP multiply.
    FpMul,
    /// FP divide.
    FpDiv,
    /// FP square root.
    FpSqrt,
    /// Memory load with its guest effective address.
    Load { addr: u32, bytes: u8 },
    /// Memory store with its guest effective address.
    Store { addr: u32, bytes: u8 },
    /// Control transfer. `cond` distinguishes conditional branches (which
    /// train the direction predictor) from unconditional ones.
    Branch { taken: bool, target: u64, cond: bool },
    /// Anything else (checkpoint bookkeeping, immediate moves, ...).
    Other,
}

/// Register operand in the unified timing namespace: `0–63` integer
/// registers, `64–127` FP registers, `None` when absent.
pub type RegId = Option<u8>;

/// Encodes an FP register index into the unified namespace.
#[inline]
pub fn fp_reg(idx: u8) -> u8 {
    64 + idx
}

/// One retired host instruction, with its register dependences (the
/// timing simulator's scoreboard consumes these).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetireEvent {
    /// Host program counter, in code-cache word units.
    pub host_pc: u64,
    /// Instruction class.
    pub kind: EventKind,
    /// Destination register.
    pub dst: RegId,
    /// Source registers.
    pub srcs: [RegId; 2],
}

impl RetireEvent {
    /// An event with no register operands.
    pub fn plain(host_pc: u64, kind: EventKind) -> RetireEvent {
        RetireEvent { host_pc, kind, dst: None, srcs: [None, None] }
    }
}

/// Consumer of the retired-instruction stream.
///
/// The hot path is monomorphized over this trait (`S: InsnSink`), so a
/// [`NullSink`] compiles to nothing inside the emulator loops. Call sites
/// that genuinely need runtime sink selection (the debug toolchain) wrap
/// a trait object in [`DynSink`].
pub trait InsnSink {
    /// Receives one retired instruction.
    fn retire(&mut self, ev: &RetireEvent);

    /// Whether this sink discards every event. The native backend is only
    /// eligible when the sink is inert: translated regions run as real
    /// machine code and produce no per-instruction retire stream, so any
    /// sink that observes events (the timing simulators, counting sinks)
    /// forces the emulator path.
    #[inline]
    fn is_null(&self) -> bool {
        false
    }

    /// Whether this sink wants block-granular delivery. When true, the
    /// emulator buffers retire events between architectural boundaries
    /// (checkpoints, cache exits, rollbacks) and hands them over through
    /// [`InsnSink::retire_block`] instead of one [`InsnSink::retire`] call
    /// per instruction, which is what lets a fast timing path charge a
    /// whole block at once.
    #[inline]
    fn wants_blocks(&self) -> bool {
        false
    }

    /// Receives one block of retired instructions in program order.
    /// `complete` is true when the block ended at a planned boundary
    /// (checkpoint, cache exit) and false when it was cut short by a
    /// rollback or a fuel stop — incomplete blocks are valid retire
    /// history but not representative block shapes worth memoizing.
    ///
    /// The default forwards to per-instruction [`InsnSink::retire`], so
    /// sinks that don't opt into blocks behave identically either way.
    #[inline]
    fn retire_block(&mut self, events: &[RetireEvent], complete: bool) {
        let _ = complete;
        for ev in events {
            self.retire(ev);
        }
    }
}

impl<S: InsnSink + ?Sized> InsnSink for &mut S {
    #[inline]
    fn retire(&mut self, ev: &RetireEvent) {
        (**self).retire(ev);
    }

    #[inline]
    fn is_null(&self) -> bool {
        (**self).is_null()
    }

    #[inline]
    fn wants_blocks(&self) -> bool {
        (**self).wants_blocks()
    }

    #[inline]
    fn retire_block(&mut self, events: &[RetireEvent], complete: bool) {
        (**self).retire_block(events, complete);
    }
}

/// Sink that discards everything (functional-only simulation).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl InsnSink for NullSink {
    #[inline(always)]
    fn retire(&mut self, _ev: &RetireEvent) {}

    #[inline(always)]
    fn is_null(&self) -> bool {
        true
    }
}

/// Adapter giving a trait-object sink the concrete type the monomorphized
/// hot path wants: `DynSink(&mut dyn InsnSink)` is itself an `InsnSink`.
pub struct DynSink<'a>(pub &'a mut dyn InsnSink);

impl InsnSink for DynSink<'_> {
    #[inline]
    fn retire(&mut self, ev: &RetireEvent) {
        self.0.retire(ev);
    }

    #[inline]
    fn is_null(&self) -> bool {
        self.0.is_null()
    }

    #[inline]
    fn wants_blocks(&self) -> bool {
        self.0.wants_blocks()
    }

    #[inline]
    fn retire_block(&mut self, events: &[RetireEvent], complete: bool) {
        self.0.retire_block(events, complete);
    }
}

/// Sink that counts events by class; useful in tests and quick stats.
#[derive(Debug, Default, Clone)]
pub struct CountingSink {
    /// Total events seen.
    pub total: u64,
    /// Loads.
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// Branches (conditional and unconditional).
    pub branches: u64,
    /// Taken branches.
    pub taken: u64,
}

impl InsnSink for CountingSink {
    fn retire(&mut self, ev: &RetireEvent) {
        self.total += 1;
        match ev.kind {
            EventKind::Load { .. } => self.loads += 1,
            EventKind::Store { .. } => self.stores += 1,
            EventKind::Branch { taken, .. } => {
                self.branches += 1;
                if taken {
                    self.taken += 1;
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_classifies() {
        let mut s = CountingSink::default();
        s.retire(&RetireEvent::plain(0, EventKind::Load { addr: 4, bytes: 4 }));
        s.retire(&RetireEvent::plain(
            1,
            EventKind::Branch { taken: true, target: 9, cond: true },
        ));
        s.retire(&RetireEvent::plain(2, EventKind::IntAlu));
        assert_eq!((s.total, s.loads, s.branches, s.taken), (3, 1, 1, 1));
    }

    #[test]
    fn fp_registers_map_above_integer_space() {
        assert_eq!(fp_reg(0), 64);
        assert_eq!(fp_reg(63), 127);
    }
}
