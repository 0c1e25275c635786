//! Structured trace events and the ring-buffer trace sink.
//!
//! Every interesting transition in the TOL/timing pipeline is a typed
//! [`TraceEventKind`]; enabled tracers stamp it with a monotonic sequence
//! number and a nanosecond timestamp and store it in a fixed-capacity
//! ring ([`RingTrace`]) that overwrites its oldest entries, so the tail
//! of any run — the part the flight recorder wants — is always available
//! at O(capacity) memory.
//!
//! The sink follows the `InsnSink` monomorphization pattern from the
//! hot-path overhaul: [`NullTrace`] is an inlined no-op, and the
//! [`Tracer`] enum gives structs that need runtime selection a concrete
//! field type whose disabled path is a single predictable branch.

use crate::json::JsonWriter;
use std::time::Instant;

/// TOL execution mode (the paper's IM/BBM/SBM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Interpretation mode.
    Im,
    /// Basic-block translation mode.
    Bbm,
    /// Superblock mode.
    Sbm,
}

impl ExecMode {
    /// Short lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Im => "im",
            ExecMode::Bbm => "bbm",
            ExecMode::Sbm => "sbm",
        }
    }
}

/// A typed trace event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEventKind {
    /// Execution switched mode (emitted on change, not per block).
    ModeSwitch {
        /// Mode before the switch.
        from: ExecMode,
        /// Mode after the switch.
        to: ExecMode,
        /// Guest PC at the switch.
        pc: u32,
    },
    /// A BBM/SBM translation started.
    TranslateStart {
        /// Superblock (SBM) rather than basic block (BBM)?
        sb: bool,
        /// Guest entry PC of the region.
        pc: u32,
    },
    /// The matching translation finished (also emitted when it bails).
    TranslateEnd {
        /// Superblock (SBM) rather than basic block (BBM)?
        sb: bool,
        /// Guest entry PC of the region.
        pc: u32,
        /// Wall-clock nanoseconds spent translating.
        ns: u64,
        /// Whether a translation was actually installed.
        ok: bool,
    },
    /// A block was promoted to a hotter mode.
    Promotion {
        /// Guest PC of the promoted block.
        pc: u32,
        /// Destination mode (BBM or SBM).
        to: ExecMode,
    },
    /// A direct-branch exit was chained to another translation.
    ChainPatch {
        /// Guest PC of the patched translation.
        from_pc: u32,
        /// Guest PC of the chain target.
        to_pc: u32,
    },
    /// An indirect-branch target entered the IBTC.
    IbtcInsert {
        /// Guest PC of the inserted target.
        pc: u32,
    },
    /// Speculation failed (assert or alias) and rolled back.
    Rollback {
        /// Guest entry PC of the rolled-back region.
        pc: u32,
        /// Host instructions the failed dispatch executed, across every
        /// region it chained through before the rollback.
        host_insns: u64,
    },
    /// A failing superblock was recreated as multiple-exit.
    Recreate {
        /// Guest entry PC of the region.
        pc: u32,
    },
    /// A translation entered the code cache.
    CacheInsert {
        /// Translation id.
        id: u32,
        /// Guest entry PC.
        pc: u32,
        /// Encoded size in code-cache words.
        words: u32,
    },
    /// The code cache overflowed and was flushed.
    CacheFlush {
        /// Live translations discarded.
        live: u32,
        /// Words in use at the flush.
        used_words: u64,
    },
    /// The static verifier reported a finding.
    VerifierFinding {
        /// Pipeline stage (`bbm-pipeline`, `sbm-ddg`, `codegen`, ...).
        stage: &'static str,
        /// Violated invariant name.
        kind: &'static str,
        /// Guest entry PC of the offending region.
        pc: u32,
    },
    /// Sync protocol: the co-designed component requested a page.
    PageRequest {
        /// Faulting guest address.
        addr: u32,
    },
    /// Sync protocol: a system call synchronized both components.
    SyscallSync {
        /// Retired guest instructions at the call.
        at_insns: u64,
    },
    /// Sync protocol: a state validation ran (and passed).
    Validation {
        /// Retired guest instructions at the check.
        at_insns: u64,
    },
    /// Sync protocol: a state validation failed — the components
    /// diverged.
    Divergence {
        /// Retired guest instructions at the failed check.
        at_insns: u64,
        /// Authoritative guest PC.
        guest_pc: u32,
    },
    /// The run ended (halt, exit syscall or synchronized fault).
    RunEnd {
        /// Final retired-instruction count.
        at_insns: u64,
    },
    /// The native JIT backend compiled fragments to machine code
    /// (aggregated over one `execute` call).
    JitCompile {
        /// Fragments compiled in this batch.
        frags: u64,
        /// Machine-code bytes emitted.
        bytes: u64,
        /// Wall-clock nanoseconds spent compiling.
        ns: u64,
    },
    /// The native backend patched direct jumps and/or inline IBTC caches
    /// into already-compiled code.
    JitPatch {
        /// Direct jumps patched (fragment chaining).
        jumps: u64,
        /// Inline IBTC caches installed (subset of `jumps`).
        ibtc: u64,
    },
    /// The native backend discarded compiled machine code (whole-buffer
    /// flush or precise invalidation over mutated arena ranges).
    JitInvalidate {
        /// Machine-code bytes discarded.
        bytes: u64,
    },
    /// Semantic translation validation opened over a region (span begin;
    /// the matching [`TraceEventKind::SemEnd`] closes it).
    SemBegin {
        /// Guest entry PC of the region under proof.
        pc: u32,
    },
    /// Semantic translation validation closed (span end).
    SemEnd {
        /// Guest entry PC of the region under proof.
        pc: u32,
        /// Wall-clock nanoseconds spent summarizing/comparing.
        ns: u64,
        /// Divergences found (0 = the proof went through).
        findings: u32,
    },
    /// The x86-64 machine-code verifier checked freshly compiled
    /// fragments (aggregated over one `execute` call).
    McodeVerify {
        /// Fragments checked.
        fragments: u64,
        /// Checker findings raised.
        findings: u64,
        /// Wall-clock nanoseconds inside the checker.
        ns: u64,
    },
}

impl TraceEventKind {
    /// Stable event name (used by exporters and assertions).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::ModeSwitch { .. } => "mode_switch",
            TraceEventKind::TranslateStart { sb: false, .. } => "translate_bb",
            TraceEventKind::TranslateStart { sb: true, .. } => "translate_sb",
            TraceEventKind::TranslateEnd { sb: false, .. } => "translate_bb",
            TraceEventKind::TranslateEnd { sb: true, .. } => "translate_sb",
            TraceEventKind::Promotion { .. } => "promotion",
            TraceEventKind::ChainPatch { .. } => "chain_patch",
            TraceEventKind::IbtcInsert { .. } => "ibtc_insert",
            TraceEventKind::Rollback { .. } => "rollback",
            TraceEventKind::Recreate { .. } => "recreate_multi_exit",
            TraceEventKind::CacheInsert { .. } => "cache_insert",
            TraceEventKind::CacheFlush { .. } => "cache_flush",
            TraceEventKind::VerifierFinding { .. } => "verifier_finding",
            TraceEventKind::PageRequest { .. } => "page_request",
            TraceEventKind::SyscallSync { .. } => "syscall_sync",
            TraceEventKind::Validation { .. } => "validation",
            TraceEventKind::Divergence { .. } => "divergence",
            TraceEventKind::RunEnd { .. } => "run_end",
            TraceEventKind::JitCompile { .. } => "jit.compile",
            TraceEventKind::JitPatch { .. } => "jit.patch",
            TraceEventKind::JitInvalidate { .. } => "jit.invalidate",
            TraceEventKind::SemBegin { .. } | TraceEventKind::SemEnd { .. } => "verify.semantic",
            TraceEventKind::McodeVerify { .. } => "verify.mcode",
        }
    }

    /// Chrome-trace lane (tid) grouping related events together.
    pub fn lane(&self) -> u32 {
        match self {
            TraceEventKind::ModeSwitch { .. } => 1,
            TraceEventKind::TranslateStart { .. }
            | TraceEventKind::TranslateEnd { .. }
            | TraceEventKind::Promotion { .. }
            | TraceEventKind::Recreate { .. }
            | TraceEventKind::CacheInsert { .. }
            | TraceEventKind::CacheFlush { .. }
            | TraceEventKind::ChainPatch { .. }
            | TraceEventKind::IbtcInsert { .. } => 2,
            TraceEventKind::Rollback { .. } => 1,
            TraceEventKind::VerifierFinding { .. } => 4,
            TraceEventKind::PageRequest { .. }
            | TraceEventKind::SyscallSync { .. }
            | TraceEventKind::Validation { .. }
            | TraceEventKind::Divergence { .. }
            | TraceEventKind::RunEnd { .. } => 3,
            TraceEventKind::JitCompile { .. }
            | TraceEventKind::JitPatch { .. }
            | TraceEventKind::JitInvalidate { .. } => 5,
            TraceEventKind::SemBegin { .. }
            | TraceEventKind::SemEnd { .. }
            | TraceEventKind::McodeVerify { .. } => 6,
        }
    }

    /// Writes the event's payload fields into an open JSON object.
    pub fn write_args(&self, w: &mut JsonWriter) {
        match *self {
            TraceEventKind::ModeSwitch { from, to, pc } => {
                w.field_str("from", from.name()).field_str("to", to.name());
                w.field_num("pc", pc);
            }
            TraceEventKind::TranslateStart { sb, pc } => {
                w.field_bool("sb", sb).field_num("pc", pc);
            }
            TraceEventKind::TranslateEnd { sb, pc, ns, ok } => {
                w.field_bool("sb", sb).field_num("pc", pc);
                w.field_num("ns", ns).field_bool("ok", ok);
            }
            TraceEventKind::Promotion { pc, to } => {
                w.field_num("pc", pc).field_str("to", to.name());
            }
            TraceEventKind::ChainPatch { from_pc, to_pc } => {
                w.field_num("from_pc", from_pc).field_num("to_pc", to_pc);
            }
            TraceEventKind::IbtcInsert { pc } => {
                w.field_num("pc", pc);
            }
            TraceEventKind::Rollback { pc, host_insns } => {
                w.field_num("pc", pc).field_num("host_insns", host_insns);
            }
            TraceEventKind::Recreate { pc } => {
                w.field_num("pc", pc);
            }
            TraceEventKind::CacheInsert { id, pc, words } => {
                w.field_num("id", id).field_num("pc", pc).field_num("words", words);
            }
            TraceEventKind::CacheFlush { live, used_words } => {
                w.field_num("live", live).field_num("used_words", used_words);
            }
            TraceEventKind::VerifierFinding { stage, kind, pc } => {
                w.field_str("stage", stage).field_str("kind", kind).field_num("pc", pc);
            }
            TraceEventKind::PageRequest { addr } => {
                w.field_num("addr", addr);
            }
            TraceEventKind::SyscallSync { at_insns }
            | TraceEventKind::Validation { at_insns }
            | TraceEventKind::RunEnd { at_insns } => {
                w.field_num("at_insns", at_insns);
            }
            TraceEventKind::Divergence { at_insns, guest_pc } => {
                w.field_num("at_insns", at_insns).field_num("guest_pc", guest_pc);
            }
            TraceEventKind::JitCompile { frags, bytes, ns } => {
                w.field_num("frags", frags).field_num("bytes", bytes).field_num("ns", ns);
            }
            TraceEventKind::JitPatch { jumps, ibtc } => {
                w.field_num("jumps", jumps).field_num("ibtc", ibtc);
            }
            TraceEventKind::JitInvalidate { bytes } => {
                w.field_num("bytes", bytes);
            }
            TraceEventKind::SemBegin { pc } => {
                w.field_num("pc", pc);
            }
            TraceEventKind::SemEnd { pc, ns, findings } => {
                w.field_num("pc", pc).field_num("ns", ns).field_num("findings", findings);
            }
            TraceEventKind::McodeVerify { fragments, findings, ns } => {
                w.field_num("fragments", fragments).field_num("findings", findings);
                w.field_num("ns", ns);
            }
        }
    }
}

/// A recorded event: payload plus stamping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Monotonic sequence number (never reset, survives ring wrap).
    pub seq: u64,
    /// Nanoseconds since the tracer was created.
    pub ts_ns: u64,
    /// The typed payload.
    pub kind: TraceEventKind,
}

/// Consumer of trace events.
///
/// Mirrors `InsnSink`: generic call sites monomorphize over `T:
/// TraceSink` so [`NullTrace`] costs nothing, and [`Tracer`] is the
/// concrete enum for struct fields.
pub trait TraceSink {
    /// Whether events are being recorded — call sites may use this to
    /// skip argument computation entirely.
    fn enabled(&self) -> bool;
    /// Records one event.
    fn emit(&mut self, kind: TraceEventKind);
}

/// Trace sink that discards everything (compiles to nothing).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTrace;

impl TraceSink for NullTrace {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn emit(&mut self, _kind: TraceEventKind) {}
}

/// Fixed-capacity ring of trace events with monotonic sequence numbers.
///
/// Single-writer by construction (the simulator is single-threaded); the
/// "lock-free style" is the layout: a plain `Vec` plus a write index, no
/// interior locking, O(1) emit.
#[derive(Debug, Clone)]
pub struct RingTrace {
    buf: Vec<TraceEvent>,
    cap: usize,
    next: usize,
    seq: u64,
    dropped: u64,
    epoch: Instant,
}

impl RingTrace {
    /// Creates a ring holding up to `cap` events (min 1).
    pub fn new(cap: usize) -> RingTrace {
        let cap = cap.max(1);
        RingTrace {
            buf: Vec::with_capacity(cap.min(4096)),
            cap,
            next: 0,
            seq: 0,
            dropped: 0,
            epoch: Instant::now(),
        }
    }

    /// Events recorded since creation (including overwritten ones).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Events lost to ring overwrite.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The held events in sequence order (oldest first).
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        if self.buf.len() == self.cap {
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
        } else {
            out.extend_from_slice(&self.buf);
        }
        out
    }

    /// Removes and returns the held events (sequence numbering and the
    /// timestamp epoch continue across drains).
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        let out = self.events();
        self.buf.clear();
        self.next = 0;
        out
    }
}

impl TraceSink for RingTrace {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&mut self, kind: TraceEventKind) {
        let ev = TraceEvent {
            seq: self.seq,
            ts_ns: self.epoch.elapsed().as_nanos() as u64,
            kind,
        };
        self.seq += 1;
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.dropped += 1;
        }
        self.next = (self.next + 1) % self.cap;
    }
}

/// Runtime-selected tracer: the concrete field type for structs that may
/// or may not trace (the `DynSink` analogue, without dynamic dispatch).
#[derive(Debug, Default, Clone)]
pub enum Tracer {
    /// Tracing off — [`TraceSink::emit`] is one branch and a return.
    #[default]
    Off,
    /// Recording into a ring.
    Ring(RingTrace),
}

impl Tracer {
    /// A tracer recording into a fresh ring of `cap` events.
    pub fn ring(cap: usize) -> Tracer {
        Tracer::Ring(RingTrace::new(cap))
    }

    /// The underlying ring, when tracing is on.
    pub fn ring_ref(&self) -> Option<&RingTrace> {
        match self {
            Tracer::Off => None,
            Tracer::Ring(r) => Some(r),
        }
    }

    /// Held events in order (empty when off).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring_ref().map(RingTrace::events).unwrap_or_default()
    }

    /// Drains held events (empty when off).
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        match self {
            Tracer::Off => Vec::new(),
            Tracer::Ring(r) => r.drain(),
        }
    }
}

impl TraceSink for Tracer {
    #[inline]
    fn enabled(&self) -> bool {
        matches!(self, Tracer::Ring(_))
    }

    #[inline]
    fn emit(&mut self, kind: TraceEventKind) {
        if let Tracer::Ring(r) = self {
            r.emit(kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pc: u32) -> TraceEventKind {
        TraceEventKind::Promotion { pc, to: ExecMode::Bbm }
    }

    #[test]
    fn ring_keeps_order_and_monotonic_seq() {
        let mut r = RingTrace::new(8);
        for i in 0..5 {
            r.emit(ev(i));
        }
        let evs = r.events();
        assert_eq!(evs.len(), 5);
        for (i, e) in evs.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        assert!(evs.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn ring_overwrites_oldest_on_wrap() {
        let mut r = RingTrace::new(4);
        for i in 0..10 {
            r.emit(ev(i));
        }
        assert_eq!(r.seq(), 10);
        assert_eq!(r.dropped(), 6);
        let evs = r.events();
        assert_eq!(evs.len(), 4);
        let seqs: Vec<u64> = evs.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "tail survives, in order");
    }

    #[test]
    fn drain_resets_contents_but_not_seq() {
        let mut r = RingTrace::new(4);
        r.emit(ev(1));
        r.emit(ev(2));
        assert_eq!(r.drain().len(), 2);
        assert!(r.is_empty());
        r.emit(ev(3));
        assert_eq!(r.events()[0].seq, 2, "sequence continues");
    }

    #[test]
    fn null_and_off_tracers_record_nothing() {
        let mut n = NullTrace;
        assert!(!n.enabled());
        n.emit(ev(1));
        let mut t = Tracer::Off;
        t.emit(ev(1));
        assert!(t.events().is_empty());
        let mut t = Tracer::ring(4);
        assert!(t.enabled());
        t.emit(ev(1));
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn event_names_are_stable() {
        assert_eq!(ev(0).name(), "promotion");
        assert_eq!(
            TraceEventKind::TranslateEnd { sb: true, pc: 0, ns: 1, ok: true }.name(),
            "translate_sb"
        );
        assert_eq!(TraceEventKind::Divergence { at_insns: 1, guest_pc: 2 }.name(), "divergence");
    }

    #[test]
    fn args_render_as_valid_json() {
        let kinds = [
            TraceEventKind::ModeSwitch { from: ExecMode::Im, to: ExecMode::Sbm, pc: 1 },
            TraceEventKind::TranslateEnd { sb: false, pc: 2, ns: 3, ok: true },
            TraceEventKind::CacheFlush { live: 4, used_words: 5 },
            TraceEventKind::VerifierFinding { stage: "codegen", kind: "x", pc: 6 },
        ];
        for k in kinds {
            let mut w = JsonWriter::new();
            w.begin_obj(None);
            k.write_args(&mut w);
            w.end_obj();
            crate::json::parse(&w.finish()).unwrap();
        }
    }
}
