//! Predecoded guest basic-block cache and the one block replay over it.
//!
//! Interpreting guest code costs a fetch + decode per executed
//! instruction, and the fetch alone touches memory byte-wise in the worst
//! case. DARCO interprets the same basic blocks over and over between
//! promotions and sync points, so decoding each block once and replaying
//! the predecoded run amortizes nearly all of that cost.
//!
//! [`DecodeCache`] maps a block's entry PC to its decoded instruction run
//! (a [`Block`]), and [`DecodeCache::run`] replays one block through
//! [`exec_insn`] and reports why it stopped ([`BlockStop`]). It is the
//! only block replay: the TOL's interpretation mode and the authoritative
//! component's catch-up both call it and differ only in how they handle a
//! stop. [`crate::exec::step`] stays the fetch-per-instruction reference
//! it is tested against.
//!
//! ## Dispatch without hashing
//!
//! Blocks live in an arena, with one PC → slot index (hashed by
//! `mem::IntHasher`). Each block caches its two most recent
//! successors as `(pc, slot)` links, and the cache remembers the block it
//! entered last, so entering the next block usually compares two PCs
//! instead of hashing; the index is probed once, on a link miss. Inside a
//! block, the replay loop does only the instruction's own work:
//! [`exec_insn`] inlines into it, `syscall`/`halt` (which only end blocks)
//! are caught through the [`Next`] they return, and the budget bounds the
//! loop index instead of being tested per instruction.
//!
//! Coherence with self-modifying code relies on [`GuestMem`]'s code-page
//! generation: every page a decoded block's bytes occupy is marked with
//! [`GuestMem::mark_code_page`], any write to a marked page bumps
//! [`GuestMem::code_gen`], and [`DecodeCache::block`] flushes the whole
//! cache — arena, index and links together — whenever the generation
//! moved, so no link outlives the block it names. The replay re-checks
//! the generation after every retired instruction, so a block that
//! modifies *itself* stops before stale bytes can execute.

use crate::exec::{exec_insn, fetch, Fault, Next};
use crate::insn::Insn;
use crate::mem::{GuestMem, IntBuildHasher, PAGE_SHIFT};
use crate::state::GuestState;
use std::collections::HashMap;

/// Cap on decoded instructions per block. The TOL's interpreter and its
/// translator split blocks at the same point, so IM profiling and
/// translations agree on block heads.
pub const MAX_BLOCK_INSNS: usize = 128;

/// Cache-size backstop: a full flush past this many blocks keeps the
/// memory footprint bounded on pathological block-entry churn. Unit
/// tests build with a small cap so the flush path runs.
const MAX_CACHED_BLOCKS: usize = if cfg!(test) { 8 } else { 1 << 16 };

/// One predecoded basic block: the `(instruction, encoded length)` run
/// starting at its entry PC.
#[derive(Debug, Clone)]
pub struct Block {
    /// Decoded instructions in fetch order.
    pub insns: Vec<(Insn, u32)>,
    /// `true` if the last instruction ends the block architecturally
    /// (branch/call/ret/syscall/halt). `false` means the run was cut
    /// short — by the size cap or because the next fetch faulted — and
    /// execution past it must re-enter the cache at the next PC.
    pub terminated: bool,
    /// The two most recent successors entered after this block, as
    /// `(entry pc, arena slot)`, newest first. Every link is a valid
    /// `index` entry: a block starts out linked to itself, and the arena,
    /// the index and the links are only ever cleared together.
    links: [(u32, u32); 2],
}

/// Why a block replay stopped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BlockStop {
    /// The block ended normally (branch, jump, call or ret); `EIP` holds
    /// the next PC.
    End,
    /// The budget ran out, or the run was cut short (size cap, faulting
    /// tail, or a store into decoded code). Resumable at `EIP`.
    Budget,
    /// The next instruction is a syscall; `EIP` points at it.
    Syscall,
    /// The next instruction is `halt`; `EIP` points at it.
    Halt,
    /// A page fault; `EIP` points at the faulting instruction (resumable
    /// once the page is installed).
    PageFault {
        /// Faulting address.
        addr: u32,
        /// Write access?
        write: bool,
    },
    /// A non-recoverable guest fault (bad opcode, division by zero).
    GuestError(Fault),
}

impl From<Fault> for BlockStop {
    fn from(f: Fault) -> BlockStop {
        match f {
            Fault::Page(pf) => BlockStop::PageFault { addr: pf.addr, write: pf.write },
            f => BlockStop::GuestError(f),
        }
    }
}

/// Result of replaying (up to) one basic block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockRun {
    /// PC the block started at.
    pub entry_pc: u32,
    /// Guest instructions retired.
    pub insns: u64,
    /// Why the replay stopped.
    pub stop: BlockStop,
    /// For blocks ending in a conditional branch: `(taken_target,
    /// fallthrough, taken?)` — feeds the edge profiler.
    pub jcc: Option<(u32, u32, bool)>,
}

/// A decode cache keyed by block entry PC (see module docs).
#[derive(Debug, Clone, Default)]
pub struct DecodeCache {
    /// Block arena; `index` and the blocks' `links` hold slots into it.
    blocks: Vec<Block>,
    /// Entry PC → arena slot.
    index: HashMap<u32, u32, IntBuildHasher>,
    /// Slot of the block entered last, whose links the next entry checks.
    last: Option<u32>,
    gen: u64,
}

impl DecodeCache {
    /// Creates an empty cache.
    pub fn new() -> DecodeCache {
        DecodeCache::default()
    }

    /// Drops every cached block (e.g. alongside a code-cache flush).
    pub fn flush(&mut self) {
        self.blocks.clear();
        self.index.clear();
        self.last = None;
    }

    /// Number of blocks currently cached.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Returns the block entered at `pc`, decoding (and caching) it on
    /// miss. Flushes first if `mem`'s code generation moved since the
    /// last call (a marked code page was written).
    ///
    /// # Errors
    /// Propagates the fetch fault if even the first instruction cannot be
    /// decoded (nothing is cached in that case).
    pub fn block(&mut self, mem: &mut GuestMem, pc: u32) -> Result<&Block, Fault> {
        let slot = self.enter(mem, pc)?;
        Ok(&self.blocks[slot])
    }

    /// Arena slot of the block entered at `pc` (see [`DecodeCache::block`]).
    /// Tries the previous block's successor links first and the index
    /// only on a link miss; the block found becomes the previous block.
    #[inline]
    fn enter(&mut self, mem: &mut GuestMem, pc: u32) -> Result<usize, Fault> {
        if mem.code_gen() != self.gen {
            self.flush();
            self.gen = mem.code_gen();
        }
        if let Some(last) = self.last {
            let links = &mut self.blocks[last as usize].links;
            if links[1].0 == pc {
                links.swap(0, 1);
            }
            if links[0].0 == pc {
                let slot = links[0].1;
                self.last = Some(slot);
                return Ok(slot as usize);
            }
        }
        let slot = match self.index.get(&pc) {
            Some(&s) => s,
            None => {
                if self.blocks.len() >= MAX_CACHED_BLOCKS {
                    self.flush();
                }
                let s = self.blocks.len() as u32;
                self.blocks.push(Self::decode_block(mem, pc, s)?);
                self.index.insert(pc, s);
                s
            }
        };
        if let Some(last) = self.last {
            let links = &mut self.blocks[last as usize].links;
            *links = [(pc, slot), links[0]];
        }
        self.last = Some(slot);
        Ok(slot as usize)
    }

    /// Replays (up to) one predecoded basic block entered at `st.eip`,
    /// retiring at most `budget` instructions. A `REP` string instruction
    /// re-executes in place, each element retiring once.
    ///
    /// The replay stops *before* `syscall` or `halt` only with budget left
    /// to retire them; it never executes either, leaving the caller to run
    /// the synchronization protocol. On a fault the state is unchanged and
    /// `EIP` points at the faulting instruction. A block cut short at
    /// predecode because the next fetch faulted stops with
    /// [`BlockStop::Budget`]; the next call re-enters at that PC and
    /// reports the fault with `insns == 0`.
    pub fn run(&mut self, st: &mut GuestState, budget: u64) -> BlockRun {
        let entry_pc = st.eip;
        let stopped = |insns, stop| BlockRun { entry_pc, insns, stop, jcc: None };
        if budget == 0 {
            return stopped(0, BlockStop::Budget);
        }
        let block = match self.enter(&mut st.mem, entry_pc) {
            Ok(slot) => &self.blocks[slot],
            Err(f) => return stopped(0, f.into()),
        };
        let gen0 = st.mem.code_gen();
        let n = block.insns.len();
        // Without `REP`, instruction `i` is the `i + 1`-th to retire, so
        // the budget is a bound on the index and the loop tests no budget
        // of its own. Each extra `REP` element retires in place and moves
        // the bound down by one.
        let mut end = budget.min(n as u64) as usize;
        let mut insns = 0u64;
        let mut pc = entry_pc;
        let mut i = 0;
        while i < end {
            let (ref insn, len) = block.insns[i];
            let next = match exec_insn(st, insn, pc, len) {
                Ok(next) => next,
                Err(f) => {
                    st.eip = pc;
                    return stopped(insns, f.into());
                }
            };
            match next {
                Next::Seq => {
                    insns += 1;
                    pc = pc.wrapping_add(len);
                    i += 1;
                }
                Next::Jump(t) => {
                    st.eip = t;
                    let jcc = jcc_edge(insn, pc.wrapping_add(len), true);
                    return BlockRun { entry_pc, insns: insns + 1, stop: BlockStop::End, jcc };
                }
                Next::RepContinue => {
                    insns += 1;
                    end = end.min(i + (budget - insns).min(n as u64) as usize);
                }
                // Only a block's last instruction can be a syscall or
                // `halt`, and `exec_insn` changes nothing for either.
                Next::Syscall => {
                    st.eip = pc;
                    return stopped(insns, BlockStop::Syscall);
                }
                Next::Halt => {
                    st.eip = pc;
                    return stopped(insns, BlockStop::Halt);
                }
            }
            // A store may have overwritten this very block: stop so the
            // next entry re-decodes.
            if st.mem.code_gen() != gen0 {
                st.eip = pc;
                return stopped(insns, BlockStop::Budget);
            }
        }
        st.eip = pc;
        if i == n && block.terminated {
            // The terminator fell through: a conditional branch not taken.
            let jcc = jcc_edge(&block.insns[n - 1].0, pc, false);
            return BlockRun { entry_pc, insns, stop: BlockStop::End, jcc };
        }
        // Budget exhausted, or cut short at predecode (size cap or
        // faulting tail): the next call re-enters the cache at `EIP`.
        stopped(insns, BlockStop::Budget)
    }

    /// Decodes the block entered at `entry`, to live in arena `slot`.
    fn decode_block(mem: &mut GuestMem, entry: u32, slot: u32) -> Result<Block, Fault> {
        let mut insns = Vec::new();
        let mut pc = entry;
        let mut terminated = false;
        loop {
            match fetch(mem, pc) {
                Ok((insn, len)) => {
                    let ends = insn.ends_block();
                    insns.push((insn, len));
                    pc = pc.wrapping_add(len);
                    if ends {
                        terminated = true;
                        break;
                    }
                    if insns.len() >= MAX_BLOCK_INSNS {
                        break;
                    }
                }
                // A fault or bad opcode past the first instruction cuts
                // the block; the tail is only an error if control
                // actually reaches it.
                Err(f) => {
                    if insns.is_empty() {
                        return Err(f);
                    }
                    break;
                }
            }
        }
        // Mark every page the block's bytes occupy so stores to them are
        // observed (self-modifying code).
        let mut p = entry >> PAGE_SHIFT;
        let last = pc.wrapping_sub(1) >> PAGE_SHIFT;
        loop {
            mem.mark_code_page(p);
            if p == last {
                break;
            }
            p = p.wrapping_add(1);
        }
        Ok(Block { insns, terminated, links: [(entry, slot); 2] })
    }
}

/// The edge-profile record of a block ending in `insn`: `(taken target,
/// fallthrough, taken?)` for a conditional branch, `None` otherwise.
fn jcc_edge(insn: &Insn, fall: u32, taken: bool) -> Option<(u32, u32, bool)> {
    match *insn {
        Insn::Jcc { rel, .. } => Some((fall.wrapping_add(rel as u32), fall, taken)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::DEFAULT_CODE_BASE;
    use crate::{Asm, Gpr};

    fn mem_with(build: impl FnOnce(&mut Asm)) -> GuestMem {
        boot(build).mem
    }

    #[test]
    fn block_ends_at_terminator() {
        let mut mem = mem_with(|a| {
            let top = a.here();
            a.inc(Gpr::Eax);
            a.inc(Gpr::Ebx);
            a.jmp_to(top);
            a.nop(); // next block
        });
        let mut dc = DecodeCache::new();
        let b = dc.block(&mut mem, DEFAULT_CODE_BASE).unwrap();
        assert!(b.terminated);
        assert_eq!(b.insns.len(), 3);
        assert!(matches!(b.insns[2].0, Insn::Jmp { .. }));
    }

    #[test]
    fn long_runs_are_cut_at_the_cap() {
        let mut mem = mem_with(|a| {
            for _ in 0..300 {
                a.nop();
            }
            a.halt();
        });
        let mut dc = DecodeCache::new();
        let b = dc.block(&mut mem, DEFAULT_CODE_BASE).unwrap();
        assert!(!b.terminated);
        assert_eq!(b.insns.len(), MAX_BLOCK_INSNS);
    }

    #[test]
    fn writes_to_code_invalidate() {
        let mut mem = mem_with(|a| {
            a.nop();
            a.halt();
        });
        let mut dc = DecodeCache::new();
        let n = dc.block(&mut mem, DEFAULT_CODE_BASE).unwrap().insns.len();
        assert_eq!(n, 2);
        assert_eq!(dc.len(), 1);
        // Overwrite the nop (1 byte) with a halt.
        let halt_byte = {
            let mut buf = Vec::new();
            crate::encode(&Insn::Halt, &mut buf);
            buf[0]
        };
        mem.write_u8(DEFAULT_CODE_BASE, halt_byte).unwrap();
        let b = dc.block(&mut mem, DEFAULT_CODE_BASE).unwrap();
        assert_eq!(b.insns.len(), 1, "stale block was re-decoded");
        assert!(matches!(b.insns[0].0, Insn::Halt));
    }

    /// Panics unless every successor link and the last-entered slot name
    /// a live arena slot that the index agrees with.
    fn assert_links_valid(dc: &DecodeCache) {
        assert_eq!(dc.index.len(), dc.blocks.len());
        for b in &dc.blocks {
            for &(pc, slot) in &b.links {
                assert_eq!(dc.index.get(&pc), Some(&slot), "stale link to {pc:#x}");
            }
        }
        if let Some(last) = dc.last {
            assert!((last as usize) < dc.blocks.len(), "stale last-entered slot");
        }
    }

    #[test]
    fn successor_link_does_not_survive_a_rewrite_of_its_target() {
        let mut dec = Vec::new();
        crate::encode(&Insn::Unary { op: crate::insn::UnaryOp::Dec, dst: Gpr::Eax }, &mut dec);
        let mut c_addr = 0;
        let mut st = boot(|a| {
            let top = a.here();
            a.inc(Gpr::Ebx); // block B
            let c = a.label();
            a.jmp_to(c);
            while a.addr() < DEFAULT_CODE_BASE + crate::PAGE_SIZE {
                a.nop();
            }
            a.bind(c);
            c_addr = a.addr();
            a.inc(Gpr::Eax); // block C, on the next code page
            a.jmp_to(top);
        });
        assert_ne!(GuestMem::page_of(c_addr), GuestMem::page_of(DEFAULT_CODE_BASE));
        let mut dc = DecodeCache::new();
        for _ in 0..4 {
            assert_eq!(dc.run(&mut st, u64::MAX).stop, BlockStop::End); // B, C, B, C
        }
        assert_eq!(st.gpr(Gpr::Eax), 2);
        let (b, c) = (dc.index[&DEFAULT_CODE_BASE], dc.index[&c_addr]);
        assert!(dc.blocks[b as usize].links.contains(&(c_addr, c)), "B links to C");
        // Rewrite C's `inc eax` (C's page only) to `dec eax`.
        st.mem.write(c_addr, &dec).unwrap();
        assert_eq!(dc.run(&mut st, u64::MAX).stop, BlockStop::End); // B
        assert_links_valid(&dc);
        assert_eq!(dc.run(&mut st, u64::MAX).stop, BlockStop::End); // C, re-decoded
        assert_links_valid(&dc);
        assert_eq!(st.gpr(Gpr::Eax), 1, "the rewritten dec ran, not the stale inc");
    }

    #[test]
    fn cap_flush_drops_every_link() {
        // A ring of more blocks than the (test-build) cap.
        let ring = MAX_CACHED_BLOCKS + 3;
        let mut st = boot(|a| {
            let top = a.here();
            for _ in 0..ring - 1 {
                a.inc(Gpr::Eax);
                let next = a.label();
                a.jmp_to(next);
                a.bind(next);
            }
            a.inc(Gpr::Eax);
            a.jmp_to(top);
        });
        let mut dc = DecodeCache::new();
        let mut flushes = 0;
        for _ in 0..3 * ring {
            let before = dc.len();
            assert_eq!(dc.run(&mut st, u64::MAX).stop, BlockStop::End);
            assert!(dc.len() <= MAX_CACHED_BLOCKS);
            if dc.len() < before {
                flushes += 1;
                assert_eq!(dc.len(), 1, "the flush emptied the arena first");
            }
            assert_links_valid(&dc);
        }
        assert!(flushes >= 3, "{flushes} flushes");
        assert_eq!(st.gpr(Gpr::Eax), 3 * ring as u32);
    }

    #[test]
    fn first_insn_fault_is_not_cached() {
        let mut mem = GuestMem::new();
        let mut dc = DecodeCache::new();
        assert!(matches!(dc.block(&mut mem, 0x5000), Err(Fault::Page(_))));
        assert!(dc.is_empty());
    }

    fn boot(build: impl FnOnce(&mut Asm)) -> GuestState {
        let mut a = Asm::new(DEFAULT_CODE_BASE);
        build(&mut a);
        GuestState::boot(&a.into_program())
    }

    #[test]
    fn stops_at_block_end_with_edge_info() {
        let mut st = boot(|a| {
            a.mov_ri(Gpr::Eax, 1);
            a.cmp_ri(Gpr::Eax, 1);
            let l = a.label();
            a.jcc_to(crate::Cond::E, l);
            a.nop();
            a.bind(l);
            a.halt();
        });
        let mut dc = DecodeCache::new();
        let run = dc.run(&mut st, u64::MAX);
        assert_eq!(run.stop, BlockStop::End);
        assert_eq!(run.insns, 3);
        let (_taken_t, _fall, taken) = run.jcc.unwrap();
        assert!(taken);
        // Next block: halt is intercepted.
        let run2 = dc.run(&mut st, u64::MAX);
        assert_eq!(run2.stop, BlockStop::Halt);
        assert_eq!(run2.insns, 0);
    }

    #[test]
    fn syscall_is_not_executed() {
        let mut st = boot(|a| {
            a.mov_ri(Gpr::Eax, 2);
            a.syscall();
            a.halt();
        });
        let run = DecodeCache::new().run(&mut st, u64::MAX);
        assert_eq!(run.stop, BlockStop::Syscall);
        assert_eq!(run.insns, 1);
        // EIP points at the syscall itself.
        let (insn, _) = fetch(&st.mem, st.eip).unwrap();
        assert_eq!(insn, Insn::Syscall);
    }

    #[test]
    fn budget_splits_blocks_resumably() {
        let mut st = boot(|a| {
            for _ in 0..10 {
                a.inc(Gpr::Eax);
            }
            a.halt();
        });
        let mut dc = DecodeCache::new();
        let run = dc.run(&mut st, 4);
        assert_eq!(run.stop, BlockStop::Budget);
        assert_eq!(run.insns, 4);
        let run2 = dc.run(&mut st, u64::MAX);
        assert_eq!(run2.insns, 6);
        assert_eq!(st.gpr(Gpr::Eax), 10);
    }

    #[test]
    fn page_fault_is_resumable() {
        let mut st = boot(|a| {
            a.mov_ri(Gpr::Ebx, 0x0900_0000);
            a.load(Gpr::Ecx, crate::Addr::base(Gpr::Ebx));
            a.halt();
        });
        let mut dc = DecodeCache::new();
        let run = dc.run(&mut st, u64::MAX);
        assert!(matches!(run.stop, BlockStop::PageFault { addr: 0x0900_0000, write: false }));
        st.mem.map_zero(0x0900_0000 >> 12);
        let run2 = dc.run(&mut st, u64::MAX);
        assert_eq!(run2.stop, BlockStop::Halt);
    }

    #[test]
    fn long_straightline_code_splits() {
        let mut st = boot(|a| {
            for _ in 0..200 {
                a.nop();
            }
            a.halt();
        });
        let run = DecodeCache::new().run(&mut st, u64::MAX);
        assert_eq!(run.stop, BlockStop::Budget);
        assert_eq!(run.insns, MAX_BLOCK_INSNS as u64);
    }

    /// A block that patches one of its *own* upcoming instructions: the
    /// per-retire generation check must stop replay of the stale run and
    /// the re-decode must execute the new bytes.
    #[test]
    fn intra_block_self_modification_is_observed() {
        use crate::insn::UnaryOp;
        use crate::{Addr, Width};
        let enc = |op: UnaryOp| {
            let mut b = Vec::new();
            crate::encode(&Insn::Unary { op, dst: Gpr::Eax }, &mut b);
            b
        };
        let dec_bytes = enc(UnaryOp::Dec);
        assert_eq!(enc(UnaryOp::Inc).len(), dec_bytes.len(), "patch preserves length");
        let n = dec_bytes.len();
        let build = |target: u32| {
            let dec_bytes = dec_bytes.clone();
            move |a: &mut Asm| {
                a.mov_ri(Gpr::Ebx, target as i32);
                for (i, &byte) in dec_bytes.iter().enumerate() {
                    a.mov_ri(Gpr::Ecx, byte as i32);
                    a.store(Addr { disp: i as i32, ..Addr::base(Gpr::Ebx) }, Gpr::Ecx, Width::B);
                }
                a.inc(Gpr::Eax); // patched to `dec eax` by the stores above
                a.halt();
            }
        };
        // Pass 1 with a same-magnitude placeholder to learn the layout.
        let mut probe = Asm::new(DEFAULT_CODE_BASE);
        build(DEFAULT_CODE_BASE)(&mut probe);
        let target = {
            let st = GuestState::boot(&probe.into_program());
            // Walk the patch preamble to the patch target's address.
            let mut pc = DEFAULT_CODE_BASE;
            for _ in 0..1 + 2 * n {
                let (_, len) = fetch(&st.mem, pc).unwrap();
                pc += len;
            }
            pc
        };
        let mut st = boot(build(target));
        let mut dc = DecodeCache::new();
        // Each patch store bumps the code generation, cutting replay of
        // the now-stale block (an artificial Budget split); the re-decode
        // must pick up the new bytes before control reaches them.
        let mut splits = 0;
        loop {
            let run = dc.run(&mut st, u64::MAX);
            match run.stop {
                BlockStop::Halt => break,
                BlockStop::Budget => {
                    splits += 1;
                    assert!(splits < 20, "no forward progress");
                }
                other => panic!("unexpected stop: {other:?}"),
            }
        }
        assert!(splits >= 1, "the generation check must cut the stale replay");
        assert_eq!(st.gpr(Gpr::Eax), u32::MAX, "the patched dec ran, not the stale inc");
    }
}
