//! Hot-path behavior-preservation tests.
//!
//! The hot-path overhaul (monomorphized retire sinks, the L0 TLB in
//! `GuestMem`, and the predecoded guest-block cache) must not change any
//! architecturally observable result. These tests pin that down:
//!
//! - running a workload with a [`NullSink`] and with a [`CountingSink`]
//!   (and with a [`DynSink`]-wrapped trait object) yields identical final
//!   guest state, retired-instruction counts and [`TolStats`];
//! - self-modifying code is observed by the predecoded interpreter on
//!   both the co-designed and the authoritative component (the run is
//!   validated between them), even though both replay cached blocks;
//! - the one block replay both components share, `DecodeCache::run`,
//!   matches the fetch-per-instruction reference `exec::step` at every
//!   stop, over every workload, the fuzz corpus and self-modifying code.

use darco::{Machine, MachineEvent};
use darco_guest::exec::{self, Next};
use darco_guest::predecode::{BlockRun, BlockStop};
use darco_guest::program::DEFAULT_CODE_BASE;
use darco_guest::reg::{Addr, Cond, Width};
use darco_guest::{Asm, DecodeCache, GuestMem, GuestProgram, GuestState, Gpr, Insn};
use darco_host::{CountingSink, DynSink, InsnSink, NullSink};
use darco_tol::TolConfig;
use darco_workloads::fuzzprog::FuzzProgram;
use darco_workloads::{benchmarks, build, kernels};
use darco_xcomp::os::{do_syscall, OsState};
use darco_xcomp::SyscallOutcome;

/// Runs a benchmark to completion through the full machine with the given
/// sink, validating at a fine period, and returns the machine.
fn run_with<S: InsnSink>(cfg: TolConfig, sink: &mut S) -> Machine {
    let profile = benchmarks()[0].profile.clone().scaled(1, 64);
    let program = build(&profile);
    let mut m = Machine::new(cfg, &program);
    loop {
        let target = m.insns() + 10_000;
        match m.run_to(target, true, sink).expect("run") {
            MachineEvent::Reached => continue,
            MachineEvent::Ended { .. } => break,
            MachineEvent::GuestFault(f) => panic!("guest fault: {f}"),
        }
    }
    m
}

fn assert_same_outcome(a: &Machine, b: &Machine) {
    assert_eq!(a.state.gprs(), b.state.gprs());
    assert_eq!(a.state.fprs(), b.state.fprs());
    assert_eq!(a.state.flags, b.state.flags);
    assert_eq!(a.state.eip, b.state.eip);
    // The wall-clock fields are nondeterministic; everything else must
    // match bit for bit.
    let timeless = |s: &darco_tol::TolStats| {
        let mut s = *s;
        s.verify_nanos = 0;
        s.translate_nanos = 0;
        s
    };
    assert_eq!(timeless(&a.tol.stats), timeless(&b.tol.stats), "TolStats must be identical");
    assert_eq!(a.tol.total_guest(), b.tol.total_guest());
    assert_eq!(a.tol.mode_split(), b.tol.mode_split());
    assert_eq!(a.xcomp.insns, b.xcomp.insns);
    assert_eq!(a.state.mem.page_count(), b.state.mem.page_count());
    assert_eq!(a.state.mem.first_difference(&b.state.mem), None);
    assert_eq!(a.xcomp.output, b.xcomp.output);
}

/// The monomorphized hot path must be sink-agnostic: a no-op sink, a
/// counting sink, and a trait-object sink behind [`DynSink`] all see the
/// exact same execution.
#[test]
fn null_counting_and_dyn_sinks_agree() {
    let cfg = TolConfig::default();
    let mut null = NullSink;
    let a = run_with(cfg.clone(), &mut null);
    let mut counting = CountingSink::default();
    let b = run_with(cfg.clone(), &mut counting);
    let mut dyn_inner = CountingSink::default();
    let c = run_with(cfg, &mut DynSink(&mut dyn_inner));

    assert_same_outcome(&a, &b);
    assert_same_outcome(&a, &c);
    assert!(counting.total > 0, "the counting sink saw retires");
    assert!(counting.loads > 0 && counting.branches > 0);
    // The dyn-wrapped sink observes the identical stream.
    assert_eq!(counting.total, dyn_inner.total);
    assert_eq!(counting.loads, dyn_inner.loads);
    assert_eq!(counting.stores, dyn_inner.stores);
    assert_eq!(counting.branches, dyn_inner.branches);
    assert_eq!(counting.taken, dyn_inner.taken);
}

/// Builds a program that patches one of its own instructions: an `inc
/// eax` in a loop body is overwritten with `dec eax` after the first
/// iteration, so the final EAX distinguishes stale-decode (2) from
/// correct re-decode (0).
fn smc_program() -> darco_guest::GuestProgram {
    let inc = {
        let mut b = Vec::new();
        darco_guest::encode(&Insn::Unary { op: darco_guest::UnaryOp::Inc, dst: Gpr::Eax }, &mut b);
        b
    };
    let dec = {
        let mut b = Vec::new();
        darco_guest::encode(&Insn::Unary { op: darco_guest::UnaryOp::Dec, dst: Gpr::Eax }, &mut b);
        b
    };
    assert_eq!(inc.len(), dec.len(), "patch must preserve instruction length");

    let mut a = Asm::new(DEFAULT_CODE_BASE);
    a.mov_ri(Gpr::Eax, 0);
    a.mov_ri(Gpr::Edx, 0);
    let top = a.here();
    let target = a.addr(); // address of the patchable instruction
    a.inc(Gpr::Eax);
    // Patch the instruction for the next iteration.
    a.mov_ri(Gpr::Ebx, target as i32);
    for (i, &byte) in dec.iter().enumerate() {
        a.mov_ri(Gpr::Ecx, byte as i32);
        a.store(Addr { base: Some(Gpr::Ebx), index: None, scale: darco_guest::Scale::S1, disp: i as i32 }, Gpr::Ecx, Width::B);
    }
    a.inc(Gpr::Edx);
    a.cmp_ri(Gpr::Edx, 2);
    a.jcc_to(Cond::Ne, top);
    a.halt();
    a.into_program()
}

/// A loop whose body patches an instruction *later in its own block*
/// (`inc eax` becomes `dec eax` before control reaches it), so only the
/// replay's per-retire code-generation check keeps the stale bytes from
/// running.
fn smc_forward_program() -> GuestProgram {
    let mut dec = Vec::new();
    darco_guest::encode(&Insn::Unary { op: darco_guest::UnaryOp::Dec, dst: Gpr::Eax }, &mut dec);
    let build = |target: u32| {
        let mut a = Asm::new(DEFAULT_CODE_BASE);
        a.mov_ri(Gpr::Edx, 0);
        let top = a.here();
        a.mov_ri(Gpr::Ebx, target as i32);
        for (i, &byte) in dec.iter().enumerate() {
            a.mov_ri(Gpr::Ecx, byte as i32);
            a.store(Addr { disp: i as i32, ..Addr::base(Gpr::Ebx) }, Gpr::Ecx, Width::B);
        }
        let at = a.addr();
        a.inc(Gpr::Eax); // patched before it runs
        a.inc(Gpr::Edx);
        a.cmp_ri(Gpr::Edx, 2);
        a.jcc_to(Cond::Ne, top);
        a.halt();
        (at, a.into_program())
    };
    // A same-magnitude placeholder fixes the layout; the second pass
    // stores to the real address.
    let (target, _) = build(DEFAULT_CODE_BASE);
    let (at, program) = build(target);
    assert_eq!(at, target, "layout must not depend on the patch address");
    program
}

/// Self-modifying code through the full machine: both the co-designed
/// interpreter and the authoritative component replay predecoded blocks,
/// and both must observe the patched bytes (the run validates the two
/// components against each other at the end).
#[test]
fn self_modifying_code_is_redecoded() {
    let p = smc_program();
    let mut m = Machine::new(TolConfig::default(), &p);
    let mut sink = NullSink;
    loop {
        match m.run_to(m.insns() + 64, true, &mut sink).expect("run") {
            MachineEvent::Reached => continue,
            MachineEvent::Ended { .. } => break,
            MachineEvent::GuestFault(f) => panic!("guest fault: {f}"),
        }
    }
    // Iteration 1 increments (eax 0 -> 1), iteration 2 runs the patched
    // `dec` (eax 1 -> 0). A stale decode would leave eax == 2.
    assert_eq!(m.state.gpr(Gpr::Eax), 0, "patched instruction must be re-decoded");
    assert_eq!(m.state.gpr(Gpr::Edx), 2);
    assert_eq!(m.xcomp.state.gpr(Gpr::Eax), 0, "authoritative side agrees");
}

/// The reference for one block replay: `exec::step` one instruction at a
/// time, stopping before `syscall`/`halt`, at a fault, after a
/// block-ending instruction, or when `budget` instructions retired.
fn reference_block(st: &mut GuestState, budget: u64) -> BlockRun {
    let entry_pc = st.eip;
    let mut insns = 0;
    let stop = loop {
        if insns >= budget {
            break BlockStop::Budget;
        }
        match exec::fetch(&st.mem, st.eip) {
            Ok((Insn::Syscall, _)) => break BlockStop::Syscall,
            Ok((Insn::Halt, _)) => break BlockStop::Halt,
            Ok(_) => {}
            Err(f) => break f.into(),
        }
        match exec::step(st) {
            Ok(info) => {
                insns += 1;
                if info.insn.ends_block() {
                    let fall = info.pc.wrapping_add(info.len);
                    let jcc = match info.insn {
                        Insn::Jcc { rel, .. } => Some((
                            fall.wrapping_add(rel as u32),
                            fall,
                            matches!(info.next, Next::Jump(_)),
                        )),
                        _ => None,
                    };
                    return BlockRun { entry_pc, insns, stop: BlockStop::End, jcc };
                }
            }
            Err(f) => break f.into(),
        }
    };
    BlockRun { entry_pc, insns, stop, jcc: None }
}

fn assert_same_regs(name: &str, at: u64, a: &GuestState, b: &GuestState) {
    assert_eq!(a.eip, b.eip, "{name}: EIP after {at} insns");
    assert_eq!(a.gprs(), b.gprs(), "{name}: GPRs after {at} insns");
    assert_eq!(
        a.fprs().map(f64::to_bits),
        b.fprs().map(f64::to_bits),
        "{name}: FPRs after {at} insns"
    );
    assert_eq!(a.flags, b.flags, "{name}: flags after {at} insns");
}

/// Drives `DecodeCache::run` with budgets cycling through
/// {1, 3, 7, 128, unbounded} next to [`reference_block`], asserting equal
/// stop kinds, retired counts and registers at every stop and equal
/// memory at the end. Both sides serve syscalls through OS-lite and map
/// zero pages on faults, as the authoritative component does.
fn replay_matches_reference(name: &str, program: &GuestProgram) {
    const BUDGETS: [u64; 5] = [1, 3, 7, 128, u64::MAX];
    const MAX_INSNS: u64 = 20_000_000;
    let mut fast = GuestState::boot(program);
    let mut slow = GuestState::boot(program);
    let (mut fast_os, mut slow_os) = (OsState::new(program), OsState::new(program));
    let (mut fast_out, mut slow_out) = (Vec::new(), Vec::new());
    let mut cache = DecodeCache::new();
    let mut retired = 0u64;
    let mut terminal_blocks = 0u64;
    for call in 0u64.. {
        assert!(retired < MAX_INSNS, "{name}: no end after {retired} insns");
        let mut budget = BUDGETS[call as usize % BUDGETS.len()];
        let gen = fast.mem.code_gen();
        // Every other block ending in `syscall`/`halt` gets a budget that
        // runs out exactly before it: the replay must report `Budget`
        // there, not the syscall or halt. (Peeking decodes the block
        // `run` is about to decode anyway.)
        if let Ok(block) = cache.block(&mut fast.mem, fast.eip) {
            let before = block.insns.len() as u64 - 1;
            let ends_in_stop = matches!(block.insns.last(), Some((Insn::Syscall | Insn::Halt, _)));
            if ends_in_stop && before > 0 {
                terminal_blocks += 1;
                if terminal_blocks % 2 == 1 {
                    budget = before;
                }
            }
        }
        let run = cache.run(&mut fast, budget);
        // The replay may also stop short of the budget where the
        // reference does not stop: at the predecode size cap or faulting
        // tail, or after a store into decoded code.
        let short = run.stop == BlockStop::Budget && run.insns < budget;
        if short && fast.mem.code_gen() == gen {
            let block = cache.block(&mut fast.mem, run.entry_pc).unwrap();
            let end = block.insns.iter().fold(run.entry_pc, |pc, &(_, len)| pc.wrapping_add(len));
            assert!(
                !block.terminated && fast.eip == end,
                "{name}: replay stopped short at {:#x} inside a block",
                fast.eip
            );
        }
        let reference = reference_block(&mut slow, if short { run.insns } else { budget });
        retired += run.insns;
        assert_eq!(run, reference, "{name}: stop after {retired} insns");
        assert_same_regs(name, retired, &fast, &slow);
        match run.stop {
            BlockStop::End | BlockStop::Budget => {}
            BlockStop::Syscall => {
                let mut outcomes = Vec::new();
                for (st, os, out) in
                    [(&mut fast, &mut fast_os, &mut fast_out), (&mut slow, &mut slow_os, &mut slow_out)]
                {
                    let (_, len) = exec::fetch(&st.mem, st.eip).unwrap();
                    st.eip = st.eip.wrapping_add(len);
                    outcomes.push(do_syscall(st, os, out));
                }
                retired += 1;
                assert_eq!(outcomes[0], outcomes[1], "{name}: syscall after {retired} insns");
                assert_same_regs(name, retired, &fast, &slow);
                if matches!(outcomes[0], SyscallOutcome::Exit(_)) {
                    break;
                }
            }
            BlockStop::PageFault { addr, .. } => {
                fast.mem.map_zero(GuestMem::page_of(addr));
                slow.mem.map_zero(GuestMem::page_of(addr));
            }
            BlockStop::Halt | BlockStop::GuestError(_) => break,
        }
    }
    assert!(retired > 0, "{name}: nothing ran");
    assert_eq!(fast.mem.first_difference(&slow.mem), None, "{name}: memory");
    assert_eq!(fast_out, slow_out, "{name}: output");
}

/// The shared block replay against the `exec::step` reference: all 37
/// workloads at a tiny scale, every checked-in fuzz corpus program and the
/// two self-modifying programs above.
#[test]
fn block_replay_matches_step_reference() {
    for b in benchmarks() {
        replay_matches_reference(b.name, &build(&b.profile.clone().scaled(1, 512)));
    }
    let kernels = [
        ("kernel:dot", kernels::dot_product(16)),
        ("kernel:matmul", kernels::matmul(3)),
        ("kernel:search", kernels::string_search(64, 38)),
        ("kernel:nbody", kernels::nbody_step(2, 2)),
        ("kernel:quicksort", kernels::quicksort(16)),
        ("kernel:crc32", kernels::crc32(16)),
    ];
    for (name, p) in &kernels {
        replay_matches_reference(name, p);
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut corpus: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    corpus.sort();
    assert!(!corpus.is_empty());
    for path in &corpus {
        let prog = FuzzProgram::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let name = path.file_name().unwrap().to_string_lossy();
        replay_matches_reference(&name, &prog.lower());
    }
    replay_matches_reference("smc", &smc_program());
    replay_matches_reference("smc-forward", &smc_forward_program());
}
