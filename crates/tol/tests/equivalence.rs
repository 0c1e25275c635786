//! Translation-equivalence tests: the DARCO correctness property.
//!
//! Any guest program must produce **identical architectural state** when
//! executed through the full Translation Optimization Layer (interpreter →
//! basic-block translations → speculative superblocks with scheduling and
//! register allocation) as when executed by the plain architectural
//! interpreter. This is exactly the validation the paper's x86 component
//! performs against the co-designed component.

use darco_guest::exec::{self, Next};
use darco_guest::insn::{AluOp, Insn, ShiftAmount, ShiftOp, UnaryOp};
use darco_guest::program::DEFAULT_CODE_BASE;
use darco_guest::reg::{Addr, Cond, Scale, Width};
use darco_guest::{Asm, Fpr, GuestProgram, GuestState, Gpr};
use darco_host::sink::NullSink;
use darco_ir::OptLevel;
use darco_tol::{flags, Tol, TolConfig, TolEvent};
use darco_guest::prng::{Rng, SmallRng};

/// Executes a program with the plain interpreter. Returns the final state
/// and retired instruction count.
fn run_reference(program: &GuestProgram, max: u64) -> (GuestState, u64) {
    let mut st = GuestState::boot(program);
    let mut n = 0;
    loop {
        assert!(n < max, "reference run did not halt");
        // Stop *at* halt/syscall, like the co-designed component does.
        match exec::fetch(&st.mem, st.eip) {
            Ok((Insn::Halt, _)) => return (st, n),
            Ok((Insn::Syscall, _)) => panic!("syscall in equivalence test"),
            _ => {}
        }
        match exec::step(&mut st) {
            Ok(info) => {
                n += 1;
                debug_assert!(!matches!(info.next, Next::Halt | Next::Syscall));
            }
            Err(f) => panic!("reference fault: {f}"),
        }
    }
}

/// Executes a program through the TOL. Returns the final state.
fn run_tol(program: &GuestProgram, cfg: TolConfig) -> (GuestState, Tol) {
    let mut st = GuestState::boot(program);
    let mut tol = Tol::new(cfg);
    loop {
        match tol.run(&mut st, u64::MAX, &mut NullSink) {
            TolEvent::Halted => break,
            TolEvent::PageFault { addr, .. } => {
                // Stand-in for the controller: map the page on demand.
                st.mem.map_zero(addr >> 12);
            }
            ev => panic!("unexpected TOL event: {ev:?}"),
        }
    }
    flags::resolve(&mut st, &mut tol.pending_flags);
    (st, tol)
}

/// Hot-threshold config so small tests exercise all three modes.
fn hot_cfg() -> TolConfig {
    TolConfig { bbm_threshold: 3, sbm_threshold: 12, ..TolConfig::default() }
}

fn assert_equivalent(program: &GuestProgram, cfg: TolConfig) -> Tol {
    let (ref_st, _) = run_reference(program, 100_000_000);
    let (tol_st, tol) = run_tol(program, cfg);
    if let Some(m) = ref_st.first_reg_mismatch(&tol_st, true) {
        panic!("register state diverged: {m}");
    }
    if let Some(addr) = ref_st.mem.first_difference(&tol_st.mem) {
        panic!("memory diverged at {addr:#010x}");
    }
    tol
}

#[test]
fn counting_loop_promotes_to_superblock_and_matches() {
    let mut a = Asm::new(DEFAULT_CODE_BASE);
    a.mov_ri(Gpr::Eax, 0);
    a.mov_ri(Gpr::Ecx, 500);
    let top = a.here();
    a.add_rr(Gpr::Eax, Gpr::Ecx);
    a.dec(Gpr::Ecx);
    a.jcc_to(Cond::Ne, top);
    a.halt();
    let p = a.into_program();
    let tol = assert_equivalent(&p, hot_cfg());
    assert!(tol.stats.translations_bb >= 1, "loop must reach BBM");
    assert!(tol.stats.translations_sb >= 1, "loop must reach SBM");
    let (_, _, sbm) = tol.mode_split();
    assert!(sbm > 0, "superblock must actually execute");
}

#[test]
fn memory_and_stack_heavy_program_matches() {
    let mut a = Asm::new(DEFAULT_CODE_BASE);
    // Fill an array with i*i via push/pop and memory operands, then sum it.
    a.mov_ri(Gpr::Esi, 0x0040_0000);
    a.mov_ri(Gpr::Ecx, 100);
    let fill = a.here();
    a.mov_rr(Gpr::Eax, Gpr::Ecx);
    a.imul(Gpr::Eax, Gpr::Ecx);
    a.push(Gpr::Eax);
    a.pop(Gpr::Edx);
    a.store(Addr::base_index(Gpr::Esi, Gpr::Ecx, Scale::S4), Gpr::Edx, Width::D);
    a.dec(Gpr::Ecx);
    a.jcc_to(Cond::Ne, fill);
    a.mov_ri(Gpr::Ebx, 0);
    a.mov_ri(Gpr::Ecx, 100);
    let sum = a.here();
    a.emit(Insn::AluRM {
        op: AluOp::Add,
        dst: Gpr::Ebx,
        addr: Addr::base_index(Gpr::Esi, Gpr::Ecx, Scale::S4),
    });
    a.dec(Gpr::Ecx);
    a.jcc_to(Cond::Ne, sum);
    a.halt();
    let p = a.into_program().with_data(vec![0; 1024]);
    assert_equivalent(&p, hot_cfg());
}

#[test]
fn flags_across_block_boundaries_match() {
    // cmp in one block; adc/setcc consuming flags in the next block.
    let mut a = Asm::new(DEFAULT_CODE_BASE);
    a.mov_ri(Gpr::Ecx, 300);
    let top = a.here();
    a.mov_rr(Gpr::Eax, Gpr::Ecx);
    a.alu_ri(AluOp::And, Gpr::Eax, 0xFF);
    a.cmp_ri(Gpr::Eax, 0x80); // sets CF when eax < 0x80
    let l = a.label();
    a.jcc_to(Cond::B, l); // block boundary; flags live across
    a.emit(Insn::Unary { op: UnaryOp::Inc, dst: Gpr::Ebx }); // preserves CF
    a.bind(l);
    a.alu_ri(AluOp::Adc, Gpr::Edx, 0); // consumes CF across blocks
    a.emit(Insn::Setcc { cc: Cond::B, dst: Gpr::Esi });
    a.add_rr(Gpr::Edi, Gpr::Esi);
    a.dec(Gpr::Ecx);
    a.jcc_to(Cond::Ne, top);
    a.halt();
    let p = a.into_program();
    assert_equivalent(&p, hot_cfg());
}

#[test]
fn fp_and_trig_kernel_matches_bit_exactly() {
    let mut a = Asm::new(DEFAULT_CODE_BASE);
    a.fld_i(Fpr::new(0), 0.0); // accumulator
    a.fld_i(Fpr::new(1), 0.1); // step
    a.fld_i(Fpr::new(2), 0.0); // x
    a.mov_ri(Gpr::Ecx, 200);
    let top = a.here();
    a.emit(Insn::FmovRR { dst: Fpr::new(3), src: Fpr::new(2) });
    a.emit(Insn::Funary { op: darco_guest::FUnOp::Sin, dst: Fpr::new(3) });
    a.emit(Insn::Fbin { op: darco_guest::FBinOp::Add, dst: Fpr::new(0), src: Fpr::new(3) });
    a.emit(Insn::FmovRR { dst: Fpr::new(4), src: Fpr::new(2) });
    a.emit(Insn::Funary { op: darco_guest::FUnOp::Cos, dst: Fpr::new(4) });
    a.emit(Insn::Fbin { op: darco_guest::FBinOp::Mul, dst: Fpr::new(4), src: Fpr::new(4) });
    a.emit(Insn::Fbin { op: darco_guest::FBinOp::Add, dst: Fpr::new(0), src: Fpr::new(4) });
    a.emit(Insn::Fbin { op: darco_guest::FBinOp::Add, dst: Fpr::new(2), src: Fpr::new(1) });
    a.dec(Gpr::Ecx);
    a.jcc_to(Cond::Ne, top);
    a.halt();
    let p = a.into_program();
    assert_equivalent(&p, hot_cfg());
}

#[test]
fn calls_returns_and_indirect_jumps_match() {
    let mut a = Asm::new(DEFAULT_CODE_BASE);
    let func = a.label();
    let after = a.label();
    a.mov_ri(Gpr::Ecx, 150);
    let top = a.here();
    a.call_to(func);
    // `sub` (not `dec`) so the return target defines all flags and is
    // eligible for the global IBTC (a `dec`-headed block passes CF
    // through and may only be entered with resolved flags).
    a.alu_ri(AluOp::Sub, Gpr::Ecx, 1);
    a.jcc_to(Cond::Ne, top);
    a.jmp_to(after);
    a.bind(func);
    a.add_rr(Gpr::Eax, Gpr::Ecx);
    a.emit(Insn::Shift { op: ShiftOp::Shl, dst: Gpr::Ebx, amount: ShiftAmount::Imm(1) });
    a.alu_ri(AluOp::Xor, Gpr::Ebx, 0x5A5A);
    a.ret();
    a.bind(after);
    a.halt();
    let p = a.into_program();
    let tol = assert_equivalent(&p, hot_cfg());
    assert!(tol.stats.ibtc_inserts > 0 || tol.emu.counters.ibtc_hits > 0);
}

#[test]
fn string_instructions_and_rep_fallback_match() {
    let mut a = Asm::new(DEFAULT_CODE_BASE);
    a.mov_ri(Gpr::Ecx, 60);
    let top = a.here();
    // Non-rep strings are translated; rep strings hit the IM safety net.
    a.mov_ri(Gpr::Esi, 0x0040_0000);
    a.mov_ri(Gpr::Edi, 0x0040_0400);
    a.emit(Insn::Movs { width: Width::D, rep: false });
    a.emit(Insn::Stos { width: Width::B, rep: false });
    a.mov_ri(Gpr::Esi, 0x0040_0000);
    a.mov_ri(Gpr::Edi, 0x0040_0800);
    a.push(Gpr::Ecx);
    a.mov_ri(Gpr::Ecx, 16);
    a.emit(Insn::Movs { width: Width::D, rep: true });
    a.pop(Gpr::Ecx);
    a.dec(Gpr::Ecx);
    a.jcc_to(Cond::Ne, top);
    a.halt();
    let p = a.into_program().with_data((0u8..255).collect());
    assert_equivalent(&p, hot_cfg());
}

#[test]
fn speculation_failures_recover_through_interpreter() {
    // A loop whose inner branch alternates (bias ~50% but forced into a
    // superblock via a tiny edge-bias threshold) so asserts keep failing
    // and the superblock gets recreated multi-exit.
    let mut a = Asm::new(DEFAULT_CODE_BASE);
    a.mov_ri(Gpr::Ecx, 400);
    let top = a.here();
    a.emit(Insn::TestRI { a: Gpr::Ecx, imm: 1 });
    let odd = a.label();
    let join = a.label();
    a.jcc_to(Cond::Ne, odd);
    a.alu_ri(AluOp::Add, Gpr::Eax, 3);
    a.jmp_to(join);
    a.bind(odd);
    a.alu_ri(AluOp::Xor, Gpr::Ebx, 0x77);
    a.bind(join);
    a.dec(Gpr::Ecx);
    a.jcc_to(Cond::Ne, top);
    a.halt();
    let p = a.into_program();
    let cfg = TolConfig {
        bbm_threshold: 3,
        sbm_threshold: 10,
        edge_bias: 0.4, // deliberately low: misspeculate
        min_reach_prob: 0.1,
        assert_fail_limit: 4,
        ..TolConfig::default()
    };
    let tol = assert_equivalent(&p, cfg);
    assert!(tol.stats.spec_rollbacks > 0, "test must exercise rollbacks");
    assert!(tol.stats.recreations > 0, "failing superblock must be recreated multi-exit");
}

#[test]
fn unrolled_loop_with_non_multiple_trip_count_matches() {
    // 403 iterations with unroll factor 4: the last partial group must
    // assert-fail and recover.
    let mut a = Asm::new(DEFAULT_CODE_BASE);
    a.mov_ri(Gpr::Ecx, 403);
    a.mov_ri(Gpr::Eax, 0);
    let top = a.here();
    a.add_rr(Gpr::Eax, Gpr::Ecx);
    a.alu_ri(AluOp::Xor, Gpr::Eax, 0x1111);
    a.dec(Gpr::Ecx);
    a.jcc_to(Cond::Ne, top);
    a.halt();
    let p = a.into_program();
    let tol = assert_equivalent(&p, hot_cfg());
    assert!(tol.stats.translations_sb >= 1);
}

#[test]
fn every_opt_level_is_equivalent() {
    let mut a = Asm::new(DEFAULT_CODE_BASE);
    a.mov_ri(Gpr::Ecx, 120);
    a.mov_ri(Gpr::Esi, 0x0040_0000);
    let top = a.here();
    a.load(Gpr::Eax, Addr::base_disp(Gpr::Esi, 0));
    a.alu_ri(AluOp::Add, Gpr::Eax, 7);
    a.store(Addr::base_disp(Gpr::Esi, 0), Gpr::Eax, Width::D);
    a.load(Gpr::Ebx, Addr::base_disp(Gpr::Esi, 4)); // RLE candidate
    a.load(Gpr::Edx, Addr::base_disp(Gpr::Esi, 4));
    a.add_rr(Gpr::Ebx, Gpr::Edx);
    a.store(Addr::base_disp(Gpr::Esi, 8), Gpr::Ebx, Width::D);
    a.dec(Gpr::Ecx);
    a.jcc_to(Cond::Ne, top);
    a.halt();
    let p = a.into_program().with_data(vec![1; 64]);
    for lvl in [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3] {
        let cfg = TolConfig { opt_level: lvl, bbm_threshold: 3, sbm_threshold: 10, ..TolConfig::default() };
        assert_equivalent(&p, cfg);
        // Multi-exit superblocks from the start (regression: exit stubs
        // must read branch-time locations even under spill pressure).
        let cfg = TolConfig {
            opt_level: lvl,
            speculation: false,
            bbm_threshold: 3,
            sbm_threshold: 10,
            ..TolConfig::default()
        };
        assert_equivalent(&p, cfg);
    }
}

#[test]
fn strict_flags_mode_is_equivalent() {
    let mut a = Asm::new(DEFAULT_CODE_BASE);
    a.mov_ri(Gpr::Ecx, 100);
    let top = a.here();
    a.alu_ri(AluOp::Add, Gpr::Eax, 13);
    a.cmp_ri(Gpr::Eax, 1000);
    a.emit(Insn::Setcc { cc: Cond::G, dst: Gpr::Ebx });
    a.add_rr(Gpr::Edx, Gpr::Ebx);
    a.dec(Gpr::Ecx);
    a.jcc_to(Cond::Ne, top);
    a.halt();
    let p = a.into_program();
    let cfg = TolConfig { strict_flags: true, bbm_threshold: 3, sbm_threshold: 10, ..TolConfig::default() };
    assert_equivalent(&p, cfg);
}

#[test]
fn chaining_and_ibtc_disabled_still_equivalent() {
    let mut a = Asm::new(DEFAULT_CODE_BASE);
    a.mov_ri(Gpr::Ecx, 90);
    let top = a.here();
    a.inc(Gpr::Eax);
    a.dec(Gpr::Ecx);
    a.jcc_to(Cond::Ne, top);
    a.halt();
    let p = a.into_program();
    let cfg = TolConfig {
        chaining: false,
        ibtc: false,
        bbm_threshold: 3,
        sbm_threshold: 10,
        ..TolConfig::default()
    };
    assert_equivalent(&p, cfg);
}

// ---------------------------------------------------------------------------
// Randomized structured programs: the heavyweight equivalence sweep.

/// Generates a random but well-structured program: a chain of loops with
/// random straight-line bodies over registers and a scratch array.
fn random_program(seed: u64) -> GuestProgram {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut a = Asm::new(DEFAULT_CODE_BASE);
    let scratch = 0x0040_0000u32;
    let nloops = rng.gen_range(1..4);
    for _ in 0..nloops {
        a.mov_ri(Gpr::Ecx, rng.gen_range(20..200));
        let top = a.here();
        let body_len = rng.gen_range(2..12);
        for _ in 0..body_len {
            random_body_insn(&mut rng, &mut a, scratch);
        }
        a.dec(Gpr::Ecx);
        a.jcc_to(Cond::Ne, top);
    }
    a.halt();
    a.into_program().with_data(vec![0x3C; 4096])
}

fn random_body_insn(rng: &mut SmallRng, a: &mut Asm, scratch: u32) {
    let reg = |rng: &mut SmallRng| {
        // Avoid ESP/ECX (stack discipline, loop counter).
        [Gpr::Eax, Gpr::Ebx, Gpr::Edx, Gpr::Esi, Gpr::Edi][rng.gen_range(0..5)]
    };
    let addr = |rng: &mut SmallRng| Addr::abs(scratch + rng.gen_range(0..64) * 4);
    match rng.gen_range(0..14) {
        0 => a.mov_ri(reg(rng), rng.gen()),
        1 => a.mov_rr(reg(rng), reg(rng)),
        2 => a.alu_rr(
            AluOp::from_index(rng.gen_range(0..7)),
            reg(rng),
            reg(rng),
        ),
        3 => a.alu_ri(AluOp::from_index(rng.gen_range(0..7)), reg(rng), rng.gen_range(-100..100)),
        4 => a.load(reg(rng), addr(rng)),
        5 => a.store(addr(rng), reg(rng), Width::D),
        6 => a.emit(Insn::AluMR {
            op: AluOp::from_index(rng.gen_range(0..2)),
            addr: addr(rng),
            src: reg(rng),
        }),
        7 => {
            a.push(reg(rng));
            a.pop(reg(rng));
        }
        8 => a.emit(Insn::Unary {
            op: UnaryOp::from_index(rng.gen_range(0..4)),
            dst: reg(rng),
        }),
        9 => a.emit(Insn::Shift {
            op: [ShiftOp::Shl, ShiftOp::Shr, ShiftOp::Sar][rng.gen_range(0..3)],
            dst: reg(rng),
            amount: ShiftAmount::Imm(rng.gen_range(0..31)),
        }),
        10 => a.imul(reg(rng), reg(rng)),
        11 => {
            a.cmp_rr(reg(rng), reg(rng));
            a.emit(Insn::Setcc {
                cc: Cond::from_index(rng.gen_range(0..16)),
                dst: reg(rng),
            });
        }
        12 => a.emit(Insn::Cmov {
            cc: Cond::from_index(rng.gen_range(0..16)),
            dst: reg(rng),
            src: reg(rng),
        }),
        _ => a.lea(
            reg(rng),
            Addr::full(reg(rng), reg(rng), Scale::S4, rng.gen_range(-64..64)),
        ),
    }
}

#[test]
fn randomized_programs_are_equivalent_across_the_full_stack() {
    for seed in 0..40 {
        let p = random_program(seed);
        let (ref_st, _) = run_reference(&p, 100_000_000);
        let (tol_st, mut tol) = run_tol(&p, hot_cfg());
        flags::resolve(&mut tol_st.clone(), &mut tol.pending_flags);
        if let Some(m) = ref_st.first_reg_mismatch(&tol_st, true) {
            panic!("seed {seed}: register divergence: {m}");
        }
        if let Some(addr) = ref_st.mem.first_difference(&tol_st.mem) {
            panic!("seed {seed}: memory divergence at {addr:#010x}");
        }
    }
}

#[test]
fn rollback_histogram_records_the_whole_chained_dispatch() {
    // An inner loop (its own region, not unrolled, so it leaves through
    // a chained exit rather than a failing assert) falls through into a
    // superblock whose biased branch asserts and fails every fourth outer
    // iteration. A dispatch that reaches the failure chains through the
    // inner loop's region first, so its sample must cover that work too:
    // it is the dispatch's `ExitInfo::executed`, not the distance inside
    // the failing region.
    const INNER: i32 = 300;
    let mut a = Asm::new(DEFAULT_CODE_BASE);
    a.mov_ri(Gpr::Ecx, 200);
    let top = a.here();
    a.mov_ri(Gpr::Edx, INNER);
    let inner = a.here();
    a.add_rr(Gpr::Eax, Gpr::Edx);
    a.dec(Gpr::Edx);
    a.jcc_to(Cond::Ne, inner);
    let failing = a.addr();
    a.emit(Insn::TestRI { a: Gpr::Ecx, imm: 3 });
    let skip = a.label();
    a.jcc_to(Cond::Ne, skip);
    a.alu_ri(AluOp::Xor, Gpr::Ebx, 0x77);
    a.bind(skip);
    a.dec(Gpr::Ecx);
    a.jcc_to(Cond::Ne, top);
    a.halt();
    let p = a.into_program();
    let cfg = TolConfig {
        bbm_threshold: 3,
        sbm_threshold: 12,
        edge_bias: 0.6,
        assert_fail_limit: u32::MAX,
        unroll: false,
        ..TolConfig::default()
    };
    let mut st = GuestState::boot(&p);
    let mut tol = Tol::new(cfg);
    tol.obs.trace = darco_obs::Tracer::ring(1 << 20);
    assert!(matches!(tol.run(&mut st, u64::MAX, &mut NullSink), TolEvent::Halted));

    let h = tol.obs.metrics.histogram_ref("tol.rollback_dispatch_host_insns").unwrap();
    assert!(h.count > 0 && h.count == tol.stats.spec_rollbacks + tol.stats.smc_aborts);
    let samples: Vec<u64> = tol
        .obs
        .trace
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            darco_obs::TraceEventKind::Rollback { pc, host_insns } if pc == failing => {
                Some(host_insns)
            }
            _ => None,
        })
        .collect();
    let id = tol.cache.lookup(failing).expect("the failing block is translated");
    // One pass through the failing region, at the dearest host insn's cost.
    let one_pass = 6 * tol.cache.translation(id).len as u64;
    let longest = samples.iter().copied().max().expect("the second region rolls back");
    assert!(
        longest > one_pass && longest >= 2 * INNER as u64,
        "longest sample {longest} spans only the failing region (one pass <= {one_pass})"
    );
}
