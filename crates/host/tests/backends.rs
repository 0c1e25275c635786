//! Cross-backend unit tests: small HISA programs run through both
//! `HostEmulator::execute` (with a `NullSink`) and
//! `NativeEngine::execute`, which must agree on the exit info, the
//! register files, the counters and guest memory.
//!
//! On hosts without a native JIT only the emulator side runs, and each
//! test says so on stderr.

use darco_guest::{GuestMem, Width};
use darco_host::emu::{EmuCounters, ExitCause, ExitInfo, HostEmulator, IbtcTable, ProfTable};
use darco_host::regs::{HFreg, HReg};
use darco_host::{Backend, FAluOp, HAluOp, HInsn, NullSink};

/// Everything one backend leaves behind after a run.
#[derive(Debug, PartialEq)]
struct Outcome {
    exits: Vec<ExitInfo>,
    iregs: [u32; 64],
    fregs: Vec<u64>,
    counters: EmuCounters,
    gcnt: (u64, u64, u64, u64),
    pages: Vec<(u32, Vec<u8>)>,
    code_gen: u64,
}

/// A program plus the environment it runs in.
struct Case {
    code: Vec<HInsn>,
    entry: usize,
    /// One `execute` call per entry; the IBTC gets `ibtc_after_first`
    /// inserted between the first and second call.
    calls: usize,
    ibtc_after_first: Option<(u32, usize)>,
    fuel: u64,
    setup: fn(&mut HostEmulator, &mut GuestMem),
}

impl Case {
    fn new(code: Vec<HInsn>) -> Case {
        Case { code, entry: 0, calls: 1, ibtc_after_first: None, fuel: u64::MAX, setup: map_two_pages }
    }
}

fn map_two_pages(_: &mut HostEmulator, mem: &mut GuestMem) {
    mem.map_zero(0);
    mem.map_zero(1);
}

fn run(case: &Case, native: bool) -> Outcome {
    let mut emu = HostEmulator::new();
    let mut mem = GuestMem::new();
    (case.setup)(&mut emu, &mut mem);
    let mut ibtc = IbtcTable::new();
    let mut prof = ProfTable::new();
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    let (mut jit, log) = (darco_host::codegen::NativeEngine::new(), darco_host::codegen::MutationLog::new());
    let mut exits = Vec::new();
    for call in 0..case.calls {
        if call == 1 {
            if let Some((guest, host)) = case.ibtc_after_first {
                ibtc.insert(guest, host);
            }
        }
        let info = if native {
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            {
                jit.execute(&mut emu, &case.code, case.entry, &mut mem, &ibtc, &mut prof, case.fuel, &log)
            }
            #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
            unreachable!("native side requested without a JIT")
        } else {
            emu.execute(&case.code, case.entry, &mut mem, &ibtc, &mut prof, case.fuel, &mut NullSink)
        };
        exits.push(info);
    }
    let mut pages: Vec<(u32, Vec<u8>)> = mem.pages().map(|(n, p)| (n, p.to_vec())).collect();
    pages.sort();
    Outcome {
        exits,
        iregs: emu.iregs,
        fregs: emu.fregs.iter().map(|f| f.to_bits()).collect(),
        counters: emu.counters,
        gcnt: (emu.gcnt_bb, emu.gcnt_sb, emu.host_bb, emu.host_sb),
        pages,
        code_gen: mem.code_gen(),
    }
}

/// Runs `case` on the emulator and, where a JIT exists, natively;
/// asserts the outcomes match and returns the emulator's.
fn both(case: Case) -> Outcome {
    let emu = run(&case, false);
    if Backend::native_available() {
        let native = run(&case, true);
        assert_eq!(emu, native, "emulator and native backend diverge");
    } else {
        eprintln!("no native JIT on this host: emulator side only");
    }
    emu
}

fn r(i: u8) -> HReg {
    HReg(i)
}

fn st(rs: u8, off: i32, width: Width, seq: u16) -> HInsn {
    HInsn::Store { rs: r(rs), base: r(17), off, width, spec: false, seq }
}

fn ld(rd: u8, off: i32, width: Width, sign: bool, spec: bool, seq: u16) -> HInsn {
    HInsn::Load { rd: r(rd), base: r(17), off, width, sign, spec, seq }
}

fn li(rd: u8, imm: i16) -> HInsn {
    HInsn::Li16 { rd: r(rd), imm }
}

#[test]
fn alu_and_exit() {
    let out = both(Case::new(vec![
        HInsn::Chkpt,
        li(16, 21),
        HInsn::AluI { op: HAluOp::Add, rd: r(16), ra: r(16), imm: 21 },
        HInsn::TolExit { id: 5 },
    ]));
    assert_eq!(out.exits[0].cause, ExitCause::Exit { id: 5 });
    assert_eq!(out.iregs[16], 42);
}

#[test]
fn gated_store_is_squashed_by_assert_fail() {
    let out = both(Case::new(vec![
        HInsn::Chkpt,
        li(16, 77),
        st(16, 0x100, Width::D, 0),
        HInsn::AssertZ { rs: r(16) },
        HInsn::TolExit { id: 0 },
    ]));
    assert_eq!(out.exits[0].cause, ExitCause::AssertFail);
    assert_eq!(out.counters.assert_fails, 1);
    assert_eq!(out.iregs[16], 0, "rolled back");
}

#[test]
fn store_to_load_forwarding() {
    let out = both(Case::new(vec![
        HInsn::Chkpt,
        li(16, 1234),
        st(16, 0x80, Width::D, 1),
        ld(18, 0x80, Width::D, false, false, 2),
        HInsn::TolExit { id: 0 },
    ]));
    assert_eq!(out.iregs[18], 1234);
}

#[test]
fn seq_filtered_forwarding_and_program_order_commit() {
    let out = both(Case::new(vec![
        HInsn::Chkpt,
        li(16, 99),
        li(19, 1),
        st(16, 0x40, Width::D, 5),
        ld(18, 0x40, Width::D, false, false, 2),
        // Two stores to one address in reverse program order; the second
        // is younger than the first buffered store (seq 5), so only the
        // last-seq test keeps it off the in-order append fast path.
        st(16, 0x20, Width::D, 9),
        st(19, 0x20, Width::D, 6),
        HInsn::TolExit { id: 0 },
    ]));
    assert_eq!(out.iregs[18], 0, "the load precedes the hoisted store");
    assert_eq!(out.pages[0].1[0x40], 99);
    assert_eq!(out.pages[0].1[0x20], 99, "seq 9 wins over seq 6");
}

#[test]
fn alias_violation_and_disjoint_hoisted_load() {
    let out = both(Case::new(vec![
        HInsn::Chkpt,
        ld(18, 0x40, Width::D, false, true, 7),
        li(16, 5),
        st(16, 0x48, Width::D, 3), // disjoint: fine
        st(16, 0x40, Width::D, 2), // overlaps the younger spec load
        HInsn::TolExit { id: 0 },
    ]));
    assert_eq!(out.exits[0].cause, ExitCause::AliasFail);
    assert_eq!(out.counters.alias_fails, 1);
}

#[test]
fn page_fault_rolls_back() {
    for write in [false, true] {
        let access = if write { st(16, 0, Width::D, 0) } else { ld(18, 0, Width::D, false, false, 0) };
        let out = both(Case::new(vec![
            HInsn::Chkpt,
            li(16, 3),
            HInsn::Lui { rd: r(17), imm: 0x7000 },
            access,
            HInsn::TolExit { id: 0 },
        ]));
        assert_eq!(out.exits[0].cause, ExitCause::PageFault { addr: 0x7000_0000, write });
        assert_eq!(out.counters.page_faults, 1);
        assert_eq!((out.iregs[16], out.iregs[17]), (0, 0), "rolled back");
    }
}

#[test]
fn div_by_zero_rolls_back() {
    for div in [
        HInsn::Alu { op: HAluOp::Div, rd: r(16), ra: r(16), rb: r(20) },
        HInsn::AluI { op: HAluOp::Rem, rd: r(16), ra: r(16), imm: 0 },
    ] {
        let out = both(Case::new(vec![HInsn::Chkpt, li(16, 10), div, HInsn::TolExit { id: 0 }]));
        assert_eq!(out.exits[0].cause, ExitCause::DivByZero);
        assert_eq!(out.iregs[16], 0);
    }
}

#[test]
fn fuel_stops_at_checkpoint() {
    let mut case = Case::new(vec![
        HInsn::Chkpt,
        HInsn::AluI { op: HAluOp::Add, rd: r(16), ra: r(16), imm: 1 },
        st(16, 0x10, Width::D, 0),
        HInsn::Gcnt { n: 3, sb: true },
        HInsn::B { rel: -5 },
    ]);
    case.fuel = 100;
    let out = both(case);
    assert_eq!(out.exits[0].cause, ExitCause::Fuel);
    assert!(out.gcnt.1 >= 100 && out.gcnt.1 < 110);
    assert!(out.iregs[16] > 0, "committed iterations persist");
}

#[test]
fn ibtc_miss_then_hit() {
    let mut case = Case::new(vec![
        HInsn::Chkpt,
        li(16, 0x500),
        HInsn::IbtcJmp { rs: r(16), id: 9 },
        HInsn::Nop,
        HInsn::Chkpt,
        li(17, 1),
        HInsn::TolExit { id: 1 },
    ]);
    case.calls = 2;
    case.ibtc_after_first = Some((0x500, 4));
    let out = both(case);
    assert_eq!(out.exits[0].cause, ExitCause::Exit { id: 9 });
    assert_eq!(out.exits[1].cause, ExitCause::Exit { id: 1 });
    assert_eq!((out.counters.ibtc_misses, out.counters.ibtc_hits), (1, 1));
}

#[test]
fn subword_store_and_signed_load() {
    let out = both(Case::new(vec![
        HInsn::Chkpt,
        li(16, -1),
        st(16, 0x10, Width::B, 0),
        ld(18, 0x10, Width::B, true, false, 1),
        ld(19, 0x10, Width::W, false, false, 2),
        HInsn::TolExit { id: 0 },
    ]));
    assert_eq!(out.iregs[18], 0xFFFF_FFFF);
    assert_eq!(out.iregs[19], 0xFF);
}

#[test]
fn smc_store_aborts_before_buffering() {
    let mut case = Case::new(vec![
        HInsn::Chkpt,
        li(16, 7),
        st(16, 0x1010, Width::D, 0), // page 1 is a marked code page
        HInsn::TolExit { id: 0 },
    ]);
    case.setup = |emu, mem| {
        map_two_pages(emu, mem);
        mem.mark_code_page(1);
    };
    let out = both(case);
    assert_eq!(out.exits[0].cause, ExitCause::SmcWrite { addr: 0x1010 });
    assert_eq!(out.counters.smc_aborts, 1);
    assert_eq!(out.pages[1].1[0x10], 0, "the store never landed");
}

#[test]
fn bl_into_runtime_routine() {
    let rt = darco_host::runtime::build_runtime();
    let base = rt.code.len();
    let mut code = rt.code.clone();
    code.extend([
        HInsn::Chkpt,
        HInsn::FLoadImm { fd: HFreg(56), bits: 0.5f64.to_bits() },
        HInsn::Bl { rel: rt.sin_entry as i32 - (base as i32 + 3) },
        HInsn::FAlu { op: FAluOp::Add, fd: HFreg(1), fa: HFreg(56), fb: HFreg(56) },
        HInsn::TolExit { id: 3 },
    ]);
    let mut case = Case::new(code);
    case.entry = base;
    let out = both(case);
    assert_eq!(out.exits[0].cause, ExitCause::Exit { id: 3 });
    assert_eq!(f64::from_bits(out.fregs[56]), darco_guest::softfp::sin_spec(0.5));
}
