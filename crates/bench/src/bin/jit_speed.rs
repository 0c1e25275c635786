//! **JIT speed** — per-execution-mode guest MIPS of the native x86-64
//! backend against the reference emulator, on the representative subset
//! (`measure::SET`).
//!
//! Two MIPS figures are reported per mode, and the distinction matters:
//!
//! * **wall MIPS** — guest instructions over the whole run's wall time.
//!   This includes the *authoritative component*: a full x86 interpreter
//!   (`darco-xcomp`) that must retire every guest instruction at each
//!   catch-up point (syscall, page fault, halt, validation). That
//!   interpreter runs at well under 100 MIPS on its own, so wall MIPS is
//!   capped by it **no matter how fast the software layer gets** — it is
//!   a property of the dual-execution simulation infrastructure, not of
//!   the backend under test.
//! * **software-layer MIPS** (`sw_mips`) — guest instructions over wall
//!   time *minus* `sync.xcomp_nanos`, the time attributed to the
//!   authoritative interpreter. This is the co-designed processor's own
//!   throughput: TOL dispatch + translation + translated-code execution.
//!   It is the honest basis for comparing backends and modes.
//!
//! Emits `BENCH_jit.json` with both figures for every mode × backend,
//! measured with the shared protocol ([`darco_bench::measure`]: all six
//! mode × backend variants interleaved per workload, per-workload
//! minimum of `REPS`). Its `emu.sb` lane (the default configuration) is
//! also the baseline `obs_overhead` compares the disabled tracer with.
//! `bench_gate` enforces the backend's performance contract on
//! `sw_mips`:
//!
//! * mode ordering under the native backend: `interp < bb` and
//!   `interp < sb` strictly — translation must pay off over
//!   interpretation — and `sb >= 0.9 * bb`. The sb/bb comparison gets a
//!   tolerance because the two are genuinely close under a native
//!   backend: bb mode has no speculation to pay for, while sb's larger
//!   regions win back the transactional overhead only on hot loops.
//!   Quiet-host measurements at `--scale 1/1` put sb ahead (e.g. zeusmp
//!   247 vs 199 sw-MIPS); a strict inequality would flap on a shared CI
//!   host whose run-to-run noise exceeds the margin.
//! * native sb-mode `sw_mips` must be at least 2x the emulator's
//!   sb-mode `sw_mips` — running translations as real machine code must
//!   clearly beat emulating them (measured 2.3-2.9x).
//!
//! The bounds are calibrated for `--scale 1/1`: superblock translation +
//! native compilation is a fixed cost, and at fractional scales it can
//! exceed a short run's whole execution time (breakable at 1/4 spends
//! 7.4ms translating vs 7.2ms executing), which re-inverts sb below bb
//! for reasons that say nothing about the generated code.
//!
//! **Why there is no 10x gate.** The paper's order-of-magnitude premise
//! compares translated code against a decode-dispatch interpreter. This
//! repo's interpreter is already a predecoded fast interpreter running
//! at ~72 sw-MIPS, and every translated mode — emulated or native —
//! carries the transactional machinery (checkpoint snapshots, store
//! buffering, alias screens) that precise-state co-design requires, so
//! the realizable software-layer speedup over interpretation is ~2.2x,
//! not 10x. Wall MIPS is additionally capped near ~77 by the
//! authoritative x86 interpreter regardless of backend. Both limits are
//! properties of the dual-execution infrastructure, not of the backend
//! under test; the JSON records them instead of gating on a number the
//! architecture cannot produce.
//!
//! On hosts without a JIT (non-x86-64), the harness still runs and
//! records emulator numbers with `"native": null`; `bench_gate` then
//! rejects the artifact for its missing native lane.

use darco::json::JsonWriter;
use darco::SystemConfig;
use darco_bench::measure::{self, Args, Best, SET};
use darco_bench::{default_config, run_one, Scale};
use darco_host::codegen::Backend;
use darco_workloads::benchmarks;

/// The three pinned modes: a name plus the TOL thresholds that pin it.
const MODES: [(&str, u64, u64); 3] = [
    // Promotion disabled: every instruction interprets.
    ("interp", u64::MAX, u64::MAX),
    // BB promotion at the default threshold, SB promotion disabled.
    ("bb", 50, u64::MAX),
    // Full promotion pipeline (defaults).
    ("sb", 50, 500),
];

struct ModeResult {
    name: &'static str,
    guest_insns: u64,
    wall_s: f64,
    /// Wall seconds attributed to the authoritative x86 interpreter.
    xcomp_s: f64,
    mips: f64,
    sw_mips: f64,
}

fn mode_config(mode: usize, backend: Backend) -> SystemConfig {
    let (_, bbm, sbm) = MODES[mode];
    let mut cfg = default_config();
    cfg.tol.bbm_threshold = bbm;
    cfg.tol.sbm_threshold = sbm;
    cfg.backend = backend;
    cfg
}

/// Folds one variant's per-workload minima `(guest_insns, xcomp_s)`.
fn fold(name: &'static str, row: &[Best<(u64, f64)>]) -> ModeResult {
    let insns: u64 = row.iter().map(|b| b.data.0).sum();
    let wall = measure::total(row);
    let xcomp: f64 = row.iter().map(|b| b.data.1).sum();
    let sw = (wall - xcomp).max(1e-9);
    ModeResult {
        name,
        guest_insns: insns,
        wall_s: wall,
        xcomp_s: xcomp,
        mips: insns as f64 / wall / 1e6,
        sw_mips: insns as f64 / sw / 1e6,
    }
}

/// Writes one backend's lane to the artifact and prints it.
fn write_lane(w: &mut JsonWriter, key: &str, results: &[ModeResult]) {
    w.begin_obj(Some(key));
    for r in results {
        println!("{key:<8} {:<8} {:>10.2} {:>10.2}", r.name, r.mips, r.sw_mips);
        w.begin_obj(Some(r.name))
            .field_num("guest_insns", r.guest_insns)
            .field_f64("wall_s", r.wall_s)
            .field_f64("xcomp_s", r.xcomp_s)
            .field_f64("mips", r.mips)
            .field_f64("sw_mips", r.sw_mips)
            .end_obj();
    }
    w.end_obj();
}

fn main() {
    let args = Args::from_env(Scale(1, 1), measure::SCALE);
    let backends: &[Backend] =
        if Backend::native_available() { &[Backend::Emu, Backend::Native] } else { &[Backend::Emu] };
    // Variant `v` is mode `v % 3` under backend `v / 3`.
    let best = measure::interleaved_min(backends.len() * MODES.len(), SET.len(), |v, w| {
        let cfg = mode_config(v % MODES.len(), backends[v / MODES.len()]);
        let (wall, r) = measure::time(|| run_one(&benchmarks()[SET[w]], args.scale, cfg));
        let xcomp = r.metrics.counter_value("sync.xcomp_nanos").unwrap_or(0) as f64 / 1e9;
        (wall, (r.guest_insns, xcomp))
    });
    let mut lanes = best.chunks(MODES.len()).map(|rows| {
        rows.iter().zip(MODES).map(|(row, (name, _, _))| fold(name, row)).collect::<Vec<_>>()
    });
    let emu = lanes.next().expect("emulator lane");
    let native = lanes.next();

    println!("== JIT speed (guest MIPS per mode, per-workload min of {}) ==", measure::REPS);
    println!("{:<8} {:<8} {:>10} {:>10}", "backend", "mode", "MIPS", "sw MIPS");
    let mut w = measure::header("jit", args.scale, measure::REPS);
    let names: Vec<&str> = SET.iter().map(|&i| benchmarks()[i].name).collect();
    measure::workloads_field(&mut w, &names);
    write_lane(&mut w, "emu", &emu);
    match &native {
        Some(n) => {
            write_lane(&mut w, "native", n);
            w.begin_obj(Some("native_sw_speedup"));
            for (e, n) in emu.iter().zip(n) {
                println!("native/emu sw speedup, {}: {:.2}x", e.name, n.sw_mips / e.sw_mips);
                w.field_f64(e.name, n.sw_mips / e.sw_mips);
            }
            w.end_obj();
            w.field_f64("native_sb_sw_vs_emu_interp_sw", n[2].sw_mips / emu[0].sw_mips);
        }
        None => {
            println!("(no JIT on this host; emulator numbers only)");
            w.field_null("native");
        }
    }
    w.end_obj();
    args.write("BENCH_jit.json", &w.finish());
}
