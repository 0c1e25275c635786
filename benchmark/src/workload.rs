//! The four seeded workloads and the passes that run them.
//!
//! Every workload is a closed loop: a caller runs one job (build the
//! program, start an engine, step it to the end), waits for it, then
//! starts the next. `campaign-2w` has two such callers, the two workers of
//! a `darco_fleet::Pool`. The seed reaches the programs only through the
//! suite profiles' generator seeds; the simulator sees generated code.

use crate::trace::{self, Recorder, Span};
use darco::{Engine, RunReport, SinkChoice, StepExit, System, SystemConfig, TimingMode};
use darco_fleet::{Pool, Resolved};
use darco_guest::prng::derive;
use darco_guest::{GuestProgram, GuestState};
use darco_host::codegen::Backend;
use darco_obs::Registry;
use darco_workloads::{benchmarks, BenchProfile, Suite};
use darco_xcomp::XComponent;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Stepping quantum: counters are read at these boundaries when tracing.
/// Untraced passes step with the same quantum, so both see the same
/// schedule and must produce the same deterministic digest.
const QUANTUM: u64 = 100_000;
/// `timed-fast` steps and samples in SMARTS-sized windows.
const WINDOW: u64 = 250_000;
/// Restores of each `timed-fast` checkpoint, one window after each.
const RESTORES: usize = 2;
/// Guest instructions a reference run may take: over twice the longest
/// suite program (15.5 M at scale 1/1), so one that never ends is found
/// fast.
const REFERENCE_BUDGET: u64 = 40_000_000;
/// Generator seeds tried per program before set-up gives up. About 2% of
/// seeds give a `483.xalancbmk` that reaches its exit at scale 1/1 (most
/// fault within its first million instructions), so a thousand draws
/// practically never run out.
const MAX_DRAWS: u64 = 1000;
/// Smoke runs divide every workload's scale by this.
const SMOKE_DIVISOR: u32 = 64;

/// Where a program comes from. Building it is part of each run's set-up.
enum Source {
    /// A suite profile, already seeded and scaled.
    Suite(BenchProfile),
    /// A `darco_fleet` kernel name and its scale.
    Kernel(String, (u32, u32)),
}

impl Source {
    fn name(&self) -> &str {
        match self {
            Source::Suite(p) => &p.name,
            Source::Kernel(n, _) => n,
        }
    }

    fn build(&self) -> Result<GuestProgram, String> {
        match self {
            Source::Suite(p) => Ok(darco_workloads::build(p)),
            Source::Kernel(n, scale) => match darco_fleet::resolve(n, *scale)? {
                Resolved::Program(p) => Ok(p),
                Resolved::InjectedPanic => Err(format!("`{n}` is not a program")),
            },
        }
    }
}

/// A workload: its programs, configurations and the jobs that pair them.
pub struct Plan {
    pub name: &'static str,
    sources: Vec<Source>,
    configs: Vec<SystemConfig>,
    /// `(source, config)` per job, in submission order.
    jobs: Vec<(usize, usize)>,
    quantum: u64,
    /// Checkpoint each run at half its length and restore the snapshot
    /// into fresh engines afterwards (SMARTS-style sampling).
    pub sampled: bool,
    /// Concurrent callers: 1 runs jobs on the main thread.
    pub workers: usize,
}

/// The suite programs `keep` selects, `variants` seeded variants of
/// each. Variant `v` of a profile gets generator seed
/// `derive(seed, profile.seed + (v << 32))`: a program's speed depends on
/// the code its seed generates, and variants average that out.
fn suite(
    seed: u64,
    scale: (u32, u32),
    variants: u64,
    keep: impl Fn(&darco_workloads::Benchmark) -> bool,
) -> Vec<Source> {
    let picked: Vec<_> = benchmarks().into_iter().filter(|b| keep(b)).collect();
    (0..variants)
        .flat_map(|v| {
            picked.iter().map(move |b| {
                let mut p = b.profile.clone().scaled(scale.0, scale.1);
                p.seed = derive(seed, p.seed + (v << 32));
                Source::Suite(p)
            })
        })
        .collect()
}

fn native() -> SystemConfig {
    SystemConfig { backend: Backend::Native, ..SystemConfig::default() }
}

/// The named workload at `seed`; `smoke` shrinks every program 64-fold.
pub fn plan(name: &str, seed: u64, smoke: bool) -> Option<Plan> {
    let scale = |n: u32, d: u32| if smoke { (n, d * SMOKE_DIVISOR) } else { (n, d) };
    let (name, sources, configs, quantum, sampled, workers) = match name {
        "hot-native" => {
            let s = suite(seed, scale(1, 1), 1, |b| b.suite != Suite::Physics);
            ("hot-native", s, vec![native()], QUANTUM, false, 1)
        }
        "warm-start" => {
            let mut s = suite(seed, scale(1, 1), 3, |b| {
                b.suite == Suite::Physics || b.name == "445.gobmk" || b.name == "483.xalancbmk"
            });
            for k in ["dot", "matmul", "search", "nbody", "quicksort", "crc32"] {
                s.push(Source::Kernel(format!("kernel:{k}"), scale(1, 1)));
            }
            ("warm-start", s, vec![native()], QUANTUM, false, 1)
        }
        "timed-fast" => {
            let picked = ["403.gcc", "462.libquantum", "433.milc", "470.lbm", "breakable", "ragdoll"];
            let s = suite(seed, scale(1, 4), 2, |b| picked.contains(&b.name));
            // Timing needs retire events, which only the emulator produces.
            let cfg = SystemConfig {
                sink: SinkChoice::InOrder,
                timing_mode: TimingMode::Fast,
                backend: Backend::Emu,
                ..SystemConfig::default()
            };
            let window = if smoke { WINDOW / SMOKE_DIVISOR as u64 } else { WINDOW };
            ("timed-fast", s, vec![cfg], window, true, 1)
        }
        "campaign-2w" => {
            let s = suite(seed, scale(1, 4), 1, |_| true);
            let mut no_spec = native();
            no_spec.tol.speculation = false;
            ("campaign-2w", s, vec![native(), no_spec], QUANTUM, false, 2)
        }
        _ => return None,
    };
    let jobs = (0..sources.len()).flat_map(|s| (0..configs.len()).map(move |c| (s, c))).collect();
    Some(Plan { name, sources, configs, jobs, quantum, sampled, workers })
}

/// The authoritative interpreter's final registers.
#[derive(Debug, Clone, PartialEq)]
struct Regs {
    gprs: [u32; 8],
    fprs: [u64; 8],
    eip: u32,
}

impl Regs {
    fn of(st: &GuestState) -> Regs {
        Regs { gprs: st.gprs(), fprs: st.fprs().map(f64::to_bits), eip: st.eip }
    }
}

/// What a program must produce, from a standalone run of the
/// authoritative interpreter: not the TOL or host code under test.
struct Reference {
    insns: u64,
    output: Vec<u8>,
    exit: Option<u32>,
    regs: Regs,
}

/// Sync-protocol, translator and JIT wall counters, read from the
/// engine's registry at step boundaries.
#[derive(Clone, Copy, Default)]
struct Phase {
    xcomp: u64,
    translate: u64,
    verify: u64,
    jit_exec: u64,
    jit_compile: u64,
    jit_verify: u64,
}

impl Phase {
    fn read(reg: &Registry) -> Phase {
        let c = |n: &str| reg.counter_value(n).unwrap_or(0);
        Phase {
            xcomp: c("sync.xcomp_nanos"),
            translate: c("tol.translate_nanos"),
            verify: c("tol.verify_nanos"),
            jit_exec: c("jit.exec_nanos"),
            jit_compile: c("jit.compile_nanos"),
            jit_verify: c("jit.verify.nanos"),
        }
    }

    /// The step span's partition: translation minus its verifier, native
    /// execution minus compilation and the machine-code checker.
    fn delta_args(&self, prev: &Phase) -> [(&'static str, u64); 5] {
        let d = |f: fn(&Phase) -> u64| f(self).saturating_sub(f(prev));
        let verify = d(|p| p.verify);
        let compile = d(|p| p.jit_compile) + d(|p| p.jit_verify);
        [
            ("xcomp_ns", d(|p| p.xcomp)),
            ("translate_ns", d(|p| p.translate).saturating_sub(verify)),
            ("verify_ns", verify),
            ("jit_exec_ns", d(|p| p.jit_exec).saturating_sub(compile)),
            ("jit_compile_ns", compile),
        ]
    }
}

/// One job's result.
struct JobOut {
    /// Guest instructions retired in the job (full run plus windows).
    insns: u64,
    /// Guest instructions of the full run.
    run_insns: u64,
    modes: [u64; 3],
    host_app: u64,
    overhead: u64,
    /// Simulated cycles of the full run (0 without a timing sink).
    cycles: u64,
    output: Vec<u8>,
    exit: Option<u32>,
    regs: Regs,
    digest: u64,
    setup_ns: u64,
    /// Step time of the full run (windows excluded).
    run_step_ns: u64,
    wall_ns: u64,
    snapshot_bytes: Option<u64>,
    restore_ns: Vec<u64>,
    /// The full run's final registry, kept on traced passes.
    metrics: Option<Registry>,
    spans: Vec<Span>,
}

fn fnv(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn report_words(r: &RunReport) -> [u64; 7] {
    let (im, bbm, sbm) = r.mode_insns;
    let cycles = r.timing.as_ref().map_or(0, |t| t.cycles);
    [r.guest_insns, im, bbm, sbm, r.host_app_insns, r.overhead.total(), cycles]
}

/// One `Engine::step` and its duration, with the registry read after it
/// when tracing.
fn step(
    e: &mut Engine,
    quantum: u64,
    rec: &mut Recorder,
    phase: &mut Option<Phase>,
) -> Result<(StepExit, u64), String> {
    let t = rec.begin("core.step");
    let r = e.step(quantum);
    let ns = rec.end(&t);
    if let Some(prev) = phase {
        let s = rec.begin("obs.metrics_snapshot");
        let now = Phase::read(&e.metrics());
        rec.end(&s);
        rec.annotate(&t, &now.delta_args(prev));
        *prev = now;
    }
    r.map(|exit| (exit, ns)).map_err(|e| e.to_string())
}

fn start_phase(e: &Engine, rec: &mut Recorder) -> Option<Phase> {
    rec.tracing().then(|| {
        let s = rec.begin("obs.metrics_snapshot");
        let p = Phase::read(&e.metrics());
        rec.end(&s);
        p
    })
}

/// Builds, starts and runs one program; with `sample_at`, checkpoints at
/// the first boundary past it and replays windows from that snapshot.
fn run_job(
    src: &Source,
    cfg: &SystemConfig,
    quantum: u64,
    sample_at: Option<u64>,
    mut rec: Recorder,
) -> Result<JobOut, String> {
    let job = rec.begin("bench.job");
    let t = rec.begin("workloads.build");
    let program = src.build()?;
    let mut setup_ns = rec.end(&t);
    let keep = sample_at.map(|_| program.clone());
    let t = rec.begin("core.engine_new");
    let mut e = System::new(cfg.clone(), program).start();
    setup_ns += rec.end(&t);

    let mut phase = start_phase(&e, &mut rec);
    let mut snap = None;
    let mut run_step_ns = 0;
    loop {
        let (exit, ns) = step(&mut e, quantum, &mut rec, &mut phase)?;
        run_step_ns += ns;
        if matches!(exit, StepExit::Ended | StepExit::GuestFault) {
            break;
        }
        if sample_at.is_some_and(|at| snap.is_none() && e.insns() >= at) {
            let t = rec.begin("core.checkpoint");
            snap = Some(e.checkpoint().map_err(|e| e.to_string())?);
            rec.end(&t);
        }
    }
    let regs = Regs::of(&e.machine().state);
    let report = e.into_report();
    let mut words = report_words(&report).to_vec();
    let mut insns = report.guest_insns;

    let mut restore_ns = Vec::new();
    if let (Some(snap), Some(program)) = (&snap, &keep) {
        words.push(snap.guest_insns());
        for _ in 0..RESTORES {
            let t = rec.begin("core.engine_new");
            let mut w = System::new(cfg.clone(), program.clone()).start();
            setup_ns += rec.end(&t);
            let t = rec.begin("core.restore");
            w.restore(snap).map_err(|e| e.to_string())?;
            restore_ns.push(rec.end(&t));
            let mut phase = start_phase(&w, &mut rec);
            let before = w.insns();
            step(&mut w, quantum, &mut rec, &mut phase)?;
            insns += w.insns() - before;
            words.extend_from_slice(&report_words(&w.into_report()));
        }
    }
    let wall_ns = rec.end(&job);
    let metrics = rec.tracing().then(|| report.metrics.clone());
    let (im, bbm, sbm) = report.mode_insns;
    Ok(JobOut {
        insns,
        run_insns: report.guest_insns,
        modes: [im, bbm, sbm],
        host_app: report.host_app_insns,
        overhead: report.overhead.total(),
        cycles: report.timing.as_ref().map_or(0, |t| t.cycles),
        output: report.output,
        exit: report.exit_status,
        regs,
        digest: fnv(&words),
        setup_ns,
        run_step_ns,
        wall_ns,
        snapshot_bytes: snap.map(|s| s.as_bytes().len() as u64),
        restore_ns,
        metrics,
        spans: rec.into_spans(),
    })
}

fn guarded(f: impl FnOnce() -> Result<JobOut, String>) -> Result<JobOut, String> {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|p| Err(format!("panicked: {}", darco_fleet::pool::panic_message(p.as_ref()))))
}

/// Which variant a pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    Plain,
    Traced,
    /// `timed-fast` without its timing sink: the base of `timing.sink_*`.
    NoSink,
}

/// What one job, or a sum of jobs, cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub insns: u64,
    pub wall_ns: u64,
    pub setup_ns: u64,
}

impl Cost {
    /// Min-of-N: each job's fastest wall and set-up time over `passes`,
    /// summed over jobs. Interference from other tenants of a shared host
    /// only ever slows a job down and comes in bursts of seconds, so a
    /// job's fastest pass is its least disturbed one.
    pub fn fastest(passes: &[Pass]) -> Cost {
        let jobs = passes.first().map_or(0, |p| p.jobs.len());
        let mut f = Cost::default();
        for j in 0..jobs {
            let runs: Vec<Cost> = passes.iter().filter_map(|p| p.jobs[j]).collect();
            if let Some(first) = runs.first() {
                f.insns += first.insns;
                f.wall_ns += runs.iter().map(|r| r.wall_ns).min().unwrap_or(0);
                f.setup_ns += runs.iter().map(|r| r.setup_ns).min().unwrap_or(0);
            }
        }
        f
    }

    /// Guest MIPS with `workers` callers sharing the jobs.
    pub fn guest_mips(&self, workers: usize) -> f64 {
        self.insns as f64 / (self.wall_ns.max(1) as f64 / workers as f64 / 1e9) / 1e6
    }
}

/// What one pass over every job of a workload measured.
#[derive(Default)]
pub struct Pass {
    pub wall_ns: u64,
    /// Guest instructions retired in the pass.
    pub insns: u64,
    /// Guest instructions of the full runs (windows excluded).
    pub run_insns: u64,
    pub setup_ns: u64,
    pub run_step_ns: u64,
    pub busy_ns: u64,
    /// Each job's cost, in job order (`None` when it failed).
    pub jobs: Vec<Option<Cost>>,
    pub modes: [u64; 3],
    pub host_app: u64,
    pub overhead: u64,
    pub cycles: u64,
    pub restore_ns: Vec<u64>,
    pub snapshot_bytes: Vec<u64>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Digest over every job's digest, in job order.
    pub digest: u64,
    pub spans: Vec<Span>,
    pub metrics: Registry,
}

impl Pass {
    pub fn guest_mips(&self) -> f64 {
        self.insns as f64 / (self.wall_ns.max(1) as f64 / 1e9) / 1e6
    }

    /// Simulated host stream per guest instruction (Figs. 5-6).
    pub fn host_per_guest(&self) -> f64 {
        (self.host_app + self.overhead) as f64 / self.run_insns.max(1) as f64
    }

    /// Simulated cycles per guest instruction (0 without a timing sink).
    pub fn sim_cpi(&self) -> f64 {
        self.cycles as f64 / self.run_insns.max(1) as f64
    }

    /// Mean snapshot size (0 when nothing was checkpointed).
    pub fn snapshot_kb(&self) -> f64 {
        let n = self.snapshot_bytes.len().max(1) as f64;
        self.snapshot_bytes.iter().sum::<u64>() as f64 / n / 1024.0
    }
}

/// A workload ready to run passes: its plan, the reference outputs and
/// the digests every later pass must reproduce.
pub struct Bench {
    plan: Arc<Plan>,
    refs: Vec<Reference>,
    pub solo: Solo,
    digests: Vec<Option<u64>>,
    epoch: Instant,
    pool: Option<Pool>,
}

/// What the reference runs cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Solo {
    /// Standalone authoritative-interpreter time and instructions.
    pub ns: u64,
    pub insns: u64,
    /// Generator seeds drawn again because the reference rejected them.
    pub redrawn: u64,
}

/// Runs one program on a standalone authoritative interpreter, drawing
/// its generator seed again while the run does not reach its exit.
fn reference(src: &mut Source, solo: &mut Solo) -> Result<Reference, String> {
    let mut draw = 0;
    loop {
        let mut x = XComponent::new(&src.build()?);
        let t = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| x.run_to_end(REFERENCE_BUDGET)))
            .map_err(|p| darco_fleet::pool::panic_message(p.as_ref()))
            .and_then(|r| r.map_err(|e| e.to_string()));
        solo.ns += t.elapsed().as_nanos() as u64;
        solo.insns += x.insns;
        match (r, &mut *src) {
            (Ok(()), _) => {
                return Ok(Reference {
                    insns: x.insns,
                    output: x.output.clone(),
                    exit: x.exit_status(),
                    regs: Regs::of(&x.state),
                })
            }
            (Err(_), Source::Suite(p)) if draw < MAX_DRAWS => {
                p.seed = derive(p.seed, draw);
                draw += 1;
                solo.redrawn += 1;
            }
            (Err(e), src) => return Err(format!("{}: reference run: {e}", src.name())),
        }
    }
}

impl Bench {
    /// Runs every program once on a standalone authoritative interpreter
    /// and records what each run must reproduce.
    ///
    /// With some seeds the generator's streaming stores overwrite the
    /// program's own jump table, and the program faults or never ends,
    /// which would make it a different workload. Such a program's
    /// generator seed is drawn again, deterministically, until the
    /// reference runs it to its exit.
    pub fn setup(mut plan: Plan) -> Result<Bench, String> {
        // Rejected draws are expected: keep their panics off the output.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut solo = Solo::default();
        let refs: Result<Vec<Reference>, String> =
            plan.sources.iter_mut().map(|src| reference(src, &mut solo)).collect();
        std::panic::set_hook(hook);
        let refs = refs?;
        let pool = (plan.workers > 1).then(|| Pool::new(plan.workers));
        let digests = vec![None; plan.jobs.len()];
        Ok(Bench { plan: Arc::new(plan), refs, solo, digests, epoch: Instant::now(), pool })
    }

    /// Runs every job once. The first plain or traced pass fixes each
    /// job's deterministic digest; every later one must match it.
    pub fn pass(&mut self, kind: PassKind) -> Pass {
        let traced = kind == PassKind::Traced;
        let plan = &self.plan;
        let items: Vec<(usize, Option<u64>)> = plan
            .jobs
            .iter()
            .enumerate()
            .map(|(i, &(s, _))| {
                (i, (plan.sampled && kind != PassKind::NoSink).then(|| self.refs[s].insns / 2))
            })
            .collect();
        let t0 = Instant::now();
        let outs: Vec<Result<JobOut, String>> = match &self.pool {
            None => items
                .iter()
                .map(|&(i, at)| {
                    let rec = Recorder::new(self.epoch, traced, i as u32, 0);
                    guarded(|| job(plan, i, kind, at, rec))
                })
                .collect(),
            Some(pool) => {
                let (plan, epoch) = (Arc::clone(plan), self.epoch);
                pool.map(items, move |_, &(i, at)| {
                    let rec = Recorder::new(epoch, traced, i as u32, worker_lane());
                    guarded(|| job(&plan, i, kind, at, rec))
                })
                .into_iter()
                .map(|r| r.map_err(|e| e.to_string()).and_then(|r| r))
                .collect()
            }
        };
        let mut pass = Pass {
            wall_ns: t0.elapsed().as_nanos() as u64,
            jobs: vec![None; plan.jobs.len()],
            ..Pass::default()
        };
        let mut digests = Vec::new();
        for (i, out) in outs.into_iter().enumerate() {
            pass.attempted += 1;
            let out = match out.and_then(|o| self.check(i, kind, o)) {
                Ok(o) => o,
                Err(e) => {
                    let name = self.plan.sources[self.plan.jobs[i].0].name();
                    pass.failures.push(format!("{} job {i} ({name}): {e}", self.plan.name));
                    continue;
                }
            };
            digests.push(out.digest);
            pass.insns += out.insns;
            pass.run_insns += out.run_insns;
            pass.setup_ns += out.setup_ns;
            pass.run_step_ns += out.run_step_ns;
            pass.busy_ns += out.wall_ns;
            pass.jobs[i] = Some(Cost { insns: out.insns, wall_ns: out.wall_ns, setup_ns: out.setup_ns });
            for (a, b) in pass.modes.iter_mut().zip(out.modes) {
                *a += b;
            }
            pass.host_app += out.host_app;
            pass.overhead += out.overhead;
            pass.cycles += out.cycles;
            pass.restore_ns.extend(out.restore_ns);
            pass.snapshot_bytes.extend(out.snapshot_bytes);
            if let Some(m) = &out.metrics {
                pass.metrics.merge(m);
            }
            trace::absorb(&mut pass.spans, out.spans);
        }
        pass.digest = fnv(&digests);
        pass
    }

    fn check(&mut self, job: usize, kind: PassKind, out: JobOut) -> Result<JobOut, String> {
        let r = &self.refs[self.plan.jobs[job].0];
        if out.run_insns != r.insns {
            return Err(format!("retired {} guest instructions, reference {}", out.run_insns, r.insns));
        }
        if out.output != r.output || out.exit != r.exit {
            return Err(format!(
                "output {:?} exit {:?}, reference {:?} exit {:?}",
                String::from_utf8_lossy(&out.output),
                out.exit,
                String::from_utf8_lossy(&r.output),
                r.exit
            ));
        }
        if out.regs != r.regs {
            return Err(format!("final registers {:?}, reference {:?}", out.regs, r.regs));
        }
        if kind != PassKind::NoSink {
            match self.digests[job] {
                None => self.digests[job] = Some(out.digest),
                Some(d) if d != out.digest => {
                    return Err(format!("digest {:016x}, first pass {d:016x}", out.digest));
                }
                Some(_) => {}
            }
        }
        Ok(out)
    }
}

fn job(
    plan: &Plan,
    i: usize,
    kind: PassKind,
    sample_at: Option<u64>,
    rec: Recorder,
) -> Result<JobOut, String> {
    let (s, c) = plan.jobs[i];
    let mut cfg = plan.configs[c].clone();
    if kind == PassKind::NoSink {
        cfg.sink = SinkChoice::None;
    }
    run_job(&plan.sources[s], &cfg, plan.quantum, sample_at, rec)
}

/// Trace lane of a fleet worker (`fleet-worker-N` runs in lane N + 1).
fn worker_lane() -> u32 {
    std::thread::current()
        .name()
        .and_then(|n| n.strip_prefix("fleet-worker-"))
        .and_then(|n| n.parse::<u32>().ok())
        .map_or(0, |n| n + 1)
}

/// Per-layer metrics of one traced pass. Times are the pass's sums;
/// shares are of `core.step_s` unless named otherwise.
pub fn layer_metrics(p: &Pass, workers: usize) -> BTreeMap<&'static str, f64> {
    let lt = trace::layer_times(&p.spans);
    let total = |n: &str| lt.get(n).map_or(0, |t| t.total_ns) as f64 / 1e9;
    let arg = |k: &str| trace::arg_sum(&p.spans, k) as f64 / 1e9;
    let c = |n: &str| p.metrics.counter_value(n).unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let step = total("core.step");
    let (xcomp, translate, verify) = (arg("xcomp_ns"), arg("translate_ns"), arg("verify_ns"));
    let (jit_exec, jit_compile) = (arg("jit_exec_ns"), arg("jit_compile_ns"));
    let residual = step - xcomp - translate - verify - jit_exec - jit_compile;
    let wall = p.wall_ns as f64 / 1e9;
    let guest = p.run_insns as f64;
    let modes = p.modes.iter().sum::<u64>() as f64;
    let per_k = |n: &str| ratio(c(n) * 1000.0, guest);
    let memo = c("fast.memo_blocks");
    let rollbacks = c("emu.assert_fails") + c("emu.alias_fails") + c("emu.page_faults") + c("emu.smc_aborts");

    BTreeMap::from([
        ("workloads.build_s", total("workloads.build")),
        ("core.engine_new_s", total("core.engine_new")),
        ("core.step_s", step),
        ("core.residual_s", residual),
        ("core.residual_share", ratio(residual, step)),
        ("core.checkpoint_share", ratio(total("core.checkpoint"), wall)),
        ("core.restore_share", ratio(total("core.restore"), wall)),
        ("xcomp.catchup_s", xcomp),
        ("xcomp.catchup_share", ratio(xcomp, step)),
        ("tol.translate_s", translate),
        ("tol.translate_share", ratio(translate, step)),
        ("ir.verify_s", verify),
        ("ir.verify_share", ratio(verify, step)),
        ("host.jit_exec_share", ratio(jit_exec, step)),
        ("host.jit_compile_share", ratio(jit_compile, step)),
        ("obs.metrics_snapshot_s", total("obs.metrics_snapshot")),
        ("fleet.worker_busy_frac", ratio(p.busy_ns as f64 / 1e9, workers as f64 * wall)),
        ("sync.validations", c("sync.validations")),
        ("sync.pages_served", c("sync.pages_served")),
        ("sync.syscalls", c("sync.syscalls")),
        ("tol.translations_bb", c("tol.translations_bb")),
        ("tol.translations_sb", c("tol.translations_sb")),
        ("tol.recreations", c("tol.recreations")),
        ("tol.interp_blocks", c("tol.interp_blocks")),
        ("tol.spec_rollbacks", c("tol.spec_rollbacks")),
        ("tol.chain_patches", c("tol.chain_patches")),
        ("tol.ibtc_inserts", c("tol.ibtc_inserts")),
        ("tol.im_frac", ratio(p.modes[0] as f64, modes)),
        ("tol.bbm_frac", ratio(p.modes[1] as f64, modes)),
        ("tol.sbm_frac", ratio(p.modes[2] as f64, modes)),
        ("tol.overhead_frac", ratio(p.overhead as f64, (p.host_app + p.overhead) as f64)),
        ("ir.verify_regions", c("tol.verify_regions")),
        ("host.jit_enters", c("jit.enters")),
        ("host.jit_slow_mem_exits", c("jit.slow_mem_exits")),
        ("host.jit_frags_compiled", c("jit.frags_compiled")),
        ("host.jit_code_kb", c("jit.code_bytes_emitted") / 1024.0),
        ("host.emu_commit_ratio", 1.0 - ratio(rollbacks, c("emu.chkpts"))),
        ("host.ibtc_hit_ratio", ratio(c("emu.ibtc_hits"), c("emu.ibtc_hits") + c("emu.ibtc_misses"))),
        ("host.assert_fails", c("emu.assert_fails")),
        ("host.alias_fails", c("emu.alias_fails")),
        ("timing.fast_escapes", c("fast.escapes")),
        ("timing.fast_memo_frac", ratio(memo, memo + c("fast.escapes") + c("fast.plain_blocks"))),
        ("timing.dl1_mpki", per_k("timing.dl1_misses")),
        ("timing.l2_mpki", per_k("timing.l2_misses")),
        ("timing.bpred_mpki", per_k("timing.mispredicts")),
        ("sim_cpi", p.sim_cpi()),
        ("snapshot_kb", p.snapshot_kb()),
    ])
}
