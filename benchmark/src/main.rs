//! `darco-benchmark`: the repository's benchmark.
//!
//! `run` executes the seeded workloads, checks every run against a
//! standalone authoritative-interpreter reference, and prints each metric
//! by name with its unit. The last line it prints is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! of `BENCHMARK.json`, or with `--trace 1` its per-layer metrics.
//! `compare` judges a change's runs against its parent's. See README.md.

mod compare;
mod spec;
mod stats;
mod trace;
mod workload;

use darco_obs::JsonWriter;
use spec::Spec;
use stats::Summary;
use std::collections::BTreeMap;
use std::time::Instant;
use trace::LayerTime;
use workload::{Bench, Cost, Pass, PassKind};

const DEFAULT_SEED: u64 = 1;
/// Timed passes per workload at least, so quartiles exist.
const MIN_PASSES: usize = 3;
const SPEC_PATH: &str = "BENCHMARK.json";

const USAGE: &str = "usage:
  darco-benchmark run [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
                      [--trace-dir DIR] [--json FILE] [--smoke]
  darco-benchmark compare --parent A.json... --change B.json...
Run from the repository root: both commands read BENCHMARK.json there.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = Spec::load(SPEC_PATH).and_then(|spec| match args.first().map(String::as_str) {
        Some("run") => run(&spec, &args[1..]),
        Some("compare") => compare::main(&spec, &args[1..]),
        _ => Err(USAGE.to_string()),
    });
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("darco-benchmark: {e}");
            std::process::exit(2);
        }
    }
}

struct RunOpts {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: String,
    json: Option<String>,
    smoke: bool,
}

fn parse_run(spec: &Spec, args: &[String]) -> Result<RunOpts, String> {
    let mut o = RunOpts {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: spec.run_seconds as f64,
        trace: false,
        trace_dir: "target/benchmark-traces".to_string(),
        json: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value `{v}` for {flag}");
        match flag.as_str() {
            "--workload" => o.workloads.push(v.clone()),
            "--seed" => o.seed = v.parse().map_err(|_| bad())?,
            "--seconds" => o.seconds = v.parse().ok().filter(|s: &f64| *s >= 0.0).ok_or_else(bad)?,
            "--trace" => {
                o.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--trace-dir" => o.trace_dir = v.clone(),
            "--json" => o.json = Some(v.clone()),
            _ => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
        }
    }
    if o.workloads.is_empty() {
        o.workloads = spec.workloads.clone();
    }
    Ok(o)
}

/// The unit each metric is computed in, from its name.
fn unit(name: &str) -> &'static str {
    match name {
        "host_per_guest" => "insn/insn",
        "sim_cpi" => "cycles/insn",
        "obs.trace_overhead" => "frac",
        _ if name.contains("_ms.") || name.ends_with("_ms") => "ms",
        _ if name.ends_with("_mips") => "MIPS",
        _ if name.ends_with("_s") => "s",
        _ if name.ends_with("_mb") => "MB",
        _ if name.ends_with("_kb") => "KB",
        _ if name.ends_with("_mpki") => "1/kinsn",
        _ if name.ends_with("_share") || name.ends_with("_frac") || name.ends_with("_ratio") => "frac",
        _ => "count",
    }
}

/// One workload's results.
struct Outcome {
    name: &'static str,
    passes: usize,
    redrawn: u64,
    attempted: u64,
    failures: Vec<String>,
    metrics: BTreeMap<String, Summary>,
    digest_plain: u64,
    digest_traced: Option<u64>,
    layers: BTreeMap<&'static str, LayerTime>,
}

fn single(v: f64) -> Summary {
    Summary { q1: v, median: v, q3: v, n: 1 }
}

fn over(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> Summary {
    let v: Vec<f64> = passes.iter().map(f).collect();
    Summary::of(&v).unwrap_or(single(0.0))
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hands heap memory that set-up freed back to the kernel, so the resident
/// set measured afterwards is what the simulations themselves hold.
fn release_freed_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers; it only returns
        // free heap pages to the kernel and may be called at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

fn run_workload(name: &str, o: &RunOpts) -> Result<Outcome, String> {
    let plan = workload::plan(name, o.seed, o.smoke)
        .ok_or_else(|| format!("unknown workload `{name}` (see BENCHMARK.json)"))?;
    let (name, workers, sampled) = (plan.name, plan.workers, plan.sampled);
    let mut bench = Bench::setup(plan)?;
    // Peak RSS counts from here: rejected reference draws can touch far
    // more memory than any simulation does.
    release_freed_heap();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let (mut attempted, mut failures) = (0, Vec::new());
    let mut pass = |bench: &mut Bench, kind: PassKind| {
        let mut p = bench.pass(kind);
        attempted += p.attempted;
        failures.append(&mut p.failures);
        p
    };
    pass(&mut bench, PassKind::Plain); // warm-up: fills caches, fixes digests
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let min = if o.smoke || o.trace { 1 } else { MIN_PASSES };
    let t0 = Instant::now();
    while plain.len() < min || t0.elapsed().as_secs_f64() < o.seconds {
        plain.push(pass(&mut bench, PassKind::Plain));
        if o.trace {
            traced.push(pass(&mut bench, PassKind::Traced));
        }
    }
    let no_sink = (o.trace && sampled).then(|| pass(&mut bench, PassKind::NoSink));
    let rss = peak_rss_mb();

    // Host times are min-of-N per job (see `Cost::fastest`); the
    // quartiles beside them are those of the single passes.
    let best = Cost::fastest(&plain);
    let mut m: BTreeMap<String, Summary> = BTreeMap::new();
    let mips = over(&plain, Pass::guest_mips);
    m.insert("guest_mips".into(), Summary { median: best.guest_mips(workers), ..mips });
    let setup = over(&plain, |p| p.setup_ns as f64 / 1e9);
    m.insert("setup_s".into(), Summary { median: best.setup_ns as f64 / 1e9, ..setup });
    m.insert("host_per_guest".into(), over(&plain, Pass::host_per_guest));
    m.insert("peak_rss_mb".into(), single(rss));
    m.insert("failed_frac".into(), single(failures.len() as f64 / attempted.max(1) as f64));
    if sampled {
        let restores: Vec<f64> =
            plain.iter().flat_map(|p| &p.restore_ns).map(|&ns| ns as f64 / 1e6).collect();
        for (key, q) in [("restore_ms.p50", 0.5), ("restore_ms.p90", 0.9)] {
            let v = stats::percentile(&restores, q);
            m.insert(key.into(), Summary { n: restores.len(), ..single(v) });
        }
        m.insert("sim_cpi".into(), over(&plain, Pass::sim_cpi));
        m.insert("snapshot_kb".into(), over(&plain, Pass::snapshot_kb));
    }

    let mut layers = BTreeMap::new();
    if let Some(first) = traced.first() {
        let per: Vec<_> = traced.iter().map(|p| workload::layer_metrics(p, workers)).collect();
        for key in per[0].keys() {
            let v: Vec<f64> = per.iter().map(|l| l[key]).collect();
            m.insert(key.to_string(), Summary::of(&v).unwrap_or(single(0.0)));
        }
        let traced_mips = Cost::fastest(&traced).guest_mips(workers);
        m.insert("obs.trace_overhead".into(), single(1.0 - traced_mips / best.guest_mips(workers)));
        m.insert(
            "xcomp.solo_mips".into(),
            single(bench.solo.insns as f64 / (bench.solo.ns.max(1) as f64 / 1e9) / 1e6),
        );
        let sink_share = no_sink.map_or(0.0, |base| {
            let sinked = plain.iter().map(|p| p.run_step_ns).min().unwrap_or(0);
            1.0 - base.run_step_ns as f64 / sinked.max(1) as f64
        });
        m.insert("timing.sink_share".into(), single(sink_share));
        layers = trace::layer_times(&first.spans);
        std::fs::create_dir_all(&o.trace_dir).map_err(|e| format!("creating {}: {e}", o.trace_dir))?;
        let path = format!("{}/{name}.json", o.trace_dir);
        std::fs::write(&path, trace::to_chrome(name, &first.spans))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(Outcome {
        name,
        passes: plain.len(),
        redrawn: bench.solo.redrawn,
        attempted,
        failures,
        metrics: m,
        digest_plain: plain[0].digest,
        digest_traced: traced.first().map(|p| p.digest),
        layers,
    })
}

fn print_outcome(spec: &Spec, o: &Outcome) {
    println!(
        "== {}: {} timed passes, {} runs attempted, {} failed, {} seeds redrawn ==",
        o.name,
        o.passes,
        o.attempted,
        o.failures.len(),
        o.redrawn
    );
    for f in &o.failures {
        println!("  FAILED {f}");
    }
    let row = |name: &str| {
        if let Some(s) = o.metrics.get(name) {
            println!(
                "  {name:<26} {:>14.6} {:<12} q1 {:.6}  q3 {:.6}  n {}",
                s.median,
                unit(name),
                s.q1,
                s.q3,
                s.n
            );
        }
    };
    for m in &spec.end_to_end {
        row(&m.name);
    }
    for name in ["failed_frac", "restore_ms.p50", "restore_ms.p90", "sim_cpi", "snapshot_kb"] {
        row(name);
    }
    if o.layers.is_empty() {
        return;
    }
    println!("  -- spans of the traced pass --");
    println!("  {:<26} {:>8} {:>12} {:>12}", "span", "count", "total_s", "self_s");
    for (name, t) in &o.layers {
        println!(
            "  {name:<26} {:>8} {:>12.6} {:>12.6}",
            t.count,
            t.total_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9
        );
    }
    println!("  -- per-layer metrics (median over traced passes) --");
    for m in &spec.per_layer {
        row(&m.name);
    }
}

/// The result line: every end-to-end metric, or every per-layer metric
/// when tracing. Metric names carry a `workload/` prefix when the run
/// covered several workloads.
fn result_line(spec: &Spec, outcomes: &[Outcome], trace: bool) -> Result<String, String> {
    let list = if trace { &spec.per_layer } else { &spec.end_to_end };
    let failed: usize = outcomes.iter().map(|o| o.failures.len()).sum();
    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let mut w = JsonWriter::new();
    w.begin_obj(None);
    w.field_bool("correct", failed == 0).field_num("attempted", attempted).field_num("failed", failed);
    w.begin_obj(Some("metrics"));
    for o in outcomes {
        for m in list {
            let s =
                o.metrics.get(&m.name).ok_or_else(|| format!("{}: `{}` was not measured", o.name, m.name))?;
            let key = if outcomes.len() == 1 { m.name.clone() } else { format!("{}/{}", o.name, m.name) };
            w.begin_obj(Some(&key)).field_f64("value", s.median).field_str("unit", unit(&m.name)).end_obj();
        }
    }
    w.end_obj();
    w.end_obj();
    Ok(w.finish())
}

fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `--json` record `compare` reads: every metric with its quartiles,
/// plus the host it ran on and each workload's digests.
fn write_json(path: &str, o: &RunOpts, outcomes: &[Outcome]) -> Result<(), String> {
    let mut w = JsonWriter::new();
    w.begin_obj(None);
    w.field_num("seed", o.seed).field_f64("seconds", o.seconds).field_bool("smoke", o.smoke);
    w.begin_obj(Some("host"));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    w.field_num("nproc", nproc).field_str("cpu", &cpu_model());
    w.end_obj();
    w.begin_obj(Some("workloads"));
    for out in outcomes {
        w.begin_obj(Some(out.name));
        w.field_bool("correct", out.failures.is_empty());
        w.field_num("attempted", out.attempted).field_num("failed", out.failures.len());
        w.begin_arr(Some("failures"));
        for f in &out.failures {
            w.elem_str(f);
        }
        w.end_arr();
        w.begin_obj(Some("digest"));
        w.field_str("plain", &format!("{:016x}", out.digest_plain));
        match out.digest_traced {
            Some(d) => w.field_str("traced", &format!("{d:016x}")),
            None => w.field_null("traced"),
        };
        w.end_obj();
        w.begin_obj(Some("metrics"));
        for (name, s) in &out.metrics {
            w.begin_obj(Some(name));
            w.field_f64("value", s.median).field_str("unit", unit(name));
            w.field_f64("q1", s.q1).field_f64("q3", s.q3).field_num("n", s.n);
            w.end_obj();
        }
        w.end_obj();
        w.end_obj();
    }
    w.end_obj();
    w.end_obj();
    std::fs::write(path, w.finish() + "\n").map_err(|e| format!("writing {path}: {e}"))
}

fn run(spec: &Spec, args: &[String]) -> Result<i32, String> {
    let o = parse_run(spec, args)?;
    let mut outcomes = Vec::new();
    for name in &o.workloads {
        let out = run_workload(name, &o)?;
        print_outcome(spec, &out);
        outcomes.push(out);
    }
    if let Some(path) = &o.json {
        write_json(path, &o, &outcomes)?;
    }
    println!("{}", result_line(spec, &outcomes, o.trace)?);
    let failed = outcomes.iter().any(|out| !out.failures.is_empty());
    Ok(i32::from(failed))
}
