//! The one measurement protocol behind every `BENCH_*.json` artifact
//! (argument parser, interleaved min-of-[`REPS`], artifact header) and
//! the one table of bounds, [`BOUNDS`], that `bench_gate` applies to
//! them. DESIGN.md §17 has the rationale.

use crate::Scale;
use darco::json::JsonWriter;
use darco_obs::JsonValue;
use std::time::Instant;

/// Repetitions of every (variant, workload) pair; the minimum wall wins.
pub const REPS: usize = 5;

/// The representative subset (one benchmark per suite: 400.perlbench,
/// 434.zeusmp and breakable) that `speed`,
/// `jit_speed`, `engine_overhead` and `obs_overhead` measure.
pub const SET: [usize; 3] = [0, 13, 24];

/// The flags of the harnesses that take only a scale. A flag list is
/// also the usage text: each entry is a flag and its value's name.
pub const SCALE: &[&str] = &["--scale N/D"];
/// The flags of the harnesses that also run on a `--jobs`-sized pool.
pub const SCALE_JOBS: &[&str] = &["--scale N/D", "--jobs N"];

/// The harness command line. A flag the harness does not accept is an
/// error, so `out` and `det` are `None` unless it takes them.
#[derive(Debug, Clone)]
pub struct Args {
    /// `--scale N/D`: iteration-count scale of the synthetic benchmarks.
    pub scale: Scale,
    /// `--jobs N`: pool workers (default: available parallelism).
    pub jobs: usize,
    /// `--out PATH`: where the artifact goes (default: the harness's
    /// `BENCH_*.json` in the current directory).
    pub out: Option<String>,
    /// `--det PATH`: the wall-clock-free determinism artifact.
    pub det: Option<String>,
}

impl Args {
    /// Parses `argv` (without the program name), accepting only the
    /// flags in `accepted` (a subset of `--scale N/D`, `--jobs N`,
    /// `--out PATH` and `--det PATH`). `default_scale` applies when
    /// `--scale` is absent.
    ///
    /// # Errors
    /// A flag outside `accepted`, a flag without a value, a scale that is
    /// not two positive integers `N/D`, or a job count that is not a
    /// positive integer.
    pub fn parse(argv: &[String], default_scale: Scale, accepted: &[&str]) -> Result<Args, String> {
        let mut args = Args { scale: default_scale, jobs: host().0, out: None, det: None };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if !accepted.iter().any(|a| a.split(' ').next() == Some(flag)) {
                return Err(format!("unknown argument `{flag}`"));
            }
            let v = it.next().cloned().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--scale" => {
                    args.scale =
                        parse_scale(&v).ok_or(format!("bad --scale `{v}`: want N/D, both > 0"))?;
                }
                "--jobs" => {
                    args.jobs = v
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .ok_or(format!("bad --jobs `{v}`: want an integer > 0"))?;
                }
                "--out" => args.out = Some(v),
                "--det" => args.det = Some(v),
                _ => unreachable!("accepted flag `{flag}` has no parser"),
            }
        }
        Ok(args)
    }

    /// [`Args::parse`] over the process arguments; prints the error and
    /// the usage line and exits 2 when they are malformed.
    pub fn from_env(default_scale: Scale, accepted: &[&str]) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Args::parse(&argv, default_scale, accepted).unwrap_or_else(|e| {
            eprintln!("{e}\nusage: [{}]", accepted.join("] ["));
            std::process::exit(2);
        })
    }

    /// Writes `json` to `--out`, or to `default` when it is absent.
    ///
    /// # Panics
    /// When the file cannot be written.
    pub fn write(&self, default: &str, json: &str) {
        let path = self.out.as_deref().unwrap_or(default);
        std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}

fn parse_scale(v: &str) -> Option<Scale> {
    let (n, d) = v.split_once('/')?;
    let (n, d) = (n.parse().ok()?, d.parse().ok()?);
    (n > 0 && d > 0).then_some(Scale(n, d))
}

/// The host fingerprint `(nproc, cpu)`, the same fields as
/// `benchmark/baseline.json`'s `host`.
pub fn host() -> (usize, String) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    (nproc, cpu)
}

/// Opens an artifact object with the shared header: `bench`, `scale`,
/// `reps` and `host {nproc, cpu}`. The caller adds its fields, closes
/// the object and finishes the writer.
pub fn header(bench: &str, scale: Scale, reps: usize) -> JsonWriter {
    let (nproc, cpu) = host();
    let mut w = JsonWriter::new();
    w.begin_obj(None);
    w.field_str("bench", bench);
    w.field_str("scale", &scale.to_string());
    w.field_num("reps", reps);
    w.begin_obj(Some("host")).field_num("nproc", nproc).field_str("cpu", &cpu).end_obj();
    w
}

/// Writes `names` as the `workloads` array of an artifact.
pub fn workloads_field(w: &mut JsonWriter, names: &[&str]) {
    w.begin_arr(Some("workloads"));
    for n in names {
        w.elem_str(n);
    }
    w.end_arr();
}

/// Runs `f` and returns its wall seconds with its result: the only clock
/// the harnesses read.
pub fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// The minimum-wall run of one (variant, workload) pair and whatever the
/// sampler returned from that run.
#[derive(Debug, Clone, PartialEq)]
pub struct Best<T> {
    pub wall_s: f64,
    pub data: T,
}

/// Runs `sample(variant, workload)` for every pair in each of [`REPS`]
/// repetitions. Within a repetition each workload runs under every
/// variant back to back, and repetition `r` starts with variant
/// `r % variants`. The sampler returns the wall seconds it measured
/// (through [`time`], so it can leave set-up out) and the data the
/// harness needs from the run. Returns `best[variant][workload]`.
pub fn interleaved_min<T>(
    variants: usize,
    workloads: usize,
    mut sample: impl FnMut(usize, usize) -> (f64, T),
) -> Vec<Vec<Best<T>>> {
    // Flat, variant-major: pair (v, w) lives at `v * workloads + w`.
    let mut best: Vec<Option<Best<T>>> = (0..variants * workloads).map(|_| None).collect();
    for rep in 0..REPS {
        for w in 0..workloads {
            for k in 0..variants {
                let v = (rep + k) % variants;
                let (wall_s, data) = sample(v, w);
                let slot = &mut best[v * workloads + w];
                if slot.as_ref().is_none_or(|b| wall_s < b.wall_s) {
                    *slot = Some(Best { wall_s, data });
                }
            }
        }
    }
    let mut flat = best.into_iter().map(|b| b.expect("REPS > 0"));
    (0..variants).map(|_| flat.by_ref().take(workloads).collect()).collect()
}

/// A variant's total wall: the sum of its per-workload minima.
pub fn total<T>(row: &[Best<T>]) -> f64 {
    row.iter().map(|b| b.wall_s).sum()
}

/// How a bound compares its field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `field < k * rhs` (strict).
    Lt,
    /// `field <= k * rhs`.
    Le,
    /// `field >= k * rhs`.
    Ge,
    /// `field` equals the `rhs` field (any JSON value).
    Same,
    /// `field` is `true`.
    True,
}

/// One gate on one artifact: `field op k * rhs`, where `rhs` is another
/// field of the same artifact or, when absent, 1. Field paths are
/// dot-separated object keys.
#[derive(Debug, Clone, Copy)]
pub struct Bound {
    pub bench: &'static str,
    pub field: &'static str,
    pub op: Op,
    pub k: f64,
    pub rhs: Option<&'static str>,
}

const fn bound(
    bench: &'static str,
    field: &'static str,
    op: Op,
    k: f64,
    rhs: Option<&'static str>,
) -> Bound {
    Bound { bench, field, op, k, rhs }
}

/// Every bound on a committed artifact, keyed by the artifact's `bench`.
pub const BOUNDS: &[Bound] = &[
    // Stepping at the fleet's default 100k quantum costs at most 2% over
    // the monolithic run; checkpoint restore beats re-execution.
    bound("engine", "quanta.100000.overhead", Op::Le, 0.02, None),
    bound("engine", "warmup_restore.speedup", Op::Ge, 1.0, None),
    // Telemetry: trace ring 5%, disabled tracer 1% against BENCH_jit's
    // emulator sb lane at the same scale, live stream 2%, profiler 2%.
    bound("obs", "overhead_traced", Op::Le, 0.05, None),
    bound("obs", "baseline.scale", Op::Same, 1.0, Some("scale")),
    bound("obs", "overhead_null_vs_baseline", Op::Le, 0.01, None),
    bound("obs", "overhead_stream", Op::Le, 0.02, None),
    bound("obs", "overhead_profiler", Op::Le, 0.02, None),
    // Native backend, software-layer MIPS: translation pays off over
    // interpretation, sb stays within shared-host noise of bb, and
    // native sb at least doubles the emulator's sb.
    bound("jit", "native.interp.sw_mips", Op::Lt, 1.0, Some("native.bb.sw_mips")),
    bound("jit", "native.interp.sw_mips", Op::Lt, 1.0, Some("native.sb.sw_mips")),
    bound("jit", "native.sb.sw_mips", Op::Ge, 0.9, Some("native.bb.sw_mips")),
    bound("jit", "native.sb.sw_mips", Op::Ge, 2.0, Some("emu.sb.sw_mips")),
    // Verifier share of translation time, in percent.
    bound("verify", "structural.total.gated_pct", Op::Le, 10.0, None),
    bound("verify", "semantic.total.gated_pct", Op::Le, 15.0, None),
    // Sampled timing: inside its own stated error bound, with the
    // accuracy and cost-reduction floors the docs claim.
    bound("timing", "summary.max_err_pct", Op::Le, 1.0, Some("summary.stated_error_bound_pct")),
    bound("timing", "summary.mean_err_pct", Op::Le, 6.0, None),
    bound("timing", "summary.mean_cost_reduction", Op::Ge, 10.0, None),
    bound("timing", "summary.mean_speedup", Op::Ge, 1.5, None),
    // Parallelism never changes the merged campaign artifact.
    bound("fleet", "merged_byte_identical", Op::True, 1.0, None),
];

fn lookup<'a>(doc: &'a JsonValue, path: &str) -> Result<&'a JsonValue, String> {
    path.split('.').try_fold(doc, |v, key| v.get(key)).ok_or(format!("missing field `{path}`"))
}

fn num(doc: &JsonValue, path: &str) -> Result<f64, String> {
    lookup(doc, path)?.as_num().ok_or(format!("field `{path}` is not a number"))
}

impl Bound {
    /// Checks the bound on `doc`: `Ok` with a one-line report when it
    /// holds, `Err` with the reason when it does not or a field is
    /// missing.
    pub fn check(&self, doc: &JsonValue) -> Result<String, String> {
        let (ok, line) = match self.op {
            Op::True => {
                let v = lookup(doc, self.field)?;
                (*v == JsonValue::Bool(true), format!("{} is true", self.field))
            }
            Op::Same => {
                let rhs = self.rhs.expect("Same compares two fields");
                let (a, b) = (lookup(doc, self.field)?, lookup(doc, rhs)?);
                (a == b, format!("{} == {rhs} ({a:?})", self.field))
            }
            Op::Lt | Op::Le | Op::Ge => {
                let v = num(doc, self.field)?;
                let limit = self.k * self.rhs.map_or(Ok(1.0), |r| num(doc, r))?;
                let (ok, sym) = match self.op {
                    Op::Lt => (v < limit, "<"),
                    Op::Le => (v <= limit, "<="),
                    _ => (v >= limit, ">="),
                };
                let rhs = self.rhs.map_or(String::new(), |r| format!(" ({} x {r})", self.k));
                (ok, format!("{} {v:.4} {sym} {limit:.4}{rhs}", self.field))
            }
        };
        if ok {
            Ok(line)
        } else {
            Err(format!("bound violated: {line}"))
        }
    }
}

/// Applies every [`BOUNDS`] entry for the artifact's `bench` to `doc`.
/// Returns one report line per bound when all hold.
///
/// # Errors
/// Every violated bound and missing field, or an artifact whose `bench`
/// has no bounds.
pub fn check(doc: &JsonValue) -> Result<Vec<String>, String> {
    let bench = lookup(doc, "bench")?.as_str().ok_or("field `bench` is not a string")?;
    let bounds: Vec<&Bound> = BOUNDS.iter().filter(|b| b.bench == bench).collect();
    if bounds.is_empty() {
        return Err(format!("no bounds for bench `{bench}`"));
    }
    let (mut ok, mut bad) = (Vec::new(), Vec::new());
    for b in bounds {
        match b.check(doc) {
            Ok(line) => ok.push(line),
            Err(e) => bad.push(e),
        }
    }
    if bad.is_empty() {
        Ok(ok)
    } else {
        Err(bad.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darco_obs::parse;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_strictly() {
        const ALL: &[&str] = &["--scale N/D", "--jobs N", "--out PATH", "--det PATH"];
        for bad in ["--scale 1/O", "--scale 1/0", "--jobs 0", "--jobs x", "--scale", "--repeat 3"] {
            assert!(Args::parse(&argv(bad), Scale(1, 1), ALL).is_err(), "{bad}");
        }
        let a = Args::parse(&argv("--scale 1/64 --jobs 3 --out o --det d"), Scale(1, 1), ALL);
        let a = a.unwrap();
        assert_eq!(
            (a.scale, a.jobs, a.out.as_deref(), a.det.as_deref()),
            (Scale(1, 64), 3, Some("o"), Some("d"))
        );
        let d = Args::parse(&[], Scale(1, 16), SCALE).unwrap();
        assert_eq!((d.scale, d.out, d.det), (Scale(1, 16), None, None));
        // A flag the harness does not take is rejected, not ignored.
        for (bad, accepted) in [("--jobs 2", SCALE), ("--out o", SCALE_JOBS), ("--det d", SCALE)] {
            let e = Args::parse(&argv(bad), Scale(1, 1), accepted).unwrap_err();
            assert!(e.starts_with("unknown argument"), "{bad}: {e}");
        }
    }

    #[test]
    fn interleaved_min_keeps_the_per_pair_minimum_and_rotates_variants() {
        let mut order = Vec::new();
        let best = interleaved_min(3, 2, |v, w| {
            order.push((v, w));
            // Pair (v, w) is fastest on repetition v + w (mod REPS), and
            // the data records which repetition produced the sample.
            let rep = (order.len() - 1) / 6;
            let wall = if rep == (v + w) % REPS { 1.0 } else { 2.0 + order.len() as f64 };
            (wall, (v, w, rep))
        });
        assert_eq!(order.len(), 3 * 2 * REPS);
        for (rep, chunk) in order.chunks(6).enumerate() {
            // Each workload runs under every variant back to back, and
            // repetition `rep` starts with variant `rep % 3`.
            let want: Vec<(usize, usize)> =
                (0..2).flat_map(|w| (0..3).map(move |k| ((rep + k) % 3, w))).collect();
            assert_eq!(chunk, &want[..], "repetition {rep}");
        }
        for (v, row) in best.iter().enumerate() {
            for (w, b) in row.iter().enumerate() {
                assert_eq!(*b, Best { wall_s: 1.0, data: (v, w, (v + w) % REPS) });
            }
            assert_eq!(total(row), 2.0);
        }
    }

    /// Sets the numeric or boolean field at `path` in `doc`.
    fn set(doc: &mut JsonValue, path: &str, v: JsonValue) {
        let mut cur = doc;
        for key in path.split('.') {
            let JsonValue::Obj(members) = cur else { panic!("{path}: not an object") };
            cur = &mut members.iter_mut().find(|(k, _)| k == key).expect(path).1;
        }
        *cur = v;
    }

    fn committed(name: &str) -> JsonValue {
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        parse(&std::fs::read_to_string(&path).expect(&path)).expect(&path)
    }

    const ARTIFACTS: [&str; 6] = [
        "BENCH_engine.json",
        "BENCH_obs.json",
        "BENCH_jit.json",
        "BENCH_verify.json",
        "BENCH_timing.json",
        "BENCH_fleet.json",
    ];

    #[test]
    fn every_committed_artifact_passes_its_bounds() {
        for name in ARTIFACTS {
            if let Err(e) = check(&committed(name)) {
                panic!("{name}: {e}");
            }
        }
    }

    #[test]
    fn each_bound_rejects_a_value_just_past_it() {
        let docs: Vec<JsonValue> = ARTIFACTS.iter().map(|n| committed(n)).collect();
        for b in BOUNDS {
            let mut doc = docs
                .iter()
                .find(|d| d.get("bench").and_then(JsonValue::as_str) == Some(b.bench))
                .expect(b.bench)
                .clone();
            let past = match b.op {
                Op::True => JsonValue::Bool(false),
                Op::Same => JsonValue::Str("0/1".into()),
                _ => {
                    let limit = b.k * b.rhs.map_or(1.0, |r| num(&doc, r).unwrap());
                    let eps = limit.abs().max(1.0) * 1e-9;
                    JsonValue::Num(match b.op {
                        Op::Lt => limit,
                        Op::Le => limit + eps,
                        _ => limit - eps,
                    })
                }
            };
            set(&mut doc, b.field, past);
            assert!(
                b.check(&doc).is_err(),
                "{}: {} accepted a value past its bound",
                b.bench,
                b.field
            );
            assert!(check(&doc).is_err());
        }
    }

    #[test]
    fn a_missing_field_or_unknown_bench_is_an_error() {
        let mut doc = committed("BENCH_engine.json");
        let JsonValue::Obj(members) = &mut doc else { unreachable!() };
        members.retain(|(k, _)| k != "warmup_restore");
        assert!(check(&doc).unwrap_err().contains("missing field `warmup_restore.speedup`"));
        assert!(check(&parse(r#"{"bench":"speed"}"#).unwrap()).is_err());
        assert!(check(&parse("{}").unwrap()).is_err());
    }

    #[test]
    fn an_obs_baseline_at_another_scale_is_an_error() {
        let mut doc = committed("BENCH_obs.json");
        set(&mut doc, "baseline.scale", JsonValue::Str("1/4".into()));
        assert!(check(&doc).unwrap_err().contains("baseline.scale"));
    }
}
