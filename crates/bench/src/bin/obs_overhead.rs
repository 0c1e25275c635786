//! **BENCH_obs** — pins the cost of the observability layer.
//!
//! Four guardrails, checked by `bench_gate`:
//!
//! - `overhead_traced`: wall-clock cost of running with the trace ring
//!   enabled versus the disabled (`Tracer::Off`) path — budget 5%.
//! - `overhead_null_vs_baseline`: the disabled-tracer configuration
//!   versus the emulator sb lane of `BENCH_jit.json` in the current
//!   directory — the same default configuration (emulator backend,
//!   thresholds 50/500) on the same workloads — budget 1%, i.e.
//!   threading the trace layer through the hot paths must stay in the
//!   noise when it is off. The harness refuses to run when that file is
//!   missing or was measured at another scale or on other workloads.
//! - `overhead_stream`: each subset workload as a one-job fleet
//!   campaign with a `darco-top`-style TCP subscriber on its
//!   live-telemetry hub (`SchedOpts::live`, the path `darco-fleet run
//!   --live` takes) versus the same campaign with streaming off —
//!   budget 2%.
//! - `overhead_profiler`: the subset with the guest-PC sampling profiler
//!   attached at its default cadence versus the same stepping schedule
//!   unprofiled — budget 2%.
//!
//! Every wall time comes from the shared protocol
//! ([`darco_bench::measure`]): the four per-workload variants (off,
//! ring, stepped, profiled) interleave within each repetition, and each
//! keeps its per-workload minimum.
//!
//! A scale at which some subset workload ends before one profiler
//! quantum would compare an unsampled run with itself, so the harness
//! refuses it up front (exit 2) and names the smallest scale that works.

use darco::json::JsonWriter;
use darco::{StepExit, System, SystemConfig};
use darco_bench::measure::{self, Args, Best, SET};
use darco_bench::{default_config, run_one, Scale};
use darco_fleet::{parse_campaign, run_campaign_cooperative, Campaign, LiveHub, SchedOpts};
use darco_obs::json::{parse, JsonValue};
use darco_workloads::benchmarks;
use darco_xcomp::XComponent;
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;

/// Ring capacity for the traced mode (the `darco-run --trace` default).
const TRACE_CAP: usize = 1 << 16;
/// Stepping quantum for the profiler comparison: the profiler samples at
/// quantum boundaries, so `darco-run --profile` clamps the quantum to the
/// sampling period. Both sides step at this quantum; the delta is the
/// sampling itself.
const PROFILE_QUANTUM: u64 = darco::DEFAULT_SAMPLE_EVERY;
/// The per-workload variants, in `interleaved_min` order: the trace
/// ring off and on (monolithic runs), then the profiler off and on
/// (stepped at `PROFILE_QUANTUM`).
const VARIANTS: usize = 4;

/// One variant's summed per-workload minima:
/// `(wall_s, guest_insns, trace_events)`.
fn fold(row: &[Best<(u64, u64)>]) -> (f64, u64, u64) {
    (measure::total(row), row.iter().map(|b| b.data.0).sum(), row.iter().map(|b| b.data.1).sum())
}

/// One run of workload `w` under variant `v`: wall seconds, guest
/// instructions and trace events.
fn sample(v: usize, w: usize, scale: Scale) -> (f64, (u64, u64)) {
    let b = &benchmarks()[SET[w]];
    if v < 2 {
        let mut cfg = default_config();
        if v == 1 {
            cfg.trace_capacity = Some(TRACE_CAP);
        }
        let (wall, r) = measure::time(|| run_one(b, scale, cfg));
        return (wall, (r.guest_insns, r.trace.len() as u64));
    }
    let program = darco_workloads::build(&b.profile.clone().scaled(scale.0, scale.1));
    let profiled = v == 3;
    measure::time(|| {
        let mut e = System::new(SystemConfig::default(), program).start();
        if profiled {
            e.enable_profiler(darco::DEFAULT_SAMPLE_EVERY);
        }
        loop {
            match e.step(PROFILE_QUANTUM) {
                Ok(StepExit::Ended | StepExit::GuestFault) => break,
                Ok(_) => {}
                Err(err) => panic!("profiled run failed: {err}"),
            }
        }
        if profiled {
            let p = e.profiler().expect("profiler attached");
            assert!(p.samples() > 0, "check_profiler_scale admits only sampling scales");
        }
        (e.insns(), 0)
    })
}

/// Whether subset workload `w` at `scale` runs past one profiler
/// quantum, so that its profiled variant takes a sample. A standalone
/// authoritative run of `PROFILE_QUANTUM + 1` instructions decides.
fn reaches_a_sample(w: usize, scale: Scale) -> bool {
    let profile = benchmarks()[SET[w]].profile.clone().scaled(scale.0, scale.1);
    XComponent::new(&darco_workloads::build(&profile)).run_until(PROFILE_QUANTUM + 1).is_ok()
}

/// The largest `d <= max_den` for which `reaches(d)` holds, given that
/// `reaches(d + 1)` implies `reaches(d)` (a larger scale never runs
/// shorter): the denominator of the smallest `1/d` scale that works.
fn largest_den(max_den: u32, reaches: impl Fn(u32) -> bool) -> Option<u32> {
    // The answer lies in `lo..=hi`, where `lo == 0` stands for none.
    let (mut lo, mut hi) = (0, max_den);
    while lo < hi {
        let mid = hi - (hi - lo) / 2;
        if reaches(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    (lo > 0).then_some(lo)
}

/// `Err` naming the smallest workable scale when a subset workload at
/// `scale` ends before the profiler's first sample.
fn check_profiler_scale(scale: Scale) -> Result<(), String> {
    let short: Vec<&str> =
        (0..SET.len()).filter(|&w| !reaches_a_sample(w, scale)).map(|w| benchmarks()[SET[w]].name).collect();
    if short.is_empty() {
        return Ok(());
    }
    let every = |d| (0..SET.len()).all(|w| reaches_a_sample(w, Scale(1, d)));
    let fix = match largest_den(scale.1, every) {
        Some(d) => format!("the smallest scale at which every subset workload reaches one is --scale 1/{d}"),
        None => "no scale up to 1/1 lets every subset workload reach one".to_string(),
    };
    let verb = if short.len() == 1 { "ends" } else { "end" };
    Err(format!(
        "--scale {scale} is too small: {} {verb} before the profiler's first \
         {PROFILE_QUANTUM}-instruction sample; {fix}",
        short.join(", ")
    ))
}

/// Reads `emu.sb.mips` from `BENCH_jit.json`, which must have been
/// measured at `scale` on `names`.
fn jit_baseline(scale: Scale, names: &[&str]) -> Result<f64, String> {
    let path = "BENCH_jit.json";
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let at = doc.get("scale").and_then(JsonValue::as_str);
    if at != Some(scale.to_string().as_str()) {
        return Err(format!("{path} is at scale {at:?}, this run at {scale}"));
    }
    let set: Option<Vec<&str>> = doc
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .map(|a| a.iter().filter_map(JsonValue::as_str).collect());
    if set.as_deref() != Some(names) {
        return Err(format!("{path} measured workloads {set:?}, this run {names:?}"));
    }
    doc.get("emu")
        .and_then(|m| m.get("sb"))
        .and_then(|s| s.get("mips"))
        .and_then(JsonValue::as_num)
        .ok_or(format!("{path}: missing emu.sb.mips"))
}

/// Subset workload `idx` as a one-job fleet campaign at `scale`.
fn fleet_campaign(idx: usize, scale: Scale) -> Campaign {
    let name = benchmarks()[idx].name;
    let text = format!(
        "{{\"name\": \"obs-overhead\", \"defaults\": {{\"scale\": \"{scale}\"}}, \
         \"jobs\": [{{\"workload\": \"{name}\"}}]}}"
    );
    parse_campaign(&text).expect("subset campaign")
}

/// One fleet campaign run, timed; with `live`, a TCP subscriber is attached
/// to the hub (and drained by a reader thread) before the clock starts.
fn run_fleet(campaign: &Campaign, live: bool) -> (f64, ()) {
    let stop = AtomicBool::new(false);
    let mut reader = None;
    let hub = live.then(|| {
        let (hub, addr) = LiveHub::bind("127.0.0.1:0").expect("bind the live hub");
        let mut conn = TcpStream::connect(addr).expect("subscribe to the live hub");
        reader = Some(std::thread::spawn(move || std::io::copy(&mut conn, &mut std::io::sink())));
        while hub.subscribers() != 1 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        hub
    });
    let opts = SchedOpts { live: hub.clone(), ..SchedOpts::default() };
    let (wall, outcome) = measure::time(|| run_campaign_cooperative(campaign, 1, &opts, &stop));
    assert_eq!(outcome.failed_count(), 0, "fleet subset must run clean");
    if let (Some(hub), Some(reader)) = (hub, reader) {
        // Dropping the subscriber ends its writer thread, which closes
        // the socket and lets the reader see end of stream.
        hub.close();
        let _ = reader.join();
    }
    (wall, ())
}

fn mode_json(w: &mut JsonWriter, name: &str, (wall, insns, events): (f64, u64, u64)) {
    let obj = w
        .begin_obj(Some(name))
        .field_num("guest_insns", insns)
        .field_f64("wall_s", wall)
        .field_f64("mips", insns as f64 / wall / 1e6);
    if events > 0 {
        obj.field_num("trace_events", events);
    }
    obj.end_obj();
}

fn main() {
    let args = Args::from_env(Scale(1, 1), measure::SCALE);
    let scale = args.scale;
    if let Err(e) = check_profiler_scale(scale) {
        eprintln!("obs_overhead: {e}");
        std::process::exit(2);
    }
    let names: Vec<&str> = SET.iter().map(|&i| benchmarks()[i].name).collect();
    let baseline = jit_baseline(scale, &names).unwrap_or_else(|e| {
        eprintln!("obs_overhead: no like-for-like disabled-tracer baseline: {e}");
        eprintln!("(run jit_speed at the same scale in this directory first)");
        std::process::exit(1);
    });

    let best = measure::interleaved_min(VARIANTS, SET.len(), |v, w| sample(v, w, scale));
    let [off, ring, plain, prof] = [0, 1, 2, 3].map(|v| fold(&best[v]));
    let overhead_traced = ring.0 / off.0 - 1.0;
    let overhead_null = baseline / (off.1 as f64 / off.0 / 1e6) - 1.0;
    let overhead_profiler = prof.0 / plain.0 - 1.0;

    let campaigns: Vec<Campaign> = SET.iter().map(|&i| fleet_campaign(i, scale)).collect();
    let fleet = measure::interleaved_min(2, SET.len(), |v, w| run_fleet(&campaigns[w], v == 1));
    let (fleet_base, fleet_live) = (measure::total(&fleet[0]), measure::total(&fleet[1]));
    let overhead_stream = fleet_live / fleet_base - 1.0;

    println!("== Observability overhead (per-workload min of {}) ==", measure::REPS);
    println!("disabled-tracer baseline: BENCH_jit emu sb {baseline:.2} MIPS");
    for (name, x) in [
        ("trace ring", overhead_traced),
        ("disabled tracer vs baseline", overhead_null),
        ("fleet stream", overhead_stream),
        ("profiler", overhead_profiler),
    ] {
        println!("{name}: {:+.2}%", x * 100.0);
    }

    let mut w = measure::header("obs", scale, measure::REPS);
    measure::workloads_field(&mut w, &names);
    w.begin_obj(Some("modes"));
    mode_json(&mut w, "off", off);
    mode_json(&mut w, "ring", ring);
    w.end_obj();
    w.field_f64("overhead_traced", overhead_traced);
    w.begin_obj(Some("baseline"))
        .field_str("source", "BENCH_jit.json emu.sb.mips")
        .field_str("scale", &scale.to_string())
        .field_f64("mips", baseline)
        .end_obj();
    w.field_f64("overhead_null_vs_baseline", overhead_null);
    w.begin_obj(Some("fleet"))
        .field_f64("base_wall_s", fleet_base)
        .field_f64("live_wall_s", fleet_live)
        .end_obj();
    w.field_f64("overhead_stream", overhead_stream);
    w.begin_obj(Some("profiler"));
    mode_json(&mut w, "off", plain);
    mode_json(&mut w, "on", prof);
    w.field_num("sample_every", PROFILE_QUANTUM);
    w.end_obj();
    w.field_f64("overhead_profiler", overhead_profiler);
    w.end_obj();
    args.write("BENCH_obs.json", &w.finish());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn largest_den_finds_the_boundary() {
        assert_eq!(largest_den(512, |d| d <= 73), Some(73));
        assert_eq!(largest_den(512, |_| true), Some(512));
        assert_eq!(largest_den(512, |d| d == 1), Some(1));
        assert_eq!(largest_den(512, |_| false), None);
    }

    #[test]
    fn a_scale_too_small_to_sample_is_refused_with_the_smallest_that_works() {
        let err = check_profiler_scale(Scale(1, 512)).unwrap_err();
        let d: u32 = err.rsplit("--scale 1/").next().unwrap().parse().expect("names a 1/d scale");
        assert!(d < 512, "{err}");
        assert_eq!(check_profiler_scale(Scale(1, d)), Ok(()));
        assert!(check_profiler_scale(Scale(1, d + 1)).is_err());
        assert_eq!(check_profiler_scale(Scale(1, 64)), Ok(()), "the CI smoke scale samples");
    }
}
