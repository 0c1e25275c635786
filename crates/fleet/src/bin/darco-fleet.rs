//! `darco-fleet` — run campaigns in parallel.
//!
//! ```text
//! darco-fleet run campaign.json --jobs 4 --out merged.json --flight-dir flights/
//! ```
//!
//! `run` executes a campaign on cooperative engine workers — each worker
//! time-slices its engines one `--quantum` at a time (see
//! `darco_fleet::sched`) — and writes the merged deterministic artifact
//! (byte-identical for any `--jobs`); the per-job schedule view
//! (wall-clock, attempts, flight dumps, checkpoints) goes to stderr.
//! With `--state-dir`, a job over its wall-clock timeout is checkpointed
//! instead of killed, and `--resume <dir>` continues it from the exact
//! instruction it yielded at. Exit status: 0 when every job succeeded,
//! 1 when any failed/panicked/timed out/was skipped, 2 on usage or
//! campaign errors.
//!
//! SIGINT shuts down gracefully: running jobs finish (live engines are
//! checkpointed when a state dir is set), queued jobs drain as `skipped`.

use darco_fleet::{parse_campaign, run_campaign_cooperative, signal, LiveHub, SchedOpts};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage:\n\
         \u{20} darco-fleet run <campaign.json> [--jobs N] [--out FILE]\n\
         \u{20}             [--flight-dir DIR] [--quantum N]\n\
         \u{20}             [--state-dir DIR] [--resume DIR] [--live ADDR]\n\
         \n\
         \u{20} --jobs N        worker threads (default: available parallelism)\n\
         \u{20} --out FILE      write the merged artifact here (default: stdout)\n\
         \u{20} --flight-dir D  write job-<id>.flight.json for failing jobs\n\
         \u{20} --quantum N     guest instructions per engine time slice\n\
         \u{20}                 (default 100000)\n\
         \u{20} --state-dir D   checkpoint timed-out/interrupted jobs to\n\
         \u{20}                 D/job-<id>.snap and record finished jobs\n\
         \u{20} --resume D      continue a previous run from its state dir\n\
         \u{20}                 (implies --state-dir D): finished jobs are\n\
         \u{20}                 reused, checkpointed jobs restored mid-run\n\
         \u{20} --live ADDR     stream live telemetry (JSON lines) on ADDR;\n\
         \u{20}                 attach with `darco-top ADDR`"
    );
    std::process::exit(2);
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

struct Opts {
    jobs: usize,
    out: Option<PathBuf>,
    flight_dir: Option<PathBuf>,
    quantum: u64,
    state_dir: Option<PathBuf>,
    resume: bool,
    live: Option<String>,
    positional: Vec<String>,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        jobs: default_jobs(),
        out: None,
        flight_dir: None,
        quantum: SchedOpts::default().quantum,
        state_dir: None,
        resume: false,
        live: None,
        positional: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--jobs" => o.jobs = take(&mut i).parse().ok().filter(|&n| n > 0).unwrap_or_else(|| usage()),
            "--out" => o.out = Some(PathBuf::from(take(&mut i))),
            "--flight-dir" => o.flight_dir = Some(PathBuf::from(take(&mut i))),
            "--quantum" => {
                o.quantum = take(&mut i).parse().ok().filter(|&n| n > 0).unwrap_or_else(|| usage())
            }
            "--state-dir" => o.state_dir = Some(PathBuf::from(take(&mut i))),
            "--resume" => {
                o.state_dir = Some(PathBuf::from(take(&mut i)));
                o.resume = true;
            }
            "--live" => o.live = Some(take(&mut i)),
            a if a.starts_with("--") => usage(),
            a => o.positional.push(a.to_string()),
        }
        i += 1;
    }
    o
}

/// Polls the SIGINT flag and fires `on_interrupt` once. The thread is
/// detached; process exit reaps it.
fn watch_sigint(on_interrupt: impl Fn() + Send + 'static) {
    signal::install_sigint();
    let _ = std::thread::Builder::new().name("fleet-sigint".to_string()).spawn(move || loop {
        if signal::interrupted() {
            eprintln!("darco-fleet: interrupted; letting running jobs finish");
            on_interrupt();
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    });
}

fn cmd_run(o: &Opts) -> ExitCode {
    let [path] = o.positional.as_slice() else { usage() };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("darco-fleet: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let campaign = match parse_campaign(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("darco-fleet: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(d) = &o.flight_dir {
        if let Err(e) = std::fs::create_dir_all(d) {
            eprintln!("darco-fleet: cannot create {}: {e}", d.display());
            return ExitCode::from(2);
        }
    }
    let stop = Arc::new(AtomicBool::new(false));
    {
        let stop = Arc::clone(&stop);
        watch_sigint(move || stop.store(true, std::sync::atomic::Ordering::SeqCst));
    }
    eprintln!(
        "darco-fleet: campaign `{}`: {} jobs on {} workers (quantum {})",
        campaign.name,
        campaign.jobs.len(),
        o.jobs,
        o.quantum,
    );
    let live = match &o.live {
        Some(addr) => match LiveHub::bind(addr) {
            Ok((hub, bound)) => {
                eprintln!("darco-fleet: live telemetry on {bound} (attach with `darco-top {bound}`)");
                Some(hub)
            }
            Err(e) => {
                eprintln!("darco-fleet: cannot bind live address {addr}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let sched = SchedOpts {
        quantum: o.quantum,
        state_dir: o.state_dir.clone(),
        resume: o.resume,
        flight_dir: o.flight_dir.clone(),
        live: live.clone(),
    };
    let outcome = run_campaign_cooperative(&campaign, o.jobs, &sched, &stop);
    if let Some(hub) = &live {
        // The end event is already published; give attached dashboards a
        // beat to drain their queues before the process exits.
        std::thread::sleep(std::time::Duration::from_millis(50));
        hub.close();
    }
    for r in &outcome.results {
        eprintln!("  {}", r.schedule_json());
    }
    let merged = outcome.merged_json();
    match &o.out {
        Some(f) => {
            if let Err(e) = std::fs::write(f, &merged) {
                eprintln!("darco-fleet: cannot write {}: {e}", f.display());
                return ExitCode::from(2);
            }
            eprintln!("darco-fleet: merged artifact written to {}", f.display());
        }
        None => println!("{merged}"),
    }
    eprintln!(
        "darco-fleet: {} ok, {} failed of {} jobs",
        outcome.ok_count(),
        outcome.failed_count(),
        outcome.results.len()
    );
    if outcome.results.iter().any(|r| r.checkpoint_path.is_some()) {
        if let Some(d) = &o.state_dir {
            eprintln!(
                "darco-fleet: checkpoints written; continue with `darco-fleet run {path} --resume {}`",
                d.display()
            );
        }
    }
    if outcome.failed_count() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first() else { usage() };
    let o = parse_opts(&args[1..]);
    match mode.as_str() {
        "run" => cmd_run(&o),
        _ => usage(),
    }
}
