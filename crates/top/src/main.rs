//! `darco-top` — attach a terminal dashboard to a live fleet campaign.
//!
//! ```text
//! darco-top 127.0.0.1:7171                 # live dashboard
//! darco-top 127.0.0.1:7171 --once          # one frame after catch-up, then exit
//! darco-top 127.0.0.1:7171 --record s.jsonl
//! darco-top --replay s.jsonl               # deterministic re-render, no fleet
//! ```
//!
//! The stream is the JSON-lines protocol published by
//! `darco-fleet run --live ADDR` (and `darco-fuzz run --live ADDR`).
//! All state folding and rendering live in the
//! library ([`darco_top::Model`]); this binary only moves bytes:
//! connect with retry, tee to `--record`, repaint between line batches.
//!
//! `--replay` renders the final frame of a recording to stdout — a pure
//! function of the file, which is what the golden-render test pins.

use darco_top::Model;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: darco-top <HOST:PORT> [--once] [--record FILE] [--interval MS] [--width N]\n\
         \u{20}      darco-top --replay FILE [--width N]\n\
         \n\
         \u{20} --once         render one frame once caught up (`sync` seen and the\n\
         \u{20}                campaign announced), then exit\n\
         \u{20} --record FILE  append every received stream line to FILE\n\
         \u{20} --replay FILE  render the final frame of a recorded stream and exit\n\
         \u{20} --interval MS  repaint interval in live mode (default 250)\n\
         \u{20} --width N      frame width in columns (default 100)"
    );
    std::process::exit(2);
}

struct Opts {
    addr: Option<String>,
    once: bool,
    record: Option<String>,
    replay: Option<String>,
    interval_ms: u64,
    width: usize,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts { addr: None, once: false, record: None, replay: None, interval_ms: 250, width: 100 };
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--once" => o.once = true,
            "--record" => o.record = Some(take(&mut i)),
            "--replay" => o.replay = Some(take(&mut i)),
            "--interval" => {
                o.interval_ms = take(&mut i).parse().ok().filter(|&n| n > 0).unwrap_or_else(|| usage())
            }
            "--width" => {
                o.width = take(&mut i).parse().ok().filter(|&n| n > 0).unwrap_or_else(|| usage())
            }
            a if a.starts_with("--") => usage(),
            a if o.addr.is_none() => o.addr = Some(a.to_string()),
            _ => usage(),
        }
        i += 1;
    }
    o
}

/// Re-renders a recorded stream: fold every line, print the final frame.
fn cmd_replay(path: &str, width: usize) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("darco-top: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut model = Model::new();
    for line in text.lines() {
        if let Err(e) = model.apply_line(line) {
            eprintln!("darco-top: {e}");
            return ExitCode::FAILURE;
        }
    }
    print!("{}", model.render(width));
    ExitCode::SUCCESS
}

/// Connects with retry — the usual race is `darco-top` starting a beat
/// before the fleet binds its live socket.
fn connect(addr: &str) -> Option<TcpStream> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Some(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    eprintln!("darco-top: cannot connect to {addr}: {e}");
                    return None;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

/// Clear screen + home. Frames are repainted in place.
const CLEAR: &str = "\u{1b}[2J\u{1b}[H";

fn cmd_live(o: &Opts) -> ExitCode {
    let addr = o.addr.as_deref().unwrap_or_else(|| usage());
    let Some(stream) = connect(addr) else {
        return ExitCode::FAILURE;
    };
    let mut record = match &o.record {
        Some(path) => match std::fs::OpenOptions::new().create(true).append(true).open(path) {
            Ok(f) => Some(f),
            Err(e) => {
                eprintln!("darco-top: cannot open {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    // A reader thread feeds lines through a channel so the render loop
    // can repaint on a timer even while the stream is quiet.
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    let reader = BufReader::new(stream);
    std::thread::Builder::new()
        .name("top-reader".to_string())
        .spawn(move || {
            for line in reader.lines() {
                let Ok(l) = line else { break };
                if tx.send(l).is_err() {
                    break;
                }
            }
        })
        .expect("spawn reader thread");

    let mut model = Model::new();
    let mut stdout = std::io::stdout();
    let interval = Duration::from_millis(o.interval_ms);
    let mut dirty = false;
    loop {
        match rx.recv_timeout(interval) {
            Ok(line) => {
                if let Some(f) = &mut record {
                    let _ = writeln!(f, "{line}");
                }
                if let Err(e) = model.apply_line(&line) {
                    eprintln!("darco-top: {e}");
                }
                dirty = true;
                // Drain whatever else is queued before repainting.
                while let Ok(line) = rx.try_recv() {
                    if let Some(f) = &mut record {
                        let _ = writeln!(f, "{line}");
                    }
                    if let Err(e) = model.apply_line(&line) {
                        eprintln!("darco-top: {e}");
                    }
                }
                if o.once {
                    // Wait for the catch-up marker AND campaign metadata:
                    // a subscriber can win the race with the fleet's very
                    // first publication, in which case `sync` arrives
                    // before the campaign event does.
                    if model.synced && model.campaign.is_some() {
                        print!("{}", model.render(o.width));
                        return ExitCode::SUCCESS;
                    }
                    continue; // no repaints while catching up
                }
                print!("{CLEAR}{}", model.render(o.width));
                let _ = stdout.flush();
                dirty = false;
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                if dirty && !o.once {
                    print!("{CLEAR}{}", model.render(o.width));
                    let _ = stdout.flush();
                    dirty = false;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                // Stream over (campaign ended or fleet exited): leave the
                // final frame on screen and report how it ended.
                if o.once {
                    // Hub closed before `sync` — render what we have so a
                    // scripted probe still sees a frame, but fail.
                    print!("{}", model.render(o.width));
                    eprintln!("darco-top: stream ended before catch-up completed");
                    return ExitCode::FAILURE;
                }
                print!("{CLEAR}{}", model.render(o.width));
                let _ = stdout.flush();
                return if model.ended() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = parse_opts(&args);
    match (&o.replay, &o.addr) {
        (Some(path), None) => cmd_replay(path, o.width),
        (None, Some(_)) => cmd_live(&o),
        _ => usage(),
    }
}
