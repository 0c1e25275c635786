//! `darco-trace-check` — validate DARCO observability artifacts with the
//! repo's own JSON reader (no external tooling in CI).
//!
//! ```text
//! darco-trace-check trace.json [more files...]   # chrome traces / flight dumps / any JSON
//! ```
//!
//! A chrome trace (top-level array) is checked for the required
//! `name`/`ph`/`ts`/`pid`/`tid` members; a flight dump (object with
//! `darco_flight`) for marker, ordered events and metrics; anything else
//! just has to parse.

use darco_obs::{chrome, flight, json};
use std::process::ExitCode;

fn check_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let doc = json::parse(&text).map_err(|e| e.to_string())?;
    if doc.as_arr().is_some() {
        let n = chrome::validate_chrome_trace(&doc)?;
        Ok(format!("chrome trace, {n} events"))
    } else if doc.get("darco_flight").is_some() {
        let n = flight::validate_flight_dump(&doc)?;
        Ok(format!("flight dump, {n} events"))
    } else {
        Ok("valid JSON".to_string())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: darco-trace-check <file.json> [more files...]");
        return ExitCode::from(2);
    }
    let mut failed = false;
    for path in &args {
        match check_file(path) {
            Ok(msg) => println!("{path}: {msg}"),
            Err(msg) => {
                eprintln!("{path}: FAIL: {msg}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
