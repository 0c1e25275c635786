//! `bench_gate FILE...` — checks committed `BENCH_*.json` artifacts
//! against their bounds.
//!
//! Each file's `bench` field selects its bounds from the one table in
//! `darco_bench::measure::BOUNDS`; a violated bound, a missing field or
//! an artifact with no bounds fails the file. Exits 1 when any file
//! fails, 2 without arguments.

use darco_bench::measure;
use darco_obs::parse;
use std::process::ExitCode;

fn gate(path: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let doc = parse(&text).map_err(|e| e.to_string())?;
    measure::check(&doc)
}

fn main() -> ExitCode {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: bench_gate <BENCH_*.json> [more files...]");
        return ExitCode::from(2);
    }
    let mut failed = false;
    for path in &files {
        match gate(path) {
            Ok(lines) => lines.iter().for_each(|l| println!("{path}: ok: {l}")),
            Err(e) => {
                eprintln!("{path}: FAIL: {e}");
                failed = true;
            }
        }
    }
    ExitCode::from(u8::from(failed))
}
