//! Runs every workload once at smoke scale (1/64), traced, and checks the
//! result against `BENCHMARK.json`.

use darco_obs::JsonValue;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn num(v: &JsonValue, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(JsonValue::as_num)
        .unwrap_or_else(|| panic!("no number at {path:?}"))
}

fn str_at<'a>(v: &'a JsonValue, path: &[&str]) -> &'a str {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("no string at {path:?}"))
}

#[test]
fn every_workload_reports_every_metric_correctly() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let (json, traces) = (tmp.join("smoke.json"), tmp.join("smoke-traces"));
    let out = Command::new(env!("CARGO_BIN_EXE_darco-benchmark"))
        .current_dir(repo_root())
        .args(["run", "--smoke", "--seconds", "0", "--trace", "1", "--json"])
        .arg(&json)
        .arg("--trace-dir")
        .arg(&traces)
        .output()
        .expect("running darco-benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    let last = darco_obs::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON");
    assert_eq!(last.get("correct"), Some(&JsonValue::Bool(true)));

    let spec_text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let spec = darco_obs::parse(&spec_text).unwrap();
    let doc = darco_obs::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
    let workloads = spec.get("workloads").and_then(JsonValue::as_arr).unwrap();
    assert_eq!(workloads.len(), 4);
    for w in workloads {
        let w = str_at(w, &["name"]);
        let run = doc.get("workloads").and_then(|r| r.get(w)).unwrap_or_else(|| panic!("{w} missing"));
        assert_eq!(num(run, &["failed"]), 0.0, "{w}: {:?}", run.get("failures"));
        assert!(num(run, &["attempted"]) > 0.0, "{w}");
        let metrics = run.get("metrics").unwrap();
        assert_eq!(num(metrics, &["failed_frac", "value"]), 0.0, "{w}");

        // Every metric BENCHMARK.json names is measured, in its unit.
        for list in ["end_to_end", "per_layer"] {
            for m in spec.get(list).and_then(JsonValue::as_arr).unwrap() {
                let name = str_at(m, &["name"]);
                let got = metrics.get(name).unwrap_or_else(|| panic!("{w}: `{name}` missing"));
                assert_eq!(str_at(got, &["unit"]), str_at(m, &["unit"]), "{w}: unit of `{name}`");
                assert!(num(got, &["value"]).is_finite(), "{w}: `{name}`");
            }
        }
        for m in spec.get("end_to_end").and_then(JsonValue::as_arr).unwrap() {
            let name = str_at(m, &["name"]);
            assert!(num(metrics, &[name, "value"]) > 0.0, "{w}: end-to-end `{name}` must not be 0");
        }

        // The traced step time partitions into the counted layers and a
        // non-negative residual.
        let share = |n: &str| num(metrics, &[n, "value"]);
        let residual = share("core.residual_share");
        assert!(residual >= 0.0, "{w}: residual share {residual}");
        let parts = residual
            + share("xcomp.catchup_share")
            + share("tol.translate_share")
            + share("ir.verify_share")
            + share("host.jit_exec_share")
            + share("host.jit_compile_share");
        assert!((parts - 1.0).abs() < 1e-9, "{w}: step shares sum to {parts}");
        assert!(share("core.residual_s") >= 0.0 && share("core.step_s") > 0.0, "{w}");

        // Tracing does not change what is simulated.
        assert_eq!(str_at(run, &["digest", "plain"]), str_at(run, &["digest", "traced"]), "{w}");

        let trace = std::fs::read_to_string(traces.join(format!("{w}.json"))).unwrap();
        let events = darco_obs::chrome::validate_chrome_trace(&darco_obs::parse(&trace).unwrap()).unwrap();
        assert!(events > 1, "{w}: {events} trace events");
    }
}

#[test]
fn a_directory_without_the_benchmark_files_fails_without_a_result() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("empty-checkout");
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_darco-benchmark"))
        .current_dir(&dir)
        .args(["run", "--workload", "hot-native", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("running darco-benchmark");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
}
