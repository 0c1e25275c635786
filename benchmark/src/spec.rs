//! `BENCHMARK.json`: the single list of workloads, metrics, units and
//! regression bounds that `run` reports and `compare` judges against.

use darco_obs::JsonValue;

/// One metric as `BENCHMARK.json` declares it. Its unit there must match
/// the one `run` computes it in (`tests/smoke.rs` checks).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn str_field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    v.get(key).and_then(JsonValue::as_str).ok_or_else(|| format!("missing string `{key}`"))
}

fn metrics(doc: &JsonValue, key: &str) -> Result<Vec<Metric>, String> {
    let arr = doc.get(key).and_then(JsonValue::as_arr).ok_or_else(|| format!("missing `{key}`"))?;
    arr.iter()
        .map(|m| {
            let better = str_field(m, "better")?;
            if better != "higher" && better != "lower" {
                return Err(format!("`better` must be higher or lower, got `{better}`"));
            }
            Ok(Metric {
                name: str_field(m, "name")?.to_string(),
                higher_is_better: better == "higher",
                bound: m.get("bound").and_then(JsonValue::as_num),
            })
        })
        .collect()
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = darco_obs::parse(text).map_err(|e| e.to_string())?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(JsonValue::as_num)
            .filter(|s| *s >= 1.0)
            .ok_or("missing `run_seconds`")? as u64;
        let workloads = doc
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .ok_or("missing `workloads`")?
            .iter()
            .map(|w| str_field(w, "name").map(String::from))
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            run_seconds,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    pub fn load(path: &str) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        Spec::parse(&text).map_err(|e| format!("{path}: {e}"))
    }
}
