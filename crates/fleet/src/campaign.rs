//! Campaign files: a JSON-specified matrix of jobs.
//!
//! ```json
//! {
//!   "name": "fig-suite",
//!   "defaults": {"scale": "1/64", "timeout_ms": 120000, "retries": 1,
//!                "kind": "run", "config": {"tol": {"opt_level": "O3"}}},
//!   "jobs": [
//!     {"workload": "kernel:crc32"},
//!     {"workload": "403.gcc", "kind": "lint", "scale": "1/512",
//!      "config": {"tol": {"verify": "report"}}}
//!   ],
//!   "matrix": {
//!     "workloads": ["all-benchmarks"],
//!     "configs": [{"tag": "spec", "config": {}},
//!                 {"tag": "nospec", "config": {"tol": {"speculation": false}}}]
//!   }
//! }
//! ```
//!
//! Expansion is deterministic: explicit `jobs` first in file order, then
//! the matrix cross-product (workloads outer, configs inner). Job ids
//! are assigned in that order and are the campaign's identity — the
//! merger sorts by them, which is how the merged artifact stays
//! bit-identical no matter how many workers raced through the queue.
//!
//! Configurations are sparse patches over [`SystemConfig::default`]
//! (see [`darco::config_json`]): `defaults.config` is applied first,
//! then the job's (or matrix cell's) own `config` on top.

use crate::job::{JobKind, JobSpec};
use darco::{config_apply_json, SystemConfig};
use darco_obs::JsonValue;

/// A parsed, fully expanded campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Campaign name (artifact header).
    pub name: String,
    /// Expanded jobs, ids already assigned.
    pub jobs: Vec<JobSpec>,
}

#[derive(Clone)]
struct Defaults {
    scale: (u32, u32),
    timeout_ms: Option<u64>,
    retries: u32,
    kind: JobKind,
    config: Option<JsonValue>,
}

impl Default for Defaults {
    fn default() -> Self {
        Defaults { scale: (1, 1), timeout_ms: None, retries: 0, kind: JobKind::Run, config: None }
    }
}

fn parse_scale(s: &str, ctx: &str) -> Result<(u32, u32), String> {
    let mut it = s.split('/');
    let num = it.next().and_then(|x| x.parse().ok());
    let den = match it.next() {
        None => Some(1),
        Some(d) => d.parse().ok(),
    };
    match (num, den, it.next()) {
        (Some(n), Some(d), None) if n > 0 && d > 0 => Ok((n, d)),
        _ => Err(format!("{ctx}: bad scale `{s}` (expected `N` or `N/D`)")),
    }
}

fn want_str<'a>(v: &'a JsonValue, ctx: &str) -> Result<&'a str, String> {
    v.as_str().ok_or_else(|| format!("{ctx}: expected a string"))
}

fn want_u64(v: &JsonValue, ctx: &str) -> Result<u64, String> {
    match v.as_num() {
        Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(n as u64),
        _ => Err(format!("{ctx}: expected a non-negative integer")),
    }
}

fn members<'a>(v: &'a JsonValue, ctx: &str) -> Result<&'a [(String, JsonValue)], String> {
    match v {
        JsonValue::Obj(m) => Ok(m),
        _ => Err(format!("{ctx}: expected an object")),
    }
}

fn parse_defaults(v: &JsonValue) -> Result<Defaults, String> {
    let mut d = Defaults::default();
    for (k, val) in members(v, "defaults")? {
        let ctx = format!("defaults.{k}");
        match k.as_str() {
            "scale" => d.scale = parse_scale(want_str(val, &ctx)?, &ctx)?,
            "timeout_ms" => d.timeout_ms = Some(want_u64(val, &ctx)?),
            "retries" => d.retries = want_u64(val, &ctx)? as u32,
            "kind" => d.kind = JobKind::parse(want_str(val, &ctx)?)?,
            "config" => d.config = Some(val.clone()),
            _ => return Err(format!("{ctx}: unknown key")),
        }
    }
    Ok(d)
}

/// Builds a job's config: defaults patch, then the job's own patch.
fn build_config(
    defaults: &Defaults,
    own: Option<&JsonValue>,
    ctx: &str,
) -> Result<SystemConfig, String> {
    let mut cfg = SystemConfig::default();
    if let Some(base) = &defaults.config {
        config_apply_json(&mut cfg, base).map_err(|e| format!("{ctx} (defaults): {e}"))?;
    }
    if let Some(patch) = own {
        config_apply_json(&mut cfg, patch).map_err(|e| format!("{ctx}: {e}"))?;
    }
    Ok(cfg)
}

struct JobEntry {
    workload: String,
    kind: Option<JobKind>,
    scale: Option<(u32, u32)>,
    timeout_ms: Option<Option<u64>>,
    retries: Option<u32>,
    tag: Option<String>,
    config: Option<JsonValue>,
}

fn parse_job_entry(v: &JsonValue, ctx: &str) -> Result<JobEntry, String> {
    let mut e = JobEntry {
        workload: String::new(),
        kind: None,
        scale: None,
        timeout_ms: None,
        retries: None,
        tag: None,
        config: None,
    };
    for (k, val) in members(v, ctx)? {
        let ctx = format!("{ctx}.{k}");
        match k.as_str() {
            "workload" => e.workload = want_str(val, &ctx)?.to_string(),
            "kind" => e.kind = Some(JobKind::parse(want_str(val, &ctx)?)?),
            "scale" => e.scale = Some(parse_scale(want_str(val, &ctx)?, &ctx)?),
            "timeout_ms" => {
                e.timeout_ms = Some(if *val == JsonValue::Null {
                    None
                } else {
                    Some(want_u64(val, &ctx)?)
                })
            }
            "retries" => e.retries = Some(want_u64(val, &ctx)? as u32),
            "tag" => e.tag = Some(want_str(val, &ctx)?.to_string()),
            "config" => e.config = Some(val.clone()),
            _ => return Err(format!("{ctx}: unknown key")),
        }
    }
    if e.workload.is_empty() {
        return Err(format!("{ctx}: job needs a `workload`"));
    }
    Ok(e)
}

fn expand_workload_names(names: &[JsonValue], ctx: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for (i, v) in names.iter().enumerate() {
        match want_str(v, &format!("{ctx}[{i}]"))? {
            "all" => out.extend(crate::workload::all_workloads()),
            "all-benchmarks" => out.extend(
                darco_workloads::benchmarks().into_iter().map(|b| b.name.to_string()),
            ),
            "all-kernels" => out.extend(
                ["dot", "matmul", "search", "nbody", "quicksort", "crc32"]
                    .iter()
                    .map(|k| format!("kernel:{k}")),
            ),
            name => out.push(name.to_string()),
        }
    }
    Ok(out)
}

/// Parses and expands a campaign document.
///
/// # Errors
/// Syntax errors, unknown keys, bad scales/kinds/configs — all with the
/// offending key path.
pub fn parse_campaign(text: &str) -> Result<Campaign, String> {
    let doc = darco_obs::parse(text).map_err(|e| e.to_string())?;
    let mut name = "campaign".to_string();
    let mut defaults = Defaults::default();
    let mut entries: Vec<(JobEntry, String)> = Vec::new();
    let mut matrix: Option<&JsonValue> = None;
    for (k, v) in members(&doc, "campaign")? {
        match k.as_str() {
            "name" => name = want_str(v, "campaign.name")?.to_string(),
            "defaults" => defaults = parse_defaults(v)?,
            "jobs" => {
                let arr = v.as_arr().ok_or("campaign.jobs: expected an array")?;
                for (i, j) in arr.iter().enumerate() {
                    let ctx = format!("jobs[{i}]");
                    entries.push((parse_job_entry(j, &ctx)?, ctx));
                }
            }
            "matrix" => matrix = Some(v),
            _ => return Err(format!("campaign.{k}: unknown key")),
        }
    }
    if let Some(m) = matrix {
        let mut workloads = Vec::new();
        let mut cells: Vec<(Option<String>, Option<JsonValue>)> = Vec::new();
        let mut kind = None;
        for (k, v) in members(m, "matrix")? {
            match k.as_str() {
                "workloads" => {
                    let arr = v.as_arr().ok_or("matrix.workloads: expected an array")?;
                    workloads = expand_workload_names(arr, "matrix.workloads")?;
                }
                "kind" => kind = Some(JobKind::parse(want_str(v, "matrix.kind")?)?),
                "configs" => {
                    let arr = v.as_arr().ok_or("matrix.configs: expected an array")?;
                    for (i, c) in arr.iter().enumerate() {
                        let ctx = format!("matrix.configs[{i}]");
                        let mut tag = None;
                        let mut cfg = None;
                        for (ck, cv) in members(c, &ctx)? {
                            match ck.as_str() {
                                "tag" => tag = Some(want_str(cv, &ctx)?.to_string()),
                                "config" => cfg = Some(cv.clone()),
                                _ => return Err(format!("{ctx}.{ck}: unknown key")),
                            }
                        }
                        cells.push((tag, cfg));
                    }
                }
                _ => return Err(format!("matrix.{k}: unknown key")),
            }
        }
        if workloads.is_empty() {
            return Err("matrix: needs non-empty `workloads`".to_string());
        }
        if cells.is_empty() {
            cells.push((None, None));
        }
        for w in &workloads {
            for (tag, cfg) in &cells {
                entries.push((
                    JobEntry {
                        workload: w.clone(),
                        kind,
                        scale: None,
                        timeout_ms: None,
                        retries: None,
                        tag: tag.clone(),
                        config: cfg.clone(),
                    },
                    format!("matrix[{w}{}]", tag.as_deref().map(|t| format!("/{t}")).unwrap_or_default()),
                ));
            }
        }
    }
    if entries.is_empty() {
        return Err("campaign has no jobs (empty `jobs` and no `matrix`)".to_string());
    }
    let mut jobs = Vec::with_capacity(entries.len());
    for (id, (e, ctx)) in entries.into_iter().enumerate() {
        // Validate the workload name up front so a typo fails at parse
        // time, not mid-campaign on worker 7.
        let scale = e.scale.unwrap_or(defaults.scale);
        crate::workload::resolve(&e.workload, scale).map(|_| ()).map_err(|err| format!("{ctx}: {err}"))?;
        jobs.push(JobSpec {
            id: id as u64,
            workload: e.workload,
            kind: e.kind.unwrap_or(defaults.kind),
            cfg: build_config(&defaults, e.config.as_ref(), &ctx)?,
            scale,
            timeout_ms: e.timeout_ms.unwrap_or(defaults.timeout_ms),
            retries: e.retries.unwrap_or(defaults.retries),
            tag: e.tag,
        });
    }
    Ok(Campaign { name, jobs })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_jobs_inherit_and_override_defaults() {
        let c = parse_campaign(
            r#"{
              "name": "t",
              "defaults": {"scale": "1/64", "timeout_ms": 5000, "retries": 2,
                           "config": {"tol": {"opt_level": "O1"}}},
              "jobs": [
                {"workload": "kernel:dot"},
                {"workload": "403.gcc", "kind": "lint", "scale": "1/512",
                 "timeout_ms": null, "retries": 0,
                 "config": {"tol": {"opt_level": "O3"}}}
              ]
            }"#,
        )
        .unwrap();
        assert_eq!(c.name, "t");
        assert_eq!(c.jobs.len(), 2);
        let a = &c.jobs[0];
        assert_eq!((a.id, a.kind, a.scale), (0, JobKind::Run, (1, 64)));
        assert_eq!(a.timeout_ms, Some(5000));
        assert_eq!(a.retries, 2);
        assert_eq!(a.cfg.tol.opt_level, darco_ir::OptLevel::O1);
        let b = &c.jobs[1];
        assert_eq!((b.id, b.kind, b.scale), (1, JobKind::Lint, (1, 512)));
        assert_eq!(b.timeout_ms, None, "explicit null clears the default");
        assert_eq!(b.retries, 0);
        assert_eq!(b.cfg.tol.opt_level, darco_ir::OptLevel::O3);
    }

    #[test]
    fn matrix_expands_workload_major_with_stable_ids() {
        let c = parse_campaign(
            r#"{
              "matrix": {
                "workloads": ["kernel:dot", "kernel:crc32"],
                "configs": [{"tag": "spec", "config": {}},
                            {"tag": "nospec", "config": {"tol": {"speculation": false}}}]
              }
            }"#,
        )
        .unwrap();
        let rows: Vec<(u64, &str, Option<&str>, bool)> = c
            .jobs
            .iter()
            .map(|j| (j.id, j.workload.as_str(), j.tag.as_deref(), j.cfg.tol.speculation))
            .collect();
        assert_eq!(
            rows,
            vec![
                (0, "kernel:dot", Some("spec"), true),
                (1, "kernel:dot", Some("nospec"), false),
                (2, "kernel:crc32", Some("spec"), true),
                (3, "kernel:crc32", Some("nospec"), false),
            ]
        );
    }

    #[test]
    fn bad_campaigns_fail_with_paths() {
        assert!(parse_campaign("{}").unwrap_err().contains("no jobs"));
        let e = parse_campaign(r#"{"jobs":[{"workload":"nope"}]}"#).unwrap_err();
        assert!(e.contains("jobs[0]") && e.contains("unknown workload"), "{e}");
        let e = parse_campaign(r#"{"jobs":[{"workload":"kernel:dot","scale":"0/3"}]}"#)
            .unwrap_err();
        assert!(e.contains("bad scale"), "{e}");
        let e = parse_campaign(r#"{"jobs":[{"workload":"kernel:dot","knid":"run"}]}"#)
            .unwrap_err();
        assert!(e.contains("knid"), "{e}");
    }
}
