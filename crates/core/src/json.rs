//! JSON report serialization.
//!
//! The writer itself lives in [`darco_obs::json`] (the workspace builds
//! with no external crates, so everything serializes through that tiny
//! hand-rolled writer instead of serde); this module re-exports it for
//! backward compatibility and renders [`RunReport`]s.
//!
//! The `tol_stats` and `metrics` sections are generated from the same
//! [`darco_obs::Registry`] bridges the flight recorder and `--metrics`
//! exporter use, so every reporting surface shows identical numbers.

use crate::system::RunReport;

pub use darco_obs::json::JsonWriter;

/// Serializes a [`RunReport`] to a JSON object string.
pub fn report_to_json(r: &RunReport) -> String {
    report_to_json_with(r, &[])
}

/// [`report_to_json`] plus caller-supplied top-level sections, each a
/// `(key, pre-rendered JSON value)` pair — `darco-run --profile --json`
/// attaches the sampling profiler's translation-cache heatmap this way.
pub fn report_to_json_with(r: &RunReport, extras: &[(&str, &str)]) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj(None);
    w.field_str("name", &r.name);
    w.field_num("guest_insns", r.guest_insns);
    w.begin_obj(Some("mode_insns"))
        .field_num("im", r.mode_insns.0)
        .field_num("bbm", r.mode_insns.1)
        .field_num("sbm", r.mode_insns.2)
        .end_obj();
    w.field_num("host_app_insns", r.host_app_insns);
    let mut overhead_reg = darco_obs::Registry::new();
    r.overhead.register_into(&mut overhead_reg, "");
    w.field_raw("overhead", &overhead_reg.counters_to_json_stripped("overhead."));
    w.field_f64("overhead_fraction", r.overhead_fraction());
    w.field_f64("sbm_emulation_cost", r.sbm_emulation_cost);
    w.field_f64("sbm_fraction", r.sbm_fraction());
    let mut stats_reg = darco_obs::Registry::new();
    r.tol_stats.register_into(&mut stats_reg, "");
    w.field_raw("tol_stats", &stats_reg.counters_to_json());
    w.field_num("chkpts", r.chkpts);
    w.field_num("rollbacks", r.rollbacks);
    w.field_num("validations", r.validations);
    w.field_num("pages_served", r.pages_served);
    w.field_num("syscalls", r.syscalls);
    w.field_str("output", &String::from_utf8_lossy(&r.output));
    match r.exit_status {
        Some(v) => w.field_num("exit_status", v),
        None => w.field_null("exit_status"),
    };
    match &r.guest_fault {
        Some(f) => w.field_str("guest_fault", f),
        None => w.field_null("guest_fault"),
    };
    if let Some(t) = &r.timing {
        let mut treg = darco_obs::Registry::new();
        t.register_into(&mut treg, "t");
        let mut tw = JsonWriter::new();
        tw.begin_obj(None);
        tw.field_num("insns", t.insns).field_num("cycles", t.cycles).field_f64("ipc", t.ipc());
        for name in [
            "loads",
            "stores",
            "branches",
            "mispredicts",
            "il1_accesses",
            "il1_misses",
            "dl1_accesses",
            "dl1_misses",
            "l2_accesses",
            "l2_misses",
            "itlb_misses",
            "dtlb_misses",
        ] {
            let v = treg.counter_value(&format!("t.{name}")).unwrap_or(0);
            tw.field_num(name, v);
        }
        tw.end_obj();
        w.field_raw("timing", &tw.finish());
    } else {
        w.field_null("timing");
    }
    if let Some(f) = &r.fast {
        w.begin_obj(Some("fast"))
            .field_num("memo_blocks", f.memo_blocks)
            .field_num("memo_events", f.memo_events)
            .field_num("escapes", f.escapes)
            .field_num("learns", f.learns)
            .field_num("plain_blocks", f.plain_blocks)
            .field_num("memo_clears", f.memo_clears)
            .end_obj();
    } else {
        w.field_null("fast");
    }
    if let Some(p) = &r.power {
        w.begin_obj(Some("power"))
            .field_f64("total_pj", p.total_pj)
            .field_f64("avg_power_mw", p.avg_power_mw)
            .field_f64("edp", p.edp)
            .end_obj();
    } else {
        w.field_null("power");
    }
    w.field_raw("metrics", &r.metrics.to_json());
    for (key, json) in extras {
        w.field_raw(key, json);
    }
    w.end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(JsonWriter::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(JsonWriter::escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn writer_builds_nested_objects() {
        let mut w = JsonWriter::new();
        w.begin_obj(None);
        w.field_num("a", 1);
        w.begin_obj(Some("b")).field_str("c", "x").end_obj();
        w.field_bool("d", true);
        w.end_obj();
        assert_eq!(w.finish(), "{\"a\":1,\"b\":{\"c\":\"x\"},\"d\":true}");
    }
}
