//! TOL observability: the tracer + live histograms the TOL carries, and
//! the registry bridge for [`TolStats`] / [`Overhead`].
//!
//! [`TolObs`] is a field of [`crate::Tol`]. With the tracer off (the
//! default) every hook is a single predictable branch, mirroring the
//! `NullSink` hot-path discipline; with a ring tracer attached the TOL
//! emits typed events for every mode switch, translation, promotion,
//! chain patch, rollback and cache operation, and records
//! power-of-two-bucket histograms for translation latency, region size
//! and rollback distance.

use crate::overhead::Overhead;
use crate::tol::TolStats;
use darco_guest::{Wire, WireError, WireReader};
use darco_obs::trace::TraceSink;
use darco_obs::{ExecMode, HistoId, Histogram, Registry, TraceEventKind, Tracer};

/// Observability state owned by the TOL.
#[derive(Debug)]
pub struct TolObs {
    /// The trace sink (off by default).
    pub trace: Tracer,
    /// Live metrics: histograms recorded during execution. Snapshot
    /// counters are bridged in from [`TolStats`] at report time.
    pub metrics: Registry,
    h_translate_bb: HistoId,
    h_translate_sb: HistoId,
    h_region_guest_insns: HistoId,
    h_rollback_dispatch_host_insns: HistoId,
    last_mode: Option<ExecMode>,
}

impl Default for TolObs {
    fn default() -> Self {
        TolObs::new()
    }
}

impl TolObs {
    /// Creates the observability state with tracing off and the TOL's
    /// histograms registered.
    pub fn new() -> TolObs {
        let mut metrics = Registry::new();
        let h_translate_bb = metrics.histogram("tol.translate_ns.bb");
        let h_translate_sb = metrics.histogram("tol.translate_ns.sb");
        let h_region_guest_insns = metrics.histogram("tol.region_guest_insns");
        let h_rollback_dispatch_host_insns = metrics.histogram("tol.rollback_dispatch_host_insns");
        TolObs {
            trace: Tracer::Off,
            metrics,
            h_translate_bb,
            h_translate_sb,
            h_region_guest_insns,
            h_rollback_dispatch_host_insns,
            last_mode: None,
        }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.trace.enabled()
    }

    /// Emits one event (no-op with the tracer off).
    #[inline]
    pub fn emit(&mut self, kind: TraceEventKind) {
        self.trace.emit(kind);
    }

    /// Notes the execution mode at `pc`, emitting a [`TraceEventKind::ModeSwitch`]
    /// only when it changed (IM blocks and chained cache entries would
    /// otherwise flood the ring).
    #[inline]
    pub fn mode(&mut self, to: ExecMode, pc: u32) {
        if !self.trace.enabled() {
            return;
        }
        if self.last_mode != Some(to) {
            let from = self.last_mode.unwrap_or(to);
            self.trace.emit(TraceEventKind::ModeSwitch { from, to, pc });
            self.last_mode = Some(to);
        }
    }

    /// Records a finished translation: latency histogram plus the
    /// [`TraceEventKind::TranslateEnd`] event.
    pub fn translate_end(&mut self, sb: bool, pc: u32, ns: u64, ok: bool) {
        let h = if sb { self.h_translate_sb } else { self.h_translate_bb };
        self.metrics.record(h, ns);
        self.emit(TraceEventKind::TranslateEnd { sb, pc, ns, ok });
    }

    /// Records an installed region's static guest-instruction size.
    pub fn region_size(&mut self, guest_insns: u32) {
        self.metrics.record(self.h_region_guest_insns, guest_insns as u64);
    }

    /// Records a rollback with `host_insns`, the host instructions the
    /// whole failed dispatch executed (`ExitInfo::executed`): every region
    /// it chained through, not only the one whose speculation failed.
    pub fn rollback(&mut self, pc: u32, host_insns: u64) {
        self.metrics.record(self.h_rollback_dispatch_host_insns, host_insns);
        self.emit(TraceEventKind::Rollback { pc, host_insns });
    }

    /// Replaces the live metrics with a restored registry (checkpoint
    /// restore), re-resolving the TOL's histogram ids by name. Tracing
    /// state is deliberately not part of a checkpoint: the tracer resets
    /// to off and mode tracking restarts at the next switch.
    pub fn restore_metrics(&mut self, metrics: Registry) {
        self.metrics = metrics;
        self.h_translate_bb = self.metrics.histogram("tol.translate_ns.bb");
        self.h_translate_sb = self.metrics.histogram("tol.translate_ns.sb");
        self.h_region_guest_insns = self.metrics.histogram("tol.region_guest_insns");
        self.h_rollback_dispatch_host_insns = self.metrics.histogram("tol.rollback_dispatch_host_insns");
        self.last_mode = None;
    }

    /// Updates the code-cache occupancy gauge.
    pub fn cache_occupancy(&mut self, used_words: u64, capacity_words: u64) {
        self.metrics.set_gauge("tol.cache_used_words", used_words as f64);
        self.metrics.set_gauge(
            "tol.cache_occupancy",
            if capacity_words == 0 { 0.0 } else { used_words as f64 / capacity_words as f64 },
        );
    }
}

/// True for metrics that measure host wall-clock time rather than guest
/// progress. These are *normalized to zero in snapshots*: a snapshot must
/// be a pure function of guest progress (the same guest boundary yields
/// the same bytes regardless of host load, run, or backend), and nanos
/// are the one thing in the registry that is not. Restored runs restart
/// wall-clock accumulators from zero — they then describe the resuming
/// process. Registration order (and thus positional [`HistoId`]s) is
/// preserved; only the recorded values are blanked.
fn wall_clock(name: &str) -> bool {
    name.contains("nanos") || name.contains("_ns")
}

/// Serializes a registry for checkpoints: counters, gauges and
/// histograms in registration order (order is part of the state —
/// [`HistoId`]s are positional, and registration order is deterministic
/// for a deterministic run). Wall-clock metrics are serialized as zero
/// (see [`wall_clock`]); everything else is lossless.
///
/// Lives here rather than in `darco-obs` because the obs crate is
/// dependency-free and cannot see the wire codec.
pub fn registry_snapshot_into(reg: &Registry, w: &mut Wire) {
    let counters: Vec<_> = reg.counters_iter().collect();
    w.put_usize(counters.len());
    for (name, v) in counters {
        w.put_str(name);
        w.put_u64(if wall_clock(name) { 0 } else { v });
    }
    let gauges: Vec<_> = reg.gauges_iter().collect();
    w.put_usize(gauges.len());
    for (name, v) in gauges {
        w.put_str(name);
        w.put_f64(if wall_clock(name) { 0.0 } else { v });
    }
    let histos: Vec<_> = reg.histograms_iter().collect();
    w.put_usize(histos.len());
    for (name, h) in histos {
        w.put_str(name);
        if wall_clock(name) {
            // An empty histogram, exactly as `Histogram::default`:
            // count 0, sum 0, min u64::MAX, max 0, all buckets 0.
            w.put_u64(0);
            w.put_u64(0);
            w.put_u64(u64::MAX);
            w.put_u64(0);
            for _ in h.buckets_raw() {
                w.put_u64(0);
            }
            continue;
        }
        w.put_u64(h.count);
        w.put_u64(h.sum);
        w.put_u64(h.min);
        w.put_u64(h.max);
        for b in h.buckets_raw() {
            w.put_u64(*b);
        }
    }
}

/// Rebuilds a registry from a [`registry_snapshot_into`] stream.
///
/// # Errors
/// Wire decode failures.
pub fn registry_restore(r: &mut WireReader<'_>) -> Result<Registry, WireError> {
    let n = r.get_usize()?;
    let mut counters = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.get_str()?;
        counters.push((name, r.get_u64()?));
    }
    let n = r.get_usize()?;
    let mut gauges = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.get_str()?;
        gauges.push((name, r.get_f64()?));
    }
    let n = r.get_usize()?;
    let mut histos = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.get_str()?;
        let count = r.get_u64()?;
        let sum = r.get_u64()?;
        let min = r.get_u64()?;
        let max = r.get_u64()?;
        let mut buckets = [0u64; 65];
        for b in &mut buckets {
            *b = r.get_u64()?;
        }
        histos.push((name, Histogram::from_raw(count, sum, min, max, buckets)));
    }
    Ok(Registry::from_contents(counters, gauges, histos))
}

fn key(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}.{name}")
    }
}

impl TolStats {
    /// Registers every statistic as a named counter under `prefix`
    /// (empty prefix → bare field names). This is the single source both
    /// the debug JSON and `darco-run --json`/`--metrics` serialize from.
    pub fn register_into(&self, reg: &mut Registry, prefix: &str) {
        let fields: [(&str, u64); 19] = [
            ("guest_im", self.guest_im),
            ("translations_bb", self.translations_bb),
            ("translations_sb", self.translations_sb),
            ("recreations", self.recreations),
            ("host_app", self.host_app),
            ("interp_blocks", self.interp_blocks),
            ("spec_rollbacks", self.spec_rollbacks),
            ("smc_aborts", self.smc_aborts),
            ("smc_flushes", self.smc_flushes),
            ("chain_patches", self.chain_patches),
            ("ibtc_inserts", self.ibtc_inserts),
            ("guest_external", self.guest_external),
            ("sb_static_guest", self.sb_static_guest),
            ("sb_static_host", self.sb_static_host),
            ("verify_regions", self.verify_regions),
            ("verify_findings", self.verify_findings),
            ("verify_nanos", self.verify_nanos),
            ("verify_sem_nanos", self.verify_sem_nanos),
            ("translate_nanos", self.translate_nanos),
        ];
        for (name, v) in fields {
            reg.set_counter(&key(prefix, name), v);
        }
        darco_ir::register_kind_counters(
            &self.verify_by_kind,
            &key(prefix, "verify_by_kind"),
            reg,
        );
    }
}

impl Overhead {
    /// Registers the seven categories plus the total under
    /// `<prefix>.overhead.*`.
    pub fn register_into(&self, reg: &mut Registry, prefix: &str) {
        let base = key(prefix, "overhead");
        for (kind, v) in self.as_array() {
            let name = match kind {
                crate::overhead::OverheadKind::Interpreter => "interpreter",
                crate::overhead::OverheadKind::BbTranslator => "bb_translator",
                crate::overhead::OverheadKind::SbTranslator => "sb_translator",
                crate::overhead::OverheadKind::Prologue => "prologue",
                crate::overhead::OverheadKind::Chaining => "chaining",
                crate::overhead::OverheadKind::CacheLookup => "cache_lookup",
                crate::overhead::OverheadKind::Others => "others",
            };
            reg.set_counter(&format!("{base}.{name}"), v);
        }
        reg.set_counter(&format!("{base}.total"), self.total());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_switch_emits_only_on_change() {
        let mut o = TolObs::new();
        o.trace = Tracer::ring(16);
        o.mode(ExecMode::Im, 0x100);
        o.mode(ExecMode::Im, 0x104);
        o.mode(ExecMode::Bbm, 0x108);
        o.mode(ExecMode::Bbm, 0x10c);
        o.mode(ExecMode::Im, 0x110);
        let evs = o.trace.events();
        assert_eq!(evs.len(), 3);
        assert!(matches!(
            evs[1].kind,
            TraceEventKind::ModeSwitch { from: ExecMode::Im, to: ExecMode::Bbm, .. }
        ));
    }

    #[test]
    fn mode_tracking_is_inert_when_off() {
        let mut o = TolObs::new();
        o.mode(ExecMode::Sbm, 0x100);
        assert!(o.trace.events().is_empty());
        assert!(!o.is_on());
    }

    #[test]
    fn translate_end_feeds_the_right_histogram() {
        let mut o = TolObs::new();
        o.translate_end(false, 0x100, 1_000, true);
        o.translate_end(true, 0x200, 9_000, true);
        o.translate_end(true, 0x200, 11_000, false);
        assert_eq!(o.metrics.histogram_ref("tol.translate_ns.bb").unwrap().count, 1);
        let sb = o.metrics.histogram_ref("tol.translate_ns.sb").unwrap();
        assert_eq!(sb.count, 2);
        assert_eq!(sb.sum, 20_000);
    }

    #[test]
    fn stats_bridge_registers_all_fields_and_kinds() {
        let stats = TolStats { spec_rollbacks: 7, ..TolStats::default() };
        let mut reg = Registry::new();
        stats.register_into(&mut reg, "tol");
        assert_eq!(reg.counter_value("tol.spec_rollbacks"), Some(7));
        assert_eq!(reg.counter_value("tol.guest_im"), Some(0));
        let (counters, _, _) = reg.sizes();
        assert_eq!(counters, 19 + darco_ir::KIND_COUNT);
    }

    #[test]
    fn overhead_bridge_matches_totals() {
        let o = Overhead { interpreter: 1, chaining: 2, ..Overhead::default() };
        let mut reg = Registry::new();
        o.register_into(&mut reg, "tol");
        assert_eq!(reg.counter_value("tol.overhead.interpreter"), Some(1));
        assert_eq!(reg.counter_value("tol.overhead.total"), Some(3));
    }
}
