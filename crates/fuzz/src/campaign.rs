//! The generation-synchronous fuzzing soup.
//!
//! Determinism is the design center: the campaign is a pure function of
//! `(seed, iters, profile, injection)` — never of `--jobs`. Candidates
//! are derived from `prng::derive(seed, global_index)`, each generation
//! is a **fixed-size batch** built from the corpus snapshot at the
//! generation barrier, the fleet pool evaluates the batch in parallel
//! but returns results in index order, and coverage/corpus updates (and
//! shrinks, which run on the coordinator) fold strictly in index order.
//! Workers only change *who* evaluates a candidate, never which
//! candidates exist or how their results are folded — so the merged
//! artifact and the corpus trajectory are byte-identical at any worker
//! count.

use crate::cov::{edges_of, CovMap, Edge};
use crate::gen::{generate, Profile, PROFILES};
use crate::mutate::mutate;
use crate::oracle::{run_differential, run_lane, Divergence, Lane, LaneOutcome, Verdict};
use crate::shrink::shrink;
use darco_fleet::{deterministic_metric, LiveHub, Pool, TaskError};
use darco_guest::prng::{derive, Rng, SmallRng};
use darco_obs::{JsonWriter, Registry};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Candidates per generation. Fixed (never scaled by `--jobs`) so the
/// corpus/coverage trajectory is identical at any worker count.
pub const GENERATION: usize = 24;

/// Probability that a candidate is a mutant of corpus parents rather
/// than a fresh profile generation (once the corpus has two entries).
const MUTATE_BIAS: f64 = 0.75;

/// Campaign options (the `darco-fuzz run` flags).
#[derive(Debug, Clone)]
pub struct FuzzOpts {
    /// Master seed: the whole campaign derives from it.
    pub seed: u64,
    /// Total candidate executions (rounded up to whole generations).
    pub iters: u64,
    /// Worker threads evaluating candidates.
    pub jobs: usize,
    /// Restrict generation to one profile (default: cycle all six).
    pub profile: Option<Profile>,
    /// Test-only bug injection planted in every translating lane.
    pub inject: Option<darco_tol::Injection>,
    /// Output directory (artifact, reproducers, flight dumps, corpus).
    pub out_dir: PathBuf,
    /// Live-telemetry bind address (`darco-top` connects here).
    pub live: Option<String>,
}

impl Default for FuzzOpts {
    fn default() -> Self {
        FuzzOpts {
            seed: 1,
            iters: 200,
            jobs: 1,
            profile: None,
            inject: None,
            out_dir: PathBuf::from("fuzz-out"),
            live: None,
        }
    }
}

/// One divergence class the campaign hit, with its minimized reproducer.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable divergence label ([`crate::oracle::DivKind::label`], or
    /// `worker-panic`).
    pub label: String,
    /// Human-readable detail from the first hit.
    pub detail: String,
    /// Global candidate index of the first hit.
    pub index: u64,
    /// The minimized reproducer (equal to the original candidate for
    /// `worker-panic`, which the oracle cannot re-classify).
    pub minimized: darco_workloads::fuzzprog::FuzzProgram,
    /// Oracle probes the shrinker spent.
    pub probes: usize,
    /// Further candidates that hit the same label (not re-shrunk).
    pub dup_count: u64,
    /// Where the reproducer JSON was written.
    pub repro_path: Option<PathBuf>,
    /// Where the flight dump was written.
    pub flight_path: Option<PathBuf>,
}

/// What a finished campaign produced.
#[derive(Debug)]
pub struct CampaignSummary {
    /// Campaign name (`fuzz-<seed>`).
    pub name: String,
    /// Candidates evaluated.
    pub execs: u64,
    /// The interesting-input corpus, in discovery order.
    pub corpus: Vec<darco_workloads::fuzzprog::FuzzProgram>,
    /// The campaign-global coverage map.
    pub cov: CovMap,
    /// Distinct divergence classes, in discovery order.
    pub findings: Vec<Finding>,
    /// Merged deterministic metrics (lanes of every clean candidate,
    /// plus the `fuzz.*` campaign counters).
    pub metrics: Registry,
}

impl CampaignSummary {
    /// Total divergent candidates (first hits plus duplicates).
    pub fn divergences(&self) -> u64 {
        self.findings.iter().map(|f| 1 + f.dup_count).sum()
    }

    /// The merged campaign artifact: a pure function of the simulated
    /// executions (no wall-clock values, no paths), byte-identical for
    /// any worker count.
    pub fn artifact_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj(None);
        w.field_str("campaign", &self.name);
        w.field_num("execs", self.execs);
        w.field_num("corpus_size", self.corpus.len());
        w.field_num("cov_edges", self.cov.len());
        w.field_num("divergences", self.divergences());
        w.begin_arr(Some("findings"));
        for f in &self.findings {
            let mut e = JsonWriter::new();
            e.begin_obj(None);
            e.field_str("kind", &f.label);
            e.field_str("detail", &f.detail);
            e.field_num("index", f.index);
            e.field_num("dup_count", f.dup_count);
            e.field_num("min_blocks", f.minimized.blocks.len());
            e.field_num("min_ops", f.minimized.op_count());
            e.end_obj();
            w.elem_raw(&e.finish());
        }
        w.end_arr();
        w.field_raw("metrics", &self.metrics.to_json());
        w.end_obj();
        w.finish()
    }
}

/// What one worker reports for one candidate: the deterministic slice
/// only (edges + projected metrics), so folding is order-stable.
enum Eval {
    Clean { edges: Vec<Edge>, metrics: Registry, guest_insns: u64 },
    Diverged(Divergence),
}

fn evaluate(prog: &darco_workloads::fuzzprog::FuzzProgram, lanes: &[Lane]) -> Eval {
    match run_differential(prog, lanes) {
        Verdict::Clean(reports) => {
            let mut edges = Vec::new();
            let mut metrics = Registry::new();
            let mut guest_insns = 0;
            for (name, rep) in &reports {
                edges.extend(edges_of(name, &rep.metrics));
                metrics.merge(&rep.metrics);
                guest_insns += rep.guest_insns;
            }
            metrics.retain(deterministic_metric);
            Eval::Clean { edges, metrics, guest_insns }
        }
        Verdict::Diverged(d) => Eval::Diverged(d),
    }
}

/// Builds candidate `idx` from the corpus snapshot at the generation
/// barrier. Pure in `(seed, idx, profiles, corpus)`.
fn candidate(
    seed: u64,
    idx: u64,
    profiles: &[Profile],
    corpus: &[darco_workloads::fuzzprog::FuzzProgram],
) -> darco_workloads::fuzzprog::FuzzProgram {
    let mut rng = SmallRng::seed_from_u64(derive(seed, idx));
    if corpus.len() >= 2 && rng.gen_bool(MUTATE_BIAS) {
        let a = rng.gen_range(0..corpus.len());
        let b = rng.gen_range(0..corpus.len());
        mutate(&corpus[a], &corpus[b], &mut rng)
    } else {
        let p = profiles[idx as usize % profiles.len()];
        generate(p, rng.gen())
    }
}

/// Writes the reproducer JSON and a flight dump for a minimized finding.
/// For lane-attributed kinds the lane is re-run with the flight recorder
/// armed (a failing lane dumps its own trace); otherwise — or when that
/// run ends cleanly — a dump is synthesized carrying the divergence
/// context and the reproducer inline.
fn emit_finding(out_dir: &Path, f: &mut Finding, lanes: &[Lane]) {
    let repro = out_dir.join(format!("repro-{}-{}.json", f.label, f.index));
    if std::fs::write(&repro, f.minimized.to_json()).is_ok() {
        f.repro_path = Some(repro);
    }
    let flight = out_dir.join(format!("repro-{}-{}.flight.json", f.label, f.index));
    let flight_str = flight.to_string_lossy().into_owned();
    let lane_name = match &f.label {
        l if l.starts_with("lane-error-") => l.trim_start_matches("lane-error-"),
        l if l.starts_with("verify-") => l.trim_start_matches("verify-"),
        _ => "sbm",
    };
    let mut metrics = Registry::new();
    if let Some(lane) = lanes.iter().find(|l| l.name == lane_name) {
        let mut armed = lane.clone();
        armed.cfg.flight_path = Some(flight_str.clone());
        armed.cfg.trace_capacity = Some(256);
        if let LaneOutcome::Done(r) = run_lane(&armed, &f.minimized.lower()) {
            metrics = r.metrics.clone();
        }
    }
    if !flight.exists() {
        // The lane ended cleanly (cross-lane or counter divergence):
        // synthesize the dump with the reproducer embedded.
        let mut repro_json = JsonWriter::new();
        repro_json.begin_obj(None);
        repro_json.field_str("kind", &f.label);
        repro_json.field_str("detail", &f.detail);
        repro_json.field_raw("program", &f.minimized.to_json());
        repro_json.end_obj();
        let dump = darco_obs::flight::flight_dump_with(
            &format!("fuzz divergence: {}", f.detail),
            &[],
            0,
            &metrics,
            &[("fuzz", &repro_json.finish())],
        );
        if std::fs::write(&flight, dump).is_err() {
            return;
        }
    }
    f.flight_path = Some(flight);
}

struct LiveFeed {
    hub: Arc<LiveHub>,
    mirror: Registry,
    epoch: u64,
}

impl LiveFeed {
    fn bind(addr: &str, name: &str, generations: usize, jobs: usize) -> Option<LiveFeed> {
        match LiveHub::bind(addr) {
            Ok((hub, bound)) => {
                eprintln!("live telemetry on {bound} (darco-top {bound})");
                let t = hub.now_ms();
                hub.publish(
                    Some(&darco_fleet::live::model_key(0, 0)),
                    &darco_fleet::live::campaign_event(t, name, generations, jobs, GENERATION as u64),
                );
                Some(LiveFeed { hub, mirror: Registry::new(), epoch: 0 })
            }
            Err(e) => {
                eprintln!("warning: could not bind live telemetry on {addr}: {e}");
                None
            }
        }
    }

    /// Publishes one generation barrier: a finished job row, the fuzz
    /// stats line, and the campaign-registry delta since the last one.
    fn generation(&mut self, gen: u64, insns: u64, reg: &Registry, stats: (u64, u64, u64, u64)) {
        let t = self.hub.now_ms();
        let key = darco_fleet::live::model_key(1, gen);
        self.hub.publish(
            Some(&key),
            &darco_fleet::live::job_event(t, gen, &format!("fuzz:gen{gen}"), "done", Some("ok"), 0),
        );
        self.hub.publish(
            Some(&darco_fleet::live::model_key(2, gen)),
            &darco_fleet::live::progress_event(t, gen, 0, insns, 0.0, (0, 0, insns), 0),
        );
        self.mirror.sync_from(reg);
        let delta = self.mirror.delta_since(self.epoch);
        self.epoch = self.mirror.epoch();
        if !delta.is_empty() {
            self.hub.publish(
                Some(&darco_fleet::live::model_key(3, 0)),
                &darco_fleet::live::delta_event(t, 0, &delta),
            );
        }
        let (execs, corpus, edges, divergences) = stats;
        self.hub.publish(
            Some(&darco_fleet::live::model_key(4, 0)),
            &darco_fleet::live::fuzz_event(t, execs, corpus, edges, divergences),
        );
    }

    fn end(&self, ok: usize, failed: usize) {
        let t = self.hub.now_ms();
        self.hub
            .publish(Some(&darco_fleet::live::model_key(9, 0)), &darco_fleet::live::end_event(t, ok, failed));
        self.hub.close();
    }
}

/// Runs a campaign.
///
/// # Errors
/// Output-directory creation; everything downstream is reported in the
/// summary instead of failing the campaign.
pub fn run(opts: &FuzzOpts) -> Result<CampaignSummary, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("creating {}: {e}", opts.out_dir.display()))?;
    let name = format!("fuzz-{}", opts.seed);
    let profiles: Vec<Profile> = match opts.profile {
        Some(p) => vec![p],
        None => PROFILES.to_vec(),
    };
    let lanes = crate::oracle::lanes(opts.inject);
    let pool = Pool::new(opts.jobs.max(1));

    let seeds = profiles.len() as u64;
    let generations =
        (opts.iters.saturating_sub(seeds)).div_ceil(GENERATION as u64) as usize;
    let mut live = opts
        .live
        .as_deref()
        .and_then(|a| LiveFeed::bind(a, &name, generations, opts.jobs.max(1)));

    let mut cov = CovMap::new();
    let mut corpus: Vec<darco_workloads::fuzzprog::FuzzProgram> = Vec::new();
    let mut findings: Vec<Finding> = Vec::new();
    let mut metrics = Registry::new();
    let mut execs = 0u64;
    let mut total_insns = 0u64;
    let mut next_idx = 0u64;

    // One batch = build candidates from the corpus snapshot, evaluate on
    // the pool (results return in index order), fold sequentially.
    let run_batch = |batch: Vec<darco_workloads::fuzzprog::FuzzProgram>,
                         first_idx: u64,
                         cov: &mut CovMap,
                         corpus: &mut Vec<darco_workloads::fuzzprog::FuzzProgram>,
                         findings: &mut Vec<Finding>,
                         metrics: &mut Registry,
                         execs: &mut u64,
                         total_insns: &mut u64| {
        let lanes_cl = lanes.clone();
        let results = pool.map(batch.clone(), move |_, prog| evaluate(prog, &lanes_cl));
        for (k, res) in results.into_iter().enumerate() {
            let idx = first_idx + k as u64;
            let prog = &batch[k];
            let outcome = match res {
                Ok(eval) => eval,
                Err(TaskError::Panicked(msg)) => Eval::Diverged(Divergence {
                    kind: crate::oracle::DivKind::LaneError { lane: "worker" },
                    detail: format!("worker panic: {msg}"),
                }),
            };
            *execs += 1;
            match outcome {
                Eval::Clean { edges, metrics: m, guest_insns } => {
                    *total_insns += guest_insns;
                    if cov.add_all(edges) > 0 {
                        corpus.push(prog.clone());
                    }
                    metrics.merge(&m);
                }
                Eval::Diverged(d) => {
                    let label = d.kind.label();
                    if let Some(f) = findings.iter_mut().find(|f| f.label == label) {
                        f.dup_count += 1;
                        continue;
                    }
                    let is_panic = matches!(
                        d.kind,
                        crate::oracle::DivKind::LaneError { lane: "worker" }
                    );
                    let (minimized, probes) = if is_panic {
                        (prog.clone(), 0)
                    } else {
                        shrink(prog, &lanes, &d.kind)
                    };
                    let mut f = Finding {
                        label,
                        detail: d.detail,
                        index: idx,
                        minimized,
                        probes,
                        dup_count: 0,
                        repro_path: None,
                        flight_path: None,
                    };
                    emit_finding(&opts.out_dir, &mut f, &lanes);
                    eprintln!(
                        "divergence [{}] at candidate {idx}: {} (minimized to {} ops in {} probes)",
                        f.label,
                        f.detail,
                        f.minimized.op_count(),
                        f.probes
                    );
                    findings.push(f);
                }
            }
        }
    };

    // Seed corpus: one fresh generation per profile.
    let seed_batch: Vec<_> =
        (0..seeds).map(|i| generate(profiles[i as usize % profiles.len()], derive(opts.seed, i))).collect();
    next_idx += seeds;
    run_batch(
        seed_batch,
        0,
        &mut cov,
        &mut corpus,
        &mut findings,
        &mut metrics,
        &mut execs,
        &mut total_insns,
    );

    for gen in 0..generations as u64 {
        let batch: Vec<_> = (0..GENERATION as u64)
            .map(|k| candidate(opts.seed, next_idx + k, &profiles, &corpus))
            .collect();
        let first = next_idx;
        next_idx += GENERATION as u64;
        run_batch(
            batch,
            first,
            &mut cov,
            &mut corpus,
            &mut findings,
            &mut metrics,
            &mut execs,
            &mut total_insns,
        );
        let divergences: u64 = findings.iter().map(|f| 1 + f.dup_count).sum();
        if let Some(feed) = live.as_mut() {
            let mut snap = metrics.clone();
            stamp_fuzz_counters(&mut snap, execs, corpus.len(), &cov, divergences);
            feed.generation(gen, total_insns, &snap, (execs, corpus.len() as u64, cov.len() as u64, divergences));
        }
    }

    stamp_fuzz_counters(&mut metrics, execs, corpus.len(), &cov, {
        findings.iter().map(|f| 1 + f.dup_count).sum()
    });

    let summary = CampaignSummary { name, execs, corpus, cov, findings, metrics };

    // Persist the corpus and the merged artifact.
    let corpus_dir = opts.out_dir.join("corpus");
    if std::fs::create_dir_all(&corpus_dir).is_ok() {
        for (i, p) in summary.corpus.iter().enumerate() {
            let _ = std::fs::write(corpus_dir.join(format!("cand-{i:05}.json")), p.to_json());
        }
    }
    let _ = std::fs::write(opts.out_dir.join("fuzz-artifact.json"), summary.artifact_json());

    if let Some(feed) = live.as_ref() {
        feed.end(summary.execs as usize, summary.findings.len());
    }
    Ok(summary)
}

/// Writes the campaign-level `fuzz.*` counters into a registry.
fn stamp_fuzz_counters(reg: &mut Registry, execs: u64, corpus: usize, cov: &CovMap, div: u64) {
    reg.set_counter("fuzz.execs", execs);
    reg.set_counter("fuzz.corpus_size", corpus as u64);
    reg.set_counter("fuzz.divergences", div);
    cov.report_into(reg);
}
