//! The `extract` workload: the paper's offline pipeline on Pittsburgh.
//!
//! Set-up collects the historical dataset into a fresh artifact store
//! (the paper takes that dataset as given). The timed phase is
//! `run_pipeline_cached` over that store: it loads the dataset and
//! recomputes dynamics training, the augmenter, decision-dataset
//! extraction, the CART fit and verification. A run repeats set-up and
//! pipeline, probing the host speed after each pipeline, and scales
//! every set-up and pipeline by the factor around it (see [`host`]).
//! The extracted policy is then evaluated on a fixed January episode
//! outside the timed phase.
//!
//! The traced run, until `--seconds` have passed, times one untraced
//! pipeline, then rebuilds the same work from the stages' public
//! functions, with spans around each call and a counting wrapper around
//! the dynamics model; it reports the median of each per-layer figure
//! over these rounds, the program's own stage walls beside the traced
//! ones, and checks that every traced tree serializes byte-identically
//! to the untraced one.

use crate::host::{self, Probe};
use crate::report::Report;
use crate::stats::{median, peak_rss_mb, percentile};
use crate::trace::{write_overhead, Tracer};
use crate::Args;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use veri_hvac::control::{DtPolicy, Predictor, RandomShootingController};
use veri_hvac::dynamics::{collect_historical_dataset, DynamicsModel};
use veri_hvac::env::{run_episode, EnvConfig, HvacEnv, Observation, SetpointAction};
use veri_hvac::extract::{fit_decision_tree, generate_decision_dataset, NoiseAugmenter};
use veri_hvac::sim::STEPS_PER_DAY;
use veri_hvac::verify::{verify_and_correct, verify_paths};
use veri_hvac::{
    run_pipeline_cached, ArtifactStore, PipelineArtifacts, PipelineConfig, PipelineKeys,
};

/// Days in each historical episode. The paper collects three January
/// months; three two-day episodes keep every hyperparameter of the
/// paper (network, epochs, optimiser, planner, tree, verification) and
/// bring one pipeline under a second, so a run holds dozens of
/// pipelines, each timed next to a host-speed probe (see [`host`]).
pub const HISTORY_DAYS: usize = 2;

/// Decision points distilled per pipeline (the paper uses 100): enough
/// that extraction takes about as long as dynamics training.
pub const N_POINTS: usize = 2;

/// The paper's Pittsburgh configuration with the historical episodes
/// cut to [`HISTORY_DAYS`] and the decision dataset to [`N_POINTS`];
/// the pipeline seed stays the paper's.
/// The pipeline runs on one thread.
const PROBE: Probe = Probe::SINGLE_THREAD;

pub fn config() -> PipelineConfig {
    let mut config = PipelineConfig::paper_pittsburgh();
    config.env.episode_steps = HISTORY_DAYS * STEPS_PER_DAY;
    config.extraction.n_points = N_POINTS;
    config
}

pub fn run(args: &Args, out_dir: &Path) -> Result<Report, String> {
    let config = config();
    let scratch = out_dir.join(format!("extract-seed{}-{}", args.seed, std::process::id()));
    let result = if args.trace {
        traced(args, &config, &scratch, out_dir)
    } else {
        untraced(args, &config, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// Collects the historical dataset into a fresh store at `dir`.
fn set_up(config: &PipelineConfig, dir: &Path) -> Result<(ArtifactStore, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let started = Instant::now();
    let store = ArtifactStore::open(dir).map_err(|e| format!("artifact store: {e}"))?;
    let data = collect_historical_dataset(&config.env, config.historical_episodes, config.seed)
        .map_err(|e| format!("historical data: {e}"))?;
    store
        .save_historical(&PipelineKeys::derive(config), config, &data)
        .map_err(|e| format!("saving historical data: {e}"))?;
    Ok((store, started.elapsed().as_secs_f64()))
}

/// Times one pipeline over `store`.
fn timed_pipeline(
    config: &PipelineConfig,
    store: &ArtifactStore,
) -> Result<(PipelineArtifacts, f64), String> {
    let started = Instant::now();
    let artifacts = run_pipeline_cached(config, store).map_err(|e| format!("pipeline: {e}"))?;
    Ok((artifacts, started.elapsed().as_secs_f64()))
}

/// The corrected tree must pass criteria #2 and #3 again.
fn check_policy(policy: &DtPolicy, config: &PipelineConfig) -> Result<(), String> {
    let recheck = verify_paths(policy, &config.verification.comfort)
        .map_err(|e| format!("re-verification: {e}"))?;
    if recheck.passed() {
        Ok(())
    } else {
        Err("the corrected tree fails criteria #2/#3 on re-verification".into())
    }
}

/// January-episode energy and comfort of `policy` (the paper's Fig. 4
/// quantities).
fn evaluate(policy: &DtPolicy) -> Result<(f64, f64), String> {
    let mut env = HvacEnv::new(EnvConfig::pittsburgh()).map_err(|e| format!("eval env: {e}"))?;
    let mut policy = policy.clone();
    let record = run_episode(&mut env, &mut policy).map_err(|e| format!("eval episode: {e}"))?;
    Ok((
        record.metrics.total_electric_kwh,
        record.metrics.comfort_rate(),
    ))
}

fn untraced(args: &Args, config: &PipelineConfig, scratch: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let dir = scratch.join("store");
    let (mut setups, mut walls, mut raw, mut factors) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<DtPolicy> = None;
    let budget = Instant::now();
    let mut before = PROBE.measure();
    while walls.is_empty() || budget.elapsed().as_secs_f64() < args.seconds {
        let (store, setup) = set_up(config, &dir)?;
        let (artifacts, wall) = timed_pipeline(config, &store)?;
        let after = PROBE.measure();
        let factor = (before + after) / 2.0;
        before = after;
        setups.push(host::scaled(setup, factor));
        walls.push(host::scaled(wall, factor));
        raw.push(wall);
        factors.push(factor);
        let policy = artifacts.policy;
        report.check(check_policy(&policy, config));
        match &first {
            None => first = Some(policy),
            Some(reference) => report.check(same_tree(reference, &policy, "repeat")),
        }
    }
    let peak_rss_mb = peak_rss_mb()?;
    let policy = first.expect("at least one pipeline ran");
    let (energy, comfort) = evaluate(&policy)?;

    let pipeline_s = median(&walls);
    report.set("setup_s", median(&setups));
    report.set("pipeline_s", pipeline_s);
    report.set("energy_kwh", energy);
    report.set("comfort_rate", comfort);
    report.set("decisions_per_s", N_POINTS as f64 / pipeline_s);
    report.set("latency_p90_us", percentile(&walls, 0.90) * 1e6);
    report.set("latency_p99_us", percentile(&walls, 0.99) * 1e6);
    report.set("ok_rate", report.ok_rate());
    report.set("peak_rss_mb", peak_rss_mb);
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "extract: {} pipelines, scaled median {pipeline_s:.4} s, raw median {:.4} s, \
         host factor median {:.3}, set-up scaled median {:.4} s; \
         raw walls [{}] s, factors [{}]",
        walls.len(),
        median(&raw),
        median(&factors),
        median(&setups),
        list(&raw),
        list(&factors),
    );
    Ok(report)
}

fn same_tree(a: &DtPolicy, b: &DtPolicy, what: &str) -> Result<(), String> {
    if a.tree().to_compact_string() == b.tree().to_compact_string() {
        Ok(())
    } else {
        Err(format!("{what}: tree differs from the untraced run's"))
    }
}

/// A [`Predictor`] that forwards to the dynamics model and records the
/// calls, rows and interval of every prediction.
struct Counting<'a> {
    model: &'a DynamicsModel,
    epoch: Instant,
    calls: AtomicU64,
    rows: AtomicU64,
    intervals: Mutex<Vec<(u64, u64)>>,
}

impl<'a> Counting<'a> {
    fn new(model: &'a DynamicsModel, epoch: Instant) -> Self {
        Self {
            model,
            epoch,
            calls: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            intervals: Mutex::new(Vec::new()),
        }
    }

    fn timed<T>(&self, rows: usize, f: impl FnOnce() -> T) -> T {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.rows.fetch_add(rows as u64, Ordering::Relaxed);
        self.intervals
            .lock()
            .expect("no thread panics while holding the interval log")
            .push((start, end));
        out
    }

    /// Moves the recorded intervals into `tracer` as `name` children of
    /// `parent`, and returns `(calls, rows)` since the last drain. The
    /// parent's self time is then the part of it no prediction covers,
    /// however the calls overlap.
    fn drain_into(&self, tracer: &mut Tracer, parent: usize, name: &'static str) -> (u64, u64) {
        let parent_start = tracer.spans()[parent].start_ns;
        let intervals = std::mem::take(
            &mut *self
                .intervals
                .lock()
                .expect("no thread panics while holding the interval log"),
        );
        for (start, end) in intervals {
            tracer.record_child(
                parent,
                name,
                start.saturating_sub(parent_start),
                end - start,
            );
        }
        (
            self.calls.swap(0, Ordering::Relaxed),
            self.rows.swap(0, Ordering::Relaxed),
        )
    }
}

impl Predictor for Counting<'_> {
    fn predict_next(&self, obs: &Observation, action: SetpointAction) -> f64 {
        self.timed(1, || self.model.predict_next_temperature(obs, action))
    }

    fn predict_next_batch(
        &self,
        observations: &[Observation],
        actions: &[SetpointAction],
        out: &mut [f64],
    ) {
        self.timed(observations.len(), || {
            self.model.predict_batch_into(observations, actions, out)
        });
    }
}

/// The program's pipeline stages, in the order `run_pipeline_cached`
/// reports them in its telemetry.
const STAGES: [(&str, &str); 4] = [
    ("dynamics", "stage.dynamics_s"),
    ("extraction", "stage.extraction_s"),
    ("tree_fit", "stage.tree_fit_s"),
    ("verification", "stage.verification_s"),
];

/// Summed difference between the traced stage walls and the program's
/// own, as a share of the program's: how far the traced rebuild has
/// drifted from `run_pipeline_cached`. A stage either side lacks counts
/// in full.
fn stage_gap_share(traced: &[(&str, f64)], program: &[(&str, f64)]) -> f64 {
    let wall = |list: &[(&str, f64)], name: &str| {
        list.iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, w)| w)
            .sum::<f64>()
    };
    let mut names: Vec<&str> = traced.iter().chain(program).map(|(n, _)| *n).collect();
    names.sort_unstable();
    names.dedup();
    let gap: f64 = names
        .iter()
        .map(|n| (wall(traced, n) - wall(program, n)).abs())
        .sum();
    gap / program.iter().map(|(_, w)| w).sum::<f64>()
}

/// Runs `f` in a span named `name`, naming the failing step on error.
fn step<T, E: std::fmt::Display>(
    t: &mut Tracer,
    name: &'static str,
    f: impl FnOnce() -> Result<T, E>,
) -> Result<T, String> {
    t.span(name, f).map_err(|e| format!("{name}: {e}"))
}

/// Rounds of [`traced_once`] until `--seconds` have passed, at least
/// one; each per-layer metric is the median over the rounds, and the
/// spans written are the last round's.
fn traced(
    args: &Args,
    config: &PipelineConfig,
    scratch: &Path,
    out_dir: &Path,
) -> Result<Report, String> {
    let started = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        rounds.push(traced_once(args, config, scratch, out_dir)?);
    }
    Ok(Report::median_of(rounds))
}

/// One pipeline run untraced through `run_pipeline_cached`, then the
/// same work rebuilt from the stages' public functions with spans
/// around each call: set-up (collection into a fresh store), then the
/// four stages of `run_pipeline_cached` with the same store loads and
/// saves, the planner's model behind a counting [`Predictor`]. The
/// program's own stage walls are reported beside the traced ones, and
/// `trace.stage_gap_share` shows any drift between the two paths.
fn traced_once(
    args: &Args,
    config: &PipelineConfig,
    scratch: &Path,
    out_dir: &Path,
) -> Result<Report, String> {
    let mut report = Report::default();
    let factor = PROBE.measure();
    let (untraced_store, _) = set_up(config, &scratch.join("store"))?;
    let (reference, untraced_wall) = timed_pipeline(config, &untraced_store)?;
    report.check(check_policy(&reference.policy, config));
    let program: Vec<(&str, f64)> = STAGES
        .iter()
        .map(|(name, _)| {
            let wall = reference
                .telemetry
                .stages
                .iter()
                .filter(|s| s.name == *name)
                .map(|s| s.wall.as_secs_f64())
                .sum();
            (*name, wall)
        })
        .collect();

    let dir = scratch.join("traced");
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir).map_err(|e| format!("artifact store: {e}"))?;
    let keys = PipelineKeys::derive(config);
    let epoch = Instant::now();
    let mut t = Tracer::new(epoch);
    let rollouts = hvac_telemetry::counter("rs.trajectories");

    let setup = t.enter("setup", 0);
    let collected = step(&mut t, "sim.collect", || {
        collect_historical_dataset(&config.env, config.historical_episodes, config.seed)
    })?;
    step(&mut t, "setup.save", || {
        store.save_historical(&keys, config, &collected)
    })?;
    t.exit(setup);

    let root = t.enter("pipeline", 0);
    let stage = t.enter("dynamics", 0);
    let historical = step(&mut t, "store.load", || {
        store.load_historical(&keys.historical)
    })?;
    let model = step(&mut t, "nn.train", || {
        DynamicsModel::train(&historical, &config.model)
    })?;
    step(&mut t, "store.save", || {
        store.save_model(&keys, config, &model)
    })?;
    let augmenter = step(&mut t, "augment.fit", || {
        NoiseAugmenter::fit(historical.policy_inputs(), config.noise_level)
    })?;
    step(&mut t, "store.save", || {
        store.save_augmenter(&keys, config, &augmenter)
    })?;
    t.exit(stage);

    let counting = Counting::new(&model, epoch);
    let stage = t.enter("extraction", 0);
    let started_rollouts = rollouts.get();
    let extract = t.enter("extract", 0);
    let data = RandomShootingController::new(&counting, config.rs, config.seed)
        .map_err(|e| format!("planner: {e}"))
        .and_then(|mut teacher| {
            generate_decision_dataset(&mut teacher, &augmenter, &config.extraction)
                .map_err(|e| format!("extraction: {e}"))
        })?;
    t.exit(extract);
    let rollout_count = rollouts.get() - started_rollouts;
    let (predict_calls, predict_rows) = counting.drain_into(&mut t, extract, "planner.predict");
    step(&mut t, "store.save", || {
        store.save_decision(&keys, config, &data)
    })?;
    t.exit(stage);

    let stage = t.enter("tree_fit", 0);
    let mut policy = step(&mut t, "cart.fit", || {
        fit_decision_tree(&data, &config.tree)
    })?;
    step(&mut t, "store.save", || {
        store.save_tree(&keys, config, &policy)
    })?;
    t.exit(stage);
    let (nodes, fitted_leaves) = (policy.tree().node_count(), policy.tree().leaf_count());

    let stage = t.enter("verification", 0);
    let verify = t.enter("verify", 0);
    let verification = verify_and_correct(&mut policy, &counting, &augmenter, &config.verification)
        .map_err(|e| format!("verification: {e}"))?;
    t.exit(verify);
    let (_, verify_rows) = counting.drain_into(&mut t, verify, "verify.predict");
    step(&mut t, "store.save", || {
        store.save_verified(&keys, config, &policy, &verification)
    })?;
    t.exit(stage);
    t.exit(root);
    let (energy, comfort) = t.span("eval", || evaluate(&policy))?;

    report.check(check_policy(&policy, config));
    report.check(same_tree(&reference.policy, &policy, "traced pipeline"));
    let train_rows = historical
        .split(config.model.train_fraction, config.model.seed)
        .map_err(|e| format!("training split: {e}"))?
        .0
        .len();

    let rollup = t.rollup();
    let wall = |name: &str| rollup.get(name).map_or(0.0, |r| r.total_ns as f64 / 1e9);
    let self_s = |name: &str| rollup.get(name).map_or(0.0, |r| r.self_ns as f64 / 1e9);
    let pipeline_wall = wall("pipeline");
    let corrected = verification.corrected_criterion_2 + verification.corrected_criterion_3;
    let traced_stages: Vec<(&str, f64)> = STAGES.iter().map(|(n, _)| (*n, wall(n))).collect();

    report.set("sim.collect_s", wall("sim.collect"));
    report.set("sim.steps", collected.len() as f64);
    report.set("nn.train_s", wall("nn.train"));
    report.set("nn.train_rows", train_rows as f64);
    report.set("augment.fit_s", wall("augment.fit"));
    report.set("extract.s", wall("extract"));
    report.set("extract.points", data.len() as f64);
    report.set("extract.rollouts", rollout_count as f64);
    report.set("planner.predict_calls", predict_calls as f64);
    report.set("planner.predict_rows", predict_rows as f64);
    report.set("planner.predict_s", wall("extract") - self_s("extract"));
    report.set("planner.self_s", self_s("extract"));
    report.set("cart.fit_s", wall("cart.fit"));
    report.set("cart.nodes", nodes as f64);
    report.set("cart.leaves", fitted_leaves as f64);
    report.set("verify.s", wall("verify"));
    report.set("verify.predict_rows", verify_rows as f64);
    report.set("verify.leaves", verification.leaf_nodes as f64);
    report.set("verify.corrected", corrected as f64);
    report.set(
        "verify.corrected_share",
        corrected as f64 / verification.leaf_nodes.max(1) as f64,
    );
    report.set("store.io_s", wall("store.load") + wall("store.save"));
    report.set("eval.s", wall("eval"));
    for ((_, metric), (_, program_wall)) in STAGES.iter().zip(&program) {
        report.set(metric, *program_wall);
    }
    report.set(
        "trace.stage_gap_share",
        stage_gap_share(&traced_stages, &program),
    );
    report.set("pipeline.traced_s", pipeline_wall);
    report.set(
        "pipeline.covered_share",
        1.0 - self_s("pipeline") / pipeline_wall,
    );
    report.set(
        "trace.overhead_pct",
        (pipeline_wall - untraced_wall) / untraced_wall * 100.0,
    );
    report.set("trace.spans", t.spans().len() as f64);
    report.set("latency_p50_us", untraced_wall * 1e6);
    report.set("host.factor", factor);

    let stem = out_dir.join(format!("extract-seed{}", args.seed));
    t.write_jsonl(&stem.with_extension("spans.jsonl"))?;
    write_overhead(
        &stem.with_extension("overhead.json"),
        &[("pipeline_s", untraced_wall, pipeline_wall)],
    )?;
    eprintln!(
        "extract traced: pipeline {pipeline_wall:.3} s (untraced {untraced_wall:.3} s), \
         stages traced {traced_stages:?} program {program:?}, \
         energy {energy:.1} kWh, comfort {comfort:.4}"
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_gap_is_zero_for_equal_walls_and_counts_missing_stages() {
        let program = [("dynamics", 2.0), ("extraction", 6.0)];
        assert_eq!(stage_gap_share(&program, &program), 0.0);
        // 0.5 s slower extraction: 0.5 / 8.
        let traced = [("dynamics", 2.0), ("extraction", 6.5)];
        assert_eq!(stage_gap_share(&traced, &program), 0.0625);
        // A stage the traced rebuild lacks, and one the program lacks.
        let traced = [("dynamics", 2.0), ("split", 1.0)];
        assert_eq!(stage_gap_share(&traced, &program), 7.0 / 8.0);
    }
}
