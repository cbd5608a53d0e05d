//! `train-orion20`: PPO training epochs on ORION with 20 flows.
//!
//! The untraced run times epochs of `Planner::run_until` from its progress
//! callback. The traced run rebuilds the same epochs from public calls —
//! `PlanningEnv::with_analyzer`, `PolicyNetwork::evaluate`,
//! `sample_action`, `RolloutBuffer`, `Batch::merge`, `ppo_update` and
//! `Adam` — timing each call, then runs the program for as many epochs and
//! checks that both runs saw the same episodes, solutions and best cost.

use std::sync::Arc;
use std::time::Instant;

use nptsn::{
    FailureAnalyzer, Observation, Planner, PlannerConfig, PlanningEnv, PlanningProblem,
    PolicyNetwork, ScenarioCache, Solution,
};
use nptsn_nn::{export_params, import_params, Adam, Module};
use nptsn_rand::rngs::StdRng;
use nptsn_rand::SeedableRng;
use nptsn_rl::{ppo_update, sample_action, ActorCritic, Batch, PpoConfig, RolloutBuffer};

use crate::inputs::{orion_problem, planner_config};
use crate::layers::{CallTimes, SpanTotals};
use crate::report::{self, Outcome};
use crate::{repeated_setup, Args};

const FLOWS: usize = 20;

/// One epoch as the program reports it, for the trace-versus-program check.
#[derive(Debug, Clone, PartialEq)]
struct EpochSummary {
    episodes: usize,
    solutions: usize,
    best_cost: Option<f64>,
}

/// Runs the workload.
pub fn run(args: &Args, started: Instant) -> Outcome {
    let (problem, setup_s) = repeated_setup(started, || orion_problem(FLOWS, args.seed));
    let config = planner_config(args.seed);
    if args.trace {
        traced(args, problem, config)
    } else {
        untraced(args, problem, config, setup_s)
    }
}

/// A fresh analyzer with no shared cache re-verifies the best plan.
fn best_is_reliable(problem: &PlanningProblem, best: Option<&Solution>) -> bool {
    best.is_some_and(|s| {
        FailureAnalyzer::new()
            .analyze(problem, &s.topology)
            .is_reliable()
            && s.topology.network_cost(problem.library()) == s.cost
    })
}

fn untraced(args: &Args, problem: PlanningProblem, config: PlannerConfig, setup_s: f64) -> Outcome {
    let planner = Planner::new(problem.clone(), config);
    let start = Instant::now();
    let mut last = start;
    let mut epoch_ms = Vec::new();
    let mut failed = 0;
    let report = planner.run_until(|stats| {
        let now = Instant::now();
        epoch_ms.push((now - last).as_secs_f64() * 1e3);
        last = now;
        if stats.poisoned_workers > 0 || stats.ppo_rollbacks > 0 {
            failed += 1;
        }
        now - start < args.seconds
    });
    if !best_is_reliable(&problem, report.best.as_ref()) {
        println!("perfbench: train: best plan missing or not reliable on re-verification");
        failed += 1;
    }
    let sorted = report::sorted(epoch_ms.clone());
    let mut out = Outcome {
        attempted: epoch_ms.len() as u64,
        failed,
        ..Outcome::default()
    };
    out.set("setup_s", setup_s);
    out.set("peak_rss_mb", report::peak_rss_mb(None));
    out.set("op_ms_p50", report::percentile(&sorted, 50.0));
    // Too few epochs for a percentile with 10 beyond it: the slowest.
    out.set("op_ms_tail", report::percentile(&sorted, 100.0));
    let epochs: Vec<String> = epoch_ms.iter().map(|ms| format!("{ms:.0}")).collect();
    println!(
        "perfbench: train: epochs (ms) {}; best cost {:?}",
        epochs.join(" "),
        report.best.as_ref().map(|s| s.cost)
    );
    out
}

struct WorkerOut {
    batch: Batch<Observation>,
    episodes: usize,
    solutions: usize,
    best: Option<Solution>,
    times: CallTimes,
}

/// The lower-cost of two solutions, keeping the first on a tie.
fn keep_best(best: &mut Option<Solution>, candidate: Solution) {
    if best.as_ref().is_none_or(|b| candidate.cost < b.cost) {
        *best = Some(candidate);
    }
}

/// One rollout worker's share of an epoch, from public calls.
fn rollout_worker(
    problem: PlanningProblem,
    config: &PlannerConfig,
    snapshot: &[Vec<f32>],
    dims: (usize, usize, usize),
    steps: usize,
    seed: u64,
) -> WorkerOut {
    let (n, f, a) = dims;
    let net = PolicyNetwork::new(config, n, f, a, config.seed);
    import_params(&net.parameters(), snapshot);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = CallTimes::default();
    let cache = Arc::new(ScenarioCache::new());
    let analyzer = FailureAnalyzer::new()
        .with_workers(config.analyzer_workers)
        .with_shared_cache(Arc::clone(&cache));
    let mut env = t.reset(|| {
        PlanningEnv::with_analyzer(
            problem,
            config.k_paths,
            config.reward_scaling,
            config.max_episode_steps,
            analyzer,
            &mut rng,
        )
    });
    let mut buffer = RolloutBuffer::new(config.discount, config.gae_lambda);
    let (mut episodes, mut solutions, mut best) = (0, 0, None);
    for step in 0..steps {
        let obs = env.observation().clone();
        let mask = env.mask().to_vec();
        let (logps, value) = t.evaluate(|| net.evaluate(&obs, &mask));
        let (action, logp) = sample_action(&logps.to_vec(), &mut rng);
        let outcome = t.step(|| env.step(action, &mut rng));
        buffer.store(obs, action, mask, outcome.reward, value.item(), logp);
        if let Some(sol) = outcome.solution {
            solutions += 1;
            keep_best(&mut best, sol);
        }
        if outcome.done {
            let boot = if outcome.truncated {
                let (_, v) = t.evaluate(|| net.evaluate(env.observation(), env.mask()));
                v.item()
            } else {
                0.0
            };
            buffer.finish_path(boot);
            episodes += 1;
            t.reset(|| env.reset(&mut rng));
        } else if step + 1 == steps {
            let (_, v) = t.evaluate(|| net.evaluate(env.observation(), env.mask()));
            buffer.finish_path(v.item());
        }
    }
    t.analyzer(env.scenarios_checked(), &cache.stats());
    WorkerOut {
        batch: buffer.drain(),
        episodes,
        solutions,
        best,
        times: t,
    }
}

/// One actor iteration (forward, backward, Adam step) on a scratch copy
/// of `master`, divided by one batched inference forward of the batch.
fn update_over_forward(
    master: &PolicyNetwork,
    config: &PlannerConfig,
    dims: (usize, usize, usize),
    batch: &Batch<Observation>,
    ppo: &PpoConfig,
) -> f64 {
    let (n, f, a) = dims;
    let scratch = PolicyNetwork::new(config, n, f, a, config.seed);
    import_params(&scratch.parameters(), &export_params(&master.parameters()));
    let mut actor_opt = Adam::new(scratch.actor_parameters(), config.actor_lr);
    let mut critic_opt = Adam::new(scratch.critic_parameters(), config.critic_lr);
    let one = PpoConfig {
        train_pi_iters: 1,
        train_v_iters: 0,
        ..*ppo
    };
    let t = Instant::now();
    ppo_update(&scratch, &mut actor_opt, &mut critic_opt, batch, &one);
    let iter = t.elapsed().as_secs_f64();
    let pairs: Vec<(&Observation, &[bool])> = batch
        .observations
        .iter()
        .zip(batch.masks.iter().map(Vec::as_slice))
        .collect();
    let t = Instant::now();
    std::hint::black_box(scratch.evaluate_many(&pairs));
    iter / t.elapsed().as_secs_f64().max(1e-9)
}

fn traced(args: &Args, problem: PlanningProblem, config: PlannerConfig) -> Outcome {
    let planner = Planner::new(problem.clone(), config.clone());
    let dims = planner.network_dims();
    let (n, f, a) = dims;
    let master = PolicyNetwork::new(&config, n, f, a, config.seed);
    let mut actor_opt = Adam::new(master.actor_parameters(), config.actor_lr);
    let mut critic_opt = Adam::new(master.critic_parameters(), config.critic_lr);
    let ppo = PpoConfig {
        clip_ratio: config.clip_ratio,
        gamma: config.discount,
        lambda: config.gae_lambda,
        train_pi_iters: config.train_pi_iters,
        train_v_iters: config.train_v_iters,
        target_kl: config.target_kl,
    };
    let workers = config.workers.max(1);
    let steps_per_worker = (config.steps_per_epoch / workers).max(1);

    // Half the run rebuilds epochs under tracing; the other half runs the
    // program for as many epochs to check the rebuild against it.
    nptsn_obs::set_enabled(true);
    let _ = nptsn_obs::drain();
    let start = Instant::now();
    let mut best: Option<Solution> = None;
    let mut summaries = Vec::new();
    let (mut epoch_s, mut rollout_s, mut update_s, mut ratios) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut grad_iters, mut policy_iters) = (0usize, 0usize);
    let mut calls = CallTimes::default();
    let mut spans = SpanTotals::default();
    while summaries.is_empty() || start.elapsed() < args.seconds / 2 {
        let epoch = summaries.len();
        let t0 = Instant::now();
        let snapshot = export_params(&master.parameters());
        let results: Vec<WorkerOut> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let problem = problem.clone();
                    let (config, snapshot) = (&config, &snapshot);
                    let seed = config
                        .seed
                        .wrapping_add(1 + (epoch * workers + worker) as u64);
                    scope.spawn(move || {
                        let out =
                            rollout_worker(problem, config, snapshot, dims, steps_per_worker, seed);
                        nptsn_obs::flush_thread();
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rollout worker panicked"))
                .collect()
        });
        let t_rollout = t0.elapsed();
        let mut batches = Vec::with_capacity(workers);
        let (mut episodes, mut solutions) = (0, 0);
        for r in results {
            batches.push(r.batch);
            episodes += r.episodes;
            solutions += r.solutions;
            calls.add(&r.times);
            if let Some(sol) = r.best {
                keep_best(&mut best, sol);
            }
        }
        let batch = Batch::merge(batches);
        let t1 = Instant::now();
        let stats = ppo_update(&master, &mut actor_opt, &mut critic_opt, &batch, &ppo);
        let t_update = t1.elapsed();
        epoch_s.push(t0.elapsed().as_secs_f64());
        rollout_s.push(t_rollout.as_secs_f64());
        update_s.push(t_update.as_secs_f64());
        policy_iters += stats.policy_iters;
        grad_iters += stats.policy_iters + ppo.train_v_iters;
        summaries.push(EpochSummary {
            episodes,
            solutions,
            best_cost: best.as_ref().map(|s| s.cost),
        });
        // Outside the epoch's clock and its spans.
        spans.add(&nptsn_obs::drain());
        nptsn_obs::set_enabled(false);
        ratios.push(update_over_forward(&master, &config, dims, &batch, &ppo));
        nptsn_obs::set_enabled(true);
    }
    nptsn_obs::set_enabled(false);
    spans.add(&nptsn_obs::drain());
    let epochs = summaries.len();

    let mut program = Vec::new();
    let report = planner.run_until(|stats| {
        program.push(EpochSummary {
            episodes: stats.episodes,
            solutions: stats.solutions_found,
            best_cost: stats.best_cost,
        });
        program.len() < epochs
    });
    let matches = program == summaries
        && report.best.as_ref().map(|s| s.cost) == best.as_ref().map(|s| s.cost);
    if !matches {
        println!("perfbench: train: rebuilt epochs {summaries:?} != program {program:?}");
    }
    let mut failed = 0;
    if !best_is_reliable(&problem, best.as_ref()) {
        println!("perfbench: train: best plan missing or not reliable on re-verification");
        failed += 1;
    }

    let per_epoch = |v: f64| v / epochs as f64;
    let total_epoch: f64 = epoch_s.iter().sum();
    let covered: f64 = rollout_s.iter().sum::<f64>() + update_s.iter().sum::<f64>();
    let mut out = Outcome {
        attempted: epochs as u64,
        failed,
        ..Outcome::default()
    };
    crate::layers::zero(&mut out);
    out.set("rl.ppo_update_s", report::mean(&update_s));
    out.set(
        "rl.ppo_iter_ms",
        update_s.iter().sum::<f64>() * 1e3 / grad_iters.max(1) as f64,
    );
    out.set("rl.policy_iters", policy_iters as f64 / epochs as f64);
    out.set("rl.update_over_forward", report::median(&ratios));
    out.set("planner.rollout_s", report::mean(&rollout_s));
    out.set("planner.best_cost", best.as_ref().map_or(0.0, |s| s.cost));
    calls.report(&mut out);
    spans.report(&mut out, per_epoch);
    out.set("trace.matches_program", f64::from(u8::from(matches)));
    out.set("traced.op_ms_p50", report::median(&epoch_s) * 1e3);
    out.set("unexplained_share", 1.0 - covered / total_epoch);
    out
}
