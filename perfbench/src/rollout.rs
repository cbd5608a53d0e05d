//! `rollout-orion40`: greedy planning episodes on ORION with 40 flows,
//! one at a time, from a fixed seeded policy. No PPO runs here, so the
//! analyzer, the SOAG and the GCN forward carry the time. Episodes cycle
//! through a pool of seeded flow sets: how long an episode takes depends
//! on its flows, and a pool keeps one run's figures from hanging on one
//! draw.
//!
//! The untraced run times `Planner::plan_with_policy(policy, 1, seed + i)`.
//! The traced run drives the same episodes through public calls
//! (`PlanningEnv::with_analyzer`, `PolicyNetwork::evaluate`, `best_action`,
//! `PlanningEnv::step`), timing each. Either run then replays every episode
//! through the other path: an episode whose cost differs is a failed op.

use std::sync::Arc;
use std::time::Instant;

use nptsn::{
    FailureAnalyzer, Planner, PlannerConfig, PlanningEnv, PlanningProblem, PolicyNetwork,
    ScenarioCache,
};
use nptsn_rand::rngs::StdRng;
use nptsn_rand::SeedableRng;
use nptsn_rl::ActorCritic;

use crate::inputs::{orion_problems, planner_config};
use crate::layers::{CallTimes, SpanTotals};
use crate::report::{self, Outcome};
use crate::{repeated_setup, Args};

const FLOWS: usize = 40;
/// Flow sets in the pool.
const PROBLEMS: usize = 64;
/// The policy's seed: the same untrained policy for every run.
const POLICY_SEED: u64 = 0;
/// The tail percentile this workload reports.
const TAIL: f64 = 95.0;

/// Runs the workload.
pub fn run(args: &Args, started: Instant) -> Outcome {
    let ((problems, planners, policy), setup_s) = repeated_setup(started, || {
        let problems = orion_problems(FLOWS, PROBLEMS, args.seed);
        let planners: Vec<Planner> = problems
            .iter()
            .map(|p| Planner::new(p.clone(), planner_config(POLICY_SEED)))
            .collect();
        // Every ORION problem has the same network dimensions.
        let policy = planners[0].build_policy();
        (problems, planners, policy)
    });
    let seed_of = |i: usize| args.seed.wrapping_add(i as u64);
    let program = |i: usize| {
        planners[i % PROBLEMS]
            .plan_with_policy(&policy, 1, seed_of(i))
            .map(|s| s.cost)
    };
    let problem = |i: usize| &problems[i % PROBLEMS];
    let config = planners[0].config();

    let start = Instant::now();
    let mut episode_ms = Vec::new();
    let mut costs = Vec::new();
    let mut calls = CallTimes::default();
    let mut spans = SpanTotals::default();
    nptsn_obs::set_enabled(args.trace);
    let _ = nptsn_obs::drain();
    while start.elapsed() < args.seconds {
        let i = costs.len();
        let t = Instant::now();
        let cost = if args.trace {
            rebuilt(problem(i), config, &policy, seed_of(i), &mut calls)
        } else {
            program(i)
        };
        episode_ms.push(t.elapsed().as_secs_f64() * 1e3);
        costs.push(cost);
    }
    let span = start.elapsed();
    nptsn_obs::set_enabled(false);
    spans.add(&nptsn_obs::drain());

    // Replay every episode through the other path.
    let mut scratch = CallTimes::default();
    let mut failed = 0u64;
    for (i, (cost, ms)) in costs.iter().zip(episode_ms.iter_mut()).enumerate() {
        let other = if args.trace {
            program(i)
        } else {
            rebuilt(problem(i), config, &policy, seed_of(i), &mut scratch)
        };
        if other != *cost {
            println!("perfbench: rollout: episode {i} cost {cost:?} != {other:?}");
            failed += 1;
            *ms = f64::INFINITY;
        }
    }
    let episodes = costs.len();
    let mut out = Outcome {
        attempted: episodes as u64,
        failed,
        ..Outcome::default()
    };
    println!(
        "perfbench: rollout: {episodes} episodes, {} with a plan",
        costs.iter().filter(|c| c.is_some()).count()
    );
    if args.trace {
        crate::layers::zero(&mut out);
        calls.report(&mut out);
        spans.report(&mut out, |s| s / episodes as f64);
        let best = costs
            .iter()
            .flatten()
            .copied()
            .fold(f64::INFINITY, f64::min);
        out.set(
            "planner.best_cost",
            if best.is_finite() { best } else { 0.0 },
        );
        out.set("trace.matches_program", f64::from(u8::from(failed == 0)));
        out.set("traced.op_ms_p50", report::median(&episode_ms));
        let total_s: f64 = episode_ms.iter().filter(|v| v.is_finite()).sum::<f64>() / 1e3;
        out.set("unexplained_share", 1.0 - calls.covered_s() / total_s);
    } else {
        let sorted = report::sorted(episode_ms);
        report::check_tail("rollout", episodes, TAIL);
        out.set("setup_s", setup_s);
        out.set("peak_rss_mb", report::peak_rss_mb(None));
        out.set("op_ms_p50", report::latency_ms(&sorted, 50.0, span));
        out.set("op_ms_tail", report::latency_ms(&sorted, TAIL, span));
    }
    out
}

/// One greedy episode from public calls, timing each; the cost of the
/// plan it found, if any.
fn rebuilt(
    problem: &PlanningProblem,
    config: &PlannerConfig,
    policy: &PolicyNetwork,
    seed: u64,
    calls: &mut CallTimes,
) -> Option<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cache = Arc::new(ScenarioCache::new());
    let analyzer = FailureAnalyzer::new()
        .with_workers(config.analyzer_workers)
        .with_shared_cache(Arc::clone(&cache));
    let mut env = calls.reset(|| {
        PlanningEnv::with_analyzer(
            problem.clone(),
            config.k_paths,
            config.reward_scaling,
            config.max_episode_steps,
            analyzer,
            &mut rng,
        )
    });
    let mut best: Option<f64> = None;
    loop {
        let mask = env.mask().to_vec();
        if mask.iter().all(|&m| !m) {
            break;
        }
        let (logps, _) = calls.evaluate(|| policy.evaluate(env.observation(), &mask));
        let (action, _) = nptsn_rl::best_action(&logps.to_vec());
        let outcome = calls.step(|| env.step(action, &mut rng));
        if let Some(sol) = outcome.solution {
            if best.is_none_or(|b| sol.cost < b) {
                best = Some(sol.cost);
            }
        }
        if outcome.done {
            break;
        }
    }
    calls.analyzer(env.scenarios_checked(), &cache.stats());
    best
}
