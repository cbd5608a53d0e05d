//! Seeded inputs. Everything a workload hands the program is generated
//! here from the run's seed, so the same seed gives byte-identical inputs.

use std::fmt::Write as _;

use nptsn::{PlannerConfig, PlanningProblem};
use nptsn_format::{parse_problem, write_plan};
use nptsn_rand::rngs::StdRng;
use nptsn_rand::{Rng, SeedableRng};
use nptsn_scenarios::{orion, random_flows};
use nptsn_topo::Asil;

/// ORION with `flows` seeded flows (Table I library, `R = 1e-6`,
/// shortest-path recovery).
pub fn orion_problem(flows: usize, seed: u64) -> PlanningProblem {
    let scenario = orion();
    let flows = random_flows(&scenario.graph, flows, seed);
    nptsn_bench::problem_for(&scenario, flows)
}

/// `count` ORION problems, each with its own `flows` seeded flows.
pub fn orion_problems(flows: usize, count: usize, seed: u64) -> Vec<PlanningProblem> {
    let scenario = orion();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let flows = random_flows(&scenario.graph, flows, rng.gen_range(0..u64::MAX));
            nptsn_bench::problem_for(&scenario, flows)
        })
        .collect()
}

/// The planner configuration of the train and rollout workloads: Table II
/// except an MLP of 128×128 and 6/6 PPO iterations, 256 steps per epoch,
/// 2 rollout workers and 1 analyzer worker.
pub fn planner_config(seed: u64) -> PlannerConfig {
    PlannerConfig {
        // Runs stop on the clock, long before this.
        max_epochs: 1_000,
        workers: 2,
        analyzer_workers: 1,
        seed,
        ..nptsn_bench::bench_config(1, 256)
    }
}

/// The end stations and switches of the fleet's one graph.
const FLEET_STATIONS: usize = 6;
const FLEET_SWITCHES: usize = 3;

/// The fleet graph's problem document with the given flows
/// `(source, destination, period_us, frame_bytes)`: every end station may
/// attach to every switch, and the switches may form a triangle.
pub fn fleet_problem_text(flows: &[(usize, usize, u64, u64)]) -> String {
    let mut doc = String::from(
        "[tas]\nbase_period_us = 500\nslots = 20\nbandwidth_mbps = 1000\n\n\
         [reliability]\ngoal = 1e-6\n\n[nodes]\n",
    );
    for es in 0..FLEET_STATIONS {
        let _ = writeln!(doc, "es es{es}");
    }
    for sw in 0..FLEET_SWITCHES {
        let _ = writeln!(doc, "sw sw{sw}");
    }
    doc.push_str("\n[links]\n");
    for es in 0..FLEET_STATIONS {
        for sw in 0..FLEET_SWITCHES {
            let _ = writeln!(doc, "es{es} sw{sw} 1.0");
        }
    }
    for a in 0..FLEET_SWITCHES {
        for b in a + 1..FLEET_SWITCHES {
            let _ = writeln!(doc, "sw{a} sw{b} 1.0");
        }
    }
    doc.push_str("\n[flows]\n");
    for (s, d, period, bytes) in flows {
        let _ = writeln!(doc, "es{s} es{d} {period} {bytes}");
    }
    doc
}

fn fleet_flows(rng: &mut StdRng) -> Vec<(usize, usize, u64, u64)> {
    let count = rng.gen_range(2..5usize);
    (0..count)
        .map(|_| {
            let s = rng.gen_range(0..FLEET_STATIONS);
            let d = (s + rng.gen_range(1..FLEET_STATIONS)) % FLEET_STATIONS;
            let period = if rng.gen_bool(0.5) { 500 } else { 250 };
            let bytes = [128, 256, 512][rng.gen_range(0..3usize)];
            (s, d, period, bytes)
        })
        .collect()
}

/// One fleet job: the request the open loop sends.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetJob {
    /// `verify` or `infer`.
    pub kind: &'static str,
    /// Request path with query.
    pub path: String,
    /// Request body.
    pub body: String,
    /// The problem document (the whole body of an infer job).
    pub problem: String,
    /// Infer episodes and their first seed.
    pub attempts: usize,
    /// Seed of the first infer episode.
    pub seed: u64,
}

/// The name the fleet's one checkpoint is registered under.
pub const CHECKPOINT: &str = "perfbench";

/// The fleet's seeded job mix: about three verify jobs to one infer job,
/// each on its own small problem over the fleet graph. A verify job checks
/// a seeded plan: a random subset of switches at random ASILs, each end
/// station wired to up to two of them.
pub fn fleet_jobs(seed: u64, count: usize) -> Vec<FleetJob> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6a6f_6273);
    (0..count)
        .map(|_| {
            let problem = fleet_problem_text(&fleet_flows(&mut rng));
            if rng.gen_range(0..4u32) == 0 {
                let attempts = rng.gen_range(1..3usize);
                let job_seed = rng.gen_range(0..1_000_000u64);
                FleetJob {
                    kind: "infer",
                    path: format!(
                        "/jobs/infer?checkpoint={CHECKPOINT}&attempts={attempts}&seed={job_seed}"
                    ),
                    body: problem.clone(),
                    problem,
                    attempts,
                    seed: job_seed,
                }
            } else {
                let plan = random_plan(&problem, &mut rng);
                FleetJob {
                    kind: "verify",
                    path: "/jobs/verify".to_string(),
                    body: format!("{problem}\n{plan}"),
                    problem,
                    attempts: 0,
                    seed: 0,
                }
            }
        })
        .collect()
}

fn random_plan(problem: &str, rng: &mut StdRng) -> String {
    let parsed = parse_problem(problem).expect("generated problems parse");
    let gc = parsed.problem.connection_graph();
    let mut topology = gc.empty_topology();
    let switches: Vec<_> = gc.switches().to_vec();
    let mut chosen: Vec<_> = switches
        .iter()
        .copied()
        .filter(|_| rng.gen_bool(0.8))
        .collect();
    if chosen.is_empty() {
        chosen.push(switches[rng.gen_range(0..switches.len())]);
    }
    for &sw in &chosen {
        let asil = [Asil::A, Asil::B, Asil::C, Asil::D][rng.gen_range(0..4usize)];
        topology.add_switch(sw, asil).expect("fresh switch");
    }
    for &es in gc.end_stations() {
        let first = rng.gen_range(0..chosen.len());
        for k in 0..chosen.len().min(2) {
            // A refused link (degree limit) simply stays out of the plan.
            let _ = topology.add_link(es, chosen[(first + k) % chosen.len()]);
        }
    }
    for (i, &a) in chosen.iter().enumerate() {
        for &b in &chosen[i + 1..] {
            if rng.gen_bool(0.7) {
                let _ = topology.add_link(a, b);
            }
        }
    }
    write_plan(&topology)
}

/// The problem the fleet's checkpoint is trained on. It is the same for
/// every run, like the rollout's policy: how long an infer job runs depends
/// on the policy, and a policy drawn per seed would move the fleet's
/// latency from run to run.
pub fn checkpoint_problem() -> String {
    let mut rng = StdRng::seed_from_u64(0x636b_7074);
    fleet_problem_text(&fleet_flows(&mut rng))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flows_text(problem: &PlanningProblem) -> String {
        format!("{:?}", problem.flows())
    }

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        for seed in [0, 7, 123_456] {
            assert_eq!(
                flows_text(&orion_problem(20, seed)),
                flows_text(&orion_problem(20, seed))
            );
            let pool = |s| {
                orion_problems(40, 4, s)
                    .iter()
                    .map(flows_text)
                    .collect::<Vec<_>>()
            };
            assert_eq!(pool(seed), pool(seed));
            assert_eq!(fleet_jobs(seed, 64), fleet_jobs(seed, 64));
            assert_eq!(
                format!("{:?}", planner_config(seed)),
                format!("{:?}", planner_config(seed))
            );
        }
        assert_ne!(
            flows_text(&orion_problem(40, 1)),
            flows_text(&orion_problem(40, 2))
        );
        assert_ne!(fleet_jobs(1, 64), fleet_jobs(2, 64));
    }

    #[test]
    fn the_job_mix_is_about_three_verify_to_one_infer_and_parses() {
        let jobs = fleet_jobs(3, 400);
        let infer = jobs.iter().filter(|j| j.kind == "infer").count();
        assert!((70..=130).contains(&infer), "{infer} infer jobs of 400");
        for job in &jobs {
            let parsed = parse_problem(&job.problem).expect("problem parses");
            if job.kind == "verify" {
                let plan = &job.body[job.problem.len() + 1..];
                nptsn_format::parse_plan(&parsed, plan).expect("plan parses");
            }
        }
        // A prefix of a longer mix is the shorter mix: the job count only
        // decides where the stream stops.
        assert_eq!(fleet_jobs(3, 100), jobs[..100]);
    }
}
