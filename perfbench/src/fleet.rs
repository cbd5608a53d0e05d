//! `fleet-verify-infer`: an open loop of verify and infer jobs through the
//! router (replication 2) in front of two durable shard processes with one
//! worker each.
//!
//! Jobs are due at a fixed rate regardless of how the fleet keeps up. One
//! connection submits, a second polls `GET /jobs/<id>` until each job is
//! done; a job's time runs from when it was due to when the poller sees it
//! done. Job execution costs little, so HTTP, the forward hop, durable
//! writes, the replica mirror and the queue carry the time. The latency
//! metrics come from the windows of the run in which the host stole the
//! least CPU time (see [`WINDOWS`]). After the load
//! stops every result is checked against the in-process analyzer and
//! planner, and the traced run reads per-job traces and `/metrics` deltas
//! through the router.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use nptsn::{FailureAnalyzer, Planner, PlannerConfig};
use nptsn_bench::fleet::{spawn_named_shard, ShardProc};
use nptsn_format::{parse_plan, parse_problem};
use nptsn_obs::json::{self, Value};
use nptsn_router::{Router, RouterConfig, ShardSpec};
use nptsn_serve::Client;

use crate::inputs::{checkpoint_problem, fleet_jobs, FleetJob, CHECKPOINT};
use crate::report::{self, Outcome};
use crate::{repeated_setup, Args};

/// Jobs due per second: well below the 2-client closed-loop capacity
/// (800–1000 jobs/s on 2 cores), so the queue stays short.
const RATE: u64 = 200;
/// The run is cut into this many windows by due time, and the latency
/// metrics are the median, over the [`QUIET_WINDOWS`] windows in which the
/// hypervisor stole the least CPU time, of each window's figure. On a
/// shared host, spells of seconds in which other tenants take 10–25% of
/// the CPU stretch the fleet's chain of thread wake-ups two- to
/// threefold; the windows they cover say more about the neighbours than
/// about the program.
const WINDOWS: usize = 40;
const QUIET_WINDOWS: usize = 8;
/// The tail percentile of a window: a 20 s run gives 100-job windows, and
/// p90 is the highest percentile with 10 jobs beyond it there.
const TAIL: f64 = 90.0;
/// How long after the load stops an acked job may take to finish before
/// it counts as lost.
const DRAIN: Duration = Duration::from_secs(30);
/// The poller's pause after a pass that found no job done.
const POLL_PAUSE: Duration = Duration::from_micros(200);
/// Jobs whose traces the traced run reads.
const TRACED_JOBS: usize = 64;
/// A generator whose p99 lag exceeds this fell behind its schedule.
const BEHIND_MS: f64 = 5.0;
/// Where shard data lives, relative to the checkout root.
const WORK_DIR: &str = ".perfbench-work";

/// The router and its two shard processes.
struct Fleet {
    router: Option<Router>,
    shards: Vec<ShardProc>,
    dir: PathBuf,
}

impl Fleet {
    fn start(dir: PathBuf) -> Fleet {
        let _ = std::fs::remove_dir_all(&dir);
        let names = ["s0", "s1"];
        let mut shards = Vec::new();
        let mut specs = Vec::new();
        for name in names {
            let data = dir.join(name);
            std::fs::create_dir_all(&data).expect("create shard data dir");
            let shard = spawn_named_shard(Some(&data), 1, 1024, Some(name));
            specs.push(ShardSpec {
                name: name.into(),
                addr: shard.addr,
                data_dir: Some(data),
            });
            shards.push(shard);
        }
        let router = Router::bind(RouterConfig {
            shards: specs,
            replication_factor: 2,
            ..RouterConfig::default()
        })
        .expect("bind router");
        Fleet {
            router: Some(router),
            shards,
            dir,
        }
    }

    fn addr(&self) -> SocketAddr {
        self.router
            .as_ref()
            .expect("router runs until drop")
            .local_addr()
    }

    /// Peak RSS of the shard processes, in MB.
    fn shards_peak_rss_mb(&self) -> f64 {
        self.shards
            .iter()
            .map(|s| report::peak_rss_mb(Some(s.pid())))
            .sum()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        if let Some(router) = self.router.take() {
            let _ = Client::new(router.local_addr()).post("/shutdown", &[]);
            router.wait();
        }
        for shard in &mut self.shards {
            if Client::new(shard.addr).post("/shutdown", &[]).is_ok() {
                shard.join();
            } else {
                shard.kill9();
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        // Gone once the last fleet of the process is.
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

/// The planner configuration a service job uses (the `quick`
/// architecture), so the checkpoint restores into every infer job and the
/// in-process reference plans exactly as the shard does.
fn service_config(seed: u64, epochs: usize, steps: usize) -> PlannerConfig {
    PlannerConfig {
        max_epochs: epochs,
        steps_per_epoch: steps,
        seed,
        analyzer_workers: 1,
        ..PlannerConfig::quick()
    }
}

fn train_checkpoint() -> Vec<u8> {
    let parsed = parse_problem(&checkpoint_problem()).expect("checkpoint problem parses");
    Planner::new(parsed.problem, service_config(0, 1, 64))
        .run()
        .policy_checkpoint
}

/// One job as the client saw it.
#[derive(Debug, Clone)]
struct Seen {
    id: u64,
    due: Instant,
    acked: Instant,
    done: Option<Instant>,
    polls: u32,
    ok: bool,
    /// The job's result as the client reads it once done: the `/result`
    /// document of a verify job, the status snapshot of an infer job.
    result: String,
}

fn json_field(text: &str, key: &str) -> Option<Value> {
    json::parse(text).ok()?.get(key).cloned()
}

/// What the submitter saw.
struct Submitted {
    lag_ms: Vec<f64>,
    ack_ms: Vec<f64>,
    refused: u64,
    /// The share of the machine's CPU time the hypervisor stole during
    /// each window.
    stolen: Vec<f64>,
}

/// Submits every job at its due time on one connection; hands acked ids
/// to the poller.
fn submit_loop(
    addr: SocketAddr,
    jobs: &[FleetJob],
    t0: Instant,
    acked: &mpsc::Sender<(usize, Seen)>,
) -> Submitted {
    let mut client = Client::new(addr);
    let (mut lag_ms, mut ack_ms, mut refused) = (Vec::new(), Vec::new(), 0);
    let window = jobs.len().div_ceil(WINDOWS).max(1);
    let mut ticks = Vec::with_capacity(WINDOWS + 1);
    for (i, job) in jobs.iter().enumerate() {
        if i % window == 0 {
            ticks.push(cpu_ticks());
        }
        let due = t0 + Duration::from_nanos(i as u64 * 1_000_000_000 / RATE);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let response = client.post(&job.path, job.body.as_bytes());
        let at = Instant::now();
        lag_ms.push((sent - due).as_secs_f64() * 1e3);
        ack_ms.push((at - sent).as_secs_f64() * 1e3);
        let id = match &response {
            Ok(r) if r.status == 202 => json_field(&r.text(), "id").and_then(|v| v.as_num()),
            _ => None,
        };
        match id {
            Some(id) => {
                let seen = Seen {
                    id: id as u64,
                    due,
                    acked: at,
                    done: None,
                    polls: 0,
                    ok: true,
                    result: String::new(),
                };
                let _ = acked.send((i, seen));
            }
            None => {
                println!(
                    "perfbench: fleet: job {i} refused: {:?}",
                    response.map(|r| r.text())
                );
                refused += 1;
            }
        }
    }
    ticks.push(cpu_ticks());
    let stolen = ticks
        .windows(2)
        .map(|w| (w[1].0 - w[0].0) as f64 / (w[1].1 - w[0].1).max(1) as f64)
        .collect();
    Submitted {
        lag_ms,
        ack_ms,
        refused,
        stolen,
    }
}

/// Polls every acked job until it is terminal, on one connection, and
/// reads each finished verify job's result there: a job's record may be
/// retired from the shard (bounded retention) before the load stops. A
/// pass over the pending jobs that finds none done pauses [`POLL_PAUSE`],
/// so the poller's own load cannot grow without bound with a backlog.
fn poll_loop(
    addr: SocketAddr,
    jobs: &[FleetJob],
    acked: mpsc::Receiver<(usize, Seen)>,
) -> (Vec<(usize, Seen)>, Vec<f64>) {
    let mut client = Client::new(addr);
    let mut pending: Vec<(usize, Seen)> = Vec::new();
    let mut finished = Vec::new();
    let mut poll_ms = Vec::new();
    let mut submitting = true;
    let mut deadline = None;
    loop {
        if pending.is_empty() && submitting {
            match acked.recv() {
                Ok(job) => pending.push(job),
                Err(_) => submitting = false,
            }
        }
        loop {
            match acked.try_recv() {
                Ok(job) => pending.push(job),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    submitting = false;
                    break;
                }
            }
        }
        if !submitting && pending.is_empty() {
            break;
        }
        if !submitting && deadline.is_none() {
            deadline = Some(Instant::now() + DRAIN);
        }
        if deadline.is_some_and(|d| Instant::now() > d) {
            for (i, mut seen) in pending.drain(..) {
                println!("perfbench: fleet: acked job {i} (id {}) lost", seen.id);
                seen.ok = false;
                finished.push((i, seen));
            }
            break;
        }
        let finished_before = finished.len();
        let mut k = 0;
        while k < pending.len() {
            let t = Instant::now();
            let response = client.get(&format!("/jobs/{}", pending[k].1.id));
            let at = Instant::now();
            poll_ms.push((at - t).as_secs_f64() * 1e3);
            pending[k].1.polls += 1;
            let text = match &response {
                Ok(r) if r.status == 200 => r.text(),
                _ => String::new(),
            };
            let state = json_field(&text, "state").and_then(|v| v.as_str().map(str::to_string));
            match state.as_deref() {
                Some("done") | Some("failed") | Some("cancelled") => {
                    let (i, mut seen) = pending.swap_remove(k);
                    seen.done = Some(at);
                    seen.ok = state.as_deref() == Some("done");
                    seen.result = if jobs[i].kind == "verify" {
                        let path = format!("/jobs/{}/result", seen.id);
                        client.get(&path).map(|r| r.text()).unwrap_or_default()
                    } else {
                        text
                    };
                    finished.push((i, seen));
                }
                _ => k += 1,
            }
        }
        if finished.len() == finished_before && !pending.is_empty() {
            std::thread::sleep(POLL_PAUSE);
        }
    }
    (finished, poll_ms)
}

/// Checks one finished job's result against the in-process program.
fn check(job: &FleetJob, seen: &Seen, checkpoint: &[u8]) -> Result<(), String> {
    let (id, text) = (seen.id, &seen.result);
    let parsed = parse_problem(&job.problem)?;
    if job.kind == "verify" {
        let plan = parse_plan(&parsed, &job.body[job.problem.len() + 1..])?;
        let expected = FailureAnalyzer::new()
            .try_analyze(&parsed.problem, &plan)
            .map_err(|e| e.to_string())?;
        let reliable = json_field(text, "reliable").and_then(|v| match v {
            Value::Bool(b) => Some(b),
            _ => None,
        });
        let scenarios = json_field(text, "scenarios_checked").and_then(|v| v.as_num());
        if reliable != Some(expected.verdict.is_reliable())
            || scenarios != Some(expected.scenarios_checked as f64)
        {
            return Err(format!(
                "verify job {id}: {text} != reliable {} scenarios {}",
                expected.verdict.is_reliable(),
                expected.scenarios_checked
            ));
        }
    } else {
        let planner = Planner::new(parsed.problem, service_config(job.seed, 1, 1));
        let policy = planner.build_policy();
        nptsn_nn::params_from_bytes(&nptsn_nn::Module::parameters(&policy), checkpoint)
            .map_err(|e| e.to_string())?;
        let expected = planner
            .plan_with_policy(&policy, job.attempts, job.seed)
            .map(|s| s.cost);
        let cost = json_field(text, "cost").and_then(|v| v.as_num());
        if cost != expected {
            return Err(format!("infer job {id}: {text} != cost {expected:?}"));
        }
    }
    Ok(())
}

/// Sums every sample of each metric family in a Prometheus exposition.
fn scrape(addr: SocketAddr) -> BTreeMap<String, f64> {
    let text = Client::new(addr)
        .get("/metrics")
        .map(|r| r.text())
        .unwrap_or_default();
    let mut sums = BTreeMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let name = series.split('{').next().unwrap_or(series);
        if let Ok(v) = value.parse::<f64>() {
            *sums.entry(name.to_string()).or_insert(0.0) += v;
        }
    }
    sums
}

/// `(steal, total)` CPU ticks of the machine so far (`/proc/stat`).
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Runs the workload.
pub fn run(args: &Args, started: Instant) -> Outcome {
    let mut round = 0;
    let ((fleet, checkpoint), setup_s) = repeated_setup(started, || {
        round += 1;
        let dir = Path::new(WORK_DIR).join(format!("fleet-{}-{round}", std::process::id()));
        let fleet = Fleet::start(dir);
        let checkpoint = train_checkpoint();
        let put = Client::new(fleet.addr())
            .put(&format!("/checkpoints/{CHECKPOINT}"), &checkpoint)
            .expect("register checkpoint");
        assert!(
            put.status < 300,
            "checkpoint refused: {} {}",
            put.status,
            put.text()
        );
        (fleet, checkpoint)
    });
    let addr = fleet.addr();
    let count = (RATE * args.seconds.as_secs()) as usize;
    let jobs = fleet_jobs(args.seed, count);
    let before = scrape(addr);

    let t0 = Instant::now() + Duration::from_millis(5);
    let (tx, rx) = mpsc::channel();
    let (submitted, (finished, poll_ms)) = std::thread::scope(|scope| {
        let jobs = &jobs;
        let poller = scope.spawn(move || poll_loop(addr, jobs, rx));
        let submitted = submit_loop(addr, jobs, t0, &tx);
        drop(tx);
        (submitted, poller.join().expect("poller panicked"))
    });
    let span = t0.elapsed();
    let Submitted {
        lag_ms,
        ack_ms,
        refused,
        stolen,
    } = submitted;
    // Read the flight rings before anything else adds to them.
    let rings = args.trace.then(|| {
        let shards: Vec<SocketAddr> = fleet.shards.iter().map(|s| s.addr).collect();
        (
            flight(addr),
            shards.into_iter().map(flight).collect::<Vec<_>>(),
        )
    });

    let mut failed = refused;
    // In due order; a refused, failed or wrong job stays infinite.
    let mut job_ms = vec![f64::INFINITY; jobs.len()];
    for (i, seen) in &finished {
        let verdict = if seen.ok {
            check(&jobs[*i], seen, &checkpoint)
        } else {
            Err(format!("job {i} (id {}) did not finish done", seen.id))
        };
        match (verdict, seen.done) {
            (Ok(()), Some(done)) => job_ms[*i] = (done - seen.due).as_secs_f64() * 1e3,
            (verdict, _) => {
                if let Err(e) = verdict {
                    println!("perfbench: fleet: {e}");
                }
                failed += 1;
            }
        }
    }
    let p50s = report::per_window_ms(&job_ms, WINDOWS, 50.0, span);
    let p90s = report::per_window_ms(&job_ms, WINDOWS, TAIL, span);
    let quiet = |per_window: &[f64]| report::quietest_median(per_window, &stolen, QUIET_WINDOWS);
    let by_window: Vec<String> = p50s
        .iter()
        .zip(&stolen)
        .map(|(ms, s)| format!("{ms:.2}/{:.0}%", s * 100.0))
        .collect();
    let acks = report::sorted(ack_ms.clone());
    println!(
        "perfbench: fleet: job p50 / CPU stolen by window {}; ack p50 {:.2} ms, p99 {:.2} ms",
        by_window.join(" "),
        report::percentile(&acks, 50.0),
        report::percentile(&acks, 99.0)
    );
    let lag = report::sorted(lag_ms.clone());
    let behind = report::percentile(&lag, 99.0) > BEHIND_MS;
    println!(
        "perfbench: fleet: {} jobs due at {RATE}/s, {} finished, generator lag p50 {:.3} ms \
         p99 {:.3} ms max {:.3} ms{}",
        jobs.len(),
        finished.len(),
        report::percentile(&lag, 50.0),
        report::percentile(&lag, 99.0),
        report::percentile(&lag, 100.0),
        if behind {
            " (generator fell behind)"
        } else {
            ""
        }
    );

    let mut out = Outcome {
        attempted: jobs.len() as u64,
        failed,
        ..Outcome::default()
    };
    if args.trace {
        crate::layers::zero(&mut out);
        let after = scrape(addr);
        let delta = |name: &str| {
            after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
        };
        let batches = delta("nptsn_infer_batch_size_count");
        out.set(
            "infer.batch_size_mean",
            if batches > 0.0 {
                delta("nptsn_infer_batch_size_sum") / batches
            } else {
                0.0
            },
        );
        out.set(
            "router.forward_errors",
            delta("nptsn_router_forward_errors_total"),
        );
        out.set("jobs.rejected", delta("nptsn_fleet_jobs_rejected_total"));
        out.set("client.ack_ms_p50", report::median(&ack_ms));
        out.set("client.poll_ms_p50", report::median(&poll_ms));
        let polls: u32 = finished.iter().map(|(_, s)| s.polls).sum();
        out.set(
            "client.polls_per_job",
            f64::from(polls) / finished.len().max(1) as f64,
        );
        out.set("generator.lag_ms_max", report::percentile(&lag, 100.0));
        out.set("generator.behind", f64::from(u8::from(behind)));
        let (router, shards) = rings.expect("traced runs read the rings");
        layers(
            &mut out,
            &mut Client::new(addr),
            &router,
            &shards,
            &finished,
            &jobs,
            report::median(&poll_ms),
        );
        out.set("traced.op_ms_p50", quiet(&p50s));
        out.set("trace.matches_program", f64::from(u8::from(failed == 0)));
    } else {
        report::check_tail("fleet", job_ms.len() / WINDOWS, TAIL);
        out.set("setup_s", setup_s);
        out.set(
            "peak_rss_mb",
            report::peak_rss_mb(None) + fleet.shards_peak_rss_mb(),
        );
        out.set("op_ms_p50", quiet(&p50s));
        out.set("op_ms_tail", quiet(&p90s));
    }
    out
}

/// One span of a flight ring, in nanoseconds of its process's clock.
#[derive(Debug, Clone)]
struct FlightSpan {
    name: String,
    tid: u64,
    start: f64,
    end: f64,
    trace: String,
}

/// The spans in a process's flight ring (`GET /debug/flight`).
fn flight(addr: SocketAddr) -> Vec<FlightSpan> {
    let text = Client::new(addr)
        .get("/debug/flight")
        .map(|r| r.text())
        .unwrap_or_default();
    let Ok(doc) = json::parse(&text) else {
        return Vec::new();
    };
    let entries = doc
        .get("entries")
        .and_then(|e| e.as_arr())
        .unwrap_or_default();
    entries
        .iter()
        .filter(|e| e.get("kind").and_then(|v| v.as_str()) == Some("span"))
        .filter_map(|e| {
            let num = |k: &str| e.get(k).and_then(|v| v.as_num());
            let start = num("ts_ns")?;
            Some(FlightSpan {
                name: e.get("name")?.as_str()?.to_string(),
                tid: num("tid")? as u64,
                start,
                end: start + num("dur_ns")?,
                trace: e
                    .get("trace")
                    .and_then(|v| v.as_str())
                    .unwrap_or("")
                    .to_string(),
            })
        })
        .collect()
}

/// `job.run` of a job from its persisted timeline (`GET /jobs/<id>/trace`
/// through the router), as start and end in nanoseconds of the shard's
/// clock. A batched infer job runs under `job.infer_batch` and has none.
fn job_run(client: &mut Client, id: u64) -> Option<(f64, f64)> {
    let text = client.get(&format!("/jobs/{id}/trace")).ok()?.text();
    let doc = json::parse(&text).ok()?;
    let events = doc.get("traceEvents")?.as_arr()?;
    // Process 1 is the router; the shards follow.
    let run = events.iter().find(|e| {
        e.get("name").and_then(|v| v.as_str()) == Some("job.run")
            && e.get("pid")
                .and_then(|v| v.as_num())
                .is_some_and(|pid| pid > 1.0)
    })?;
    let start = run.get("ts")?.as_num()? * 1e3;
    Some((start, start + run.get("dur")?.as_num()? * 1e3))
}

/// Splits the last [`TRACED_JOBS`] finished jobs into layers. Requests
/// come from the flight rings of the router and the shards, read when the
/// load stopped: the spans each process recorded under the job's trace id
/// (`nptsn_router::trace_for_job`). `job.run` comes from the job's
/// persisted timeline, since a busy worker's ring segment wraps within a
/// few jobs; the timeline in turn lacks the submit request of a job that
/// finished before its submit returned, which the ring keeps.
fn layers(
    out: &mut Outcome,
    client: &mut Client,
    router: &[FlightSpan],
    shards: &[Vec<FlightSpan>],
    finished: &[(usize, Seen)],
    jobs: &[FleetJob],
    poll_ms: f64,
) {
    let mut sampled: Vec<&(usize, Seen)> = finished.iter().filter(|(_, s)| s.ok).collect();
    sampled.sort_by_key(|(i, _)| *i);
    let sampled = &sampled[sampled.len().saturating_sub(TRACED_JOBS)..];
    let ms = |ns: f64| ns / 1e6;
    let mut layer: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut covered, mut total, mut split) = (0.0, 0.0, 0);
    for (i, seen) in sampled {
        let trace = format!("{:032x}", nptsn_router::trace_for_job(seen.id).trace_id);
        let of = |spans: &[FlightSpan], name: &str| -> Vec<FlightSpan> {
            let mut v: Vec<FlightSpan> = spans
                .iter()
                .filter(|s| s.trace == trace && s.name == name)
                .cloned()
                .collect();
            v.sort_by(|a, b| a.start.total_cmp(&b.start));
            v
        };
        // The first forward of the job is its submit.
        if let Some(fwd) = of(router, "router.forward").first() {
            layer
                .entry("router.forward_ms")
                .or_default()
                .push(ms(fwd.end - fwd.start));
            let request = router.iter().find(|r| {
                r.name == "router.request"
                    && r.tid == fwd.tid
                    && r.start <= fwd.start
                    && r.end >= fwd.end
            });
            if let Some(r) = request {
                layer
                    .entry("router.request_ms")
                    .or_default()
                    .push(ms(r.end - r.start));
            }
        }
        // Only the shard that owns the job records requests on its trace;
        // the first is the submit, every later one a poll or the result
        // read.
        let Some(requests) = shards
            .iter()
            .map(|ring| of(ring, "http.request"))
            .find(|r| !r.is_empty())
        else {
            continue;
        };
        let submit = &requests[0];
        let Some((run_start, run_end)) = job_run(client, seen.id) else {
            continue;
        };
        layer
            .entry("shard.request_ms.submit")
            .or_default()
            .push(ms(submit.end - submit.start));
        for poll in &requests[1..] {
            layer
                .entry("shard.request_ms.poll")
                .or_default()
                .push(ms(poll.end - poll.start));
        }
        let wait = ms((run_start - submit.end).max(0.0));
        layer.entry("job.queue_wait_ms").or_default().push(wait);
        let kind = if jobs[*i].kind == "verify" {
            "job.run_ms.verify"
        } else {
            "job.run_ms.infer"
        };
        layer.entry(kind).or_default().push(ms(run_end - run_start));
        // Covered: the generator's lag, the submit round trip, the job's
        // shard time after its submit returned, and the poll that saw it
        // done. What is left is mostly the wait for that poll.
        let done = seen.done.expect("finished jobs have a done time");
        let client_ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        total += client_ms(seen.due, done);
        covered += client_ms(seen.due, seen.acked) + ms((run_end - submit.end).max(0.0)) + poll_ms;
        split += 1;
    }
    for (name, values) in layer {
        out.set(name, report::mean(&values));
    }
    println!(
        "perfbench: fleet: {split} of {} sampled jobs split into layers",
        sampled.len()
    );
    out.set(
        "unexplained_share",
        if total > 0.0 {
            1.0 - covered / total
        } else {
            0.0
        },
    );
}
