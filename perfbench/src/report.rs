//! Metric tables, the percentile helper, provenance and the result line.
//!
//! Every run prints exactly the metrics of one table: [`END_TO_END`]
//! without tracing, [`PER_LAYER`] with it. The tables are the single
//! source of metric names and units; `BENCHMARK.json` must list the same
//! names with the same units (checked by this module's tests).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Metrics of the untraced run: what a user of the planner or the fleet
/// sees. Every workload reports each of them for its own unit of work
/// (train: a PPO epoch; rollout: a greedy episode; fleet: a job).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
];

/// Metrics of the traced run. A workload that does not exercise a layer
/// reports 0 for it. Times named `*_s` are seconds per unit of work.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rl.ppo_update_s", "s"),
    ("rl.ppo_iter_ms", "ms"),
    ("rl.policy_iters", "count"),
    ("rl.update_over_forward", "ratio"),
    ("planner.rollout_s", "s"),
    ("planner.best_cost", "cost"),
    ("env.step_ms", "ms"),
    ("env.reset_ms", "ms"),
    ("model.evaluate_ms", "ms"),
    ("analyzer.scenarios_per_step", "count"),
    ("analyzer.cache_hit_ratio", "ratio"),
    ("span.ppo.backward_s", "s"),
    ("span.gcn.forward_s", "s"),
    ("span.adam.step_s", "s"),
    ("span.analyzer.analyze_s", "s"),
    ("span.soag.generate_s", "s"),
    ("router.request_ms", "ms"),
    ("router.forward_ms", "ms"),
    ("shard.request_ms.submit", "ms"),
    ("shard.request_ms.poll", "ms"),
    ("client.ack_ms_p50", "ms"),
    ("client.poll_ms_p50", "ms"),
    ("client.polls_per_job", "count"),
    ("job.queue_wait_ms", "ms"),
    ("job.run_ms.verify", "ms"),
    ("job.run_ms.infer", "ms"),
    ("infer.batch_size_mean", "count"),
    ("router.forward_errors", "count"),
    ("jobs.rejected", "count"),
    ("generator.lag_ms_max", "ms"),
    ("generator.behind", "bool"),
    ("trace.matches_program", "bool"),
    ("traced.op_ms_p50", "ms"),
    ("unexplained_share", "ratio"),
];

/// Percentiles the tail helper may pick, highest first.
const LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Nearest-rank index (1-based) of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    // The epsilon keeps float error (99.9% of 10 000 is 9990.000…02) from
    // rounding an exact rank up.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of ascending `sorted` samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()) - 1]
}

/// The highest percentile of the ladder that leaves at least 10 of `n`
/// samples beyond it, or `None` when even the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER.iter().copied().find(|&p| n >= rank(p, n) + 10)
}

/// Sorts latencies ascending; failed operations are `f64::INFINITY`, so
/// they land beyond every percentile a successful one reaches.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of unsorted samples (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// Mean of samples (0 for none).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// A latency percentile for the result line. A failed operation misses
/// every latency limit; when the percentile lands on one, the run's whole
/// measured span is reported instead of infinity.
pub fn latency_ms(sorted: &[f64], p: f64, span: Duration) -> f64 {
    let v = percentile(sorted, p);
    if v.is_finite() {
        v
    } else {
        span.as_secs_f64() * 1e3
    }
}

/// Percentile `p` of each of `windows` consecutive, equal slices of
/// `in_order` (operations in the order they were due). Failed operations
/// are `f64::INFINITY` and count as `span`.
pub fn per_window_ms(in_order: &[f64], windows: usize, p: f64, span: Duration) -> Vec<f64> {
    let len = in_order.len().div_ceil(windows.max(1)).max(1);
    in_order
        .chunks(len)
        .map(|w| latency_ms(&sorted(w.to_vec()), p, span))
        .collect()
}

/// The median of `per_window` over the `k` windows with the least
/// `disturbance` (ties go to the earlier window).
pub fn quietest_median(per_window: &[f64], disturbance: &[f64], k: usize) -> f64 {
    let mut order: Vec<usize> = (0..per_window.len().min(disturbance.len())).collect();
    order.sort_by(|&a, &b| disturbance[a].total_cmp(&disturbance[b]).then(a.cmp(&b)));
    let chosen: Vec<f64> = order
        .iter()
        .take(k.max(1))
        .map(|&w| per_window[w])
        .collect();
    median(&chosen)
}

/// Checks that the workload measured enough operations for the tail it
/// reports, and says so on stdout when it did not.
pub fn check_tail(workload: &str, n: usize, p: f64) {
    match tail_percentile(n) {
        Some(best) if best >= p => {}
        best => println!(
            "perfbench: {workload}: only {n} operations; p{p} needs 10 beyond it \
             (highest supported: {best:?})"
        ),
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (epochs, episodes or jobs).
    pub attempted: u64,
    /// Operations that failed or whose output did not check out.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// exactly the metrics of `table`, each with its unit.
///
/// # Errors
///
/// Names a metric of the table the run did not measure, a measured one
/// the table lacks, or a non-finite value.
pub fn result_line(outcome: &Outcome, table: &[(&str, &str)]) -> Result<String, String> {
    if let Some(extra) = outcome
        .metrics
        .keys()
        .find(|k| !table.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {extra} is not in the table"));
    }
    let mut body = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = *outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} missing"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    ))
}

/// Peak resident set of a process in MB (`VmHWM`), 0 when unreadable.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The revision the benchmark was built from: the git commit when the
/// checkout carries its metadata, otherwise a hash of the sources.
fn revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    if let Some(reference) = head.strip_prefix("ref: ") {
        if let Ok(commit) = std::fs::read_to_string(format!(".git/{reference}")) {
            return commit.trim().to_string();
        }
    } else if !head.is_empty() {
        return head.to_string();
    }
    let mut files = Vec::new();
    collect_sources(std::path::Path::new("crates"), &mut files);
    collect_sources(std::path::Path::new("perfbench/src"), &mut files);
    files.sort();
    // FNV-1a over paths and contents.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in &files {
        let bytes = std::fs::read(file).unwrap_or_default();
        for b in file.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-{hash:016x}")
}

fn collect_sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// UTC date and time of `t` as `YYYY-MM-DDTHH:MM:SSZ`.
pub fn utc(t: SystemTime) -> String {
    let secs = t.duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil-from-days (Howard Hinnant's algorithm).
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3_600,
        rem % 3_600 / 60,
        rem % 60
    )
}

/// The provenance line printed before the result: revision, cores, date,
/// workload, seed, run length and trace mode.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "perfbench: provenance {{\"revision\": \"{}\", \"cores\": {cores}, \"date\": \"{}\", \
         \"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"runs\": 1}}",
        revision(),
        utc(SystemTime::now())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        // The pick really has 10 samples beyond it.
        for n in 1..3_000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - rank(p, n) >= 10, "n {n} p {p}");
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank_and_failures_sort_last() {
        let s = sorted(vec![3.0, f64::INFINITY, 1.0, 2.0]);
        assert_eq!(percentile(&s, 50.0), 2.0);
        assert_eq!(percentile(&s, 75.0), 3.0);
        assert_eq!(percentile(&s, 100.0), f64::INFINITY);
        assert_eq!(latency_ms(&s, 100.0, Duration::from_secs(2)), 2_000.0);
    }

    #[test]
    fn window_figures_come_from_the_quietest_windows() {
        // Four windows of 25; the third is slow.
        let mut v: Vec<f64> = (0..100).map(|i| f64::from(i % 25)).collect();
        for x in &mut v[50..75] {
            *x += 1_000.0;
        }
        // A failure makes its window's maximum the whole span (1 s).
        v[0] = f64::INFINITY;
        let span = Duration::from_secs(1);
        assert_eq!(
            per_window_ms(&v, 4, 50.0, span),
            vec![13.0, 12.0, 1_012.0, 12.0]
        );
        assert_eq!(
            per_window_ms(&v, 4, 100.0, span),
            vec![1_000.0, 24.0, 1_024.0, 24.0]
        );
        let p50s = per_window_ms(&v, 4, 50.0, span);
        // The disturbed window is left out when quieter ones exist...
        assert_eq!(quietest_median(&p50s, &[0.01, 0.02, 0.20, 0.01], 2), 12.0);
        // ...and counts when it is among the quietest.
        assert_eq!(
            quietest_median(&p50s, &[0.30, 0.20, 0.01, 0.40], 1),
            1_012.0
        );
    }

    #[test]
    fn result_line_needs_every_metric_of_its_table() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            outcome.set(name, 1.5);
        }
        let line = result_line(&outcome, END_TO_END).unwrap();
        let doc = nptsn_obs::json::parse(&line).unwrap();
        let metrics = doc.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).unwrap_or_else(|| panic!("{name} absent"));
            assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(*unit));
            assert_eq!(m.get("value").and_then(|v| v.as_num()), Some(1.5));
        }
        outcome.metrics.remove("op_ms_tail");
        assert!(result_line(&outcome, END_TO_END).is_err());
        outcome.set("op_ms_tail", 1.0);
        outcome.set("not_a_metric", 1.0);
        assert!(result_line(&outcome, END_TO_END).is_err());
    }

    /// `BENCHMARK.json` lists exactly the metrics of the two tables, with
    /// the same units, so every named metric appears in a run's output.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = nptsn_obs::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn utc_formats_known_instants() {
        assert_eq!(utc(UNIX_EPOCH), "1970-01-01T00:00:00Z");
        let t = UNIX_EPOCH + Duration::from_secs(951_782_400 + 3_661);
        assert_eq!(utc(t), "2000-02-29T01:01:01Z");
    }
}
