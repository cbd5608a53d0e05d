//! Per-layer accounting shared by the in-process workloads: timings of
//! calls into public functions, and self time of the spans the program
//! records, drained through `nptsn_obs` in traced runs.

use std::time::Instant;

use nptsn::CacheStats;

use crate::report::{Outcome, PER_LAYER};

/// Every per-layer metric at 0, for the layers a workload never runs.
pub fn zero(out: &mut Outcome) {
    for (name, _) in PER_LAYER {
        out.set(name, 0.0);
    }
}

/// Timings of environment, model and analyzer calls.
#[derive(Debug, Default)]
pub struct CallTimes {
    steps: u64,
    step_s: f64,
    resets: u64,
    reset_s: f64,
    evals: u64,
    eval_s: f64,
    scenarios: u64,
    cache_hits: u64,
    cache_misses: u64,
}

fn timed<T>(total: &mut f64, count: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let v = f();
    *total += t.elapsed().as_secs_f64();
    *count += 1;
    v
}

impl CallTimes {
    /// Times an environment reset (or a construction, which resets).
    pub fn reset<T>(&mut self, f: impl FnOnce() -> T) -> T {
        timed(&mut self.reset_s, &mut self.resets, f)
    }

    /// Times an environment step.
    pub fn step<T>(&mut self, f: impl FnOnce() -> T) -> T {
        timed(&mut self.step_s, &mut self.steps, f)
    }

    /// Times a policy forward.
    pub fn evaluate<T>(&mut self, f: impl FnOnce() -> T) -> T {
        timed(&mut self.eval_s, &mut self.evals, f)
    }

    /// Adds an environment's scenario count and its cache's counters.
    pub fn analyzer(&mut self, scenarios: u64, cache: &CacheStats) {
        self.scenarios += scenarios;
        self.cache_hits += cache.hits;
        self.cache_misses += cache.misses;
    }

    /// Folds another set of timings in.
    pub fn add(&mut self, o: &CallTimes) {
        self.steps += o.steps;
        self.step_s += o.step_s;
        self.resets += o.resets;
        self.reset_s += o.reset_s;
        self.evals += o.evals;
        self.eval_s += o.eval_s;
        self.scenarios += o.scenarios;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
    }

    /// Seconds spent inside the timed calls.
    pub fn covered_s(&self) -> f64 {
        self.step_s + self.reset_s + self.eval_s
    }

    /// Writes the environment, model and analyzer metrics.
    pub fn report(&self, out: &mut Outcome) {
        let per = |s: f64, n: u64| if n == 0 { 0.0 } else { s * 1e3 / n as f64 };
        out.set("env.step_ms", per(self.step_s, self.steps));
        out.set("env.reset_ms", per(self.reset_s, self.resets));
        out.set("model.evaluate_ms", per(self.eval_s, self.evals));
        // Every step and every reset runs one failure analysis.
        let analyses = (self.steps + self.resets).max(1);
        out.set(
            "analyzer.scenarios_per_step",
            self.scenarios as f64 / analyses as f64,
        );
        let lookups = (self.cache_hits + self.cache_misses).max(1);
        out.set(
            "analyzer.cache_hit_ratio",
            self.cache_hits as f64 / lookups as f64,
        );
    }
}

/// The program's own spans whose self time the traced runs report.
const SPANS: [(&str, &str); 5] = [
    ("ppo.backward", "span.ppo.backward_s"),
    ("gcn.forward", "span.gcn.forward_s"),
    ("adam.step", "span.adam.step_s"),
    ("analyzer.analyze", "span.analyzer.analyze_s"),
    ("soag.generate", "span.soag.generate_s"),
];

/// Self time per span name, summed over drained records.
#[derive(Debug, Default)]
pub struct SpanTotals {
    self_ns: [u64; SPANS.len()],
}

impl SpanTotals {
    /// Adds drained records.
    pub fn add(&mut self, records: &[nptsn_obs::Record]) {
        for stat in nptsn_obs::span_stats(records) {
            if let Some(i) = SPANS.iter().position(|(span, _)| *span == stat.name) {
                self.self_ns[i] += stat.self_ns;
            }
        }
    }

    /// Writes each span's self seconds per unit of work (`per` divides).
    pub fn report(&self, out: &mut Outcome, per: impl Fn(f64) -> f64) {
        for ((_, metric), ns) in SPANS.iter().zip(self.self_ns) {
            out.set(metric, per(ns as f64 / 1e9));
        }
    }
}
