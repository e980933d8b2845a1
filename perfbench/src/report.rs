//! The human-readable report and the closing JSON line.

use crate::stats::{quantile, Summary};
use crate::workloads::{Episode, Workload};

/// One reported metric: its value plus how it was obtained.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Quartiles and sample count, or how an exact value was counted.
    pub detail: String,
}

impl Metric {
    /// A median with its quartiles over `what` (episodes, rounds, calls).
    pub fn summary(name: &'static str, unit: &'static str, s: Summary, what: &str) -> Metric {
        Metric {
            name,
            unit,
            value: s.median,
            detail: format!(
                "median of {} {what}; q1 {} q3 {}",
                s.n,
                fmt(s.q1),
                fmt(s.q3)
            ),
        }
    }

    /// The `p`-th percentile of `samples`.
    pub fn tail(name: &'static str, unit: &'static str, samples: &[f64], p: f64) -> Metric {
        let beyond = samples.len() as f64 * (1.0 - p / 100.0);
        Metric {
            name,
            unit,
            value: quantile(samples, p / 100.0),
            detail: format!("p{p} of {} rounds (~{beyond:.0} beyond it)", samples.len()),
        }
    }

    /// A value computed exactly (a count or a ratio of counts).
    pub fn exact(name: &'static str, unit: &'static str, value: f64, how: &str) -> Metric {
        Metric {
            name,
            unit,
            value,
            detail: how.to_string(),
        }
    }
}

fn fmt(v: f64) -> String {
    if v == 0.0 || (v.abs() >= 1e-3 && v.abs() < 1e7) {
        format!("{v:.4}")
    } else {
        format!("{v:.4e}")
    }
}

/// Collects the report and prints it as the run goes.
pub struct Report {
    workload: Workload,
    seed: u64,
    trace: bool,
    metrics: Vec<(String, String, f64)>,
    correct: bool,
    attempted: u64,
    failed: u64,
}

impl Report {
    pub fn new(workload: Workload, seed: u64, trace: bool) -> Report {
        Report {
            workload,
            seed,
            trace,
            metrics: Vec::new(),
            correct: false,
            attempted: 0,
            failed: 0,
        }
    }

    pub fn header(&self) {
        let w = self.workload;
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
        println!(
            "perfbench · workload {} · seed {} · trace {}",
            w.name(),
            self.seed,
            u8::from(self.trace)
        );
        println!(
            "host: cores {cores} · simd_backend {} · thread budget {} (RFL_THREADS {}) · \
             RFL_NET_THREADS {} · commit {}",
            rfl_tensor::simd_backend(),
            rfl_tensor::thread_budget(),
            env("RFL_THREADS"),
            env("RFL_NET_THREADS"),
            commit()
        );
        println!(
            "workload: {} · {} rounds per episode · eval every {} · target accuracy {}",
            w.make_algorithm().name(),
            w.rounds(),
            w.eval_every(),
            w.target_acc()
        );
        if w == Workload::RemoteTcp {
            println!(
                "remote plane: {} load-generator threads, one loopback TCP connection each; \
                 the client replicas share the server's process, so peak_rss_mb covers both",
                crate::workloads::LOAD_CONNECTIONS
            );
        }
    }

    pub fn episodes(&self, eps: &[Episode]) {
        let traced = eps.iter().filter(|e| !e.spans.is_empty()).count();
        println!(
            "episodes: {} ({} traced), each a fresh set-up plus {} rounds; {} round samples; \
             load side {} threads",
            eps.len(),
            traced,
            self.workload.rounds(),
            eps.iter().map(|e| e.round_ms.len()).sum::<usize>(),
            eps.iter().map(|e| e.load_threads).max().unwrap_or(0)
        );
        let e = &eps[0];
        println!(
            "episode 0 (reference draw, seed {}): final train loss {:.9} (f32 bits {:#010x}) · \
             final accuracy {:.4} · {} persisted clients",
            e.seed,
            e.losses.last().copied().unwrap_or(f32::NAN),
            e.losses.last().map_or(0, |l| l.to_bits()),
            e.final_acc,
            e.persisted
        );
        let curve: Vec<String> = e
            .acc_curve
            .iter()
            .map(|(r, a)| format!("{}:{a:.3}", r + 1))
            .collect();
        println!("episode 0 test accuracy after round: {}", curve.join(" "));
        let seeds: Vec<String> = eps.iter().map(|e| e.seed.to_string()).collect();
        let rates: Vec<String> = eps
            .iter()
            .map(|e| format!("{:.2}", e.round_ms.len() as f64 / e.run_s))
            .collect();
        println!("episode seeds: {}", seeds.join(" "));
        println!("episode rounds/s: {}", rates.join(" "));
    }

    pub fn participations(&self, eps: &[Episode], failures: &[String]) {
        let attempted: u64 = eps.iter().map(|e| e.attempted).sum();
        let delivered: u64 = eps.iter().map(|e| e.delivered).sum();
        println!("participations: {delivered} delivered of {attempted} selected");
        if failures.is_empty() {
            println!("output check: passed");
        }
        for f in failures {
            println!("output check FAILED: {f}");
        }
    }

    /// Prints `metrics`, which must be exactly the metrics `expected` names,
    /// in that order.
    pub fn metrics(&mut self, metrics: &[Metric], expected: &[&str]) {
        let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            names, expected,
            "metric list out of step with BENCHMARK.json"
        );
        for m in metrics {
            println!(
                "{:<34} {:>14} {:<9} {}",
                m.name,
                fmt(m.value),
                m.unit,
                m.detail
            );
            self.metrics
                .push((m.name.to_string(), m.unit.to_string(), m.value));
        }
    }

    /// Records the outcome; a failed output check fails every participation.
    pub fn set_result(&mut self, failures: &[String], attempted: u64, failed: u64) {
        self.correct = failures.is_empty();
        self.attempted = attempted.max(1);
        self.failed = if self.correct { failed } else { self.attempted };
    }

    /// Prints the closing JSON line.
    pub fn finish(&self) {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// The checked-out commit, read from `.git` in the working directory.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (no .git in the working directory)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unknown ({reference} unresolved)"))
}
