//! Metric names, units, summary statistics and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics: reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("compile_s", "s"),
    ("exec_s", "s"),
    ("plan_transfer_floats", "floats"),
    ("plan_sim_s", "sim_s"),
    ("peak_heap_mb", "MB"),
    ("req_per_s", "1/s"),
    ("req_p50_us", "us"),
    ("req_p99_us", "us"),
];

/// Per-layer metrics: reported by every workload with `--trace 1`; a
/// layer the workload leaves idle reads 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("graph_build.ms", "ms"),
    ("split.ms", "ms"),
    ("split.calls", "count"),
    ("split.ops_after", "count"),
    ("partition.ms", "ms"),
    ("partition.units", "count"),
    ("opschedule.ms", "ms"),
    ("xfer.ms", "ms"),
    ("xfer.steps", "count"),
    ("xfer.evictions", "count"),
    ("validate.ms", "ms"),
    ("validate.peak_heap_mb", "MB"),
    ("certify.ms", "ms"),
    ("stats.ms", "ms"),
    ("dry_run.ms", "ms"),
    ("emit.ms", "ms"),
    ("emit.bytes", "bytes"),
    ("ladder.attempts", "count"),
    ("ladder.accept_ratio", "ratio"),
    ("compile.traced_s", "s"),
    ("compile.unaccounted_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("functional.exec_ms", "ms"),
    ("functional.reference_ms", "ms"),
    ("functional.overhead_ratio", "ratio"),
    ("kernel.conv.ms", "ms"),
    ("kernel.remap.ms", "ms"),
    ("kernel.max.ms", "ms"),
    ("kernel.add.ms", "ms"),
    ("kernel.bias.ms", "ms"),
    ("kernel.tanh.ms", "ms"),
    ("kernel.pool.ms", "ms"),
    ("kernel.other.ms", "ms"),
    ("kernel.gmac_per_s", "GMAC/s"),
    ("net.connect_us", "us"),
    ("net.transport_us", "us"),
    ("protocol.parse_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.incremental", "count"),
    ("cache.evictions", "count"),
    ("handler.hit_us", "us"),
    ("handler.miss_us", "us"),
    ("handler.run_us", "us"),
    ("admission.queue_wait_p99_us", "us"),
    ("admission.rejects", "count"),
    ("serve.heap_growth_kb_per_kreq", "KB/kreq"),
    ("serve.phase.cache-probe.p50_us", "us"),
    ("serve.phase.queue-wait.p50_us", "us"),
    ("serve.phase.compile.p50_us", "us"),
    ("serve.phase.execute.p50_us", "us"),
    ("serve.phase.total.p50_us", "us"),
    ("serve.requests", "count"),
    ("mix.hit_share", "ratio"),
    ("mix.run_share", "ratio"),
    ("mix.novel_share", "ratio"),
    ("mix.fresh_share", "ratio"),
];

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentile `p` in `[0, 1]`, interpolating linearly between the two
/// closest ranks; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Mean of `values` without the lowest and highest tenth (at least one
/// value each side from three values on); 0 when empty. Unlike the
/// median it moves smoothly with the share of slow samples, so when a
/// shared machine alternates between a fast and a slow phase it does not
/// jump from one phase's time to the other's as that share crosses half.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = if n >= 3 { (n / 10).max(1) } else { 0 };
    let kept = &v[cut..n - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Sum over items of each item's [`trimmed_mean`]: the time of one pass
/// in which every item took its typical time.
pub fn sum_of_trimmed_means(samples: &[Vec<f64>]) -> f64 {
    samples.iter().map(|s| trimmed_mean(s)).sum()
}

/// Set the request metrics of a workload that runs a fixed list of
/// operations per pass, from each operation's latency samples (seconds).
/// Percentiles are taken over each operation's typical latency, its
/// [`trimmed_mean`], so one slow pass on a noisy machine does not decide
/// the tail; throughput is operations per second of a pass where each
/// took its typical time.
pub fn set_pass_latencies(r: &mut Report, samples: &[Vec<f64>]) {
    let typical_us: Vec<f64> = samples.iter().map(|s| trimmed_mean(s) * 1e6).collect();
    r.set(
        "req_per_s",
        samples.len() as f64 / sum_of_trimmed_means(samples),
    );
    r.set("req_p50_us", percentile(&typical_us, 0.50));
    r.set("req_p99_us", percentile(&typical_us, 0.99));
}

/// Bytes to MiB.
pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// One run's outcome: correctness, operation counts and metric values.
#[derive(Debug, Default)]
pub struct Report {
    failed: u64,
    attempted: u64,
    /// Correctness-check failures; any makes the run incorrect.
    errors: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    /// Human-only lines printed before the result (cross-checks, notes).
    notes: Vec<String>,
}

impl Report {
    /// Record a metric value. `name` must be one of the declared metrics.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Count one operation; `ok == false` counts it as failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record a failed correctness check.
    pub fn fail(&mut self, msg: String) {
        eprintln!("ledger: correctness check failed: {msg}");
        self.errors.push(msg);
    }

    /// A check: records `msg` as a failure when `ok` is false.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) -> bool {
        if !ok {
            self.fail(msg());
        }
        ok
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Print every recorded metric and note for people, then the result
    /// line: the declared metric set for this mode, every value as
    /// measured.
    pub fn print(&self, workload: &str, traced: bool) {
        let declared: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        println!(
            "workload {workload} ({})",
            if traced { "traced" } else { "untraced" }
        );
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<34} {:>16} ratio",
            "error_rate",
            format!("{error_rate}")
        );
        for (name, unit) in declared {
            println!("  {name:<34} {:>16} {unit}", format!("{}", self.get(name)));
        }
        for n in &self.notes {
            println!("  {n}");
        }
        let metrics: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                format!(
                    r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                    self.get(name)
                )
            })
            .collect();
        println!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.5);
    }

    #[test]
    fn trimmed_mean_drops_the_outer_tenths() {
        assert_eq!(trimmed_mean(&[]), 0.0);
        assert_eq!(trimmed_mean(&[1.0, 3.0]), 2.0);
        assert_eq!(trimmed_mean(&[9.0, 1.0, 2.0]), 2.0);
        let mut v: Vec<f64> = (1..=18).map(f64::from).collect();
        v.extend([1000.0, -1000.0]);
        assert_eq!(trimmed_mean(&v), 9.5);
        assert_eq!(sum_of_trimmed_means(&[vec![5.0, 1.0, 2.0], vec![4.0]]), 6.0);
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = gpuflow_minijson::parse(&text).expect("valid JSON");
        for (key, declared) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_array())
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let want: Vec<(String, String)> = declared
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, want, "{key} differs from the code");
        }
    }
}
