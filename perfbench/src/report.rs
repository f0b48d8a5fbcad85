//! The result line, the statistics behind it, and the checks that decide
//! `correct`.

/// The end-to-end metrics (`--trace 0`), with units, in `BENCHMARK.json`
/// order. Every workload reports every one of them; `NOTES.md` defines
/// each for the node and the simulator workloads.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("fwd_mpps", "Mpps"),
    ("sim_mevents_per_s", "M/s"),
    ("lat_p50_us", "us"),
    ("legit_ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics (`--trace 1`), with units, in `BENCHMARK.json`
/// order. A layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pktgen.ns_per_frame", "ns"),
    ("ring.rx_ns_per_frame", "ns"),
    ("ring.tx_ns_per_frame", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("wire.malformed_frac", "frac"),
    ("router.process_ns", "ns"),
    ("router.process_ns.nonce_hit", "ns"),
    ("router.process_ns.validated", "ns"),
    ("router.process_ns.request", "ns"),
    ("router.process_ns.demoted", "ns"),
    ("router.process_ns.legacy", "ns"),
    ("router.on_packet_ns", "ns"),
    ("router.nonce_hit_ratio", "frac"),
    ("router.full_validations_per_kframe", "count/kframe"),
    ("router.stamps_per_kframe", "count/kframe"),
    ("router.demotions_per_kframe", "count/kframe"),
    ("flowtable.entries", "count"),
    ("flowtable.state_bytes", "bytes"),
    ("sched.enqueue_ns", "ns"),
    ("sched.dequeue_ns", "ns"),
    ("sched.drop_frac", "frac"),
    ("sched.depth_max_pkts", "pkts"),
    ("droptail.enqueue_ns", "ns"),
    ("droptail.dequeue_ns", "ns"),
    ("obs.flow_records", "count"),
    ("openloop.lat_p99_us", "us"),
    ("openloop.lat_p999_us", "us"),
    ("openloop.gen_lag_p50_us", "us"),
    ("openloop.gen_lag_p99_us", "us"),
    ("openloop.loss_frac", "frac"),
    ("engine.events", "count"),
    ("engine.self_ns_per_event", "ns"),
    ("host.callback_ns", "ns"),
    ("flood.callback_ns", "ns"),
    ("topology.build_s", "s"),
    ("topology.nodes", "count"),
    ("topology.channels", "count"),
    ("legit_loss_frac", "frac"),
    ("transfer_fail_frac", "frac"),
    ("calib.slowness", "x"),
    ("trace.coverage", "frac"),
    ("trace.overhead_pct", "%"),
];

/// What one run prints: the output checks' verdict, the operation counts,
/// and the metrics.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (frames offered, or legit transfers resolved).
    pub attempted: u64,
    /// Operations that failed (legit frames lost or demoted, frames not
    /// accounted for, or aborted transfers).
    pub failed: u64,
    trace: bool,
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// An outcome whose checks have passed so far, reporting the per-layer
    /// set when `trace`, else the end-to-end set.
    pub fn new(trace: bool) -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            trace,
            metrics: Vec::new(),
        }
    }

    /// Sets one metric. Metrics outside the run's set are ignored, so a
    /// driver may compute both sets and let the run pick.
    pub fn set(&mut self, name: &'static str, value: f64) {
        if self.names().any(|&(n, _)| n == name) {
            self.metrics.retain(|m| m.0 != name);
            self.metrics.push((name, value));
        }
    }

    fn names(&self) -> impl Iterator<Item = &'static (&'static str, &'static str)> {
        if self.trace { PER_LAYER } else { END_TO_END }.iter()
    }

    /// Records a failed output check: the run is not correct, and says why
    /// on stderr.
    pub fn fail(&mut self, why: impl AsRef<str>) {
        eprintln!("perfbench: CHECK FAILED: {}", why.as_ref());
        self.correct = false;
    }

    /// Fails the run unless `a == b`.
    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, a: T, b: T) {
        if a != b {
            self.fail(format!("{what}: {a:?} != {b:?}"));
        }
    }

    /// The result line. An end-to-end metric the run did not set, or one
    /// that is not a finite number, fails the run; a per-layer metric the
    /// run did not set is a layer the workload does not use and reads 0.
    pub fn finish(&mut self) -> String {
        let mut fields = Vec::new();
        let mut missing = Vec::new();
        for &(name, unit) in self.names() {
            let v = match self.metrics.iter().find(|m| m.0 == name) {
                Some(&(_, v)) if v.is_finite() => v,
                _ if self.trace => 0.0,
                _ => {
                    missing.push(name);
                    0.0
                }
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        if self.correct && !missing.is_empty() {
            self.fail(format!("metrics not measured: {missing:?}"));
        }
        if self.attempted == 0 {
            self.fail("no operation was attempted");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

/// Median of `xs` (mean of the middle pair for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile of `xs` by linear interpolation between order
/// statistics; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Exact quantile of integer samples (nanoseconds), selected in place.
pub fn quantile_u64(xs: &mut [u64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let idx = ((xs.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    let (_, v, _) = xs.select_nth_unstable(idx);
    *v as f64
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload does not use).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set in MiB (`VmHWM`); 0 when procfs is
/// unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Derives an independent 64-bit value from the workload seed for one
/// consumer (`stream`), so the router secret, the generator and the engine
/// each get their own input from one `--seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    tva_sim::splitmix64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}
