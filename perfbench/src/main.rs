//! The repository benchmark's measuring binary.
//!
//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one named workload (see [`WORKLOADS`]) in repeats until `S`
//! seconds have been spent, checks the program's outputs, and prints one
//! JSON result line last on stdout:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end set; with `--trace 1`
//! the run alternates untraced and traced repeats and reports the
//! per-layer set. Progress and diagnostics go to stderr. The exit code is
//! non-zero when any output check failed.
//!
//! `run.py` next to this crate builds it and wraps it with a hard wall-clock
//! deadline; see `NOTES.md` for the workloads and metric definitions.

mod calib;
mod nodebench;
mod report;
mod simbench;
mod span;

use std::time::Instant;

use report::Outcome;

/// One named workload with the reason it is in the benchmark.
pub struct Workload {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// Why this workload is here (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    run: fn(&Args) -> Outcome,
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "node-clean",
        why: "tva-node bare forwarding of ~50 B frames from 128 legit flows: the nonce fast path, \
              wire codec, SPSC ring and regular DRR do the work; crypto and the request channel \
              idle.",
        run: |a| nodebench::run(&nodebench::NODE_CLEAN, a),
    },
    Workload {
        name: "node-flood",
        why: "tva-node under the dirty mix with 16,384 flows: validation hashing, demotion, the \
              request key table, decode rejects and flow records dominate; flow state exceeds L2.",
        run: |a| nodebench::run(&nodebench::NODE_FLOOD, a),
    },
    Workload {
        name: "sim-dumbbell",
        why: "The fig8 dumbbell (10 users, 100 legacy flooders, 10 Mb/s TVA bottleneck): engine \
              dispatch, TCP, host shim and TVA scheduler with small state; codec and ring unused.",
        run: |a| simbench::run(simbench::Shape::Dumbbell, a),
    },
    Workload {
        name: "sim-tree",
        why:
            "A 100k-host TVA tree with 10k request flooders: topology build, memory and an engine \
              working set beyond CPU caches dominate; TCP is a small share.",
        run: |a| simbench::run(simbench::Shape::Tree, a),
    },
];

/// Parsed command line.
pub struct Args {
    /// The workload seed: every generated input derives from it.
    pub seed: u64,
    /// How long to keep starting measured repeats.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// When the run started.
    pub start: Instant,
}

impl Args {
    /// Whether another repeat should start: always until `min_repeats`
    /// have run, then while the measuring window lasts.
    pub fn more(&self, done: usize, min_repeats: usize) -> bool {
        done < min_repeats || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join("|")
    );
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let name = value("--workload").unwrap_or_else(|| usage("--workload is required"));
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| usage(&format!("unknown workload {name:?}")));
    let seed: u64 = value("--seed")
        .unwrap_or_else(|| usage("--seed is required"))
        .parse()
        .unwrap_or_else(|_| usage("--seed must be a whole number"));
    let seconds: f64 = value("--seconds")
        .unwrap_or("10")
        .parse()
        .ok()
        .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
        .unwrap_or_else(|| usage("--seconds must be in (0, 600]"));
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => usage("--trace must be 0 or 1"),
    };
    let args = Args {
        seed,
        seconds,
        trace,
        start: Instant::now(),
    };
    eprintln!(
        "perfbench: {} seed {seed}, {seconds}s, trace {}: {}",
        workload.name,
        u8::from(trace),
        workload.why
    );
    let mut outcome = (workload.run)(&args);
    println!("{}", outcome.finish());
    std::process::exit(if outcome.correct { 0 } else { 1 });
}
