//! `perfbench` — the end-to-end and per-layer benchmark of the PIM-STM
//! reproduction. See `README.md` beside this package for the workloads,
//! the metrics, what each layer metric should move, and how the fixed
//! rates were sized.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the per-layer
//! ones, and the spans are written as Chrome trace-event JSON under
//! `perfbench/out/`.

mod calib;
mod fleet;
mod service;
mod sim_sweep;
mod stats;
mod threads;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// The end-to-end metrics: `(name, unit)`. Every workload reports all of
/// them; README.md defines each one per workload.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("host_rate", "1/s"), ("p50_latency_us", "us")];

/// The per-layer metrics of the traced run: `(name, unit)`. A workload that
/// bypasses a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("sched.steps", "count"),
    ("sched.self_ns_per_step", "ns"),
    ("step.ns", "ns"),
    ("step.steps_per_commit", "count"),
    ("modeled.cycles_per_commit", "cycles"),
    ("modeled.dma_setups_per_commit", "count"),
    ("modeled.dma_words_per_commit", "count"),
    ("modeled.commit_ratio", "ratio"),
    ("modeled.tx_per_s", "tx/s"),
    ("build.us_per_cell", "us"),
    ("cache.us_per_cell", "us"),
    ("json.ms", "ms"),
    ("json.bytes", "bytes"),
    ("txops.read_ns", "ns"),
    ("txops.read_words_ns", "ns"),
    ("txops.write_ns", "ns"),
    ("tx.self_ns", "ns"),
    ("tx.attempts_per_commit", "count"),
    ("tx.backoff_share", "ratio"),
    ("tx.dma_setups_per_commit", "count"),
    ("svc.p50_us", "us"),
    ("svc.thr_p99_us", "us"),
    ("svc.samples", "count"),
    ("svc.queue_p50_us", "us"),
    ("svc.queue_p99_us", "us"),
    ("svc.service_p50_us", "us"),
    ("svc.abort_ratio", "ratio"),
    ("svc.achieved_over_offered", "ratio"),
    ("svc.capacity_rps", "1/s"),
    ("svc.modeled_p99_us", "us"),
    ("svc.modeled_max_rps", "1/s"),
    ("req.ns", "ns"),
    ("req.txops_per_request", "count"),
    ("fleet.rounds", "count"),
    ("fleet.host_ms_per_round", "ms"),
    ("fleet.transfer_bytes_per_commit", "bytes"),
    ("fleet.rebalances", "count"),
    ("fleet.imbalance_cv", "ratio"),
    ("svcfleet.rounds", "count"),
    ("svcfleet.host_ms_per_round", "ms"),
    ("svcfleet.modeled_p99_us", "us"),
    ("calib.load_seqcst_ns", "ns"),
    ("calib.load_acquire_ns", "ns"),
    ("calib.cas_ns", "ns"),
    ("calib.now_ns", "ns"),
    ("trace.overhead", "ratio"),
    ("failed_ratio", "ratio"),
];

/// Set-up repetitions before the first pass of a run.
pub const SETUP_REPS: usize = 21;

/// Workload names, in the order README.md lists them.
const WORKLOADS: [&str; 4] = ["sim-sweep", "threads-array", "service-kv", "fleet-skew"];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Cells, runs and checks attempted.
    pub attempted: u64,
    /// Of those, the ones that panicked or failed a check.
    pub failed: u64,
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Untraced host throughput (units per host second).
    pub host_rate: f64,
    /// Untraced median host latency of one result unit, microseconds.
    pub p50_latency_us: f64,
    /// Per-layer metrics (traced run only); missing names read 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// The workload's figures under their specific names,
    /// printed as `metric` lines: `(name, value, unit, note)`.
    pub named: Vec<(&'static str, f64, &'static str, String)>,
    /// Digest of every modeled statistic, when the workload has a model.
    pub digest: Option<u64>,
}

impl Outcome {
    /// Counts one attempt, failed or not.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown layer metric {name}");
        self.layers.insert(name, value);
    }

    /// Records a named figure for the `metric` lines.
    pub fn named(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.named.push((name, value, unit, note));
    }
}

/// A measurement window: loops run until it closes, but always at least
/// `min_passes` times.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    end: Instant,
}

impl Window {
    /// A window closing `seconds` from now.
    pub fn new(seconds: f64) -> Self {
        Window { end: Instant::now() + Duration::from_secs_f64(seconds.max(0.0)) }
    }

    /// Whether another pass should start after `passes` passes.
    pub fn more(&self, passes: usize, min_passes: usize) -> bool {
        passes < min_passes || Instant::now() < self.end
    }
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `f` `reps` times and returns the median wall time in seconds.
pub fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            secs(start)
        })
        .collect();
    stats::median(&times)
}

/// Set-up timings spread over a run: [`SETUP_REPS`] before the first pass
/// and one after every pass, so that `setup_s`, like the other metrics, is a
/// median over the whole run rather than over its first moments.
pub struct Setup<F> {
    build: F,
    times: Vec<f64>,
}

impl<F: FnMut()> Setup<F> {
    /// Times `build` [`SETUP_REPS`] times.
    pub fn new(build: F) -> Self {
        let mut setup = Setup { build, times: Vec::new() };
        for _ in 0..SETUP_REPS {
            setup.sample();
        }
        setup
    }

    /// Times `build` once more.
    pub fn sample(&mut self) {
        let start = Instant::now();
        (self.build)();
        self.times.push(secs(start));
    }

    /// Median of every timing, seconds.
    pub fn median(&self) -> f64 {
        stats::median(&self.times)
    }

    /// The note of the `setup_s` metric line.
    pub fn note(&self) -> String {
        format!("median of {} set-ups over the run", self.times.len())
    }
}

/// Runs `f`, turning a panic into `None` so that one bad cell counts as a
/// failure instead of ending the run.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Option<R> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must lie in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (want one of {})", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Formats a metric value with all its digits.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

fn result_json(args: &Args, outcome: &Outcome, correct: bool) -> String {
    let mut metrics = String::new();
    let mut push = |name: &str, value: f64, unit: &str| {
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ =
            write!(metrics, "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(value));
    };
    if args.trace {
        for (name, unit) in PER_LAYER {
            push(name, outcome.layers.get(name).copied().unwrap_or(0.0), unit);
        }
    } else {
        let values = [outcome.setup_s, outcome.host_rate, outcome.p50_latency_us];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            push(name, value, unit);
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    )
}

fn write_trace_file(args: &Args) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}.json", args.workload));
    std::fs::write(&path, trace::chrome_json(&args.workload, args.seed))?;
    Ok(path.display().to_string())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} (host threads available: {})",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut outcome = match args.workload.as_str() {
        "sim-sweep" => sim_sweep::run(&args),
        "threads-array" => threads::run(&args),
        "service-kv" => service::run(&args),
        "fleet-skew" => fleet::run(&args),
        _ => unreachable!("workload names are checked in parse_args"),
    };
    if args.trace {
        calib::measure(&mut outcome);
        outcome
            .layer("failed_ratio", stats::ratio(outcome.failed as f64, outcome.attempted as f64));
        trace::flush_thread();
        match write_trace_file(&args) {
            Ok(path) => eprintln!("perfbench: spans written to {path}"),
            Err(e) => {
                eprintln!("perfbench: cannot write the trace file: {e}");
                outcome.attempt(false);
            }
        }
    }
    let failed_ratio = stats::ratio(outcome.failed as f64, outcome.attempted as f64);
    outcome.named("failed_ratio", failed_ratio, "ratio", format!("n={}", outcome.attempted));
    for (name, value, unit, note) in &outcome.named {
        println!("metric {name} {} {unit} {note}", number(*value));
    }
    if let Some(digest) = outcome.digest {
        println!("modeled_digest {} seed {} {digest:016x}", args.workload, args.seed);
    }
    let host_figures = [outcome.setup_s, outcome.host_rate, outcome.p50_latency_us];
    let measured = host_figures.iter().all(|v| v.is_finite() && *v > 0.0);
    let correct = outcome.failed == 0 && outcome.attempted > 0 && measured;
    if !correct {
        eprintln!(
            "perfbench: run is not correct: {} of {} failed",
            outcome.failed, outcome.attempted
        );
    }
    println!("{}", result_json(&args, &outcome, correct));
}
