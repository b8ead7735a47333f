//! `threads-array`: ArrayBench on real threads.
//!
//! Each pass runs both ArrayBench halves on every STM design of
//! [`DESIGNS`] through `array_bench::run_threaded`, MRAM metadata, two
//! tasklets pinned as `ThreadedDpu` pins them, each cell on a freshly built
//! `ThreadedDpu`. Half A is ArrayBench-A (five 20-word record reads and 20
//! read-modify-writes per transaction: read-dominated); half B is
//! ArrayBench-B (4 read-modify-writes on 10 entries: lock- and
//! commit-dominated). The two halves share a pass so that a change that
//! speeds reads but slows commits moves one of the per-half rates against
//! the other. Nothing here touches the simulator's scheduler.
//!
//! The traced run drives the same `ArrayBenchBody` through
//! `TaskletTx::transaction` with every `TxOps` call wrapped in a span,
//! which is what `run_threaded` does minus the wrapper.

use std::time::Instant;

use pim_sim::Addr;
use pim_stm::threaded::ThreadedDpu;
use pim_stm::{Abort, ExecProfile, MetadataPlacement, StmKind, TxOps};
use pim_workloads::array_bench::{self, ArrayBenchBody, ArrayBenchConfig, ArrayBenchData};
use pim_workloads::driver::tasklet_rng;
use pim_workloads::{BodyStep, RunSpec, TxBody, Workload};

use crate::stats;
use crate::trace::{self, Layer};
use crate::{guarded, secs, Args, Outcome, Setup, Window};

/// Real-thread runs use two tasklets: one per core of a 2-core host.
pub const TASKLETS: usize = 2;

/// The designs measured on real threads: every `StmKind` but Tiny ETLWT.
///
/// Tiny ETLWT is left out because it is not correct on real threads. An
/// aborted write-through attempt restores its data and then releases each
/// ORec with the version it held before locking. A concurrent reader whose
/// ORec sample, data load and re-check straddle that lock/abort window sees
/// the same ORec twice and accepts the rolled-back value, so one
/// read-modify-write is applied twice (`update region 160001 of 160000` on
/// ArrayBench-B). The simulator sweep still runs all seven designs.
pub const DESIGNS: [StmKind; 6] = [
    StmKind::TinyCtlWb,
    StmKind::TinyEtlWb,
    StmKind::Norec,
    StmKind::VrEtlWt,
    StmKind::VrEtlWb,
    StmKind::VrCtlWb,
];

/// One ArrayBench half.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Half {
    /// ArrayBench-A: read-dominated.
    A,
    /// ArrayBench-B: contended read-modify-writes.
    B,
}

/// Both halves, in the order a pass runs them.
const HALVES: [Half; 2] = [Half::A, Half::B];

impl Half {
    fn workload(self) -> Workload {
        match self {
            Half::A => Workload::ArrayA,
            Half::B => Workload::ArrayB,
        }
    }

    /// The paper's configuration with `transactions_per_tasklet` raised so
    /// one design's run lasts about a tenth of a second on a 2-core host.
    fn config(self) -> ArrayBenchConfig {
        match self {
            Half::A => ArrayBenchConfig {
                transactions_per_tasklet: 4_000,
                ..ArrayBenchConfig::workload_a()
            },
            Half::B => ArrayBenchConfig {
                transactions_per_tasklet: 20_000,
                ..ArrayBenchConfig::workload_b()
            },
        }
    }

    /// The name of the half's own rate in the `metric` lines.
    fn name(self) -> &'static str {
        match self {
            Half::A => "thr_read_tx_per_s",
            Half::B => "thr_rmw_tx_per_s",
        }
    }
}

fn new_dpu(half: Half, kind: StmKind) -> ThreadedDpu {
    let stm = RunSpec::new(half.workload(), kind, MetadataPlacement::Mram, TASKLETS).stm_config();
    ThreadedDpu::new(stm).expect("ArrayBench STM metadata fits the default threaded DPU")
}

/// A `TxOps` that times every call as one span and delegates it.
struct TracedOps<'a, O: TxOps> {
    /// The wrapped operations.
    inner: &'a mut O,
    /// Cell or request id recorded on each span.
    item: u64,
}

impl<O: TxOps> TxOps for TracedOps<'_, O> {
    fn read_word(&mut self, addr: Addr) -> Result<u64, Abort> {
        let _span = trace::span(Layer::ReadWord, self.item);
        self.inner.read_word(addr)
    }

    fn write_word(&mut self, addr: Addr, value: u64) -> Result<(), Abort> {
        let _span = trace::span(Layer::Write, self.item);
        self.inner.write_word(addr, value)
    }

    fn read_words(&mut self, addr: Addr, out: &mut [u64]) -> Result<(), Abort> {
        let _span = trace::span(Layer::ReadWords, self.item);
        self.inner.read_words(addr, out)
    }

    fn write_words(&mut self, addr: Addr, values: &[u64]) -> Result<(), Abort> {
        let _span = trace::span(Layer::Write, self.item);
        self.inner.write_words(addr, values)
    }

    fn compute(&mut self, instructions: u64) {
        let _span = trace::span(Layer::OtherOps, self.item);
        self.inner.compute(instructions)
    }

    fn tasklet_id(&self) -> usize {
        self.inner.tasklet_id()
    }

    fn cancel(&mut self) -> Abort {
        let _span = trace::span(Layer::OtherOps, self.item);
        self.inner.cancel()
    }

    fn raw_load(&mut self, addr: Addr) -> u64 {
        let _span = trace::span(Layer::OtherOps, self.item);
        self.inner.raw_load(addr)
    }

    fn raw_store(&mut self, addr: Addr, value: u64) {
        let _span = trace::span(Layer::OtherOps, self.item);
        self.inner.raw_store(addr, value)
    }

    fn raw_copy(&mut self, src: Addr, dst: Addr, words: u32) {
        let _span = trace::span(Layer::OtherOps, self.item);
        self.inner.raw_copy(src, dst, words)
    }
}

/// Drives `body` to commit inside `TaskletTx::transaction`, as
/// `run_tx_body` does, with every `TxOps` call traced.
pub fn traced_tx_body<B: TxBody>(
    tasklet: &mut pim_stm::threaded::TaskletTx<'_>,
    body: &mut B,
    layer: Layer,
    item: u64,
) {
    let _span = trace::span(layer, item);
    tasklet.transaction(|tx| {
        let mut ops = TracedOps { inner: tx, item };
        body.reset();
        loop {
            if body.step(&mut ops)? == BodyStep::Done {
                return Ok(());
            }
        }
    });
}

/// The traced counterpart of `array_bench::run_threaded`.
fn run_traced(
    dpu: &mut ThreadedDpu,
    config: ArrayBenchConfig,
    seed: u64,
    cell: u64,
) -> (ArrayBenchData, pim_stm::threaded::ThreadedRunReport) {
    let data = ArrayBenchData::allocate(dpu, config);
    let report = dpu
        .run(TASKLETS, |mut tasklet| {
            let mut rng = tasklet_rng(seed, tasklet.tasklet_id());
            let mut body = ArrayBenchBody::new(data);
            for _ in 0..config.transactions_per_tasklet {
                body.prepare(&mut rng);
                traced_tx_body(&mut tasklet, &mut body, Layer::Transaction, cell);
            }
            trace::flush_thread();
        })
        .expect("two tasklets are schedulable");
    (data, report)
}

/// Totals of one pass: both halves on every design of [`DESIGNS`].
#[derive(Debug, Default)]
struct PassResult {
    /// Host time of the cells that passed their checks, per half.
    seconds: [f64; 2],
    /// Commits of those cells, per half.
    commits: [u64; 2],
    aborts: u64,
    cells: u64,
    failed: u64,
    profiles: Vec<ExecProfile>,
}

impl PassResult {
    fn seconds(&self) -> f64 {
        self.seconds.iter().sum()
    }

    fn commits(&self) -> u64 {
        self.commits.iter().sum()
    }
}

fn pass(seed: u64, traced: bool, pass_id: u64) -> PassResult {
    let mut result = PassResult::default();
    for (h, half) in HALVES.into_iter().enumerate() {
        let config = half.config();
        for (i, kind) in DESIGNS.into_iter().enumerate() {
            let cell = (pass_id << 16) | (h * DESIGNS.len() + i) as u64;
            let mut dpu = new_dpu(half, kind);
            let start = Instant::now();
            let run = guarded(|| {
                if traced {
                    run_traced(&mut dpu, config, seed, cell)
                } else {
                    array_bench::run_threaded(&mut dpu, config, TASKLETS, seed)
                        .expect("two tasklets are schedulable")
                }
            });
            let seconds = secs(start);
            result.cells += 1;
            let Some((data, report)) = run else {
                result.failed += 1;
                continue;
            };
            // Every transaction commits once and applies its updates exactly once.
            let commits = u64::from(config.transactions_per_tasklet) * TASKLETS as u64;
            let sum = data.update_region_sum(&dpu);
            let expected_sum = report.commits * u64::from(config.updates_applied_per_tx());
            if report.commits != commits || sum != expected_sum {
                eprintln!(
                    "{}: {kind} committed {} of {commits}, update region {sum} of {expected_sum}",
                    half.name(),
                    report.commits
                );
                result.failed += 1;
                continue;
            }
            result.seconds[h] += seconds;
            result.commits[h] += report.commits;
            result.aborts += report.aborts;
            result.profiles.extend(report.profiles);
        }
    }
    result
}

fn measure(
    seed: u64,
    traced: bool,
    window: Window,
    first_id: u64,
    setup: &mut Setup<impl FnMut()>,
) -> Vec<PassResult> {
    let mut passes = Vec::new();
    while window.more(passes.len(), 2) {
        passes.push(pass(seed, traced, first_id + passes.len() as u64));
        setup.sample();
    }
    passes
}

/// Median over passes of committed transactions per host second, both
/// halves together.
fn host_rate(passes: &[PassResult]) -> f64 {
    let rates: Vec<f64> = passes
        .iter()
        .filter(|p| p.seconds() > 0.0)
        .map(|p| p.commits() as f64 / p.seconds())
        .collect();
    stats::median(&rates)
}

/// Median over passes of one half's committed transactions per host second.
fn half_rate(passes: &[PassResult], h: usize) -> f64 {
    let rates: Vec<f64> = passes
        .iter()
        .filter(|p| p.seconds[h] > 0.0)
        .map(|p| p.commits[h] as f64 / p.seconds[h])
        .collect();
    stats::median(&rates)
}

pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    // Set-up: each cell's threaded DPU, its STM metadata and the array.
    let mut setup = Setup::new(|| {
        for half in HALVES {
            for kind in DESIGNS {
                let mut dpu = new_dpu(half, kind);
                std::hint::black_box(ArrayBenchData::allocate(&mut dpu, half.config()));
            }
        }
    });
    let untraced_share = if args.trace { 0.4 } else { 1.0 };
    let window = Window::new(args.seconds * untraced_share);
    let passes = measure(args.seed, false, window, 1, &mut setup);
    outcome.setup_s = setup.median();
    outcome.named("setup_s", outcome.setup_s, "s", setup.note());
    outcome.host_rate = host_rate(&passes);
    let pass_seconds: Vec<f64> = passes.iter().map(PassResult::seconds).collect();
    outcome.p50_latency_us = stats::median(&pass_seconds) * 1e6;
    for p in &passes {
        outcome.attempted += p.cells;
        outcome.failed += p.failed;
    }
    let note = format!(
        "median of {} passes x {} designs (Tiny ETLWT left out), {TASKLETS} tasklets",
        passes.len(),
        DESIGNS.len()
    );
    for (h, half) in HALVES.into_iter().enumerate() {
        outcome.named(half.name(), half_rate(&passes, h), "tx/s", note.clone());
    }
    outcome.named("thr_tx_per_s", outcome.host_rate, "tx/s", note);
    outcome.named(
        "p50_latency_us",
        outcome.p50_latency_us,
        "us",
        format!("median host time of one pass, n={} passes", passes.len()),
    );

    if args.trace {
        trace::enable();
        let window = Window::new(args.seconds * (1.0 - untraced_share));
        let traced = measure(args.seed, true, window, 1 + passes.len() as u64, &mut setup);
        for p in &traced {
            outcome.attempted += p.cells;
            outcome.failed += p.failed;
        }
        outcome.layer("trace.overhead", outcome.host_rate / host_rate(&traced) - 1.0);
        layer_metrics(&mut outcome, &traced);
    }
    outcome
}

/// The `txops.*` rows: mean time of each traced `TxOps` call.
pub fn txops_rows(outcome: &mut Outcome) {
    outcome.layer("txops.read_ns", trace::totals(Layer::ReadWord).mean_ns());
    outcome.layer("txops.read_words_ns", trace::totals(Layer::ReadWords).mean_ns());
    outcome.layer("txops.write_ns", trace::totals(Layer::Write).mean_ns());
}

fn layer_metrics(outcome: &mut Outcome, passes: &[PassResult]) {
    txops_rows(outcome);
    let tx = trace::totals(Layer::Transaction);
    let commits: u64 = passes.iter().map(PassResult::commits).sum();
    let aborts: u64 = passes.iter().map(|p| p.aborts).sum();
    outcome.layer("tx.self_ns", stats::ratio(tx.minus_txops_ns(), commits as f64));
    outcome
        .layer("tx.attempts_per_commit", stats::ratio((commits + aborts) as f64, commits as f64));
    if let Some(profile) = ExecProfile::merged(passes.iter().flat_map(|p| &p.profiles)) {
        outcome.layer(
            "tx.backoff_share",
            stats::ratio(profile.backoff_time() as f64, profile.total_time() as f64),
        );
        outcome.layer("tx.dma_setups_per_commit", profile.dma_setups_per_commit());
    }
}
