//! `sim-sweep`: the paper's Fig. 4/5/9 design-space cells on the simulator.
//!
//! Every STM design × {array-a, array-b, list-hc, kmeans-hc, labyrinth-s} ×
//! {1, 11} tasklets, MRAM metadata plus WRAM where the workload supports it,
//! static default knobs, scale 1.0. One pass runs every cell through a fresh
//! `SimCache::in_memory()` on a [`WORKERS`]-thread `WorkerPool`, as
//! `pim-exp --workers 0` does on a 2-core host, and renders the result with
//! `sweeps_to_json`, as `pim-exp --json-out` does. Every cell starts from a
//! freshly allocated, cold DPU.
//!
//! The traced run replaces the cache's run closure with the same build and
//! `Scheduler::run` that `RunSpec::run_on` performs, assembled here from the
//! public builders so each `TaskletProgram::step` can be wrapped in a span.
//! Its modeled results must be bit-identical to the untraced path; the
//! digest shows it.

use std::time::Instant;

use pim_exp::cache::{CachedRun, SimCache};
use pim_exp::design_space::{DesignSpacePoint, DesignSpaceSweep, SweepOptions};
use pim_exp::json::sweeps_to_json;
use pim_exp::pool::WorkerPool;
use pim_sim::{Dpu, DpuConfig, Scheduler, StepStatus, TaskletCtx, TaskletProgram};
use pim_stm::var::{peek_var, WordAccess};
use pim_stm::{ExecProfile, MetadataPlacement, StmKind, StmShared};
use pim_workloads::array_bench::{self, ArrayBenchConfig, ArrayBenchData};
use pim_workloads::kmeans::{self, KmeansConfig, KmeansData};
use pim_workloads::labyrinth::{self, LabyrinthConfig, LabyrinthData};
use pim_workloads::linked_list::{self, LinkedListConfig, LinkedListData};
use pim_workloads::{Executor, RunSpec, Workload, WorkloadReport};

use crate::stats::{self, Digest};
use crate::trace::{self, Layer};
use crate::{guarded, secs, Args, Outcome, Setup, Window};

/// The design-space workloads: long transactions (labyrinth-s), tiny
/// contended ones (array-b), and the read-heavy and structure-heavy cases in
/// between. labyrinth-l is left out for run length (see README.md).
const WORKLOADS: [Workload; 5] = [
    Workload::ArrayA,
    Workload::ArrayB,
    Workload::ListHc,
    Workload::KmeansHc,
    Workload::LabyrinthS,
];

/// 1 tasklet against the full 11-tasklet pipeline: the scheduler's
/// min-clock scan costs differ most between them.
const TASKLETS: [usize; 2] = [1, 11];

/// Workload scale of every cell.
const SCALE: f64 = 1.0;

/// Host threads of the cell pool: one per core of a 2-core host. With one
/// thread the other core idles, and a 2-core guest whose second core idles
/// ran the simulator 20-25 % slower, by amounts that changed from one run
/// to the next, than with that core busy (see README.md).
const WORKERS: usize = 2;

/// One `(workload, placement)` group of cells: one `DesignSpaceSweep`.
struct Group {
    workload: Workload,
    placement: MetadataPlacement,
    specs: Vec<RunSpec>,
}

fn groups(seed: u64) -> Vec<Group> {
    let mut groups = Vec::new();
    for workload in WORKLOADS {
        let mut placements = vec![MetadataPlacement::Mram];
        if workload.supports_wram_metadata() {
            placements.push(MetadataPlacement::Wram);
        }
        for placement in placements {
            let specs = StmKind::ALL
                .iter()
                .flat_map(|&kind| {
                    TASKLETS.iter().map(move |&tasklets| {
                        RunSpec::new(workload, kind, placement, tasklets)
                            .with_scale(SCALE)
                            .with_seed(seed)
                    })
                })
                .collect();
            groups.push(Group { workload, placement, specs });
        }
    }
    groups
}

/// The workload data of one cell, for the traced path's final-state checks.
enum CellData {
    Array(ArrayBenchData),
    List(LinkedListData),
    Kmeans(KmeansData),
    Labyrinth(LabyrinthData),
}

/// Builds one cell's DPU, STM metadata, data and tasklet programs exactly as
/// `RunSpec::run_on(Executor::Simulator)` does.
fn build(spec: &RunSpec) -> (Dpu, CellData, Vec<Box<dyn TaskletProgram>>) {
    let mut dpu = Dpu::new(DpuConfig::default());
    let shared = StmShared::allocate(&mut dpu, spec.stm_config())
        .expect("STM metadata must fit in the configured tier");
    let (t, s) = (spec.tasklets, spec.seed);
    let (data, programs) = match spec.workload {
        Workload::ArrayA | Workload::ArrayB => {
            let (d, p) = array_bench::build(&mut dpu, &shared, array_config(spec), t, s);
            (CellData::Array(d), p)
        }
        Workload::ListHc => {
            let config = LinkedListConfig::high_contention().scaled(spec.scale);
            let (d, p) = linked_list::build(&mut dpu, &shared, config, t, s);
            (CellData::List(d), p)
        }
        Workload::KmeansHc => {
            let config = KmeansConfig::high_contention().scaled(spec.scale);
            let (d, p) = kmeans::build(&mut dpu, &shared, config, t, s);
            (CellData::Kmeans(d), p)
        }
        Workload::LabyrinthS => {
            let config = LabyrinthConfig::small().scaled(spec.scale);
            let (d, p) = labyrinth::build(&mut dpu, &shared, config, t, s);
            (CellData::Labyrinth(d), p)
        }
        other => unreachable!("{other} is not a sim-sweep workload"),
    };
    (dpu, data, programs)
}

fn array_config(spec: &RunSpec) -> ArrayBenchConfig {
    match spec.workload {
        Workload::ArrayA => ArrayBenchConfig::workload_a().scaled(spec.scale),
        _ => ArrayBenchConfig::workload_b().scaled(spec.scale),
    }
}

/// Commits a cell must make: every tasklet runs its whole share of the
/// workload, and labyrinth adds one pop per job and one empty pop per
/// tasklet.
fn expected_commits(spec: &RunSpec) -> u64 {
    let t = spec.tasklets as u64;
    match spec.workload {
        Workload::ArrayA | Workload::ArrayB => {
            u64::from(array_config(spec).transactions_per_tasklet) * t
        }
        Workload::ListHc => {
            u64::from(LinkedListConfig::high_contention().scaled(spec.scale).ops_per_tasklet) * t
        }
        Workload::KmeansHc => {
            u64::from(KmeansConfig::high_contention().scaled(spec.scale).points_per_tasklet) * t
        }
        Workload::LabyrinthS => {
            2 * u64::from(LabyrinthConfig::small().scaled(spec.scale).paths) + t
        }
        other => unreachable!("{other} is not a sim-sweep workload"),
    }
}

/// FNV-1a over the committed state, word for word as `RunSpec` hashes it.
fn fingerprint<M: WordAccess + ?Sized>(data: &CellData, mem: &M) -> u64 {
    let mut hash = Digest::default();
    let mut word = |w: u64| hash.write(&w.to_le_bytes());
    match data {
        CellData::Array(d) => (0..d.array.len()).for_each(|i| word(peek_var(mem, d.array.at(i)))),
        CellData::List(d) => d.snapshot(mem).into_iter().for_each(word),
        CellData::Kmeans(d) => {
            (0..d.centroids.len()).for_each(|i| word(peek_var(mem, d.centroids.at(i))))
        }
        CellData::Labyrinth(d) => {
            word(d.jobs_claimed(mem));
            (0..d.grid.len()).for_each(|i| word(peek_var(mem, d.cell(i))));
        }
    }
    hash.value()
}

/// The final-state checks of the traced path (the untraced path gets the
/// same ones from `RunSpec`): no lost updates, a sorted list, a consistent
/// maze.
fn validate<M: WordAccess + ?Sized>(
    data: &CellData,
    mem: &M,
    spec: &RunSpec,
    commits: u64,
) -> Option<String> {
    match data {
        CellData::Array(d) => {
            let expected = commits * u64::from(array_config(spec).updates_applied_per_tx());
            let sum = d.update_region_sum(mem);
            (sum != expected).then(|| format!("update region sums to {sum}, expected {expected}"))
        }
        CellData::List(d) => {
            let keys = d.snapshot(mem);
            keys.windows(2).any(|p| p[0] >= p[1]).then(|| "list not sorted/unique".to_string())
        }
        CellData::Kmeans(d) => {
            let (members, _) = d.totals(mem);
            (members != commits).then(|| format!("{members} members after {commits} folds"))
        }
        CellData::Labyrinth(d) => d.validate(mem).err(),
    }
}

/// A tasklet program whose every step is one span.
struct TracedProgram {
    inner: Box<dyn TaskletProgram>,
    cell: u64,
}

impl TaskletProgram for TracedProgram {
    fn step(&mut self, ctx: &mut TaskletCtx<'_>) -> StepStatus {
        let _span = trace::span(Layer::Step, self.cell);
        self.inner.step(ctx)
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}

/// The traced run closure: `RunSpec::run_on(Executor::Simulator)` rebuilt
/// from public parts with a span around the build, `Scheduler::run` and
/// every step.
fn traced_report(spec: &RunSpec, cell: u64) -> WorkloadReport {
    let (mut dpu, data, programs) = trace::timed(Layer::Build, cell, || build(spec));
    let programs: Vec<Box<dyn TaskletProgram>> = programs
        .into_iter()
        .map(|inner| Box::new(TracedProgram { inner, cell }) as Box<dyn TaskletProgram>)
        .collect();
    let report = trace::timed(Layer::SchedRun, cell, || Scheduler::new().run(&mut dpu, programs));
    let commits = report.total_commits();
    WorkloadReport {
        spec: *spec,
        executor: Executor::Simulator,
        commits,
        aborts: report.total_aborts(),
        profiles: report.tasklet_stats.iter().map(ExecProfile::from_sim).collect(),
        fingerprint: fingerprint(&data, &dpu),
        deterministic_final_state: spec.workload.commutative(),
        invariant_violation: validate(&data, &dpu, spec, commits),
        sim: Some(report),
    }
}

/// One cell through the cache, with the cell checks; `None` when it
/// panicked or a check failed.
fn run_cell(cache: &SimCache, spec: &RunSpec, cell: u64, traced: bool) -> Option<CachedRun> {
    let run = guarded(|| {
        trace::timed(Layer::CacheGetOrRun, cell, || {
            cache.get_or_run(spec, Executor::Simulator, || {
                let _span = trace::span(Layer::CellRun, cell);
                let report = if traced {
                    traced_report(spec, cell)
                } else {
                    spec.run_on(Executor::Simulator)
                };
                report.assert_invariants();
                report
            })
        })
    })?;
    let expected = expected_commits(spec);
    if run.commits != expected {
        eprintln!("sim-sweep: {spec:?} committed {} txs, expected {expected}", run.commits);
        return None;
    }
    Some(run)
}

fn point(spec: &RunSpec, run: &CachedRun) -> DesignSpacePoint {
    DesignSpacePoint {
        kind: spec.kind,
        tasklets: spec.tasklets,
        throughput_tx_per_sec: run.throughput_tx_per_sec,
        abort_rate: run.abort_rate(),
        commits: run.commits,
        aborts: run.aborts,
        profile: run.profile,
        makespan_seconds: run.makespan_seconds,
        spread: None,
    }
}

/// Totals of one pass.
#[derive(Debug, Default)]
struct PassResult {
    seconds: f64,
    commits: u64,
    cell_seconds: Vec<f64>,
    cells: u64,
    failed: u64,
    digest: u64,
    json_bytes: usize,
    modeled_tx_per_s: Vec<f64>,
    busy_cycles: u64,
    dma_setups: u64,
    dma_words: u64,
    aborts: u64,
}

fn pass(groups: &[Group], seed: u64, traced: bool, pass_id: u64) -> PassResult {
    let _span = trace::span(Layer::Pass, pass_id);
    let start = Instant::now();
    let cache = SimCache::in_memory();
    let mut result = PassResult::default();
    let mut digest = Digest::default();
    let mut sweeps = Vec::new();
    // Every cell of the pass is one pool job, so that both threads stay busy
    // until the pass ends.
    let specs: Vec<&RunSpec> = groups.iter().flat_map(|g| &g.specs).collect();
    let mut runs = WorkerPool::new(WORKERS)
        .run(specs, |i, spec| {
            let cell_start = Instant::now();
            let run = run_cell(&cache, spec, (pass_id << 16) + i as u64, traced);
            let seconds = secs(cell_start);
            // The pool's threads end with this pass: hand their spans over.
            trace::flush_thread();
            (run, seconds)
        })
        .into_iter();
    for group in groups {
        let mut points = Vec::new();
        for (spec, (run, seconds)) in group.specs.iter().zip(runs.by_ref()) {
            result.cell_seconds.push(seconds);
            result.cells += 1;
            let Some(run) = run else {
                result.failed += 1;
                continue;
            };
            digest.write_debug(&run);
            result.commits += run.commits;
            result.aborts += run.aborts;
            result.busy_cycles += run.profile.total_time();
            result.dma_setups += run.profile.dma_setups();
            result.dma_words += run.profile.dma_words();
            if let Some(tps) = run.throughput_tx_per_sec {
                result.modeled_tx_per_s.push(tps);
            }
            points.push(point(spec, &run));
        }
        let options = SweepOptions { scale: SCALE, seed, ..SweepOptions::default() };
        sweeps.push(DesignSpaceSweep {
            workload: group.workload,
            placement: group.placement,
            executor: Executor::Simulator,
            scale: options.scale,
            seed: options.seed,
            read_strategy: options.read_strategy,
            retry: options.retry,
            max_burst_words: options.max_burst_words,
            record_words: options.record_words,
            tune: options.tune,
            points,
        });
    }
    let json = trace::timed(Layer::Json, pass_id, || sweeps_to_json(&sweeps).to_string());
    digest.write(json.as_bytes());
    result.json_bytes = json.len();
    result.digest = digest.value();
    result.seconds = secs(start);
    result
}

/// Runs passes until `window` closes; returns every pass.
fn measure(
    groups: &[Group],
    seed: u64,
    traced: bool,
    window: Window,
    first_id: u64,
    setup: &mut Setup<impl FnMut()>,
) -> Vec<PassResult> {
    let mut passes = Vec::new();
    while window.more(passes.len(), 1) {
        passes.push(pass(groups, seed, traced, first_id + passes.len() as u64));
        setup.sample();
    }
    passes
}

/// Host rate of a set of passes: the median over passes of simulated
/// commits per host second.
fn host_rate(passes: &[PassResult]) -> f64 {
    let rates: Vec<f64> = passes.iter().map(|p| p.commits as f64 / p.seconds).collect();
    stats::median(&rates)
}

pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let groups = groups(args.seed);
    let cells: usize = groups.iter().map(|g| g.specs.len()).sum();
    // Set-up: every cell's DPU, STM metadata, data and programs, built and
    // dropped without running.
    let pool = WorkerPool::new(WORKERS);
    let mut setup = Setup::new(|| {
        let specs = groups.iter().flat_map(|g| &g.specs).collect();
        pool.run(specs, |_, spec| {
            std::hint::black_box(build(spec));
        });
    });
    let untraced_share = if args.trace { 0.35 } else { 1.0 };
    let window = Window::new(args.seconds * untraced_share);
    let passes = measure(&groups, args.seed, false, window, 1, &mut setup);
    outcome.setup_s = setup.median();
    outcome.named("setup_s", outcome.setup_s, "s", format!("{}, {cells} cells each", setup.note()));
    let mut all: Vec<&PassResult> = passes.iter().collect();
    outcome.host_rate = host_rate(&passes);
    let cell_seconds: Vec<f64> =
        passes.iter().flat_map(|p| p.cell_seconds.iter().copied()).collect();
    outcome.p50_latency_us = stats::median(&cell_seconds) * 1e6;

    let traced_passes;
    if args.trace {
        trace::enable();
        let window = Window::new(args.seconds * (1.0 - untraced_share));
        traced_passes =
            measure(&groups, args.seed, true, window, 1 + passes.len() as u64, &mut setup);
        all.extend(traced_passes.iter());
        layer_metrics(&mut outcome, &traced_passes, cells);
        let traced_rate = host_rate(&traced_passes);
        outcome.layer("trace.overhead", outcome.host_rate / traced_rate - 1.0);
    }

    for p in &all {
        outcome.attempted += p.cells;
        outcome.failed += p.failed;
    }
    // Every pass, traced or not, must produce the same modeled results.
    let digest = all[0].digest;
    outcome.attempt(all.iter().all(|p| p.digest == digest && p.failed == 0));
    outcome.digest = Some(digest);

    let first = all[0];
    let modeled = stats::geomean(&first.modeled_tx_per_s);
    outcome.named(
        "sim_commits_per_host_s",
        outcome.host_rate,
        "1/s",
        format!("median of {} passes x {cells} cells", passes.len()),
    );
    outcome.named("modeled_tx_per_s", modeled, "tx/s", format!("geomean of {cells} cells"));
    outcome.named(
        "p50_latency_us",
        outcome.p50_latency_us,
        "us",
        format!("n={} cells", cell_seconds.len()),
    );
    if args.trace {
        outcome.layer("modeled.tx_per_s", modeled);
        let attempts = (first.commits + first.aborts) as f64;
        outcome.layer(
            "modeled.cycles_per_commit",
            stats::ratio(first.busy_cycles as f64, first.commits as f64),
        );
        outcome.layer(
            "modeled.dma_setups_per_commit",
            stats::ratio(first.dma_setups as f64, first.commits as f64),
        );
        outcome.layer(
            "modeled.dma_words_per_commit",
            stats::ratio(first.dma_words as f64, first.commits as f64),
        );
        outcome.layer("modeled.commit_ratio", stats::ratio(first.commits as f64, attempts));
    }
    outcome
}

/// Per-layer figures from the spans of the traced passes.
fn layer_metrics(outcome: &mut Outcome, passes: &[PassResult], cells: usize) {
    let sched = trace::totals(Layer::SchedRun);
    let step = trace::totals(Layer::Step);
    let commits: u64 = passes.iter().map(|p| p.commits).sum();
    let n_passes = passes.len().max(1) as f64;
    outcome.layer("sched.steps", step.count as f64 / n_passes);
    outcome.layer("sched.self_ns_per_step", stats::ratio(sched.self_ns as f64, step.count as f64));
    outcome.layer("step.ns", step.mean_ns());
    outcome.layer("step.steps_per_commit", stats::ratio(step.count as f64, commits as f64));
    outcome.layer("build.us_per_cell", trace::totals(Layer::Build).mean_ns() / 1e3);
    let cache = trace::totals(Layer::CacheGetOrRun);
    outcome
        .layer("cache.us_per_cell", stats::ratio(cache.self_ns as f64, cache.count as f64) / 1e3);
    outcome.layer("json.ms", trace::totals(Layer::Json).mean_ns() / 1e6);
    outcome.layer("json.bytes", passes.first().map_or(0.0, |p| p.json_bytes as f64));
    debug_assert_eq!(cache.count as usize, cells * passes.len());
}
