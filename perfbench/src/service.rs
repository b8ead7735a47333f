//! `service-kv`: the open-loop key-value service of `pim-service`.
//!
//! Read-mostly get/put/transfer requests over zipf-0.9 keys, Poisson
//! arrivals, on the service's stock STM configuration.
//!
//! * Threads (2 tasklets): a reference rate well below the knee, where the
//!   sojourn p50 is read, and an overload rate, where the achieved rate is
//!   the capacity. Both alternate until the window closes; their
//!   histograms are merged across rounds.
//! * Simulator (stock 11 tasklets): the same stream shape at a fixed rate
//!   below the knee (modeled p99), and a bisection for the highest offered
//!   rate whose modeled p99 stays within the limit with achieved ≥ 0.98 ×
//!   offered. The simulator is deterministic, so one bisection per run
//!   suffices.
//!
//! Only this workload exercises the admission queue, the sleep/park path,
//! `LatencyPanel`, and `TxHashMap`/`TxQueue`.

use pim_service::{
    generate_requests, run_service_sim, run_service_threaded, ArrivalProcess, LatencyPanel,
    RequestBody, ServiceConfig, ServiceReport, ServiceTables,
};
use pim_sim::{Dpu, DpuConfig, KeyDist, Tier};
use pim_stm::threaded::ThreadedDpu;
use pim_stm::StmShared;

use crate::stats::{self, hist_quantile, Digest};
use crate::threads::{traced_tx_body, txops_rows, TASKLETS};
use crate::trace::{self, Layer};
use crate::{guarded, Args, Outcome, Setup, Window};

/// Threaded reference rate (req/s): well below the ≈1 M req/s closed-loop
/// capacity of two tasklets, so the p50 measures service, not queueing.
pub const REFERENCE_RPS: f64 = 400_000.0;
/// Threaded overload rate (req/s): about three times capacity, so the
/// achieved rate is the capacity.
pub const OVERLOAD_RPS: f64 = 3_200_000.0;
/// Requests per threaded reference run (≈ 0.25 s of arrivals).
const REFERENCE_REQUESTS: u64 = 100_000;
/// Requests per threaded overload run.
const OVERLOAD_REQUESTS: u64 = 200_000;
/// Modeled fixed rate (req/s on one DPU): below the knee, which lies
/// between 0.8 and 1.2 M req/s.
pub const MODELED_RPS: f64 = 800_000.0;
/// Modeled p99 limit of the bisection, microseconds.
pub const MODELED_P99_LIMIT_US: f64 = 50.0;
/// Requests per modeled run.
const MODELED_REQUESTS: u64 = 20_000;
/// Bisection steps (log-space between the bracket ends).
const BISECTION_STEPS: usize = 9;
/// Keyspace and skew of every stream.
const KEYS: u64 = 1024;
const ZIPF_THETA: f64 = 0.9;

fn config(arrival: ArrivalProcess, requests: u64, seed: u64) -> ServiceConfig {
    ServiceConfig::new(arrival)
        .with_keys(KEYS)
        .with_dist(KeyDist::Zipf { theta: ZIPF_THETA })
        .with_requests(requests)
        .with_seed(seed)
}

fn threaded(rate: f64, requests: u64, seed: u64) -> ServiceConfig {
    config(ArrivalProcess::Poisson { rate }, requests, seed).with_tasklets(TASKLETS)
}

fn modeled(rate: f64, seed: u64) -> ServiceConfig {
    config(ArrivalProcess::Poisson { rate }, MODELED_REQUESTS, seed)
}

/// Whether every request completed and committed exactly once.
fn complete(report: &ServiceReport, requests: u64) -> bool {
    report.completed == requests && report.commits == report.completed
}

fn us(ticks: f64, report_ticks_per_second: f64) -> f64 {
    ticks / report_ticks_per_second * 1e6
}

/// One service run under a span, checked; `None` when it panicked or lost
/// requests.
fn serve(
    outcome: &mut Outcome,
    layer: Layer,
    item: u64,
    config: &ServiceConfig,
) -> Option<ServiceReport> {
    let report = guarded(|| {
        trace::timed(layer, item, || match layer {
            Layer::ServiceSim => run_service_sim(config),
            _ => run_service_threaded(config),
        })
    });
    let ok = report.as_ref().is_some_and(|r| complete(r, config.requests));
    outcome.attempt(ok);
    if !ok {
        eprintln!("service-kv: run at {:?} failed its checks", config.arrival);
    }
    report.filter(|_| ok)
}

/// The modeled half: p99 at the fixed rate and the bisected maximum rate.
fn modeled_half(outcome: &mut Outcome, seed: u64) -> (f64, f64, Digest) {
    let mut digest = Digest::default();
    let mut p99_at = |outcome: &mut Outcome, rate: f64| -> Option<(f64, bool)> {
        let report = serve(outcome, Layer::ServiceSim, rate as u64, &modeled(rate, seed))?;
        digest.write_debug(&(report.completed, report.commits, report.aborts));
        digest.write_debug(&report.makespan_seconds);
        digest.write_debug(&report.panel);
        let p99 = us(hist_quantile(&report.panel.sojourn.hist, 0.99), report.ticks_per_second);
        let meets = p99 <= MODELED_P99_LIMIT_US && report.achieved_rate() >= 0.98 * rate;
        Some((p99, meets))
    };
    let fixed_p99 = p99_at(outcome, MODELED_RPS).map_or(0.0, |(p99, _)| p99);
    // Bracket: the low end must meet the limit, the high end must not.
    let (mut lo, mut hi) = (200_000.0f64, 3_200_000.0f64);
    for _ in 0..BISECTION_STEPS {
        let mid = (lo * hi).sqrt();
        match p99_at(outcome, mid) {
            Some((_, true)) => lo = mid,
            Some((_, false)) => hi = mid,
            None => break,
        }
    }
    (fixed_p99, lo, digest)
}

/// Rounds of the threaded half: the merged reference-rate panel, the
/// per-round overload achieved rates, and the reference reports.
#[derive(Default)]
struct Threaded {
    reference: Option<LatencyPanel>,
    capacities: Vec<f64>,
    achieved_over_offered: Vec<f64>,
    reference_aborts: Vec<f64>,
}

fn threaded_rounds(
    outcome: &mut Outcome,
    seed: u64,
    window: Window,
    first: u64,
    setup: &mut Setup<impl FnMut()>,
) -> Threaded {
    let mut result = Threaded::default();
    let mut round = 0;
    while window.more(round, 2) {
        let item = first + round as u64;
        let round_seed = seed.wrapping_add(round as u64);
        let cfg = threaded(REFERENCE_RPS, REFERENCE_REQUESTS, round_seed);
        if let Some(report) = serve(outcome, Layer::ServiceThreaded, item, &cfg) {
            result.achieved_over_offered.push(report.achieved_rate() / REFERENCE_RPS);
            result.reference_aborts.push(report.abort_rate());
            match result.reference.as_mut() {
                Some(panel) => panel.merge(&report.panel),
                None => result.reference = Some(report.panel),
            }
        }
        let cfg = threaded(OVERLOAD_RPS, OVERLOAD_REQUESTS, round_seed);
        if let Some(report) = serve(outcome, Layer::ServiceThreaded, item, &cfg) {
            result.capacities.push(report.achieved_rate());
        }
        setup.sample();
        round += 1;
    }
    result
}

/// Reference sojourn p50 in microseconds, with its sample count.
fn p50_us(threaded: &Threaded) -> (f64, u64) {
    threaded.reference.as_ref().map_or((0.0, 0), |panel| {
        (hist_quantile(&panel.sojourn.hist, 0.5) / 1e3, panel.completed())
    })
}

pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let seed = args.seed;
    // Set-up: the threaded DPU and its tables with both request streams,
    // and the simulated DPU with its metadata, tables and tasklet slots.
    let mut setup = Setup::new(|| {
        let cfg = threaded(REFERENCE_RPS, REFERENCE_REQUESTS, seed);
        let mut dpu = ThreadedDpu::new(cfg.stm).expect("threaded service DPU");
        let tables = ServiceTables::allocate(&mut dpu, Tier::Mram, KEYS, cfg.journal_capacity)
            .expect("service tables fit");
        for (rate, n) in [(REFERENCE_RPS, REFERENCE_REQUESTS), (OVERLOAD_RPS, OVERLOAD_REQUESTS)] {
            let arrival = ArrivalProcess::Poisson { rate };
            std::hint::black_box(generate_requests(arrival, cfg.mix, cfg.dist, KEYS, n, seed, 1e9));
        }
        let sim = modeled(MODELED_RPS, seed);
        let mut sim_dpu = Dpu::new(DpuConfig::default());
        let shared = StmShared::allocate(&mut sim_dpu, sim.stm).expect("service metadata fits");
        let sim_tables =
            ServiceTables::allocate(&mut sim_dpu, Tier::Mram, KEYS, sim.journal_capacity)
                .expect("service tables fit");
        for t in 0..sim.tasklets {
            std::hint::black_box(shared.register_tasklet(&mut sim_dpu, t).expect("slots fit"));
        }
        let hz = sim_dpu.latency().clock_hz as f64;
        let requests =
            generate_requests(sim.arrival, sim.mix, sim.dist, KEYS, sim.requests, seed, hz);
        std::hint::black_box((tables, sim_tables, requests));
    });

    let start = std::time::Instant::now();
    let (modeled_p99, modeled_max, digest) = modeled_half(&mut outcome, seed);
    outcome.digest = Some(digest.value());
    let remaining = (args.seconds - crate::secs(start)).max(1.0);
    let untraced_share = if args.trace { 0.5 } else { 1.0 };
    let window = Window::new(remaining * untraced_share);
    let untraced = threaded_rounds(&mut outcome, seed, window, 1, &mut setup);
    outcome.setup_s = setup.median();
    outcome.host_rate = stats::median(&untraced.capacities);
    let (p50, samples) = p50_us(&untraced);
    outcome.p50_latency_us = p50;

    outcome.named("svc_p50_us", p50, "us", format!("n={samples} at {REFERENCE_RPS} req/s"));
    outcome.named(
        "svc_capacity_rps",
        outcome.host_rate,
        "1/s",
        format!("median of {} runs at {OVERLOAD_RPS} req/s offered", untraced.capacities.len()),
    );
    outcome.named(
        "svc_modeled_p99_us",
        modeled_p99,
        "us",
        format!("n={MODELED_REQUESTS} at {MODELED_RPS} req/s, 11 tasklets"),
    );
    outcome.named(
        "svc_modeled_max_rps",
        modeled_max,
        "1/s",
        format!("p99 <= {MODELED_P99_LIMIT_US} us, n={MODELED_REQUESTS} per step"),
    );
    outcome.named("setup_s", outcome.setup_s, "s", setup.note());

    if args.trace {
        trace::enable();
        let window = Window::new(remaining * (1.0 - untraced_share) * 0.7);
        let traced = threaded_rounds(&mut outcome, seed, window, 1_000, &mut setup);
        let traced_capacity = stats::median(&traced.capacities);
        outcome.layer("trace.overhead", outcome.host_rate / traced_capacity - 1.0);
        request_path(&mut outcome, seed, Window::new(remaining * (1.0 - untraced_share) * 0.3));
        outcome.layer("svc.p50_us", p50);
        outcome.layer("svc.samples", samples as f64);
        outcome.layer("svc.capacity_rps", outcome.host_rate);
        outcome.layer("svc.modeled_p99_us", modeled_p99);
        outcome.layer("svc.modeled_max_rps", modeled_max);
        if let Some(panel) = untraced.reference.as_ref() {
            outcome.layer("svc.thr_p99_us", hist_quantile(&panel.sojourn.hist, 0.99) / 1e3);
            outcome.layer("svc.queue_p50_us", hist_quantile(&panel.queueing.hist, 0.5) / 1e3);
            outcome.layer("svc.queue_p99_us", hist_quantile(&panel.queueing.hist, 0.99) / 1e3);
            outcome.layer("svc.service_p50_us", hist_quantile(&panel.service.hist, 0.5) / 1e3);
            eprintln!(
                "service-kv: reference-rate percentiles from n={} requests",
                panel.completed()
            );
        }
        outcome.layer("svc.abort_ratio", stats::median(&untraced.reference_aborts));
        outcome.layer("svc.achieved_over_offered", stats::median(&untraced.achieved_over_offered));
    }
    outcome
}

/// `req.*`: one `RequestBody` at a time through `TaskletTx::transaction` on
/// two tasklets, closed loop, every `TxOps` call traced.
fn request_path(outcome: &mut Outcome, seed: u64, window: Window) {
    let cfg = threaded(REFERENCE_RPS, 20_000, seed);
    let mut rounds = 0;
    while window.more(rounds, 1) {
        let ok = guarded(|| {
            let mut dpu = ThreadedDpu::new(cfg.stm).expect("threaded service DPU");
            let tables = ServiceTables::allocate(&mut dpu, Tier::Mram, KEYS, cfg.journal_capacity)
                .expect("service tables fit");
            let requests =
                generate_requests(cfg.arrival, cfg.mix, cfg.dist, KEYS, cfg.requests, seed, 1e9);
            let report = dpu
                .run(TASKLETS, |mut tasklet| {
                    let id = tasklet.tasklet_id();
                    for (i, request) in requests.iter().enumerate().skip(id).step_by(TASKLETS) {
                        let mut body = RequestBody::new(tables, request);
                        traced_tx_body(&mut tasklet, &mut body, Layer::Request, i as u64);
                    }
                    trace::flush_thread();
                })
                .expect("two tasklets are schedulable");
            report.commits == cfg.requests
        });
        outcome.attempt(ok == Some(true));
        rounds += 1;
    }
    let req = trace::totals(Layer::Request);
    outcome.layer("req.ns", req.mean_ns());
    outcome
        .layer("req.txops_per_request", stats::ratio(req.txops_children as f64, req.count as f64));
    outcome.layer("tx.self_ns", stats::ratio(req.minus_txops_ns(), req.count as f64));
    txops_rows(outcome);
}
