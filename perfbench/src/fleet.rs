//! `fleet-skew`: the sharded fleet runtime and the service fleet.
//!
//! One pass is one `pim_fleet::run` over 64 shard DPUs — zipf 0.99 keys
//! whose hot region rotates through the keyspace in four phases, `threshold`
//! rebalancing and the overlapped round pipeline — followed by one
//! `run_service_fleet` over 8 shards with bursty zipf arrivals. Both
//! simulate their shards on one host worker. Only this workload exercises
//! the round engine, `TransferLedger`, `Rebalancer` and
//! `pim_service::fleet`.

use std::time::Instant;

use pim_fleet::rebalance::DEFAULT_THRESHOLD;
use pim_fleet::{FleetConfig, FleetReport, RebalancePolicy};
use pim_service::{
    generate_requests, run_service_fleet, ArrivalProcess, ServiceConfig, ServiceFleetConfig,
    ServiceFleetReport, ServiceTables,
};
use pim_sim::{Dpu, DpuConfig, KeyDist, Tier};
use pim_stm::StmShared;
use pim_workloads::sharded::generate_stream;
use pim_workloads::ShardedWorkloadConfig;

use crate::stats::{self, hist_quantile, Digest};
use crate::trace::{self, Layer};
use crate::{guarded, secs, Args, Outcome, Setup, Window};

const FLEET_DPUS: usize = 64;
const KEYS_PER_DPU: u32 = 1024;
const TXNS_PER_DPU: u32 = 256;
const FLEET_ROUNDS: usize = 8;
const PHASES: u32 = 4;
const FLEET_THETA: f64 = 0.99;

const SERVICE_SHARDS: u32 = 8;
const SERVICE_KEYS: u64 = 4096;
const SERVICE_REQUESTS: u64 = 8_192;
/// Long-run offered rate of the bursty stream (req/s over 8 shards). The
/// fleet's modeled p99 is set by its per-round host work at every rate from
/// 10 k to 2 M req/s, so no rate lies below a knee; this one matches the
/// upper end of the `pim-exp --service` ladder.
const SERVICE_RPS: f64 = 200_000.0;
const SERVICE_THETA: f64 = 0.9;

fn rebalance() -> RebalancePolicy {
    RebalancePolicy::Threshold { max_over_mean: DEFAULT_THRESHOLD }
}

fn fleet_config(seed: u64) -> FleetConfig {
    let n = FLEET_DPUS as u32;
    let workload = ShardedWorkloadConfig::new(KEYS_PER_DPU * n, TXNS_PER_DPU * n)
        .with_dist(KeyDist::Zipf { theta: FLEET_THETA })
        .with_phases(PHASES);
    FleetConfig {
        seed,
        txns_per_round: (workload.total_txns as usize).div_ceil(FLEET_ROUNDS),
        ..FleetConfig::new(FLEET_DPUS, workload)
    }
    .with_rebalance(rebalance())
    .with_overlap(true)
    .with_host_workers(1)
}

fn service_config(seed: u64) -> ServiceFleetConfig {
    let arrival = ArrivalProcess::Bursty { rate: SERVICE_RPS, burst: 64.0, duty: 0.2 };
    let service = ServiceConfig::new(arrival)
        .with_keys(SERVICE_KEYS)
        .with_requests(SERVICE_REQUESTS)
        .with_dist(KeyDist::Zipf { theta: SERVICE_THETA })
        .with_seed(seed);
    ServiceFleetConfig::new(service, SERVICE_SHARDS).with_rebalance(rebalance()).with_overlap(true)
}

/// The fleet checks: shard commits add up to the total, and the host
/// broadcast one round descriptor per round.
fn fleet_ok(report: &FleetReport) -> bool {
    let shard_commits: u64 = report.shards.iter().map(|s| s.commits).sum();
    shard_commits == report.total_commits
        && report.ledger.broadcast.calls == report.rounds.len() as u64
        && report.total_commits > 0
}

/// The service-fleet checks: every request completed once, and shard
/// completions add up to the total.
fn service_ok(report: &ServiceFleetReport) -> bool {
    report.completed == SERVICE_REQUESTS
        && report.commits == report.completed
        && report.per_shard_completed.iter().sum::<u64>() == report.completed
}

#[derive(Debug, Default)]
struct PassResult {
    seconds: f64,
    commits: u64,
    failed: u64,
    digest: u64,
    fleet: Option<FleetReport>,
    fleet_ns: u64,
    service: Option<ServiceFleetReport>,
    service_ns: u64,
}

fn pass(seed: u64, pass_id: u64) -> PassResult {
    let _span = trace::span(Layer::Pass, pass_id);
    let mut result = PassResult::default();
    let mut digest = Digest::default();
    let start = Instant::now();
    let config = fleet_config(seed);
    let fleet = guarded(|| trace::timed(Layer::FleetRun, pass_id, || pim_fleet::run(&config)));
    result.fleet_ns = start.elapsed().as_nanos() as u64;
    match fleet.filter(fleet_ok) {
        Some(report) => {
            digest.write_debug(&report);
            result.commits += report.total_commits;
            result.fleet = Some(report);
        }
        None => result.failed += 1,
    }
    let service_start = Instant::now();
    let config = service_config(seed);
    let service =
        guarded(|| trace::timed(Layer::ServiceFleet, pass_id, || run_service_fleet(&config)));
    result.service_ns = service_start.elapsed().as_nanos() as u64;
    match service.filter(service_ok) {
        Some(report) => {
            digest.write_debug(&(report.rounds, report.completed, report.commits, report.aborts));
            digest.write_debug(&(report.makespan_seconds, report.rebalances, report.migrated_keys));
            digest.write_debug(&report.per_shard_completed);
            digest.write_debug(&report.panel);
            result.commits += report.commits;
            result.service = Some(report);
        }
        None => result.failed += 1,
    }
    result.seconds = secs(start);
    result.digest = digest.value();
    result
}

fn measure(
    seed: u64,
    window: Window,
    first_id: u64,
    setup: &mut Setup<impl FnMut()>,
) -> Vec<PassResult> {
    let mut passes = Vec::new();
    while window.more(passes.len(), 2) {
        passes.push(pass(seed, first_id + passes.len() as u64));
        setup.sample();
    }
    passes
}

fn host_rate(passes: &[PassResult]) -> f64 {
    let rates: Vec<f64> = passes.iter().map(|p| p.commits as f64 / p.seconds).collect();
    stats::median(&rates)
}

pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let seed = args.seed;
    // Set-up: every shard DPU with its STM metadata and tasklet slots, the
    // global transaction stream, and the service shards with their tables
    // and request stream.
    let mut setup = Setup::new(|| {
        let config = fleet_config(seed);
        for _ in 0..config.n_dpus {
            let mut dpu = Dpu::new(DpuConfig::default());
            let shared =
                StmShared::allocate(&mut dpu, config.stm_config()).expect("shard metadata");
            for t in 0..config.tasklets {
                std::hint::black_box(shared.register_tasklet(&mut dpu, t).expect("slots fit"));
            }
        }
        std::hint::black_box(generate_stream(&config.workload, config.seed));
        let service = service_config(seed).service;
        for _ in 0..SERVICE_SHARDS {
            let mut dpu = Dpu::new(DpuConfig::default());
            let shared = StmShared::allocate(&mut dpu, service.stm).expect("shard metadata");
            let tables = ServiceTables::allocate(
                &mut dpu,
                Tier::Mram,
                SERVICE_KEYS,
                service.journal_capacity,
            )
            .expect("service tables fit");
            for t in 0..service.tasklets {
                std::hint::black_box(shared.register_tasklet(&mut dpu, t).expect("slots fit"));
            }
            std::hint::black_box(tables);
        }
        let hz = Dpu::new(DpuConfig::default()).latency().clock_hz as f64;
        std::hint::black_box(generate_requests(
            service.arrival,
            service.mix,
            service.dist,
            SERVICE_KEYS,
            SERVICE_REQUESTS,
            seed,
            hz,
        ));
    });
    let untraced_share = if args.trace { 0.5 } else { 1.0 };
    let passes = measure(seed, Window::new(args.seconds * untraced_share), 1, &mut setup);
    outcome.setup_s = setup.median();
    outcome.named("setup_s", outcome.setup_s, "s", setup.note());
    outcome.host_rate = host_rate(&passes);
    let pass_seconds: Vec<f64> = passes.iter().map(|p| p.seconds).collect();
    outcome.p50_latency_us = stats::median(&pass_seconds) * 1e6;
    let mut all: Vec<&PassResult> = passes.iter().collect();

    let traced;
    if args.trace {
        trace::enable();
        traced = measure(
            seed,
            Window::new(args.seconds * (1.0 - untraced_share)),
            1 + passes.len() as u64,
            &mut setup,
        );
        outcome.layer("trace.overhead", outcome.host_rate / host_rate(&traced) - 1.0);
        all.extend(traced.iter());
        layer_metrics(&mut outcome, &traced);
    }
    for p in &all {
        outcome.attempted += 2;
        outcome.failed += p.failed;
    }
    let digest = all[0].digest;
    outcome.attempt(all.iter().all(|p| p.digest == digest && p.failed == 0));
    outcome.digest = Some(digest);

    let first = all[0];
    let modeled = first.fleet.as_ref().map_or(0.0, FleetReport::throughput_tx_per_sec);
    let p99 = first.service.as_ref().map_or((0.0, 0), |r| {
        (hist_quantile(&r.panel.sojourn.hist, 0.99) / r.ticks_per_second * 1e6, r.panel.completed())
    });
    outcome.named(
        "sim_commits_per_host_s",
        outcome.host_rate,
        "1/s",
        format!("median of {} passes", passes.len()),
    );
    outcome.named(
        "modeled_tx_per_s",
        modeled,
        "tx/s",
        format!("{FLEET_DPUS} DPUs, commits / modeled makespan"),
    );
    outcome.named(
        "svc_modeled_p99_us",
        p99.0,
        "us",
        format!("n={} over {SERVICE_SHARDS} shards", p99.1),
    );
    outcome.named(
        "p50_latency_us",
        outcome.p50_latency_us,
        "us",
        format!("n={} passes", passes.len()),
    );
    if args.trace {
        outcome.layer("modeled.tx_per_s", modeled);
        outcome.layer("svcfleet.modeled_p99_us", p99.0);
    }
    outcome
}

fn layer_metrics(outcome: &mut Outcome, passes: &[PassResult]) {
    let fleet: Vec<(&FleetReport, u64)> =
        passes.iter().filter_map(|p| p.fleet.as_ref().map(|f| (f, p.fleet_ns))).collect();
    let service: Vec<(&ServiceFleetReport, u64)> =
        passes.iter().filter_map(|p| p.service.as_ref().map(|s| (s, p.service_ns))).collect();
    if let Some(&(report, _)) = fleet.first() {
        let rounds = report.rounds.len() as f64;
        outcome.layer("fleet.rounds", rounds);
        let ms_per_round: Vec<f64> =
            fleet.iter().map(|(_, ns)| *ns as f64 / 1e6 / rounds).collect();
        outcome.layer("fleet.host_ms_per_round", stats::median(&ms_per_round));
        outcome.layer(
            "fleet.transfer_bytes_per_commit",
            stats::ratio(report.ledger.total_bytes() as f64, report.total_commits as f64),
        );
        outcome.layer("fleet.rebalances", report.rebalance.rebalances as f64);
        outcome.layer("fleet.imbalance_cv", report.imbalance.cv_commits);
        let profile = &report.profile;
        outcome.layer(
            "modeled.cycles_per_commit",
            stats::ratio(profile.total_time() as f64, profile.commits() as f64),
        );
        outcome.layer("modeled.dma_setups_per_commit", profile.dma_setups_per_commit());
        outcome.layer("modeled.dma_words_per_commit", profile.dma_words_per_commit());
        outcome.layer(
            "modeled.commit_ratio",
            stats::ratio(profile.commits() as f64, profile.attempts() as f64),
        );
    }
    if let Some(&(report, _)) = service.first() {
        let rounds = report.rounds as f64;
        outcome.layer("svcfleet.rounds", rounds);
        let ms_per_round: Vec<f64> =
            service.iter().map(|(_, ns)| *ns as f64 / 1e6 / rounds).collect();
        outcome.layer("svcfleet.host_ms_per_round", stats::median(&ms_per_round));
    }
}
