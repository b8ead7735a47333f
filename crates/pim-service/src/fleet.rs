//! Fleet service runs: the open-loop stream routed across sharded DPUs.
//!
//! One global request stream, generated as for a single DPU, is served by
//! `pim-fleet`'s [`RoundEngine`] (see [`pim_fleet::engine`]). A request
//! routes to the shard owning its key, which serves it through the
//! single-DPU admission and [`ServiceTasklet`](crate::single) machinery,
//! anchored at the fleet clock of the round's compute start: queueing
//! delay includes the wait for the owning shard's round to begin.
//!
//! Two service-specific choices:
//!
//! * **Owner-local transfers** — a transfer whose destination key lives on a
//!   different shard is remapped into the owner's key range (deterministic
//!   fold, same stream position). Cross-shard two-phase service transactions
//!   stay with the roadmap's open 2PC item.
//! * **Authoritative copy at the owner** — every shard's hashmap covers the
//!   full keyspace; a recut copies each populated moved key from the old
//!   owner to the new one. Stale copies on former owners are unreachable
//!   (requests route to the current owner) and are overwritten if ownership
//!   ever returns.

use pim_sim::{CpuTransferModel, Dpu, DpuConfig, Tier};
use pim_stm::{StmShared, TimeDomain, TxSlot};
use pim_workloads::ShardMap;

use pim_fleet::{
    BatchOutcome, HostCostModel, Migration, RebalancePolicy, RoundEngine, ShardWorkload,
};

use crate::arrival::ArrivalProcess;
use crate::latency::LatencyPanel;
use crate::request::{Request, RequestOp, ServiceTables};
use crate::single::{run_sim_round, ServiceConfig};

/// Wire bytes of one routed request descriptor (arrival stamp + packed
/// op/keys/value), for scatter accounting.
pub const REQUEST_WIRE_BYTES: u64 = 32;

/// Configuration of a fleet service run.
#[derive(Debug, Clone)]
pub struct ServiceFleetConfig {
    /// The per-shard service configuration (STM design, tasklets, keyspace,
    /// stream length, arrivals, mix, skew, seed). `keys` is the *global*
    /// keyspace, partitioned over the shards.
    pub service: ServiceConfig,
    /// Number of shards (DPUs).
    pub shards: u32,
    /// Requests dispatched per round.
    pub round_requests: u32,
    /// Skew-adaptive rebalancing policy between rounds.
    pub rebalance: RebalancePolicy,
    /// Whether a round's host pre-work may overlap the previous round's
    /// compute (the fleet pipeline).
    pub overlap: bool,
    /// Host↔DPU transfer cost model.
    pub transfer: CpuTransferModel,
    /// Host-side routing/merge cost model.
    pub host: HostCostModel,
}

impl ServiceFleetConfig {
    /// A fleet of `shards` DPUs serving `service`, 256 requests per round,
    /// no rebalancing, serial host.
    pub fn new(service: ServiceConfig, shards: u32) -> Self {
        ServiceFleetConfig {
            service,
            shards,
            round_requests: 256,
            rebalance: RebalancePolicy::Off,
            overlap: false,
            transfer: CpuTransferModel::default(),
            host: HostCostModel::default(),
        }
    }

    /// Replaces the rebalancing policy.
    pub fn with_rebalance(mut self, rebalance: RebalancePolicy) -> Self {
        self.rebalance = rebalance;
        self
    }

    /// Enables or disables the host/compute pipeline.
    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap = overlap;
        self
    }

    /// Replaces the round batch size.
    pub fn with_round_requests(mut self, round_requests: u32) -> Self {
        self.round_requests = round_requests;
        self
    }

    /// Checks the service bounds plus the fleet's own.
    ///
    /// # Errors
    ///
    /// Names the first violated bound.
    pub fn check(&self) -> Result<(), String> {
        self.service.check()?;
        let keys = self.service.keys;
        let shards = self.shards;
        if shards == 0 || self.round_requests == 0 {
            Err("a service fleet needs at least one shard and one request per round".into())
        } else if keys > 1 << 20 {
            Err(format!("keys = {keys} exceeds the fleet keyspace cap of 2^20"))
        } else if u64::from(shards) > keys {
            Err(format!("shards = {shards} exceeds keys = {keys}: a shard needs a key"))
        } else {
            Ok(())
        }
    }
}

/// One shard of the service fleet: a persistent simulated DPU with its own
/// STM instance and service tables (full-keyspace map, see the
/// [module documentation](self)).
struct ServiceShard {
    dpu: Dpu,
    shared: StmShared,
    slots: Vec<TxSlot>,
    tables: ServiceTables,
    completed: u64,
    aborts: u64,
    panel: LatencyPanel,
}

impl ServiceShard {
    fn new(config: &ServiceConfig) -> Self {
        let stm = config.stm;
        let table_words = ServiceTables::words(config.keys, config.journal_capacity);
        let mram_words = table_words
            + stm.shared_metadata_words()
            + stm.per_tasklet_metadata_words() * config.tasklets as u32
            + 2048;
        let mut dpu = Dpu::new(DpuConfig { mram_words, ..DpuConfig::default() });
        let shared =
            StmShared::allocate(&mut dpu, stm).expect("shard STM metadata must fit the sized DPU");
        let tables =
            ServiceTables::allocate(&mut dpu, Tier::Mram, config.keys, config.journal_capacity)
                .expect("service tables must fit the sized DPU");
        let slots = (0..config.tasklets)
            .map(|t| shared.register_tasklet(&mut dpu, t).expect("per-tasklet logs must fit"))
            .collect();
        ServiceShard {
            dpu,
            shared,
            slots,
            tables,
            completed: 0,
            aborts: 0,
            panel: LatencyPanel::new(TimeDomain::Cycles),
        }
    }
}

/// Report of one fleet service run. Latencies are global simulator cycles.
#[derive(Debug, Clone)]
pub struct ServiceFleetReport {
    /// Shard count.
    pub shards: u32,
    /// Rounds dispatched.
    pub rounds: u64,
    /// Requests served to commit.
    pub completed: u64,
    /// Committed transactions across all shards.
    pub commits: u64,
    /// Aborted attempts across all shards.
    pub aborts: u64,
    /// End-to-end pipelined makespan in seconds (compute + exposed host).
    pub makespan_seconds: f64,
    /// Per-round max shard compute, summed (includes open-loop idle waits).
    pub dpu_seconds: f64,
    /// Host pre/post work actually exposed on the critical path.
    pub host_seconds: f64,
    /// Host pre-work hidden by the pipeline.
    pub hidden_seconds: f64,
    /// Rebalance recuts taken.
    pub rebalances: u64,
    /// Keys copied across shards at rebalance boundaries.
    pub migrated_keys: u64,
    /// Bytes those copies moved through the ledger: per key,
    /// [`pim_fleet::MIGRATION_BYTES_PER_KEY`] gathered from the old owner
    /// and as many scattered to the new one.
    pub migration_bytes: u64,
    /// Requests served per shard (by final routing).
    pub per_shard_completed: Vec<u64>,
    /// Ticks per second of the panel's (cycle) domain.
    pub ticks_per_second: f64,
    /// The arrival process that offered the load.
    pub arrival: ArrivalProcess,
    /// Merged queueing / service / sojourn panel, global clock.
    pub panel: LatencyPanel,
}

impl ServiceFleetReport {
    /// Offered load in requests/second (0 for closed-loop).
    pub fn offered_rate(&self) -> f64 {
        self.arrival.offered_rate()
    }

    /// Achieved throughput in requests/second.
    pub fn achieved_rate(&self) -> f64 {
        if self.makespan_seconds > 0.0 {
            self.completed as f64 / self.makespan_seconds
        } else {
            0.0
        }
    }

    /// Abort rate in `[0, 1]`.
    pub fn abort_rate(&self) -> f64 {
        if self.commits + self.aborts == 0 {
            0.0
        } else {
            self.aborts as f64 / (self.commits + self.aborts) as f64
        }
    }
}

/// The service as the round engine sees it.
struct Service {
    closed_loop: bool,
    clock_hz: f64,
}

impl ShardWorkload for Service {
    type Item = Request;
    type Work = Request;
    type Shard = ServiceShard;

    fn keys(request: &Request) -> impl Iterator<Item = u32> + '_ {
        let destination = (request.op == RequestOp::Transfer).then_some(request.key2 as u32);
        std::iter::once(request.key as u32).chain(destination)
    }

    fn route(
        &self,
        request: Request,
        map: &ShardMap,
        batches: &mut [Vec<Request>],
        _: &mut Vec<(u32, Request)>,
    ) {
        // Owner-local transfers: a foreign destination folds into the
        // owner's key range (see the module documentation).
        let shard = map.owner(request.key as u32);
        let mut local = request;
        if request.op == RequestOp::Transfer && map.owner(request.key2 as u32) != shard {
            let span = u64::from(map.span(shard)).max(1);
            local.key2 = u64::from(map.base(shard)) + request.key2 % span;
        }
        batches[shard as usize].push(local);
    }

    fn wire_bytes(_: &Request) -> u64 {
        REQUEST_WIRE_BYTES
    }

    fn run_batch(&self, shard: &mut ServiceShard, batch: Vec<Request>, start: f64) -> BatchOutcome {
        shard.completed += batch.len() as u64;
        let round = run_sim_round(
            &mut shard.dpu,
            &shard.shared,
            &shard.slots,
            shard.tables,
            batch,
            self.closed_loop,
            (start * self.clock_hz) as u64,
        );
        shard.aborts += round.report.total_aborts();
        shard.panel.merge(&round.panel);
        BatchOutcome {
            seconds: round.report.makespan_seconds(),
            commits: round.report.total_commits(),
            rejected: 0,
        }
    }

    fn migrate(&self, shards: &mut [ServiceShard], old: &ShardMap, new: &ShardMap) -> Migration {
        let mut moved = Migration::new(shards.len());
        for key in 0..old.total_keys() {
            let (from, to) = (old.owner(key), new.owner(key));
            if from == to {
                continue;
            }
            let donor = &shards[from as usize];
            let Some(value) = donor.tables.map.host_get(&donor.dpu, u64::from(key)) else {
                continue;
            };
            let receiver = &mut shards[to as usize];
            receiver
                .tables
                .map
                .host_put(&mut receiver.dpu, u64::from(key), value)
                .expect("full-keyspace shard maps cannot fill");
            moved.record(from, to);
        }
        moved
    }
}

/// Runs the service fleet to stream exhaustion on one host worker.
///
/// # Panics
///
/// Panics when the configuration is infeasible (see
/// [`ServiceFleetConfig::check`]) or a shard does not fit its DPU.
pub fn run_service_fleet(config: &ServiceFleetConfig) -> ServiceFleetReport {
    config.check().unwrap_or_else(|bound| panic!("{bound}"));
    let service = &config.service;
    let map = ShardMap::new(service.keys as u32, config.shards);
    let shards: Vec<ServiceShard> =
        (0..config.shards).map(|_| ServiceShard::new(service)).collect();
    let clock_hz = shards[0].dpu.latency().clock_hz as f64;
    let stream = service.stream(clock_hz);
    let engine = RoundEngine {
        per_round: config.round_requests as usize,
        transfer: config.transfer,
        host: config.host,
        rebalance: config.rebalance,
        overlap: config.overlap,
        workers: 1,
    };
    let workload = Service { closed_loop: service.arrival.is_closed_loop(), clock_hz };
    let done = engine.run(&workload, map, shards, stream);
    let mut panel = LatencyPanel::new(TimeDomain::Cycles);
    for shard in &done.shards {
        panel.merge(&shard.panel);
    }
    let rounds = &done.rounds;
    ServiceFleetReport {
        shards: config.shards,
        rounds: rounds.len() as u64,
        completed: panel.completed(),
        commits: rounds.iter().map(|r| r.commits).sum(),
        aborts: done.shards.iter().map(|s| s.aborts).sum(),
        makespan_seconds: done.makespan_seconds,
        dpu_seconds: rounds.iter().map(|r| r.dpu_seconds).sum(),
        host_seconds: rounds
            .iter()
            .map(|r| r.pre_seconds() - r.hidden_seconds + r.post_seconds())
            .sum(),
        hidden_seconds: rounds.iter().map(|r| r.hidden_seconds).sum(),
        rebalances: done.rebalance.rebalances,
        migrated_keys: done.rebalance.migrated_keys,
        migration_bytes: done.rebalance.migration_bytes,
        per_shard_completed: done.shards.iter().map(|s| s.completed).collect(),
        ticks_per_second: clock_hz,
        arrival: service.arrival,
        panel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_fleet::{
        TransferLedger, GATHER_SUMMARY_BYTES, MIGRATION_BYTES_PER_KEY, ROUND_DESCRIPTOR_BYTES,
    };
    use pim_sim::KeyDist;

    fn fleet_config() -> ServiceFleetConfig {
        let service = ServiceConfig::new(ArrivalProcess::Poisson { rate: 4_000_000.0 })
            .with_tasklets(3)
            .with_keys(256)
            .with_requests(600)
            .with_seed(11);
        ServiceFleetConfig::new(service, 4).with_round_requests(128)
    }

    #[test]
    fn fleet_serves_the_whole_stream_across_shards() {
        let report = run_service_fleet(&fleet_config());
        assert_eq!(report.completed, 600);
        assert_eq!(report.commits, 600);
        assert_eq!(report.shards, 4);
        assert_eq!(report.rounds, 5, "600 requests at 128/round");
        assert_eq!(report.per_shard_completed.iter().sum::<u64>(), 600);
        assert!(
            report.per_shard_completed.iter().filter(|&&c| c > 0).count() >= 2,
            "uniform traffic must reach multiple shards: {:?}",
            report.per_shard_completed
        );
        assert!(report.makespan_seconds > 0.0);
        assert!(report.host_seconds > 0.0, "host primitives must be charged");
        assert!(report.panel.sojourn.quantile(0.99) >= report.panel.sojourn.quantile(0.50));
    }

    #[test]
    fn fleet_runs_are_deterministic_per_seed() {
        let a = run_service_fleet(&fleet_config());
        let b = run_service_fleet(&fleet_config());
        assert_eq!(a.panel, b.panel);
        assert_eq!(a.makespan_seconds, b.makespan_seconds);
        assert_eq!(a.per_shard_completed, b.per_shard_completed);
    }

    #[test]
    fn fleet_closed_loop_queueing_is_zero() {
        let mut config = fleet_config();
        config.service.arrival = ArrivalProcess::ClosedLoop;
        let report = run_service_fleet(&config);
        assert_eq!(report.completed, 600);
        assert_eq!(report.panel.queueing.hist.max(), 0);
    }

    #[test]
    fn skewed_traffic_with_rebalancing_recuts_and_migrates() {
        let mut config = fleet_config();
        config.service =
            config.service.with_dist(KeyDist::Zipf { theta: 0.99 }).with_requests(1000);
        let config = config
            .with_rebalance(RebalancePolicy::Threshold { max_over_mean: 1.2 })
            .with_round_requests(200);
        let report = run_service_fleet(&config);
        assert_eq!(report.completed, 1000);
        assert!(report.rebalances > 0, "zipf 0.99 must trigger a threshold recut");
        assert!(report.migrated_keys > 0, "a recut must move populated keys");
        // Served counts must balance better than the static cut would under
        // this skew (weak check: nobody serves everything).
        let max = report.per_shard_completed.iter().max().copied().unwrap_or(0);
        assert!(max < 1000, "rebalancing must spread the load: {:?}", report.per_shard_completed);
    }

    #[test]
    fn overlap_hides_prework_without_changing_service_results() {
        let serial = run_service_fleet(&fleet_config());
        let pipelined = run_service_fleet(&fleet_config().with_overlap(true));
        assert_eq!(serial.panel.service, pipelined.panel.service, "compute must be unchanged");
        assert_eq!(serial.completed, pipelined.completed);
        assert_eq!(serial.hidden_seconds, 0.0);
        assert!(pipelined.hidden_seconds > 0.0, "some pre-work must hide");
        let shrink = serial.makespan_seconds - pipelined.makespan_seconds;
        assert!(
            (shrink - pipelined.hidden_seconds).abs() < 1e-12,
            "makespan shrinks by exactly the hidden seconds"
        );
    }

    /// One request per round keeps exactly one shard active per round, so
    /// every round gathers one summary even after the whole fleet has
    /// served requests: exposed host time is the per-round cost of
    /// broadcast, one request's scatter and route, one summary's gather
    /// and one shard's merge.
    #[test]
    fn gather_charges_only_the_shards_active_in_the_round() {
        let service = ServiceConfig::new(ArrivalProcess::Poisson { rate: 4_000_000.0 })
            .with_tasklets(2)
            .with_keys(256)
            .with_requests(64);
        let config = ServiceFleetConfig::new(service, 4).with_round_requests(1);
        let report = run_service_fleet(&config);
        assert_eq!(report.rounds, 64);
        assert!(report.per_shard_completed.iter().all(|&c| c > 0), "every shard must serve");
        let mut ledger = TransferLedger::new(config.transfer);
        let per_round = ledger.broadcast(ROUND_DESCRIPTOR_BYTES)
            + ledger.scatter(&[REQUEST_WIRE_BYTES])
            + config.host.route_seconds(1)
            + ledger.gather(&[GATHER_SUMMARY_BYTES])
            + config.host.merge_seconds(1);
        let expected = per_round * report.rounds as f64;
        assert!(
            (report.host_seconds - expected).abs() < 1e-12,
            "host seconds {} vs {expected} for one active shard per round",
            report.host_seconds
        );
    }

    /// A migrated key is paid for in both directions, like the counter
    /// fleet's migrations: gathered from the old owner, scattered to the
    /// new one.
    #[test]
    fn migrations_charge_the_donor_gather_and_the_receiver_scatter() {
        let mut config = fleet_config();
        config.service =
            config.service.with_dist(KeyDist::Zipf { theta: 0.99 }).with_requests(1000);
        let config = config
            .with_rebalance(RebalancePolicy::Threshold { max_over_mean: 1.2 })
            .with_round_requests(200);
        let report = run_service_fleet(&config);
        assert!(report.migrated_keys > 0);
        assert_eq!(report.migration_bytes, 2 * MIGRATION_BYTES_PER_KEY * report.migrated_keys);
        assert!(
            (report.makespan_seconds - report.dpu_seconds - report.host_seconds).abs() < 1e-12,
            "makespan splits into compute and exposed host time"
        );
    }

    #[test]
    fn transfer_destinations_are_owner_local() {
        let service = ServiceConfig::new(ArrivalProcess::Poisson { rate: 4_000_000.0 })
            .with_keys(256)
            .with_requests(400)
            .with_mix(crate::request::RequestMix { get: 0, put: 1, transfer: 1 })
            .with_tasklets(2);
        let report = run_service_fleet(&ServiceFleetConfig::new(service, 4));
        assert_eq!(report.completed, 400, "remapped transfers must still all commit");
    }
}
