//! The counter fleet: a sharded counter workload on the [`RoundEngine`].
//!
//! [`run`] range-partitions the global keyspace of a
//! [`ShardedWorkloadConfig`] over N shard DPUs ([`ShardMap`]), each sized
//! to its slice plus its STM metadata. What is specific to counters:
//! transactions split per owner by the [`RoutingPolicy`] (abort-and-retry
//! probe rejections re-enter the next round split), a recut moves counter
//! values with their keys, and the report adds per-shard stats, the merged
//! cycle-domain [`pim_stm::ExecProfile`] and the partition-invariant
//! fingerprint ([`FleetReport`]).

use pim_sim::{CpuTransferModel, Dpu, DpuConfig, Scheduler, TaskletProgram};
use pim_stm::profile::TimeDomain;
use pim_stm::{
    algorithm_for, var, AbortReason, ExecProfile, MetadataPlacement, StmConfig, StmKind, StmShared,
    TunePolicy, Tuner, TxSlot,
};
use pim_workloads::sharded::{
    deal_batch, generate_stream, route, GlobalTx, ShardData, ShardProgram, ShardTx,
    FINGERPRINT_SEED,
};
use pim_workloads::{RoutingPolicy, ShardMap, ShardedWorkloadConfig, TxMachine};

use crate::engine::{BatchOutcome, Migration, RoundEngine, ShardWorkload};
use crate::host::HostCostModel;
use crate::rebalance::RebalancePolicy;
use crate::report::{FleetReport, Imbalance, ShardStats};

/// Everything that defines one fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Shard DPUs in the fleet.
    pub n_dpus: usize,
    /// Tasklets per shard DPU.
    pub tasklets: usize,
    /// STM design every shard runs.
    pub kind: StmKind,
    /// Metadata placement on every shard.
    pub placement: MetadataPlacement,
    /// The global workload (keyspace, stream length, skew) — shard-count
    /// independent by construction.
    pub workload: ShardedWorkloadConfig,
    /// Cross-shard routing policy.
    pub routing: RoutingPolicy,
    /// Global transactions the host dispatches per round (the round
    /// granularity of the barrier).
    pub txns_per_round: usize,
    /// Seed of the global stream.
    pub seed: u64,
    /// Transfer-cost model every host primitive is charged against.
    pub transfer: CpuTransferModel,
    /// Modeled host CPU costs (routing, merge).
    pub host: HostCostModel,
    /// Host worker threads simulating shards in parallel; `0` = one per
    /// available core. Affects wall-clock speed only, never results.
    pub host_workers: usize,
    /// When to recut the range partition between rounds (default `Off` —
    /// the static partition of every previous fleet).
    pub rebalance: RebalancePolicy,
    /// Double-buffered round pipeline: model round *k+1*'s pre-work as
    /// overlapping round *k*'s compute (default `false` — the serial
    /// round structure of every previous fleet).
    pub overlap: bool,
    /// Online self-tuning policy every shard's tasklets run (default
    /// `Static` — fixed knobs, the behaviour of every previous fleet).
    /// Each shard DPU tunes independently: tuner state persists across
    /// that shard's rounds and survives rebalance recuts.
    pub tune: TunePolicy,
}

impl FleetConfig {
    /// A fleet of `n_dpus` over `workload`, with the defaults the `--fleet`
    /// sweep uses: 8 tasklets, NOrec with MRAM metadata, route-to-owner,
    /// four dispatch rounds.
    pub fn new(n_dpus: usize, workload: ShardedWorkloadConfig) -> Self {
        FleetConfig {
            n_dpus,
            tasklets: 8,
            kind: StmKind::Norec,
            placement: MetadataPlacement::Mram,
            workload,
            routing: RoutingPolicy::RouteToOwner,
            txns_per_round: (workload.total_txns as usize).div_ceil(4).max(1),
            seed: 42,
            transfer: CpuTransferModel::default(),
            host: HostCostModel::default(),
            host_workers: 0,
            rebalance: RebalancePolicy::Off,
            overlap: false,
            tune: TunePolicy::Static,
        }
    }

    /// Replaces the routing policy.
    pub fn with_routing(mut self, routing: RoutingPolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Replaces the stream seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the rebalance policy.
    pub fn with_rebalance(mut self, rebalance: RebalancePolicy) -> Self {
        self.rebalance = rebalance;
        self
    }

    /// Enables or disables the double-buffered round pipeline.
    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap = overlap;
        self
    }

    /// Replaces the online self-tuning policy.
    pub fn with_tune(mut self, tune: TunePolicy) -> Self {
        self.tune = tune;
        self
    }

    /// Caps the host worker threads that simulate shards in parallel
    /// (`0` = one per available core). Results never depend on it, so an
    /// outer experiment runner holding a machine-wide thread budget (e.g.
    /// `pim_exp::pool::WorkerPool::inner_budget`) plants its per-job quota
    /// here to keep `outer jobs × shard workers` within that budget.
    pub fn with_host_workers(mut self, host_workers: usize) -> Self {
        self.host_workers = host_workers;
        self
    }

    /// The STM configuration every shard allocates, with transaction-set
    /// capacities sized to the workload.
    pub fn stm_config(&self) -> StmConfig {
        StmConfig::new(self.kind, self.placement)
            .with_read_set_capacity((self.workload.keys_per_tx() + 8).next_power_of_two())
            .with_write_set_capacity((self.workload.updates_per_tx + 8).next_power_of_two())
            .with_tune(self.tune)
    }

    fn validate(&self) {
        assert!(self.n_dpus > 0, "a fleet needs at least one DPU");
        assert!(
            self.tasklets >= 1 && self.tasklets <= DpuConfig::default().max_tasklets,
            "tasklets per shard must lie in 1..=24"
        );
        assert!(self.txns_per_round > 0, "txns_per_round must be positive");
        assert!(self.workload.total_txns > 0, "the global stream must be non-empty");
        assert!(self.workload.keys_per_tx() > 0, "transactions must touch at least one key");
    }
}

/// One shard's persistent state across rounds.
struct ShardState {
    dpu: Dpu,
    shared: StmShared,
    data: ShardData,
    slots: Vec<TxSlot>,
    profile: ExecProfile,
    dispatched: u64,
    commits: u64,
    aborts: u64,
    rejected: u64,
    busy_cycles: u64,
    /// Per-tasklet tuner state, persisted across rounds (and across
    /// rebalance recuts): `TxMachine`s are rebuilt fresh every round, so
    /// the shard re-installs each tasklet's tuner into its machine before
    /// the round and harvests it back afterwards. `None` entries mean the
    /// tasklet has not run a tuned round yet (or tuning is off).
    tuners: Vec<Option<Tuner>>,
}

impl ShardState {
    /// Builds one shard: a DPU sized to its key slice + STM metadata, the
    /// STM instance, the counter slice, and one registered slot per
    /// tasklet (registered once; fresh transaction machines wrap them
    /// every round).
    fn new(config: &FleetConfig, base: u32, span: u32) -> Self {
        let stm_cfg = config.stm_config();
        let mram_words = span.max(1)
            + stm_cfg.shared_metadata_words()
            + stm_cfg.per_tasklet_metadata_words() * config.tasklets as u32
            + 2048;
        let mut dpu = Dpu::new(DpuConfig { mram_words, ..DpuConfig::default() });
        let shared = StmShared::allocate(&mut dpu, stm_cfg)
            .expect("shard STM metadata must fit the sized DPU");
        let data = ShardData::allocate(&mut dpu, base, span);
        let slots = (0..config.tasklets)
            .map(|t| {
                shared
                    .register_tasklet(&mut dpu, t)
                    .expect("per-tasklet STM logs must fit the sized DPU")
            })
            .collect();
        ShardState {
            dpu,
            shared,
            data,
            slots,
            profile: ExecProfile::new(TimeDomain::Cycles),
            dispatched: 0,
            commits: 0,
            aborts: 0,
            rejected: 0,
            busy_cycles: 0,
            tuners: (0..config.tasklets).map(|_| None).collect(),
        }
    }

    /// Runs one round's batch to completion on this shard's simulator and
    /// folds the results into the shard accumulators.
    fn run_batch(&mut self, batch: Vec<ShardTx>) -> BatchOutcome {
        self.dispatched += batch.len() as u64;
        let alg = algorithm_for(self.shared.config().kind);
        // Per-tasklet tuners outlive the round's machines: each machine
        // starts from the tuner its tasklet ended the previous round with
        // and deposits it back through the stash when the scheduler drops
        // the program. The stashes never leave this shard's worker thread.
        let mut stashes: Vec<std::rc::Rc<std::cell::RefCell<Option<Tuner>>>> = Vec::new();
        let programs: Vec<Box<dyn TaskletProgram>> = deal_batch(batch, self.slots.len())
            .into_iter()
            .enumerate()
            .map(|(t, hand)| {
                let mut machine = TxMachine::new(self.shared.clone(), self.slots[t].clone(), alg);
                if let Some(prev) = self.tuners[t].take() {
                    machine.install_tuner(prev);
                }
                let stash = std::rc::Rc::new(std::cell::RefCell::new(None));
                stashes.push(std::rc::Rc::clone(&stash));
                Box::new(ShardProgram::new(machine, self.data, hand).with_tuner_stash(stash))
                    as Box<dyn TaskletProgram>
            })
            .collect();
        let report = Scheduler::new().run(&mut self.dpu, programs);
        for (t, stash) in stashes.into_iter().enumerate() {
            self.tuners[t] = stash.borrow_mut().take();
        }
        let mut rejected = 0;
        for stats in &report.tasklet_stats {
            rejected += stats.profile.abort_codes[AbortReason::Explicit.index()];
            self.profile.merge(&ExecProfile::from_sim(stats));
        }
        self.commits += report.total_commits();
        self.aborts += report.total_aborts();
        self.rejected += rejected;
        self.busy_cycles += report.makespan_cycles;
        BatchOutcome {
            seconds: report.makespan_seconds(),
            commits: report.total_commits(),
            rejected,
        }
    }

    fn stats(&self, shard: u32) -> ShardStats {
        ShardStats {
            shard,
            keys: self.data.span(),
            dispatched: self.dispatched,
            commits: self.commits,
            aborts: self.aborts,
            rejected: self.rejected,
            busy_cycles: self.busy_cycles,
            tune_windows: self.profile.core.tune_windows,
            tune_switches: self.profile.core.tune_switches,
            tuned_knobs: self.tuners.iter().flatten().next().map(Tuner::knobs),
        }
    }
}

/// The shard-worker thread count a `host_workers` setting resolves to:
/// itself, or one per available core for `0`. This — not the raw field —
/// is what [`run`] spawns at most per round, and what budget-holding
/// callers audit against their quota.
pub fn resolve_host_workers(host_workers: usize) -> usize {
    if host_workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        host_workers
    }
}

/// The counter workload as the round engine sees it.
struct Counters<'a>(&'a FleetConfig);

impl ShardWorkload for Counters<'_> {
    type Item = GlobalTx;
    type Work = ShardTx;
    type Shard = ShardState;

    fn keys(tx: &GlobalTx) -> impl Iterator<Item = u32> + '_ {
        tx.reads.iter().chain(&tx.updates).copied()
    }

    fn route(
        &self,
        tx: GlobalTx,
        map: &ShardMap,
        batches: &mut [Vec<ShardTx>],
        deferred: &mut Vec<(u32, ShardTx)>,
    ) {
        let routed = route(&tx, map, self.0.routing);
        for (shard, sub) in routed.now {
            batches[shard as usize].push(sub);
        }
        deferred.extend(routed.deferred);
    }

    fn wire_bytes(tx: &ShardTx) -> u64 {
        tx.wire_bytes()
    }

    fn run_batch(&self, shard: &mut ShardState, batch: Vec<ShardTx>, _: f64) -> BatchOutcome {
        shard.run_batch(batch)
    }

    /// Counter values move with their keys: every counter is snapshotted
    /// host-side, each shard whose slice changed gets a fresh DPU sized to
    /// its new slice (its cumulative accumulators and tuners stay), and the
    /// values are replayed into the new owners.
    fn migrate(&self, shards: &mut [ShardState], old: &ShardMap, new: &ShardMap) -> Migration {
        let mut moved = Migration::new(shards.len());
        let mut counters = vec![0u64; old.total_keys() as usize];
        for key in 0..old.total_keys() {
            let (from, to) = (old.owner(key), new.owner(key));
            let state = &shards[from as usize];
            counters[key as usize] = var::peek_var(&state.dpu, state.data.counter(key));
            if from != to {
                moved.record(from, to);
            }
        }
        for (s, state) in (0u32..).zip(shards.iter_mut()) {
            if new.base(s) == old.base(s) && new.span(s) == old.span(s) {
                continue;
            }
            let fresh = ShardState::new(self.0, new.base(s), new.span(s));
            (state.dpu, state.shared, state.data, state.slots) =
                (fresh.dpu, fresh.shared, fresh.data, fresh.slots);
            for key in new.base(s)..new.base(s) + new.span(s) {
                var::poke_var(&mut state.dpu, state.data.counter(key), counters[key as usize]);
            }
        }
        moved
    }

    /// Each deferred sub-transaction was split by the old owners; it is
    /// re-split by the new ones, in the original order.
    fn reroute(&self, deferred: Vec<(u32, ShardTx)>, map: &ShardMap) -> Vec<(u32, ShardTx)> {
        deferred
            .into_iter()
            .flat_map(|(_, tx)| {
                let whole = GlobalTx { id: tx.origin, reads: tx.reads, updates: tx.updates };
                route(&whole, map, RoutingPolicy::RouteToOwner).now
            })
            .collect()
    }
}

/// Runs the fleet to completion and returns its report.
///
/// # Panics
///
/// Panics on an inconsistent configuration (zero DPUs, zero-length
/// stream, more tasklets than the hardware supports) or if a shard's STM
/// metadata does not fit the DPU the sizing formula produced — both are
/// configuration bugs, not runtime conditions.
pub fn run(config: &FleetConfig) -> FleetReport {
    config.validate();
    let map = ShardMap::new(config.workload.total_keys, config.n_dpus as u32);
    let stream = generate_stream(&config.workload, config.seed);
    let global_txns = stream.len() as u64;
    let shards: Vec<ShardState> = (0..config.n_dpus as u32)
        .map(|s| ShardState::new(config, map.base(s), map.span(s)))
        .collect();
    let engine = RoundEngine {
        per_round: config.txns_per_round,
        transfer: config.transfer,
        host: config.host,
        rebalance: config.rebalance,
        overlap: config.overlap,
        workers: resolve_host_workers(config.host_workers),
    };
    let done = engine.run(&Counters(config), map, shards, stream);
    let shards = done.shards;

    let shard_stats: Vec<ShardStats> =
        shards.iter().enumerate().map(|(i, s)| s.stats(i as u32)).collect();
    let fingerprint =
        shards.iter().fold(FINGERPRINT_SEED, |hash, s| s.data.fold_fingerprint(&s.dpu, hash));
    let total_increments: u64 = shards.iter().map(|s| s.data.counter_sum(&s.dpu)).sum();
    let profile = ExecProfile::merged(shards.iter().map(|s| &s.profile))
        .unwrap_or_else(|| ExecProfile::new(TimeDomain::Cycles));
    let imbalance = Imbalance::from_shards(&shard_stats);

    FleetReport {
        n_dpus: config.n_dpus,
        tasklets: config.tasklets,
        routing: config.routing,
        global_txns,
        dispatched_subtxns: shard_stats.iter().map(|s| s.dispatched).sum(),
        total_commits: shard_stats.iter().map(|s| s.commits).sum(),
        total_aborts: shard_stats.iter().map(|s| s.aborts).sum(),
        total_rejected: shard_stats.iter().map(|s| s.rejected).sum(),
        total_increments,
        fingerprint,
        rounds: done.rounds,
        shards: shard_stats,
        imbalance,
        profile,
        ledger: done.ledger,
        pipeline: done.pipeline,
        rebalance: done.rebalance,
        makespan_seconds: done.makespan_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MIGRATION_BYTES_PER_KEY;
    use pim_sim::KeyDist;

    fn small_workload() -> ShardedWorkloadConfig {
        ShardedWorkloadConfig::new(256, 96)
    }

    #[test]
    fn a_fleet_run_commits_every_transaction_exactly_once() {
        let config = FleetConfig::new(4, small_workload());
        let report = run(&config);
        // Route-to-owner: every global transaction's updates land exactly
        // once, so increments are conserved against the stream.
        assert_eq!(
            report.total_increments,
            u64::from(config.workload.updates_per_tx) * report.global_txns
        );
        assert!(report.total_commits >= report.global_txns, "splits add commits");
        assert_eq!(report.total_rejected, 0, "route-to-owner never probes");
        assert!(report.makespan_seconds > 0.0);
        assert!(report.throughput_tx_per_sec() > 0.0);
        assert_eq!(report.rounds.len(), 4);
        assert_eq!(report.shards.len(), 4);
    }

    #[test]
    fn results_are_independent_of_host_worker_count() {
        let base = FleetConfig::new(8, small_workload());
        let serial = run(&FleetConfig { host_workers: 1, ..base });
        let parallel = run(&FleetConfig { host_workers: 4, ..base });
        assert_eq!(serial, parallel, "host workers must not affect results");
        // The same holds with both new mechanisms switched on.
        let tuned = FleetConfig::new(8, small_workload().with_dist(KeyDist::Zipf { theta: 1.2 }))
            .with_rebalance(RebalancePolicy::Threshold { max_over_mean: 1.25 })
            .with_overlap(true);
        let serial = run(&FleetConfig { host_workers: 1, ..tuned });
        let parallel = run(&FleetConfig { host_workers: 4, ..tuned });
        assert_eq!(serial, parallel, "rebalance + overlap must stay deterministic");
    }

    #[test]
    fn rebalancing_pays_for_itself_and_preserves_results() {
        let workload = small_workload().with_dist(KeyDist::Zipf { theta: 1.2 });
        let static_run = run(&FleetConfig::new(8, workload));
        let adaptive = run(&FleetConfig::new(8, workload)
            .with_rebalance(RebalancePolicy::Threshold { max_over_mean: 1.25 }));
        assert!(adaptive.rebalance.rebalances > 0, "skewed stream must trigger a recut");
        assert!(adaptive.rebalance.migrated_keys > 0);
        assert_eq!(
            adaptive.rebalance.migration_bytes,
            2 * MIGRATION_BYTES_PER_KEY * adaptive.rebalance.migrated_keys
        );
        // Results are partition-invariant: same fingerprint and increments.
        assert_eq!(adaptive.fingerprint, static_run.fingerprint);
        assert_eq!(adaptive.total_increments, static_run.total_increments);
        // The recut spreads later rounds' load off the head shard.
        assert!(
            adaptive.imbalance.max_over_mean_busy < static_run.imbalance.max_over_mean_busy,
            "recut must flatten busy-cycle imbalance ({} vs {})",
            adaptive.imbalance.max_over_mean_busy,
            static_run.imbalance.max_over_mean_busy
        );
    }

    #[test]
    fn overlap_changes_only_the_cost_accounting() {
        let base = FleetConfig::new(8, small_workload());
        let serial = run(&base);
        let pipelined = run(&base.with_overlap(true));
        assert!(pipelined.pipeline.enabled);
        assert!(!serial.pipeline.enabled);
        assert_eq!(serial.pipeline.hidden_seconds, 0.0);
        assert!(pipelined.pipeline.hidden_seconds > 0.0, "some pre-work must hide");
        assert!(pipelined.pipeline.overlapped_rounds > 0);
        assert!(pipelined.makespan_seconds < serial.makespan_seconds);
        assert!(
            (serial.makespan_seconds
                - pipelined.makespan_seconds
                - pipelined.pipeline.hidden_seconds)
                .abs()
                < 1e-12,
            "makespan shrinks by exactly the hidden seconds"
        );
        // Execution results are untouched: only the cost model changed.
        assert_eq!(pipelined.fingerprint, serial.fingerprint);
        assert_eq!(pipelined.total_commits, serial.total_commits);
        assert_eq!(pipelined.ledger, serial.ledger);
    }

    #[test]
    fn abort_and_retry_probes_then_commits_the_same_state() {
        let owner = run(&FleetConfig::new(4, small_workload()));
        let retry =
            run(&FleetConfig::new(4, small_workload()).with_routing(RoutingPolicy::AbortAndRetry));
        assert!(retry.total_rejected > 0, "cross-shard txns must probe under abort-retry");
        assert_eq!(
            retry.profile.aborts_for(AbortReason::Explicit),
            retry.total_rejected,
            "every rejection is an Explicit abort in the merged histogram"
        );
        // Both policies apply the same global increments.
        assert_eq!(owner.fingerprint, retry.fingerprint);
        assert_eq!(owner.total_increments, retry.total_increments);
        // The probe round costs extra dispatches and rounds.
        assert!(retry.dispatched_subtxns > owner.dispatched_subtxns);
        assert!(retry.rounds.len() > owner.rounds.len());
    }

    #[test]
    fn skew_concentrates_load_on_the_head_shard() {
        let workload = small_workload().with_dist(KeyDist::Zipf { theta: 1.2 });
        let uniform = run(&FleetConfig::new(8, small_workload()));
        let skewed = run(&FleetConfig::new(8, workload));
        assert_eq!(skewed.imbalance.hottest_shard, 0, "zipf head keys live on shard 0");
        assert!(
            skewed.imbalance.cv_commits > uniform.imbalance.cv_commits,
            "skew must raise commit imbalance ({} vs {})",
            skewed.imbalance.cv_commits,
            uniform.imbalance.cv_commits
        );
    }

    #[test]
    fn per_shard_tuners_persist_across_rounds_and_stay_deterministic() {
        let workload = ShardedWorkloadConfig::new(256, 384).with_dist(KeyDist::Zipf { theta: 1.2 });
        let static_run = run(&FleetConfig::new(4, workload));
        // A short window so the hot shard's tasklets complete several
        // signal windows within this small stream.
        let tuned_cfg = FleetConfig::new(4, workload).with_tune(TunePolicy::Windowed { window: 8 });
        let tuned = run(&tuned_cfg);
        // Tuning moves timing knobs, never outcomes: same fingerprint and
        // the same conserved increment count as the static fleet.
        assert_eq!(tuned.fingerprint, static_run.fingerprint);
        assert_eq!(tuned.total_increments, static_run.total_increments);
        // The tuners actually ran and their state surfaced in the report.
        assert!(
            tuned.shards.iter().any(|s| s.tune_windows > 0),
            "some shard must evaluate at least one tuning window"
        );
        assert!(tuned.profile.core.tune_windows > 0, "merged profile carries tuner counters");
        assert!(
            tuned.shards.iter().filter(|s| s.tune_windows > 0).all(|s| s.tuned_knobs.is_some()),
            "every shard that tuned reports its settled knobs"
        );
        // The static fleet reports no tuner state at all.
        assert!(static_run
            .shards
            .iter()
            .all(|s| s.tune_windows == 0 && s.tune_switches == 0 && s.tuned_knobs.is_none()));
        // Tuner decisions are part of the deterministic state machine:
        // host worker count still must not affect any result.
        let serial = run(&FleetConfig { host_workers: 1, ..tuned_cfg });
        let parallel = run(&FleetConfig { host_workers: 4, ..tuned_cfg });
        assert_eq!(serial, parallel, "tuned fleets must stay worker-count invariant");
    }

    #[test]
    fn more_shards_than_keys_still_conserves() {
        let workload = ShardedWorkloadConfig::new(16, 24);
        let report = run(&FleetConfig::new(32, workload));
        assert_eq!(report.total_increments, 2 * 24);
        assert!(report.shards.iter().filter(|s| s.keys == 0).count() > 0);
    }
}
