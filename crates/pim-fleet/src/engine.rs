//! The round engine: one host dispatcher for every sharded workload.
//!
//! [`RoundEngine::run`] drives N shard DPUs through rounds until the
//! stream and all deferred work are drained. What a shard serves (counter
//! sub-transactions in [`crate::runtime`], requests in `pim_service`)
//! comes in through [`ShardWorkload`]; the round structure and every host
//! cost live here:
//!
//! 1. **Dispatch**: deferred work first, then up to
//!    [`RoundEngine::per_round`] stream items, each noted in the
//!    [`Rebalancer`]'s load window and routed under the current map.
//! 2. **Pre-work**: `broadcast` of the [`ROUND_DESCRIPTOR_BYTES`]
//!    descriptor, `scatter` of each batch's wire bytes, host routing.
//! 3. **Barrier**: every active shard runs its batch to completion; the
//!    round costs its slowest shard.
//! 4. **Post-work**: `gather` of a [`GATHER_SUMMARY_BYTES`] summary from
//!    each shard active in this round, host merge.
//! 5. **Rebalance** (unless [`RebalancePolicy::Off`]): when the policy
//!    fires and work remains, the workload moves shard state to the recut
//!    map and the engine charges each moved key as a `gather` from its old
//!    owner plus a `scatter` to its new one ([`MIGRATION_BYTES_PER_KEY`]
//!    each way) in this round's post-work; the scatter bytes count toward
//!    the next round's inputs, and deferred work is re-routed.
//! 6. **Pipeline** ([`RoundEngine::overlap`]): an eligible round (not
//!    round 0, no deferred work entering it, no migration just before it)
//!    hides `min(pre_k, compute_{k−1})` of its pre-work behind the previous
//!    compute. Only the cost model changes, never execution.
//!
//! The makespan sums [`RoundStats::pipelined_seconds`] in round order; a
//! batch sees the fleet clock at its compute start (the makespan so far
//! plus this round's exposed pre-work). Host costs are modeled, never
//! measured, and outcomes are collected in shard order, so a seeded run is
//! bit-identical for any worker count on any machine.

use std::thread;

use pim_sim::CpuTransferModel;
use pim_workloads::ShardMap;

use crate::host::{HostCostModel, TransferLedger};
use crate::rebalance::{RebalancePolicy, Rebalancer};
use crate::report::{PipelineStats, RebalanceStats, RoundStats};

/// Bytes of the per-round control block the host broadcasts to every DPU
/// (round number, batch length, flags).
pub const ROUND_DESCRIPTOR_BYTES: u64 = 64;

/// Bytes of the per-shard result summary the host gathers after each round
/// (commits, aborts, rejections, checksum).
pub const GATHER_SUMMARY_BYTES: u64 = 32;

/// Bytes a migrated key costs in **each** direction (one 8-byte value):
/// gathered from the old owner, scattered to the new owner.
pub const MIGRATION_BYTES_PER_KEY: u64 = 8;

/// What a sharded workload supplies to the [`RoundEngine`]: the parts of a
/// round that differ between workloads.
pub trait ShardWorkload: Sync {
    /// One element of the global stream.
    type Item;
    /// One unit of work a shard runs.
    type Work: Send;
    /// One shard's state, persistent across rounds.
    type Shard: Send;

    /// The keys `item` touches, fed to the rebalancer's load window.
    fn keys(item: &Self::Item) -> impl Iterator<Item = u32> + '_;

    /// Routes `item` under `map`: work that runs this round goes to its
    /// shard's batch, work that must wait for the next round to
    /// `deferred`.
    fn route(
        &self,
        item: Self::Item,
        map: &ShardMap,
        batches: &mut [Vec<Self::Work>],
        deferred: &mut Vec<(u32, Self::Work)>,
    );

    /// Scatter bytes of one unit of work.
    fn wire_bytes(work: &Self::Work) -> u64;

    /// Runs one round's batch on `shard` to completion. `start_seconds` is
    /// the fleet clock at the round's compute start.
    fn run_batch(
        &self,
        shard: &mut Self::Shard,
        batch: Vec<Self::Work>,
        start_seconds: f64,
    ) -> BatchOutcome;

    /// Moves shard state from the owners under `old` to those under `new`.
    fn migrate(&self, shards: &mut [Self::Shard], old: &ShardMap, new: &ShardMap) -> Migration;

    /// Re-routes deferred work under a recut map. Workloads that never
    /// defer keep the default.
    fn reroute(&self, deferred: Vec<(u32, Self::Work)>, _map: &ShardMap) -> Vec<(u32, Self::Work)> {
        deferred
    }
}

/// What one shard's batch did in one round.
#[derive(Debug, Clone, Copy)]
pub struct BatchOutcome {
    /// Modeled DPU seconds the batch took.
    pub seconds: f64,
    /// Transactions committed.
    pub commits: u64,
    /// Probe transactions rejected back to the host.
    pub rejected: u64,
}

/// The keys a recut moved and the bytes they cost per shard.
#[derive(Debug, Clone)]
pub struct Migration {
    /// Keys moved to a new owner.
    pub keys: u64,
    /// Bytes gathered from each old owner.
    pub from_bytes: Vec<u64>,
    /// Bytes scattered to each new owner.
    pub to_bytes: Vec<u64>,
}

impl Migration {
    /// No moves yet, over `shards` shards.
    pub fn new(shards: usize) -> Self {
        Migration { keys: 0, from_bytes: vec![0; shards], to_bytes: vec![0; shards] }
    }

    /// Records one key moving from shard `from` to shard `to`.
    pub fn record(&mut self, from: u32, to: u32) {
        self.keys += 1;
        self.from_bytes[from as usize] += MIGRATION_BYTES_PER_KEY;
        self.to_bytes[to as usize] += MIGRATION_BYTES_PER_KEY;
    }
}

/// The workload-independent settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct RoundEngine {
    /// Stream items the host dispatches per round.
    pub per_round: usize,
    /// Transfer-cost model every primitive is charged against.
    pub transfer: CpuTransferModel,
    /// Modeled host CPU costs (routing, merge).
    pub host: HostCostModel,
    /// When to recut the range partition between rounds.
    pub rebalance: RebalancePolicy,
    /// Double-buffered round pipeline credit.
    pub overlap: bool,
    /// Host threads running shards; `1` runs them inline.
    pub workers: usize,
}

/// What a finished run hands back to its workload.
#[derive(Debug)]
pub struct EngineRun<S> {
    /// The shards in their final state.
    pub shards: Vec<S>,
    /// Per-round accounting.
    pub rounds: Vec<RoundStats>,
    /// Every transfer the run charged.
    pub ledger: TransferLedger,
    /// What the pipeline hid.
    pub pipeline: PipelineStats,
    /// What rebalancing moved and cost.
    pub rebalance: RebalanceStats,
    /// Σ [`RoundStats::pipelined_seconds`], in round order.
    pub makespan_seconds: f64,
}

impl RoundEngine {
    /// Runs `stream` over `shards`, initially partitioned by `map`, until
    /// the stream and every deferred unit of work are drained.
    pub fn run<W: ShardWorkload>(
        &self,
        workload: &W,
        mut map: ShardMap,
        mut shards: Vec<W::Shard>,
        stream: Vec<W::Item>,
    ) -> EngineRun<W::Shard> {
        let mut pending = stream.into_iter();
        let mut ledger = TransferLedger::new(self.transfer);
        let mut rebalancer = Rebalancer::new(self.rebalance, map.total_keys());
        let mut rebalance = RebalanceStats { policy: self.rebalance, ..RebalanceStats::default() };
        let mut deferred: Vec<(u32, W::Work)> = Vec::new();
        let mut rounds: Vec<RoundStats> = Vec::new();
        let mut makespan = 0.0f64;
        // Migration scatter bytes from the previous boundary: the recut
        // state arrives with the next round's inputs, so the byte count is
        // attributed there (the ledger charged it at migration time).
        let mut carry_to_dpus = 0u64;
        let mut migrated_last_boundary = false;
        let mut prev_dpu_seconds = 0.0f64;

        while !pending.as_slice().is_empty() || !deferred.is_empty() {
            let carry_in = std::mem::take(&mut carry_to_dpus);

            // --- Dispatch: deferred re-dispatches first, then the stream.
            let deferred_in = deferred.len();
            let mut batches: Vec<Vec<W::Work>> = shards.iter().map(|_| Vec::new()).collect();
            for (shard, work) in deferred.drain(..) {
                batches[shard as usize].push(work);
            }
            let mut next_deferred = Vec::new();
            for item in pending.by_ref().take(self.per_round) {
                rebalancer.note(W::keys(&item));
                workload.route(item, &map, &mut batches, &mut next_deferred);
            }
            let dispatched: u64 = batches.iter().map(|b| b.len() as u64).sum();

            // --- Pre-work: descriptor to everyone, batches to owners.
            let broadcast_seconds = ledger.broadcast(ROUND_DESCRIPTOR_BYTES);
            let scatter_bytes: Vec<u64> =
                batches.iter().map(|b| b.iter().map(W::wire_bytes).sum()).collect();
            let scatter_seconds = ledger.scatter(&scatter_bytes);
            let gather_bytes: Vec<u64> = batches
                .iter()
                .map(|b| if b.is_empty() { 0 } else { GATHER_SUMMARY_BYTES })
                .collect();
            let host_route_seconds = self.host.route_seconds(dispatched);

            // --- Pipeline eligibility: the pre-work may overlap the previous
            // compute only if it needed nothing from that round.
            let overlapped =
                self.overlap && !rounds.is_empty() && deferred_in == 0 && !migrated_last_boundary;
            let pre_seconds = broadcast_seconds + scatter_seconds + host_route_seconds;
            let hidden_seconds = if overlapped { pre_seconds.min(prev_dpu_seconds) } else { 0.0 };

            // --- Barrier: the round waits for its slowest shard.
            let start_seconds = makespan + (pre_seconds - hidden_seconds);
            let outcomes = self.barrier(workload, &mut shards, batches, start_seconds);
            let active_shards = outcomes.len() as u64;
            let dpu_seconds = outcomes.iter().map(|o| o.seconds).fold(0.0, f64::max);
            let dpu_mean_seconds =
                outcomes.iter().map(|o| o.seconds).sum::<f64>() / active_shards.max(1) as f64;

            // --- Post-work: summaries from the shards active this round.
            let gather_seconds = ledger.gather(&gather_bytes);
            let host_merge_seconds = self.host.merge_seconds(active_shards);

            // --- Rebalance boundary: the trigger reads dispatch-side data
            // only, and a recut needs future work to amortize it.
            let more_work = !pending.as_slice().is_empty() || !next_deferred.is_empty();
            migrated_last_boundary = false;
            let (mut migrated_keys, mut migration_seconds, mut migration_from_dpus) = (0, 0.0, 0);
            if let Some(new_map) = rebalancer.plan(&map, more_work) {
                let moved = workload.migrate(&mut shards, &map, &new_map);
                migrated_keys = moved.keys;
                migration_from_dpus = moved.from_bytes.iter().sum();
                carry_to_dpus = moved.to_bytes.iter().sum();
                migration_seconds =
                    ledger.gather(&moved.from_bytes) + ledger.scatter(&moved.to_bytes);
                next_deferred = workload.reroute(next_deferred, &new_map);
                map = new_map;
                rebalance.rebalances += 1;
                rebalance.migrated_keys += migrated_keys;
                rebalance.migration_bytes += migration_from_dpus + carry_to_dpus;
                rebalance.migration_seconds += migration_seconds;
                migrated_last_boundary = true;
            }

            let stats = RoundStats {
                round: rounds.len(),
                dispatched_subtxns: dispatched,
                active_shards,
                commits: outcomes.iter().map(|o| o.commits).sum(),
                rejected: outcomes.iter().map(|o| o.rejected).sum(),
                broadcast_seconds,
                scatter_seconds,
                dpu_seconds,
                dpu_mean_seconds,
                gather_seconds,
                host_route_seconds,
                host_merge_seconds,
                bytes_to_dpus: ROUND_DESCRIPTOR_BYTES
                    + scatter_bytes.iter().sum::<u64>()
                    + carry_in,
                bytes_from_dpus: gather_bytes.iter().sum::<u64>() + migration_from_dpus,
                migrated_keys,
                migration_seconds,
                overlapped,
                hidden_seconds,
            };
            makespan += stats.pipelined_seconds();
            rounds.push(stats);
            deferred = next_deferred;
            prev_dpu_seconds = dpu_seconds;
        }

        let hidden_total: f64 = rounds.iter().map(|r| r.hidden_seconds).sum();
        let overlapped_rounds = rounds.iter().filter(|r| r.overlapped).count() as u64;
        let pipeline = PipelineStats {
            enabled: self.overlap,
            overlapped_rounds,
            stalled_rounds: rounds.len() as u64 - overlapped_rounds,
            hidden_seconds: hidden_total,
            exposed_pre_seconds: rounds.iter().map(RoundStats::pre_seconds).sum::<f64>()
                - hidden_total,
        };
        EngineRun { shards, rounds, ledger, pipeline, rebalance, makespan_seconds: makespan }
    }

    /// Runs every non-empty batch on its shard and returns the outcomes in
    /// shard order: inline on one worker, else round-robin over scoped
    /// worker threads.
    fn barrier<W: ShardWorkload>(
        &self,
        workload: &W,
        shards: &mut [W::Shard],
        batches: Vec<Vec<W::Work>>,
        start_seconds: f64,
    ) -> Vec<BatchOutcome> {
        let mut outcomes: Vec<Option<BatchOutcome>> = shards.iter().map(|_| None).collect();
        let work =
            shards.iter_mut().zip(batches).zip(&mut outcomes).filter(|((_, b), _)| !b.is_empty());
        let run = |((shard, batch), slot): ((&mut W::Shard, Vec<W::Work>), &mut Option<_>)| {
            *slot = Some(workload.run_batch(shard, batch, start_seconds));
        };
        if self.workers <= 1 {
            work.for_each(run);
        } else {
            let mut bins: Vec<Vec<_>> = (0..self.workers).map(|_| Vec::new()).collect();
            for (i, item) in work.enumerate() {
                bins[i % self.workers].push(item);
            }
            thread::scope(|scope| {
                for bin in bins.into_iter().filter(|bin| !bin.is_empty()) {
                    scope.spawn(move || bin.into_iter().for_each(run));
                }
            });
        }
        outcomes.into_iter().flatten().collect()
    }
}
