//! # pim-fleet — a multi-DPU sharded runtime with a host orchestration layer
//!
//! The PIM-STM paper's multi-DPU study extrapolates from one simulated
//! DPU. This crate replaces that extrapolation with *measurement*: it
//! partitions a workload's data across N simulated DPUs (N scaling to
//! thousands — each shard DPU's MRAM is sized to its slice, and the shard
//! simulators run in parallel across host worker threads), drives them
//! with a round-structured host dispatcher, and merges the per-DPU
//! results into one fleet report. The analytic
//! [`pim_sim::MultiDpuPlan`] stays available as a cross-check baseline
//! ([`FleetReport::analytic_plan`]).
//!
//! ## The host-API contract
//!
//! **Primitives** (SimplePIM-shaped, see [`host`]): the host moves data
//! only by `broadcast`, `scatter` and `gather`, each charged against the
//! same [`pim_sim::CpuTransferModel`] the analytic model uses and recorded
//! per primitive in a [`TransferLedger`].
//!
//! **Round model**: one [`RoundEngine`] (see [`engine`]) runs every
//! sharded workload through the same rounds, costs and rebalancing:
//! the counter fleet of [`runtime`] and `pim_service`'s request fleet,
//! each plugged in through [`ShardWorkload`]. A round costs its slowest
//! shard, which the imbalance statistics ([`Imbalance`]) quantify.
//!
//! **Fleet reports vs single-DPU profiles**: every shard produces
//! ordinary cycle-domain [`pim_stm::ExecProfile`]s; the fleet merges them
//! unchanged ([`FleetReport::profile`]), so per-`AbortReason` histograms,
//! per-phase cycles and DMA counters aggregate across the fleet with the
//! same schema as a single-DPU run. Per-shard placement of that work
//! lives alongside in [`FleetReport::shards`].
//!
//! [`baseline`] holds the CPU-baseline extrapolation constants shared
//! with the analytic Fig. 7/8 path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod engine;
pub mod host;
pub mod rebalance;
pub mod report;
pub mod runtime;

pub use engine::{
    BatchOutcome, EngineRun, Migration, RoundEngine, ShardWorkload, GATHER_SUMMARY_BYTES,
    MIGRATION_BYTES_PER_KEY, ROUND_DESCRIPTOR_BYTES,
};
pub use host::{HostCostModel, PrimitiveStats, TransferLedger};
pub use rebalance::{RebalancePolicy, Rebalancer};
pub use report::{FleetReport, Imbalance, PipelineStats, RebalanceStats, RoundStats, ShardStats};
pub use runtime::{resolve_host_workers, run, FleetConfig};
