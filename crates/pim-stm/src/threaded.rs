//! A threaded executor: the same STM algorithms running on real OS threads
//! over atomic shared memory.
//!
//! The deterministic simulator in [`pim_sim`] is what regenerates the paper's
//! figures, but it interleaves tasklets cooperatively. To gain confidence
//! that the algorithms are actually safe under arbitrary interleavings — and
//! to give library users something they can run natively — this module
//! provides [`ThreadedDpu`]: a "DPU" whose WRAM and MRAM are arrays of
//! [`AtomicU64`] and whose tasklets are `std::thread`s. The
//! [`crate::Platform`] implementation maps `atomic_update` onto a
//! compare-and-swap loop (the role the acquire/release bit register plays on
//! real hardware).
//!
//! Simulated cycles are *not* modelled here, but execution **is** profiled:
//! each tasklet thread charges monotonic wall-clock nanoseconds into the
//! same [`ExecProfile`] schema the simulator fills with cycles (tagged
//! [`TimeDomain::WallNanos`] so the units are never confused), including the
//! abort-reason histogram, per-phase time, MRAM-addressed DMA traffic and
//! spin-wait time. Threaded runs are therefore a second performance signal —
//! directly comparable on counts and structure, not on absolute time — in
//! addition to being the correctness cross-check.
//!
//! The per-phase split is **sampled**. One clock read costs tens of
//! nanoseconds, about as much as the transactional word operation it would
//! bracket, and every word operation switches phase twice. So the clock is
//! read only at attempt boundaries (begin, commit, abort), around spin-waits
//! and at thread end, except in one attempt in every [`PHASE_SAMPLE_EVERY`],
//! where every phase switch is timed as well. Totals stay exact: every
//! nanosecond of the thread lands in some phase, and an aborted attempt's
//! whole interval is [`Phase::Wasted`] whether sampled or not. Only how an
//! unsampled *committed* attempt's time divides among the other phases is
//! estimated, from the proportions of the sampled committed attempts.

pub mod affinity;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use pim_sim::{Addr, AllocError, Phase, PhaseBreakdown, Tier};

use crate::algorithm::{algorithm_for, TmAlgorithm, TxView};
use crate::config::StmConfig;
use crate::error::{Abort, AbortReason, RunError};
use crate::platform::{AtomicOutcome, Platform};
use crate::profile::{ExecProfile, TimeDomain};
use crate::shared::{MetadataAllocator, StmShared};
use crate::tune::Tuner;
use crate::txslot::TxSlot;
use crate::var::{self, TArray, TVar, TxRecord};

pub use crate::rwlock::MAX_TASKLETS;

/// Default WRAM capacity of a threaded DPU, in words (matches UPMEM: 64 KB).
pub const DEFAULT_WRAM_WORDS: u32 = 64 * 1024 / 8;
/// Default MRAM capacity of a threaded DPU, in words. Smaller than the real
/// 64 MB bank to keep test fixtures cheap; use
/// [`ThreadedDpu::with_capacity`] for the full size.
pub const DEFAULT_MRAM_WORDS: u32 = 1 << 20;

/// One transaction attempt in this many has its phase switches timed; the
/// rest are timed only as a whole (see the [module docs](self)). Attempt
/// `i` of a tasklet is sampled when `i % PHASE_SAMPLE_EVERY == 0`, so the
/// choice is deterministic and the first attempt is always sampled.
pub const PHASE_SAMPLE_EVERY: u64 = 32;

/// Monotonic nanoseconds since the process-wide epoch.
///
/// This is the time base of the threaded executor's [`Platform::timestamp`]
/// **and** the clock a service driver should stamp arrivals and dispatches
/// with, so queueing delay (`dispatch − arrival`) and STM service time
/// (`commit − first_attempt`) are measured on one time base across all
/// threads. Each call reads the clock once. `Platform::timestamp` does not
/// call this: it converts the instant of the latest attempt boundary, which
/// the platform has already read, to the same base.
///
/// The epoch is fixed by the first call of this function or the first
/// [`ThreadedDpu::run`] tasklet, whichever comes first, so every instant a
/// platform converts lies at or after it.
pub fn wall_clock_nanos() -> u64 {
    nanos_since_epoch(Instant::now())
}

/// The process-wide epoch of [`wall_clock_nanos`] (the first call wins).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// `instant` as nanoseconds since the epoch (0 for an instant before it).
fn nanos_since_epoch(instant: Instant) -> u64 {
    let since = instant.saturating_duration_since(epoch());
    u64::try_from(since.as_nanos()).unwrap_or(u64::MAX)
}

/// Atomic word storage shared by all tasklet threads.
#[derive(Debug)]
struct SharedMemory {
    wram: Vec<AtomicU64>,
    mram: Vec<AtomicU64>,
    allocator: Mutex<[u32; 2]>,
}

impl SharedMemory {
    fn new(wram_words: u32, mram_words: u32) -> Self {
        SharedMemory {
            wram: (0..wram_words).map(|_| AtomicU64::new(0)).collect(),
            mram: (0..mram_words).map(|_| AtomicU64::new(0)).collect(),
            allocator: Mutex::new([0, 0]),
        }
    }

    fn bank(&self, tier: Tier) -> &[AtomicU64] {
        match tier {
            Tier::Wram => &self.wram,
            Tier::Mram => &self.mram,
        }
    }

    fn cell(&self, addr: Addr) -> &AtomicU64 {
        &self.bank(addr.tier)[addr.word as usize]
    }

    fn alloc(&self, tier: Tier, words: u32) -> Result<Addr, AllocError> {
        let mut state = self.allocator.lock().expect("allocator mutex poisoned");
        let idx = match tier {
            Tier::Wram => 0,
            Tier::Mram => 1,
        };
        let capacity = self.bank(tier).len() as u32;
        let used = state[idx];
        if words > capacity - used {
            return Err(AllocError {
                tier,
                requested_words: words,
                available_words: capacity - used,
            });
        }
        state[idx] += words;
        Ok(Addr { tier, word: used })
    }
}

impl MetadataAllocator for &SharedMemory {
    fn alloc_words(&mut self, tier: Tier, words: u32) -> Result<Addr, AllocError> {
        self.alloc(tier, words)
    }
}

/// Per-thread [`Platform`] over the shared atomic memory.
///
/// Besides executing operations, it maintains this tasklet's
/// [`ExecProfile`] in wall-clock nanoseconds: time accrues to the current
/// [`Phase`] (buffered per attempt and collapsed into wasted time on abort,
/// exactly like the simulator's cycle accounting), MRAM-addressed traffic is
/// counted as DMA setups/words with the simulator's per-transfer rules, and
/// spin-waits are recorded as back-off time.
///
/// The phase split is sampled: only one attempt in every
/// [`PHASE_SAMPLE_EVERY`] reads the clock on each [`Platform::set_phase`].
/// Any other attempt is timed from begin to commit or abort. If it aborts,
/// that time is wasted time as usual. If it commits, the time is held back
/// and, when the thread ends, split across the non-wasted phases in the
/// proportions of the sampled committed attempts (all of it to
/// [`Phase::OtherExec`] if none committed). Phase totals therefore still
/// sum to the thread's measured wall time.
#[derive(Debug)]
pub struct ThreadPlatform<'a> {
    memory: &'a SharedMemory,
    profile: &'a mut ExecProfile,
    tasklet_id: usize,
    phase: Phase,
    /// Start of the interval not yet charged to any phase; right after an
    /// attempt boundary, that boundary's instant (see
    /// [`Platform::timestamp`]).
    mark: Instant,
    /// Whether an attempt is being accounted (mirrors the simulator's
    /// transactional flag).
    in_attempt: bool,
    /// Whether phase switches are timed: true only inside a sampled attempt.
    sampled: bool,
    /// Attempts begun by this tasklet; selects the sampled ones.
    attempts: u64,
    /// Per-phase time of the sampled attempts that committed: the
    /// proportions `unsampled_committed` is split by.
    sampled_committed: PhaseBreakdown,
    /// Wall time of the unsampled attempts that committed, charged to the
    /// phases when the thread ends.
    unsampled_committed: u64,
}

impl<'a> ThreadPlatform<'a> {
    fn new(memory: &'a SharedMemory, profile: &'a mut ExecProfile, tasklet_id: usize) -> Self {
        // Fix the epoch before the first mark, so no mark predates it and
        // stamps never saturate to 0.
        epoch();
        ThreadPlatform {
            memory,
            profile,
            tasklet_id,
            phase: Phase::OtherExec,
            mark: Instant::now(),
            in_attempt: false,
            sampled: false,
            attempts: 0,
            sampled_committed: PhaseBreakdown::new(),
            unsampled_committed: 0,
        }
    }

    /// Wall-clock nanoseconds since the last boundary, starting a new
    /// interval. One clock read serves both purposes so no time falls
    /// between intervals.
    fn take_elapsed(&mut self) -> u64 {
        let now = Instant::now();
        let nanos = u64::try_from((now - self.mark).as_nanos()).unwrap_or(u64::MAX);
        self.mark = now;
        nanos
    }

    /// Charges the time since the last boundary to the current phase.
    fn flush_elapsed(&mut self) {
        let nanos = self.take_elapsed();
        if self.in_attempt {
            self.profile.core.charge_attempt(self.phase, nanos);
        } else {
            self.profile.core.charge_direct(self.phase, nanos);
        }
    }

    /// Charges the attempt's last interval, then leaves the attempt (the
    /// caller resolves it in the profile).
    fn end_attempt(&mut self) {
        self.flush_elapsed();
        self.in_attempt = false;
        self.sampled = false;
    }

    /// Counts `words` words moved to/from an MRAM address as one DMA
    /// transfer, matching the simulator's setup-per-transfer accounting.
    fn note_dma(&mut self, tier: Tier, words: u32) {
        if tier == Tier::Mram {
            self.profile.core.note_mram_dma(words);
        }
    }
}

/// Splits `total` across the non-wasted phases in the proportions of
/// `weights`, rounding each share down and giving the remainder to
/// [`Phase::OtherExec`], so the shares sum to exactly `total`. With no
/// non-wasted weight, all of `total` goes to [`Phase::OtherExec`].
fn apportion(total: u64, weights: &PhaseBreakdown) -> PhaseBreakdown {
    let phases = Phase::ALL.into_iter().filter(|&phase| phase != Phase::Wasted);
    let weight_total: u128 = phases.clone().map(|phase| u128::from(weights.get(phase))).sum();
    let mut split = PhaseBreakdown::new();
    let mut left = total;
    for phase in phases {
        let scaled = u128::from(total) * u128::from(weights.get(phase));
        if let Some(share) = scaled.checked_div(weight_total) {
            // At most `total`, so the narrowing cannot truncate.
            split.charge(phase, share as u64);
            left -= share as u64;
        }
    }
    split.charge(Phase::OtherExec, left);
    split
}

impl Drop for ThreadPlatform<'_> {
    fn drop(&mut self) {
        // Charge the tail interval so the profile covers the whole thread,
        // then attribute the unsampled committed time.
        self.flush_elapsed();
        self.profile.core.breakdown += apportion(self.unsampled_committed, &self.sampled_committed);
    }
}

impl Platform for ThreadPlatform<'_> {
    fn load(&mut self, addr: Addr) -> u64 {
        self.note_dma(addr.tier, 1);
        self.memory.cell(addr).load(Ordering::SeqCst)
    }

    fn store(&mut self, addr: Addr, value: u64) {
        self.note_dma(addr.tier, 1);
        self.memory.cell(addr).store(value, Ordering::SeqCst)
    }

    fn load_block(&mut self, addr: Addr, out: &mut [u64]) {
        if out.is_empty() {
            return;
        }
        self.note_dma(addr.tier, out.len() as u32);
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.memory.cell(addr.offset(i as u32)).load(Ordering::SeqCst);
        }
    }

    fn store_block(&mut self, addr: Addr, values: &[u64]) {
        if values.is_empty() {
            return;
        }
        self.note_dma(addr.tier, values.len() as u32);
        for (i, value) in values.iter().enumerate() {
            self.memory.cell(addr.offset(i as u32)).store(*value, Ordering::SeqCst);
        }
    }

    fn copy(&mut self, src: Addr, dst: Addr, words: u32) {
        if words == 0 {
            return;
        }
        // One transfer per MRAM side, like the simulator's copy_block.
        self.note_dma(src.tier, words);
        self.note_dma(dst.tier, words);
        for i in 0..words {
            let value = self.memory.cell(src.offset(i)).load(Ordering::SeqCst);
            self.memory.cell(dst.offset(i)).store(value, Ordering::SeqCst);
        }
    }

    fn atomic_update(
        &mut self,
        addr: Addr,
        update: &mut dyn FnMut(u64) -> Option<u64>,
    ) -> AtomicOutcome {
        let cell = self.memory.cell(addr);
        let mut current = cell.load(Ordering::SeqCst);
        let outcome = loop {
            match update(current) {
                None => break AtomicOutcome { previous: current, updated: false },
                Some(new) => {
                    match cell.compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst) {
                        Ok(_) => break AtomicOutcome { previous: current, updated: true },
                        Err(observed) => current = observed,
                    }
                }
            }
        };
        // The read-modify-write touches memory like a load (plus a store
        // when it updates) — mirror the simulator's DMA counting.
        self.note_dma(addr.tier, 1);
        if outcome.updated {
            self.note_dma(addr.tier, 1);
        }
        outcome
    }

    fn set_phase(&mut self, phase: Phase) -> Phase {
        if self.sampled {
            self.flush_elapsed();
        }
        std::mem::replace(&mut self.phase, phase)
    }

    fn begin_attempt(&mut self) {
        self.flush_elapsed();
        self.in_attempt = true;
        self.sampled = self.attempts.is_multiple_of(PHASE_SAMPLE_EVERY);
        self.attempts += 1;
    }

    fn commit_attempt(&mut self) {
        if self.sampled {
            self.end_attempt();
            self.sampled_committed += self.profile.core.attempt;
        } else {
            // The attempt buffer is empty: nothing was charged since begin.
            self.unsampled_committed += self.take_elapsed();
            self.in_attempt = false;
        }
        self.profile.core.resolve_commit();
    }

    fn abort_attempt(&mut self) {
        self.end_attempt();
        self.profile.core.resolve_abort(None);
    }

    fn abort_attempt_with(&mut self, reason: AbortReason) {
        self.end_attempt();
        self.profile.core.resolve_abort(Some(reason.index()));
    }

    fn tasklet_id(&self) -> usize {
        self.tasklet_id
    }

    /// The instant of the latest attempt boundary (or thread start),
    /// which `begin_attempt` and `commit_attempt` have already read: the
    /// retry core stamps right after them, so a stamp costs no clock read.
    fn timestamp(&self) -> u64 {
        nanos_since_epoch(self.mark)
    }

    fn compute(&mut self, instructions: u64) {
        for _ in 0..instructions.min(1024) {
            std::hint::spin_loop();
        }
    }

    fn spin_wait(&mut self, instructions: u64) {
        let start = Instant::now();
        self.compute(instructions);
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.profile.core.note_backoff(nanos);
    }

    fn dma_stats(&self) -> (u64, u64) {
        (self.profile.core.mram_dma_setups, self.profile.core.mram_dma_words)
    }

    fn note_tune_window(&mut self) {
        self.profile.core.note_tune_window();
    }

    fn note_tune_switch(&mut self, knob: u8, from: u8, to: u8) {
        // The wall-clock domain has no cycle stamps, so threads keep only
        // the aggregate switch count — the cycle-stamped event log is a
        // simulator-side detail (see `pim_sim::TuneEvent`).
        let _ = (knob, from, to);
        self.profile.core.note_tune_switch();
    }
}

/// Handle given to each tasklet closure by [`ThreadedDpu::run`]; wraps the
/// per-thread platform, transaction descriptor and algorithm. The descriptor
/// is borrowed from the DPU's slot pool, so repeated `run` calls reuse the
/// same per-tasklet logs instead of exhausting the bump allocator.
pub struct TaskletTx<'a> {
    platform: ThreadPlatform<'a>,
    slot: &'a mut TxSlot,
    /// This tasklet's own copy of the shared-metadata handle, so the online
    /// tuner (when enabled) can rewrite its runtime-switchable knobs without
    /// touching the other threads' copies.
    shared: StmShared,
    alg: &'a dyn TmAlgorithm,
    /// Per-tasklet online tuner, present when the configuration's
    /// [`crate::tune::TunePolicy`] enables it (see [`crate::tune`]).
    tuner: Option<Tuner>,
}

impl TaskletTx<'_> {
    /// Runs `body` as a transaction, retrying until it commits, and returns
    /// its result.
    pub fn transaction<R>(&mut self, body: impl FnMut(&mut TxView<'_>) -> Result<R, Abort>) -> R {
        crate::engine::run_tuned_retry_loop(
            self.alg,
            &mut self.shared,
            self.slot,
            &mut self.platform,
            None,
            &mut self.tuner,
            body,
        )
    }

    /// Identifier of this tasklet (0-based).
    pub fn tasklet_id(&self) -> usize {
        self.platform.tasklet_id
    }

    /// Platform-clock stamps (first attempt / commit, in wall nanoseconds —
    /// see [`wall_clock_nanos`]) of the most recent
    /// [`TaskletTx::transaction`] call. Service drivers read these to
    /// separate STM retry time from queueing delay.
    pub fn last_tx_stamps(&self) -> crate::txslot::TxStamps {
        self.slot.stamps()
    }
}

impl std::fmt::Debug for ThreadedDpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedDpu")
            .field("config", &self.config)
            .field("slots", &self.slots.len())
            .field("pin_threads", &self.pin_threads)
            .field("algorithm_override", &self.algorithm_override.map(|a| a.kind()))
            .finish_non_exhaustive()
    }
}

impl MetadataAllocator for ThreadedDpu {
    fn alloc_words(&mut self, tier: Tier, words: u32) -> Result<Addr, AllocError> {
        self.memory.alloc(tier, words)
    }
}

impl var::WordAccess for ThreadedDpu {
    fn peek_word(&self, addr: Addr) -> u64 {
        self.peek(addr)
    }

    fn poke_word(&mut self, addr: Addr, value: u64) {
        self.poke(addr, value)
    }
}

/// Result of a [`ThreadedDpu::run`] call: aggregate commit/abort counts plus
/// the per-tasklet wall-clock execution profiles.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThreadedRunReport {
    /// Committed transactions across all tasklets.
    pub commits: u64,
    /// Aborted attempts across all tasklets.
    pub aborts: u64,
    /// One [`TimeDomain::WallNanos`] profile per tasklet, indexed by tasklet
    /// id.
    pub profiles: Vec<ExecProfile>,
    /// How many tasklet threads were actually pinned to a core (see
    /// [`affinity`]): between 0 (pinning unsupported, disabled, or more
    /// tasklets than allowed CPUs) and the tasklet count. Unpinned runs are
    /// correct but their wall-clock profiles carry more scheduling noise.
    pub pinned_tasklets: usize,
}

impl ThreadedRunReport {
    /// All tasklets' profiles merged into one (`None` for a zero-tasklet
    /// run).
    pub fn merged_profile(&self) -> Option<ExecProfile> {
        ExecProfile::merged(&self.profiles)
    }
}

/// A DPU whose tasklets are real threads over atomic shared memory.
pub struct ThreadedDpu {
    memory: SharedMemory,
    shared: StmShared,
    config: StmConfig,
    /// Per-tasklet transaction descriptors, registered on first use and
    /// reused by every subsequent [`ThreadedDpu::run`] call (the metadata
    /// allocator is bump-only, so re-registering each run would leak).
    slots: Vec<TxSlot>,
    /// Whether tasklet threads should pin themselves to cores (default on;
    /// see [`affinity`] for the best-effort rules).
    pin_threads: bool,
    /// Differential-testing hook: when set, [`ThreadedDpu::run`] drives this
    /// algorithm instead of resolving the configured kind through
    /// [`algorithm_for`] — historically how the policy equivalence suite ran
    /// the (since-deleted) frozen legacy oracle on real threads.
    algorithm_override: Option<&'static dyn TmAlgorithm>,
}

impl ThreadedDpu {
    /// Creates a threaded DPU with the default memory capacities.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if the STM metadata does not fit in the
    /// configured tier.
    pub fn new(config: StmConfig) -> Result<Self, AllocError> {
        Self::with_capacity(config, DEFAULT_WRAM_WORDS, DEFAULT_MRAM_WORDS)
    }

    /// Creates a threaded DPU with explicit WRAM/MRAM capacities (in words).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if the STM metadata does not fit.
    pub fn with_capacity(
        config: StmConfig,
        wram_words: u32,
        mram_words: u32,
    ) -> Result<Self, AllocError> {
        let memory = SharedMemory::new(wram_words, mram_words);
        let shared = StmShared::allocate(&mut (&memory), config)?;
        Ok(ThreadedDpu {
            memory,
            shared,
            config,
            slots: Vec::new(),
            pin_threads: true,
            algorithm_override: None,
        })
    }

    /// Enables or disables best-effort thread→core pinning for subsequent
    /// [`ThreadedDpu::run`] calls (default: enabled). See [`affinity`].
    pub fn set_thread_pinning(&mut self, enabled: bool) {
        self.pin_threads = enabled;
    }

    /// Overrides the algorithm [`ThreadedDpu::run`] drives, bypassing the
    /// [`algorithm_for`] resolution of the configured kind. This exists for
    /// differential testing (running an alternative implementation on real
    /// threads next to the composed engine); the override must implement
    /// the same [`crate::StmKind`] the DPU's metadata was allocated for.
    pub fn set_algorithm_override(&mut self, alg: &'static dyn TmAlgorithm) {
        assert_eq!(
            alg.kind(),
            self.config.kind,
            "the override must implement the design this DPU's metadata was allocated for"
        );
        self.algorithm_override = Some(alg);
    }

    /// The configuration this DPU was created with.
    pub fn config(&self) -> &StmConfig {
        &self.config
    }

    /// The shared STM metadata handles (addresses of the sequence lock,
    /// clock and lock table).
    pub fn stm_shared(&self) -> &StmShared {
        &self.shared
    }

    /// Allocates `words` zeroed words of application data in `tier`.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if the tier is exhausted.
    pub fn alloc(&mut self, tier: Tier, words: u32) -> Result<Addr, AllocError> {
        self.memory.alloc(tier, words)
    }

    /// Allocates one zeroed typed variable in `tier`.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if the tier is exhausted.
    pub fn alloc_var<T: TxRecord>(&mut self, tier: Tier) -> Result<TVar<T>, AllocError> {
        var::alloc_var(&mut (&self.memory), tier)
    }

    /// Allocates a zeroed typed array of `len` records in `tier`.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if the tier is exhausted (or the array's word
    /// count overflows the address space).
    pub fn alloc_array<T: TxRecord>(
        &mut self,
        tier: Tier,
        len: u32,
    ) -> Result<TArray<T>, AllocError> {
        var::alloc_array(&mut (&self.memory), tier, len)
    }

    /// Reads a word without going through a transaction (only safe while no
    /// tasklets are running — the host-side access pattern of UPMEM).
    pub fn peek(&self, addr: Addr) -> u64 {
        self.memory.cell(addr).load(Ordering::SeqCst)
    }

    /// Writes a word without going through a transaction (see
    /// [`ThreadedDpu::peek`]).
    pub fn poke(&mut self, addr: Addr, value: u64) {
        self.memory.cell(addr).store(value, Ordering::SeqCst)
    }

    /// Reads a typed variable without going through a transaction (see
    /// [`ThreadedDpu::peek`]).
    pub fn peek_var<T: TxRecord>(&self, var: TVar<T>) -> T {
        var::peek_var(self, var)
    }

    /// Writes a typed variable without going through a transaction (see
    /// [`ThreadedDpu::peek`]).
    pub fn poke_var<T: TxRecord>(&mut self, var: TVar<T>, value: T) {
        var::poke_var(self, var, value)
    }

    /// Launches `tasklets` OS threads, each running `body` with its own
    /// [`TaskletTx`] handle, waits for all of them and returns the aggregate
    /// commit/abort counts.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::TooManyTasklets`] if `tasklets` exceeds
    /// [`MAX_TASKLETS`] and [`RunError::Alloc`] if allocating the
    /// per-tasklet transaction logs fails.
    ///
    /// # Panics
    ///
    /// Panics if a tasklet thread panics.
    pub fn run<F>(&mut self, tasklets: usize, body: F) -> Result<ThreadedRunReport, RunError>
    where
        F: Fn(TaskletTx<'_>) + Send + Sync,
    {
        if tasklets > MAX_TASKLETS {
            return Err(RunError::TooManyTasklets { requested: tasklets, max: MAX_TASKLETS });
        }
        // Register only the tasklets not yet in the pool; already-registered
        // slots are reused, so repeated runs consume no further metadata.
        // Each registration is a single all-or-nothing allocation, so a
        // failure partway leaks nothing: the slots registered so far stay in
        // the pool and serve any smaller run.
        for t in self.slots.len()..tasklets {
            self.slots.push(self.shared.register_tasklet(&mut (&self.memory), t)?);
        }
        let alg = self.algorithm_override.unwrap_or_else(|| algorithm_for(self.config.kind));
        let memory = &self.memory;
        let shared = &self.shared;
        let mut profiles: Vec<ExecProfile> =
            (0..tasklets).map(|_| ExecProfile::new(TimeDomain::WallNanos)).collect();
        let body = &body;
        // Pin each tasklet thread to one allowed CPU (the PR-3 wall-clock
        // noise follow-up) — but only when every tasklet can have its own
        // core: doubling spinning tasklets up on one core serialises their
        // back-off windows, which is worse than letting the OS balance them.
        let allowed = if self.pin_threads { affinity::allowed_cpus() } else { Vec::new() };
        let pin = tasklets <= allowed.len();
        let allowed = &allowed;
        let mut pinned_tasklets = 0;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            let slots = self.slots.iter_mut().take(tasklets);
            for ((tasklet_id, slot), profile) in slots.enumerate().zip(profiles.iter_mut()) {
                handles.push(scope.spawn(move || {
                    let pinned = pin && affinity::pin_current_thread(allowed, tasklet_id);
                    let platform = ThreadPlatform::new(memory, profile, tasklet_id);
                    let tuner = Tuner::new(shared.config().tune, shared.config());
                    body(TaskletTx { platform, slot, shared: shared.clone(), alg, tuner });
                    pinned
                }));
            }
            for handle in handles {
                if handle.join().expect("tasklet thread panicked") {
                    pinned_tasklets += 1;
                }
            }
        });
        Ok(ThreadedRunReport {
            commits: profiles.iter().map(ExecProfile::commits).sum(),
            aborts: profiles.iter().map(ExecProfile::aborts).sum(),
            profiles,
            pinned_tasklets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StmKind;

    #[test]
    fn counter_increments_are_not_lost_under_real_concurrency() {
        for kind in StmKind::ALL {
            let mut dpu = ThreadedDpu::new(StmConfig::small_wram(kind)).unwrap();
            let counter = dpu.alloc(Tier::Mram, 1).unwrap();
            let per_tasklet = 200u64;
            let report = dpu
                .run(4, |mut tx| {
                    for _ in 0..per_tasklet {
                        tx.transaction(|view| {
                            let v = view.read(counter)?;
                            view.write(counter, v + 1)?;
                            Ok(())
                        });
                    }
                })
                .unwrap();
            assert_eq!(dpu.peek(counter), 4 * per_tasklet, "{kind} lost increments");
            assert_eq!(report.commits, 4 * per_tasklet, "{kind} commit count");
        }
    }

    #[test]
    fn disjoint_transfers_preserve_total_balance() {
        for kind in [StmKind::Norec, StmKind::TinyEtlWt, StmKind::VrEtlWb] {
            let mut dpu = ThreadedDpu::new(StmConfig::small_wram(kind)).unwrap();
            let accounts = dpu.alloc(Tier::Mram, 8).unwrap();
            for i in 0..8 {
                dpu.poke(accounts.offset(i), 1000);
            }
            dpu.run(8, |mut tx| {
                let id = tx.tasklet_id() as u32;
                for step in 0..100u32 {
                    let from = accounts.offset((id + step) % 8);
                    let to = accounts.offset((id + step + 3) % 8);
                    if from == to {
                        continue;
                    }
                    tx.transaction(|view| {
                        let a = view.read(from)?;
                        let b = view.read(to)?;
                        view.write(from, a.wrapping_sub(1))?;
                        view.write(to, b.wrapping_add(1))?;
                        Ok(())
                    });
                }
            })
            .unwrap();
            let total: u64 = (0..8).map(|i| dpu.peek(accounts.offset(i))).sum();
            assert_eq!(total, 8000, "{kind} violated balance conservation");
        }
    }

    #[test]
    fn allocation_failures_are_reported() {
        let config = StmConfig::small_wram(StmKind::TinyEtlWb).with_lock_table_entries(1_000_000);
        assert!(ThreadedDpu::new(config).is_err());
        let mut dpu = ThreadedDpu::new(StmConfig::small_wram(StmKind::Norec)).unwrap();
        assert!(dpu.alloc(Tier::Wram, 1_000_000).is_err());
    }

    #[test]
    fn too_many_tasklets_is_an_error_not_a_panic() {
        use crate::error::RunError;
        let mut dpu = ThreadedDpu::new(StmConfig::small_wram(StmKind::Norec)).unwrap();
        let err = dpu.run(25, |_| {}).unwrap_err();
        assert_eq!(err, RunError::TooManyTasklets { requested: 25, max: MAX_TASKLETS });
        // The limit itself is fine.
        assert!(dpu.run(MAX_TASKLETS, |_| {}).is_ok());
    }

    #[test]
    fn failed_run_leaves_a_usable_dpu() {
        // WRAM sized so 4 tasklets' logs fit but 5 do not (224 words per
        // tasklet with StmConfig::small_wram, plus 2 shared NOrec words).
        let config = StmConfig::small_wram(StmKind::Norec);
        let mut dpu = ThreadedDpu::with_capacity(config, 1024, 1024).unwrap();
        let err = dpu.run(5, |_| {}).unwrap_err();
        assert!(matches!(err, crate::error::RunError::Alloc(_)), "got {err:?}");
        // Registration is all-or-nothing per tasklet and successfully
        // registered slots stay pooled, so a smaller run still fits.
        assert!(dpu.run(4, |_| {}).is_ok());
    }

    #[test]
    fn repeated_runs_reuse_tasklet_logs() {
        // WRAM holds 4 tasklets' logs once, not twice: only slot pooling
        // lets the DPU be driven repeatedly.
        let mut dpu =
            ThreadedDpu::with_capacity(StmConfig::small_wram(StmKind::Norec), 1024, 1024).unwrap();
        let counter = dpu.alloc(Tier::Mram, 1).unwrap();
        for round in 1..=10u64 {
            dpu.run(4, |mut tx| {
                tx.transaction(|view| {
                    let v = view.read(counter)?;
                    view.write(counter, v + 1)?;
                    Ok(())
                });
            })
            .unwrap_or_else(|e| panic!("round {round} failed: {e}"));
            assert_eq!(dpu.peek(counter), 4 * round);
        }
    }

    #[test]
    fn run_reports_per_tasklet_wall_clock_profiles() {
        let mut dpu = ThreadedDpu::new(StmConfig::small_wram(StmKind::TinyEtlWb)).unwrap();
        let counter = dpu.alloc(Tier::Mram, 1).unwrap();
        let report = dpu
            .run(4, |mut tx| {
                for _ in 0..100 {
                    tx.transaction(|view| {
                        let v = view.read(counter)?;
                        view.write(counter, v + 1)?;
                        Ok(())
                    });
                }
            })
            .unwrap();
        assert_eq!(report.profiles.len(), 4);
        let merged = report.merged_profile().unwrap();
        assert_eq!(merged.time_domain, TimeDomain::WallNanos);
        assert_eq!(merged.commits(), report.commits);
        assert_eq!(merged.aborts(), report.aborts);
        // Every abort the retry core resolves carries its reason.
        assert_eq!(merged.histogram_total(), report.aborts);
        assert!(merged.total_time() > 0, "wall-clock time must accrue");
        // The counter lives in MRAM: transactional traffic must show up as
        // DMA words.
        assert!(merged.dma_words() > 0);
        for profile in &report.profiles {
            assert_eq!(profile.commits(), 100);
        }
    }

    #[test]
    fn stamps_are_boundary_instants_inside_the_run() {
        let mut dpu = ThreadedDpu::new(StmConfig::small_wram(StmKind::TinyEtlWb)).unwrap();
        let counter = dpu.alloc(Tier::Mram, 1).unwrap();
        let per_tasklet = 2 * PHASE_SAMPLE_EVERY;
        let stamps = Mutex::new(Vec::new());
        let before = wall_clock_nanos();
        dpu.run(2, |mut tx| {
            // Covers sampled and unsampled attempts alike.
            for _ in 0..per_tasklet {
                tx.transaction(|view| {
                    let v = view.read(counter)?;
                    view.write(counter, v + 1)?;
                    Ok(())
                });
                stamps.lock().unwrap().push(tx.last_tx_stamps());
            }
        })
        .unwrap();
        let after = wall_clock_nanos();
        let stamps = stamps.into_inner().unwrap();
        assert_eq!(stamps.len() as u64, 2 * per_tasklet);
        for s in stamps {
            let first = s.first_attempt.expect("first-attempt stamp");
            let committed = s.committed.expect("commit stamp");
            assert!(before <= first && first <= committed && committed <= after, "{s:?}");
        }
    }

    #[test]
    fn unsampled_split_sums_exactly_to_the_total() {
        let mut weights = PhaseBreakdown::new();
        weights.charge(Phase::Reading, 3);
        weights.charge(Phase::Writing, 5);
        weights.charge(Phase::OtherCommit, 7);
        // Committed time is never wasted: wasted weight is ignored.
        weights.charge(Phase::Wasted, 1_000);
        for total in [0, 1, 14, 15, 16, 1_000_003, u64::MAX] {
            let split = apportion(total, &weights);
            assert_eq!(split.total(), total, "split of {total}");
            assert_eq!(split.get(Phase::Wasted), 0, "split of {total}");
        }
        // Shares round down (16·3/15 → 3, 16·5/15 → 5, 16·7/15 → 7); the
        // remainder goes to OtherExec.
        let split = apportion(16, &weights);
        assert_eq!(split.get(Phase::Reading), 3);
        assert_eq!(split.get(Phase::Writing), 5);
        assert_eq!(split.get(Phase::OtherCommit), 7);
        assert_eq!(split.get(Phase::OtherExec), 1);
        // No sampled committed attempt: everything goes to OtherExec.
        let mut only_wasted = PhaseBreakdown::new();
        only_wasted.charge(Phase::Wasted, 9);
        for weights in [PhaseBreakdown::new(), only_wasted] {
            let split = apportion(42, &weights);
            assert_eq!(split.get(Phase::OtherExec), 42);
            assert_eq!(split.total(), 42);
        }
    }

    /// Busy-waits for at least `nanos` nanoseconds.
    fn busy(nanos: u64) {
        let start = Instant::now();
        while start.elapsed() < std::time::Duration::from_nanos(nanos) {
            std::hint::spin_loop();
        }
    }

    /// Drives a platform directly through `attempts` attempts of one
    /// 2 µs read phase each, aborting those `abort` selects, and returns the
    /// profile with the wall time spent from construction to drop.
    fn drive(attempts: u64, abort: impl Fn(u64) -> bool) -> (ExecProfile, u64) {
        let memory = SharedMemory::new(16, 16);
        let mut profile = ExecProfile::new(TimeDomain::WallNanos);
        let outer = Instant::now();
        {
            let mut p = ThreadPlatform::new(&memory, &mut profile, 0);
            for i in 0..attempts {
                p.begin_attempt();
                p.set_phase(Phase::Reading);
                busy(2_000);
                p.set_phase(Phase::OtherCommit);
                if abort(i) {
                    p.abort_attempt_with(AbortReason::ReadConflict);
                } else {
                    p.commit_attempt();
                }
                p.set_phase(Phase::OtherExec);
            }
            assert_eq!(p.attempts, attempts);
        }
        (profile, u64::try_from(outer.elapsed().as_nanos()).unwrap())
    }

    #[test]
    fn aborted_time_is_wasted_whether_sampled_or_not() {
        let attempts = 2 * PHASE_SAMPLE_EVERY + 1;
        let (profile, wall) = drive(attempts, |_| true);
        assert_eq!(profile.aborts(), attempts);
        assert_eq!(profile.aborts_for(AbortReason::ReadConflict), attempts);
        assert!(profile.phase(Phase::Wasted) >= attempts * 2_000);
        // Outside the attempts only OtherExec accrues; inside, everything
        // collapsed into Wasted.
        for phase in Phase::ALL {
            if phase != Phase::Wasted && phase != Phase::OtherExec {
                assert_eq!(profile.phase(phase), 0, "{phase}");
            }
        }
        assert!(profile.total_time() <= wall);
    }

    #[test]
    fn unsampled_commits_keep_exact_totals() {
        let attempts = 2 * PHASE_SAMPLE_EVERY;
        // Attempts 0 and PHASE_SAMPLE_EVERY are sampled and commit.
        let (profile, wall) = drive(attempts, |i| i % 4 == 3);
        assert_eq!(profile.attempts(), attempts);
        assert_eq!(profile.aborts(), attempts / 4);
        assert!(profile.phase(Phase::Wasted) >= attempts / 4 * 2_000);
        assert!(profile.phase(Phase::Reading) >= 2 * 2_000);
        // Every nanosecond between construction and drop is charged once.
        assert!(profile.total_time() >= attempts * 2_000);
        assert!(profile.total_time() <= wall);
    }

    #[test]
    fn contended_runs_count_every_attempt_and_waste_only_aborts() {
        let mut dpu = ThreadedDpu::new(StmConfig::small_wram(StmKind::TinyEtlWb)).unwrap();
        let counter = dpu.alloc(Tier::Mram, 1).unwrap();
        let per_tasklet = 4 * PHASE_SAMPLE_EVERY;
        // Body invocations per tasklet: one per attempt.
        let bodies = Mutex::new(vec![0u64; 4]);
        let report = dpu
            .run(4, |mut tx| {
                let mut calls = 0u64;
                for _ in 0..per_tasklet {
                    tx.transaction(|view| {
                        calls += 1;
                        let v = view.read(counter)?;
                        view.write(counter, v + 1)?;
                        Ok(())
                    });
                }
                bodies.lock().unwrap()[tx.tasklet_id()] = calls;
            })
            .unwrap();
        assert_eq!(dpu.peek(counter), 4 * per_tasklet);
        let bodies = bodies.into_inner().unwrap();
        for (profile, calls) in report.profiles.iter().zip(bodies) {
            assert_eq!(profile.commits(), per_tasklet);
            assert_eq!(profile.attempts(), calls);
            assert_eq!(profile.attempts(), profile.commits() + profile.aborts());
            assert_eq!(profile.histogram_total(), profile.aborts());
            assert_eq!(profile.phase(Phase::Wasted) > 0, profile.aborts() > 0, "{profile:?}");
        }
    }

    #[test]
    fn thread_pinning_is_best_effort_and_reported() {
        let mut dpu = ThreadedDpu::new(StmConfig::small_wram(StmKind::Norec)).unwrap();
        let counter = dpu.alloc(Tier::Mram, 1).unwrap();
        let body = |mut tx: TaskletTx<'_>| {
            tx.transaction(|view| {
                let v = view.read(counter)?;
                view.write(counter, v + 1)?;
                Ok(())
            });
        };
        let report = dpu.run(2, body).unwrap();
        // Pinning never exceeds the tasklet count and, with affinity
        // support and >= 2 allowed CPUs, pins every tasklet.
        assert!(report.pinned_tasklets <= 2);
        if affinity::allowed_cpus().len() >= 2 {
            assert_eq!(report.pinned_tasklets, 2, "both tasklets should pin on this platform");
        }
        // Disabling pinning is honoured regardless of platform support.
        dpu.set_thread_pinning(false);
        let unpinned = dpu.run(2, body).unwrap();
        assert_eq!(unpinned.pinned_tasklets, 0);
        assert_eq!(dpu.peek(counter), 4, "pinning must not affect correctness");
    }

    #[test]
    fn oversubscribed_runs_skip_pinning() {
        // More tasklets than allowed CPUs → pinning would double spinning
        // tasklets up on one core, so the run proceeds unpinned.
        let allowed = affinity::allowed_cpus().len();
        if allowed == 0 || allowed >= MAX_TASKLETS {
            return; // cannot oversubscribe on this machine
        }
        let mut dpu = ThreadedDpu::new(StmConfig::small_wram(StmKind::TinyEtlWb)).unwrap();
        let report = dpu.run(allowed + 1, |_| {}).unwrap();
        assert_eq!(report.pinned_tasklets, 0);
    }

    #[test]
    fn algorithm_override_must_match_the_configured_kind() {
        let mut dpu = ThreadedDpu::new(StmConfig::small_wram(StmKind::TinyEtlWb)).unwrap();
        dpu.set_algorithm_override(crate::algorithm_for(StmKind::TinyEtlWb));
        let counter = dpu.alloc(Tier::Mram, 1).unwrap();
        let report = dpu
            .run(2, |mut tx| {
                tx.transaction(|view| {
                    let v = view.read(counter)?;
                    view.write(counter, v + 1)?;
                    Ok(())
                });
            })
            .unwrap();
        assert_eq!(report.commits, 2);
        assert_eq!(dpu.peek(counter), 2, "an overridden run must still be a correct STM");
    }

    #[test]
    #[should_panic(expected = "must implement the design")]
    fn mismatched_algorithm_override_is_rejected() {
        let mut dpu = ThreadedDpu::new(StmConfig::small_wram(StmKind::TinyEtlWb)).unwrap();
        dpu.set_algorithm_override(crate::algorithm_for(StmKind::Norec));
    }

    #[test]
    fn typed_alloc_and_peek_poke_roundtrip() {
        let mut dpu = ThreadedDpu::new(StmConfig::small_wram(StmKind::Norec)).unwrap();
        let var = dpu.alloc_var::<(u32, u32)>(Tier::Mram).unwrap();
        dpu.poke_var(var, (7, 9));
        assert_eq!(dpu.peek_var(var), (7, 9));
        let arr = dpu.alloc_array::<[i64; 2]>(Tier::Mram, 3).unwrap();
        dpu.poke_var(arr.at(2), [-1, 1]);
        assert_eq!(dpu.peek_var(arr.at(2)), [-1, 1]);
        assert_eq!(dpu.peek_var(arr.at(0)), [0, 0]);
    }
}
