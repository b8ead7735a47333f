//! Single-DPU service runs: admission in front of the tasklet pool, on both
//! executors.
//!
//! The request stream is generated up front (see [`crate::request`]); the
//! **admission** sits between it and the tasklets. It is one lock-free
//! cursor over the arrival-sorted stream, shared by both executors: a
//! tasklet with no request in flight claims the front request by
//! compare-exchange once it is due (see `Admission::pop_due`). When the
//! front is not yet due:
//!
//! * on the **simulator**, the tasklet parks with [`StepStatus::IdleUntil`]
//!   — virtual time advances to the arrival without charging busy cycles,
//!   which is what makes open-loop offered loads below capacity cheap to
//!   simulate;
//! * on the **threaded executor**, the tasklet sleeps/yields until the
//!   wall-clock arrival.
//!
//! Dispatch stamps the queueing delay (`dispatch − arrival`); the STM engine
//! stamps first-attempt and commit (see `pim_stm::txslot::TxStamps`), so
//! queueing time is separable from STM service time per request, not just in
//! aggregate. Each tasklet records into a latency panel of its own, and the
//! panels are merged after the run (exactly: histogram merges add counts),
//! so the per-request path takes no lock; the admission cursor is the only
//! state the tasklets share outside the STM. On threads the admission's
//! `now` doubles as the dispatch stamp, so a request costs three clock
//! reads: admission, attempt begin and commit.

use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use pim_sim::{
    Dpu, DpuConfig, DpuRunReport, KeyDist, Scheduler, StepStatus, TaskletCtx, TaskletProgram, Tier,
};
use pim_stm::threaded::{wall_clock_nanos, ThreadedDpu, ThreadedRunReport, MAX_TASKLETS};
use pim_stm::{
    algorithm_for, MetadataPlacement, StmConfig, StmKind, StmShared, TimeDomain, TxSlot,
};
use pim_workloads::{run_tx_body, Executor, SimTxRunner, TxMachine, TxStatus};

use crate::arrival::ArrivalProcess;
use crate::latency::LatencyPanel;
use crate::request::{generate_requests, Request, RequestBody, RequestMix, ServiceTables};

/// Configuration of one service run (shared by both executors and reused
/// per-shard by the fleet driver).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// STM design and metadata placement serving the requests.
    pub stm: StmConfig,
    /// Tasklets serving the request queue (1..=24; 11 fills the pipeline).
    pub tasklets: usize,
    /// Keyspace size: requests draw keys from `0..keys`.
    pub keys: u64,
    /// Requests in the generated stream.
    pub requests: u64,
    /// The arrival process offering the load.
    pub arrival: ArrivalProcess,
    /// Operation mix.
    pub mix: RequestMix,
    /// Key skew.
    pub dist: KeyDist,
    /// Seed for arrivals and payloads.
    pub seed: u64,
    /// Transfer-journal ring capacity.
    pub journal_capacity: u32,
}

impl ServiceConfig {
    /// A small, WRAM-metadata default configuration offering `arrival`
    /// traffic: 11 tasklets, 1024 keys, 2048 requests, read-mostly mix.
    ///
    /// The per-tasklet log capacities (64 reads / 32 writes) are sized so
    /// that even a full 24-tasklet pool fits WRAM alongside the lock table;
    /// the ¼-load-factor tables keep probe chains far below the read-set
    /// capacity (see [`ServiceTables::allocate`]).
    pub fn new(arrival: ArrivalProcess) -> Self {
        ServiceConfig {
            stm: StmConfig::new(StmKind::TinyEtlWb, MetadataPlacement::Wram)
                .with_lock_table_entries(256)
                .with_read_set_capacity(64)
                .with_write_set_capacity(32),
            tasklets: 11,
            keys: 1024,
            requests: 2048,
            arrival,
            mix: RequestMix::read_mostly(),
            dist: KeyDist::Uniform,
            seed: 42,
            journal_capacity: 64,
        }
    }

    /// Replaces the STM configuration.
    pub fn with_stm(mut self, stm: StmConfig) -> Self {
        self.stm = stm;
        self
    }

    /// Replaces the tasklet count.
    pub fn with_tasklets(mut self, tasklets: usize) -> Self {
        self.tasklets = tasklets;
        self
    }

    /// Replaces the keyspace size.
    pub fn with_keys(mut self, keys: u64) -> Self {
        self.keys = keys;
        self
    }

    /// Replaces the request count.
    pub fn with_requests(mut self, requests: u64) -> Self {
        self.requests = requests;
        self
    }

    /// Replaces the operation mix.
    pub fn with_mix(mut self, mix: RequestMix) -> Self {
        self.mix = mix;
        self
    }

    /// Replaces the key distribution.
    pub fn with_dist(mut self, dist: KeyDist) -> Self {
        self.dist = dist;
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Checks the bounds every executor needs.
    ///
    /// # Errors
    ///
    /// Names the first violated bound.
    pub fn check(&self) -> Result<(), String> {
        let max = DpuConfig::default().max_tasklets.min(MAX_TASKLETS);
        if !(1..=max).contains(&self.tasklets) {
            return Err(format!("tasklets = {} lies outside 1..={max}", self.tasklets));
        }
        if self.requests == 0 || self.keys == 0 {
            return Err("a service run needs at least one request and one key".to_string());
        }
        Ok(())
    }

    /// The request stream, with arrivals in ticks of `ticks_per_second`.
    pub fn stream(&self, ticks_per_second: f64) -> Vec<Request> {
        let (arrival, mix, dist) = (self.arrival, self.mix, self.dist);
        generate_requests(arrival, mix, dist, self.keys, self.requests, self.seed, ticks_per_second)
    }
}

/// Unified report of one service run, in the executor's native time domain.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Which executor produced it.
    pub executor: Executor,
    /// The arrival process that offered the load.
    pub arrival: ArrivalProcess,
    /// Requests served to commit.
    pub completed: u64,
    /// Committed transactions (= `completed`).
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// End-to-end run time in seconds (virtual on the simulator, wall-clock
    /// on threads).
    pub makespan_seconds: f64,
    /// Ticks per second of the panel's time domain (`clock_hz` for cycles,
    /// `1e9` for wall-nanoseconds).
    pub ticks_per_second: f64,
    /// The queueing / service / sojourn latency panel.
    pub panel: LatencyPanel,
}

impl ServiceReport {
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

    /// A latency quantile of `which` panel component, in seconds.
    pub fn quantile_seconds(&self, which: PanelComponent, q: f64) -> f64 {
        let hist = match which {
            PanelComponent::Queueing => &self.panel.queueing,
            PanelComponent::Service => &self.panel.service,
            PanelComponent::Sojourn => &self.panel.sojourn,
        };
        hist.seconds(hist.quantile(q), self.ticks_per_second)
    }
}

/// Selects one histogram of a [`LatencyPanel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanelComponent {
    /// `dispatch − arrival`.
    Queueing,
    /// `commit − first attempt`.
    Service,
    /// `commit − arrival`.
    Sojourn,
}

/// What admission hands a tasklet asking for work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pop {
    /// A due request (closed-loop: arrival rewritten to the dispatch
    /// instant, making queueing delay identically zero).
    Ready(Request),
    /// Nothing due yet; the front request arrives at this global tick.
    Park(u64),
    /// The stream is exhausted.
    Drained,
}

/// The shared admission: arrival-ordered requests behind a lock-free cursor,
/// plus the closed-loop flag. Timestamps are *global* ticks; simulator
/// callers pass their local `base + now`.
pub(crate) struct Admission {
    requests: Vec<Request>,
    /// Index of the front request: everything before it has been claimed.
    next: AtomicUsize,
    closed_loop: bool,
}

impl Admission {
    pub(crate) fn new(requests: Vec<Request>, closed_loop: bool) -> Self {
        Admission { requests, next: AtomicUsize::new(0), closed_loop }
    }

    /// Claims the front request if it is due at `now` (always, in closed
    /// loop). A `Park` leaves the cursor where it is; each request is
    /// handed out exactly once across all callers.
    pub(crate) fn pop_due(&self, now: u64) -> Pop {
        // Relaxed suffices: the cursor publishes no data. `requests` is never
        // written after construction, and the claim's uniqueness rests on
        // the compare-exchange alone (one modification order per atomic).
        let mut front = self.next.load(Ordering::Relaxed);
        loop {
            let Some(&request) = self.requests.get(front) else { return Pop::Drained };
            if !self.closed_loop && request.arrival > now {
                return Pop::Park(request.arrival);
            }
            match self.next.compare_exchange_weak(
                front,
                front + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) if self.closed_loop => {
                    return Pop::Ready(Request { arrival: now, ..request })
                }
                Ok(_) => return Pop::Ready(request),
                Err(current) => front = current,
            }
        }
    }
}

/// One simulated service tasklet: pulls due requests from the shared
/// admission, serves each through a step-granular [`RequestBody`]
/// transaction, and records the three-way latency split on commit into its
/// own panel.
pub(crate) struct ServiceTasklet {
    admission: Rc<Admission>,
    panel: LatencyPanel,
    tables: ServiceTables,
    runner: SimTxRunner,
    /// Global tick of this DPU's local cycle 0 (0 for single-DPU runs; the
    /// round start for fleet shards).
    base: u64,
    pending: Option<Request>,
    dispatch: u64,
    body: Option<RequestBody>,
}

impl ServiceTasklet {
    pub(crate) fn new(
        admission: Rc<Admission>,
        tables: ServiceTables,
        machine: TxMachine,
        base: u64,
    ) -> Self {
        ServiceTasklet {
            admission,
            panel: LatencyPanel::new(TimeDomain::Cycles),
            tables,
            runner: SimTxRunner::new(machine),
            base,
            pending: None,
            dispatch: 0,
            body: None,
        }
    }
}

impl TaskletProgram for ServiceTasklet {
    fn step(&mut self, ctx: &mut TaskletCtx<'_>) -> StepStatus {
        if self.pending.is_none() {
            let now = self.base + ctx.now();
            return match self.admission.pop_due(now) {
                Pop::Ready(request) => {
                    self.dispatch = now;
                    self.body = Some(RequestBody::new(self.tables, &request));
                    // Fresh stamps for this request's transaction.
                    self.runner.machine_mut().take_stamps();
                    self.pending = Some(request);
                    StepStatus::Running
                }
                // Park targets are global ticks; the scheduler wants local
                // cycles. `Park` implies the target is past `base + now`.
                Pop::Park(at) => StepStatus::IdleUntil(at.saturating_sub(self.base)),
                Pop::Drained => StepStatus::Finished,
            };
        }
        let body = self.body.as_mut().expect("a pending request always has a body");
        if self.runner.step(ctx, body) == TxStatus::Committed {
            let request = self.pending.take().expect("pending checked above");
            let stamps = self.runner.machine_mut().take_stamps();
            let committed = self.base + stamps.committed.unwrap_or_else(|| ctx.now());
            self.panel.record(
                self.dispatch.saturating_sub(request.arrival),
                stamps.service_time().unwrap_or(0),
                committed.saturating_sub(request.arrival),
            );
            self.body = None;
        }
        StepStatus::Running
    }

    fn label(&self) -> &str {
        "service-tasklet"
    }
}

/// Outcome of one simulated service round (also the fleet's per-shard
/// building block).
pub(crate) struct SimRound {
    pub(crate) report: DpuRunReport,
    pub(crate) panel: LatencyPanel,
}

/// Serves `requests` on an already-built simulated DPU: one
/// [`ServiceTasklet`] per registered slot, shared admission, scheduler run
/// to drain. `base` is the global tick of local cycle 0.
pub(crate) fn run_sim_round(
    dpu: &mut Dpu,
    shared: &StmShared,
    slots: &[TxSlot],
    tables: ServiceTables,
    requests: Vec<Request>,
    closed_loop: bool,
    base: u64,
) -> SimRound {
    let admission = Rc::new(Admission::new(requests, closed_loop));
    let alg = algorithm_for(shared.config().kind);
    let mut tasklets: Vec<ServiceTasklet> = slots
        .iter()
        .map(|slot| {
            let machine = TxMachine::new(shared.clone(), slot.clone(), alg);
            ServiceTasklet::new(Rc::clone(&admission), tables, machine, base)
        })
        .collect();
    let report = Scheduler::new().run_in_place(dpu, &mut tasklets);
    let mut panel = LatencyPanel::new(TimeDomain::Cycles);
    for tasklet in &tasklets {
        panel.merge(&tasklet.panel);
    }
    SimRound { report, panel }
}

/// Outcome of one threaded service run (the threaded counterpart of
/// [`SimRound`]).
pub(crate) struct ThreadedRound {
    pub(crate) report: ThreadedRunReport,
    pub(crate) panel: LatencyPanel,
}

/// Serves `requests` (arrivals in [`wall_clock_nanos`] ticks) on `tasklets`
/// threads of an already-built threaded DPU: shared admission, one latency
/// panel per tasklet, merged after the run.
pub(crate) fn serve_threaded(
    dpu: &mut ThreadedDpu,
    tasklets: usize,
    tables: ServiceTables,
    requests: Vec<Request>,
    closed_loop: bool,
) -> ThreadedRound {
    let admission = Admission::new(requests, closed_loop);
    // Allocated here rather than on the tasklet threads; each thread locks
    // its own panel once, for the whole run.
    let panels: Vec<Mutex<LatencyPanel>> =
        (0..tasklets).map(|_| Mutex::new(LatencyPanel::new(TimeDomain::WallNanos))).collect();
    let report = dpu
        .run(tasklets, |mut tasklet| {
            let mut panel = panels[tasklet.tasklet_id()].lock().expect("panel lock");
            loop {
                // One clock read serves admission, the dispatch stamp and
                // the park gap. In closed loop admission re-anchors the
                // arrival on it, so queueing is zero *by definition*.
                let now = wall_clock_nanos();
                match admission.pop_due(now) {
                    Pop::Ready(request) => {
                        let mut body = RequestBody::new(tables, &request);
                        run_tx_body(&mut tasklet, &mut body);
                        let stamps = tasklet.last_tx_stamps();
                        let committed = stamps.committed.unwrap_or(now);
                        panel.record(
                            now.saturating_sub(request.arrival),
                            stamps.service_time().unwrap_or(0),
                            committed.saturating_sub(request.arrival),
                        );
                    }
                    Pop::Park(due) => {
                        let gap = due - now;
                        if gap > 100_000 {
                            // Sleep most of the gap; the margin absorbs
                            // wakeup jitter and the final stretch is
                            // re-polled.
                            std::thread::sleep(Duration::from_nanos(gap - 50_000));
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    Pop::Drained => break,
                }
            }
        })
        .expect("threaded service run");
    let mut panel = LatencyPanel::new(TimeDomain::WallNanos);
    for tasklet_panel in panels {
        panel.merge(&tasklet_panel.into_inner().expect("panel lock"));
    }
    ThreadedRound { report, panel }
}

/// Runs the service on the deterministic simulator. Latencies are in cycles.
///
/// # Panics
///
/// Panics when the configuration is infeasible (see
/// [`ServiceConfig::check`]) or the STM metadata does not fit the DPU.
pub fn run_service_sim(config: &ServiceConfig) -> ServiceReport {
    config.check().unwrap_or_else(|bound| panic!("{bound}"));
    let mut dpu = Dpu::new(DpuConfig::default());
    let clock_hz = dpu.latency().clock_hz;
    let shared =
        StmShared::allocate(&mut dpu, config.stm).expect("service STM metadata must fit the DPU");
    let tables =
        ServiceTables::allocate(&mut dpu, Tier::Mram, config.keys, config.journal_capacity)
            .expect("service tables must fit MRAM");
    let slots: Vec<TxSlot> = (0..config.tasklets)
        .map(|t| shared.register_tasklet(&mut dpu, t).expect("per-tasklet logs must fit"))
        .collect();
    let requests = config.stream(clock_hz as f64);
    let closed_loop = config.arrival.is_closed_loop();
    let round = run_sim_round(&mut dpu, &shared, &slots, tables, requests, closed_loop, 0);
    ServiceReport {
        executor: Executor::Simulator,
        arrival: config.arrival,
        completed: round.panel.completed(),
        commits: round.report.total_commits(),
        aborts: round.report.total_aborts(),
        makespan_seconds: round.report.makespan_seconds(),
        ticks_per_second: clock_hz as f64,
        panel: round.panel,
    }
}

/// Runs the service on the threaded executor. Latencies are in wall-clock
/// nanoseconds (same process-wide epoch as the engine's commit stamps).
///
/// # Panics
///
/// Panics when the configuration is infeasible (see
/// [`ServiceConfig::check`]) or the STM metadata does not fit.
pub fn run_service_threaded(config: &ServiceConfig) -> ServiceReport {
    config.check().unwrap_or_else(|bound| panic!("{bound}"));
    let mut dpu = ThreadedDpu::new(config.stm).expect("threaded DPU must build");
    let tables =
        ServiceTables::allocate(&mut dpu, Tier::Mram, config.keys, config.journal_capacity)
            .expect("service tables must fit");
    let mut requests = config.stream(1e9);
    let closed_loop = config.arrival.is_closed_loop();
    let start = wall_clock_nanos();
    // Anchor the stream slightly in the future so early arrivals are not
    // already late before the tasklet threads exist.
    let base = start + 200_000;
    for request in &mut requests {
        request.arrival = request.arrival.saturating_add(base);
    }
    let round = serve_threaded(&mut dpu, config.tasklets, tables, requests, closed_loop);
    let makespan_seconds = (wall_clock_nanos() - start) as f64 / 1e9;
    ServiceReport {
        executor: Executor::Threaded,
        arrival: config.arrival,
        completed: round.panel.completed(),
        commits: round.report.commits,
        aborts: round.report.aborts,
        makespan_seconds,
        ticks_per_second: 1e9,
        panel: round.panel,
    }
}

/// Runs the service on `executor`.
///
/// # Panics
///
/// Panics when the configuration is infeasible (see the per-executor
/// functions).
pub fn run_service(config: &ServiceConfig, executor: Executor) -> ServiceReport {
    match executor {
        Executor::Simulator => run_service_sim(config),
        Executor::Threaded => run_service_threaded(config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{journal_record, RequestOp};
    use pim_stm::var::WordAccess;

    fn poisson_config() -> ServiceConfig {
        ServiceConfig::new(ArrivalProcess::Poisson { rate: 2_000_000.0 })
            .with_tasklets(4)
            .with_keys(128)
            .with_requests(400)
            .with_seed(7)
    }

    #[test]
    fn default_config_fits_the_dpu_even_with_a_full_tasklet_pool() {
        // Regression: the default log capacities once exceeded WRAM past
        // eight tasklets. The stock 11-tasklet default and a full 24-tasklet
        // pool must both allocate and serve traffic.
        for tasklets in [11, 24] {
            let config = ServiceConfig::new(ArrivalProcess::Poisson { rate: 1_000_000.0 })
                .with_tasklets(tasklets)
                .with_requests(200);
            let report = run_service_sim(&config);
            assert_eq!(report.completed, 200, "{tasklets} tasklets must serve the stream");
        }
    }

    #[test]
    fn sim_service_completes_the_stream_with_sane_latencies() {
        let report = run_service_sim(&poisson_config());
        assert_eq!(report.completed, 400);
        assert_eq!(report.commits, 400, "every request commits exactly once");
        assert_eq!(report.panel.queueing.count(), 400);
        assert!(report.makespan_seconds > 0.0);
        let p50 = report.quantile_seconds(PanelComponent::Sojourn, 0.50);
        let p99 = report.quantile_seconds(PanelComponent::Sojourn, 0.99);
        assert!(p99 >= p50 && p50 > 0.0, "p99 {p99} must dominate p50 {p50}");
        // Sojourn dominates both components per the stamp protocol.
        assert!(
            report.panel.sojourn.hist.max()
                >= report.panel.service.hist.max().max(report.panel.queueing.hist.max())
        );
    }

    #[test]
    fn sim_service_is_deterministic_per_seed() {
        let a = run_service_sim(&poisson_config());
        let b = run_service_sim(&poisson_config());
        assert_eq!(a.panel, b.panel, "same seed must give bit-identical histograms");
        assert_eq!(a.makespan_seconds, b.makespan_seconds);
        let c = run_service_sim(&poisson_config().with_seed(8));
        assert_ne!(a.panel, c.panel, "a different seed must change the run");
    }

    #[test]
    fn closed_loop_has_identically_zero_queueing_delay() {
        let config = ServiceConfig::new(ArrivalProcess::ClosedLoop)
            .with_tasklets(4)
            .with_keys(64)
            .with_requests(300);
        let report = run_service_sim(&config);
        assert_eq!(report.completed, 300);
        assert_eq!(report.panel.queueing.hist.max(), 0, "closed loop must never queue");
        assert_eq!(report.panel.queueing.count(), 300);
        assert!(report.panel.service.hist.max() > 0);
    }

    #[test]
    fn overload_shows_up_as_queueing_delay() {
        // Offered load far above a single DPU's capacity: queueing must
        // dominate service time at the tail.
        let over = run_service_sim(
            &poisson_config().with_requests(600).with_seed(3).with_arrival_rate(50_000_000.0),
        );
        // Very low load: queueing stays near zero.
        let under = run_service_sim(
            &poisson_config().with_requests(200).with_seed(3).with_arrival_rate(1_000.0),
        );
        assert!(
            over.panel.queueing.quantile(0.95) > under.panel.queueing.quantile(0.95),
            "overload p95 queueing {} must exceed underload {}",
            over.panel.queueing.quantile(0.95),
            under.panel.queueing.quantile(0.95)
        );
        assert_eq!(under.panel.queueing.quantile(0.50), 0, "underload median queueing is zero");
    }

    impl ServiceConfig {
        /// Test helper: swap the open-loop rate in place.
        fn with_arrival_rate(mut self, rate: f64) -> Self {
            self.arrival = ArrivalProcess::Poisson { rate };
            self
        }
    }

    #[test]
    fn threaded_service_serves_the_same_stream() {
        let config = ServiceConfig::new(ArrivalProcess::Poisson { rate: 500_000.0 })
            .with_tasklets(3)
            .with_keys(64)
            .with_requests(150);
        let report = run_service_threaded(&config);
        assert_eq!(report.completed, 150);
        assert_eq!(report.commits, 150);
        assert_eq!(report.panel.queueing.time_domain, TimeDomain::WallNanos);
        assert!(report.makespan_seconds > 0.0);
        assert!(report.panel.sojourn.quantile(0.99) >= report.panel.sojourn.quantile(0.50));
    }

    #[test]
    fn threaded_closed_loop_queueing_is_zero() {
        let config = ServiceConfig::new(ArrivalProcess::ClosedLoop)
            .with_tasklets(2)
            .with_keys(64)
            .with_requests(100);
        let report = run_service_threaded(&config);
        assert_eq!(report.completed, 100);
        assert_eq!(report.panel.queueing.hist.max(), 0);
    }

    const FUND_KEYS: u64 = 32;
    const FUND: u64 = 1_000_000;
    const TRANSFERS: u64 = 300;

    /// One put per key, each funding it with [`FUND`]: more than the
    /// transfer stream can drain from any key, so every transfer is funded.
    fn funding() -> Vec<Request> {
        (0..FUND_KEYS)
            .map(|key| Request { arrival: 0, op: RequestOp::Put, key, key2: key, value: FUND })
            .collect()
    }

    /// A transfers-only stream over the funded keys.
    fn transfers(ticks_per_second: f64) -> Vec<Request> {
        generate_requests(
            ArrivalProcess::Poisson { rate: 1_000_000.0 },
            RequestMix { get: 0, put: 0, transfer: 1 },
            KeyDist::Uniform,
            FUND_KEYS,
            TRANSFERS,
            11,
            ticks_per_second,
        )
    }

    /// The balances still sum to the funding, and the journal (sized to
    /// never evict) holds exactly one record per served transfer.
    fn assert_conserved<M: WordAccess>(mem: &M, tables: ServiceTables, served: &[Request]) {
        let total: u64 = (0..FUND_KEYS)
            .map(|key| tables.map.host_get(mem, key).expect("every key was funded"))
            .sum();
        assert_eq!(total, FUND_KEYS * FUND, "transfers must conserve the total balance");
        let mut journal = tables.journal.host_items(mem);
        let mut expected: Vec<u64> = served.iter().map(|r| journal_record(r.key, r.key2)).collect();
        journal.sort_unstable();
        expected.sort_unstable();
        assert_eq!(journal, expected, "the journal must hold every funded transfer once");
    }

    #[test]
    fn service_preserves_balance_conservation_across_transfers() {
        let stm = poisson_config().stm;
        let journal_capacity = TRANSFERS as u32;

        // Simulator: open-loop transfers, so tasklets also park.
        let mut dpu = Dpu::new(DpuConfig::default());
        let clock_hz = dpu.latency().clock_hz as f64;
        let shared = StmShared::allocate(&mut dpu, stm).unwrap();
        let tables =
            ServiceTables::allocate(&mut dpu, Tier::Mram, FUND_KEYS, journal_capacity).unwrap();
        let slots: Vec<TxSlot> =
            (0..4).map(|t| shared.register_tasklet(&mut dpu, t).unwrap()).collect();
        let funded = run_sim_round(&mut dpu, &shared, &slots, tables, funding(), true, 0);
        assert_eq!(funded.panel.completed(), FUND_KEYS);
        let served = transfers(clock_hz);
        let round = run_sim_round(&mut dpu, &shared, &slots, tables, served.clone(), false, 0);
        assert_eq!(round.panel.completed(), TRANSFERS);
        assert_eq!(round.report.total_commits(), TRANSFERS);
        assert_conserved(&dpu, tables, &served);

        // Threads: the same streams, closed loop.
        let mut dpu = ThreadedDpu::new(stm).unwrap();
        let tables =
            ServiceTables::allocate(&mut dpu, Tier::Mram, FUND_KEYS, journal_capacity).unwrap();
        let funded = serve_threaded(&mut dpu, 4, tables, funding(), true);
        assert_eq!(funded.panel.completed(), FUND_KEYS);
        let served = transfers(1e9);
        let round = serve_threaded(&mut dpu, 4, tables, served.clone(), true);
        assert_eq!(round.panel.completed(), TRANSFERS);
        assert_eq!(round.report.commits, TRANSFERS);
        assert_conserved(&dpu, tables, &served);
    }

    /// Requests `0..n` with key `i` arriving at tick `10 * i`.
    fn numbered(n: u64) -> Vec<Request> {
        (0..n)
            .map(|i| Request { arrival: 10 * i, op: RequestOp::Get, key: i, key2: i, value: 1 })
            .collect()
    }

    #[test]
    fn concurrent_admission_hands_out_every_request_exactly_once() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 10_000;
        let n = THREADS as u64 * PER_THREAD;
        let admission = Admission::new(numbered(n), false);
        let barrier = std::sync::Barrier::new(THREADS);
        let mut keys: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let mut popped = Vec::new();
                        while let Pop::Ready(request) = admission.pop_due(u64::MAX) {
                            assert_eq!(request.arrival, 10 * request.key, "arrival kept");
                            popped.push(request.key);
                        }
                        popped
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        keys.sort_unstable();
        assert_eq!(keys, (0..n).collect::<Vec<_>>(), "no request lost or duplicated");
        assert_eq!(admission.pop_due(u64::MAX), Pop::Drained);
    }

    #[test]
    fn admission_parks_without_advancing_and_drains_after_the_last_request() {
        let admission = Admission::new(numbered(3), false);
        let ready = |key: u64| Pop::Ready(numbered(3)[key as usize]);
        assert_eq!(admission.pop_due(0), ready(0));
        // Request 1 arrives at tick 10: parking on it leaves it at the front.
        assert_eq!(admission.pop_due(9), Pop::Park(10));
        assert_eq!(admission.pop_due(9), Pop::Park(10));
        assert_eq!(admission.pop_due(10), ready(1));
        assert_eq!(admission.pop_due(25), ready(2));
        assert_eq!(admission.pop_due(25), Pop::Drained);
        assert_eq!(admission.pop_due(u64::MAX), Pop::Drained);
    }

    #[test]
    fn closed_loop_admission_rewrites_arrival_to_now() {
        let admission = Admission::new(numbered(2), true);
        // Never parks, even on a request "arriving" later than `now`.
        assert_eq!(admission.pop_due(3), Pop::Ready(Request { arrival: 3, ..numbered(2)[0] }));
        assert_eq!(admission.pop_due(4), Pop::Ready(Request { arrival: 4, ..numbered(2)[1] }));
        assert_eq!(admission.pop_due(5), Pop::Drained);
    }

    #[test]
    fn mix_generation_obeys_the_requested_shape() {
        let requests = generate_requests(
            ArrivalProcess::ClosedLoop,
            RequestMix { get: 1, put: 0, transfer: 0 },
            KeyDist::Uniform,
            16,
            64,
            1,
            1e9,
        );
        assert!(requests.iter().all(|r| r.op == RequestOp::Get));
    }
}
