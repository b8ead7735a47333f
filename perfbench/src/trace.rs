//! In-memory span recorder for the traced run.
//!
//! Every span has a name (one [`Layer`]), a start and an end on one
//! process-wide clock, the id of the span that was open when it started
//! (its parent), and the id of the cell, request or pass it belongs to.
//! Spans are recorded only from this benchmark's own wrappers around the
//! program's public functions; nothing inside the program is instrumented.
//!
//! Each thread records into its own [`Recorder`]. Closing a span folds it
//! into per-layer totals — count, duration, and self time (the duration
//! minus the part its child spans cover) — so per-layer figures cover every
//! span, while at most [`KEEP_PER_LAYER`] spans of each layer are kept
//! verbatim for the Chrome trace-event file written at exit. Time spent
//! inside closed children is exact; the wrapper's own clock reads land in the
//! parent's self time, which is part of what `trace.overhead` reports.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans of one layer kept verbatim for the trace file; later spans of that
/// layer still count in the totals.
pub const KEEP_PER_LAYER: u64 = 20_000;

/// The program layers the benchmark times, one span name each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One pass over a workload's whole input.
    Pass,
    /// `SimCache::get_or_run`, including its run closure.
    CacheGetOrRun,
    /// The run closure handed to the cache: build, schedule, check.
    CellRun,
    /// DPU, STM metadata, data and tasklet programs of one cell.
    Build,
    /// `Scheduler::run`.
    SchedRun,
    /// One `TaskletProgram::step`.
    Step,
    /// `sweeps_to_json` plus rendering the JSON text.
    Json,
    /// `TaskletTx::transaction`, retries included.
    Transaction,
    /// One request body driven through a transaction.
    Request,
    /// `TxOps::read_word`.
    ReadWord,
    /// `TxOps::read_words`.
    ReadWords,
    /// `TxOps::write_word` and `TxOps::write_words`.
    Write,
    /// Any other `TxOps` call (raw access, compute, cancel).
    OtherOps,
    /// `run_service_threaded`.
    ServiceThreaded,
    /// `run_service_sim`.
    ServiceSim,
    /// `pim_fleet::run`.
    FleetRun,
    /// `run_service_fleet`.
    ServiceFleet,
}

/// Number of [`Layer`] variants.
const LAYERS: usize = 17;

impl Layer {
    /// Span name in the trace file.
    fn name(self) -> &'static str {
        match self {
            Layer::Pass => "pass",
            Layer::CacheGetOrRun => "pim_exp::cache::SimCache::get_or_run",
            Layer::CellRun => "cell.run",
            Layer::Build => "pim_workloads::build",
            Layer::SchedRun => "pim_sim::Scheduler::run",
            Layer::Step => "TaskletProgram::step",
            Layer::Json => "pim_exp::json::sweeps_to_json",
            Layer::Transaction => "TaskletTx::transaction",
            Layer::Request => "run_tx_body(RequestBody)",
            Layer::ReadWord => "TxOps::read_word",
            Layer::ReadWords => "TxOps::read_words",
            Layer::Write => "TxOps::write",
            Layer::OtherOps => "TxOps::other",
            Layer::ServiceThreaded => "pim_service::run_service_threaded",
            Layer::ServiceSim => "pim_service::run_service_sim",
            Layer::FleetRun => "pim_fleet::run",
            Layer::ServiceFleet => "pim_service::run_service_fleet",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    /// Whether this layer is one `TxOps` call.
    fn is_txops(self) -> bool {
        matches!(self, Layer::ReadWord | Layer::ReadWords | Layer::Write | Layer::OtherOps)
    }
}

/// Totals over every closed span of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Spans closed.
    pub count: u64,
    /// Summed span durations, in nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus children), in nanoseconds.
    pub self_ns: u64,
    /// Summed duration of direct `TxOps` children, in nanoseconds.
    pub txops_child_ns: u64,
    /// Direct `TxOps` children.
    pub txops_children: u64,
}

impl LayerTotals {
    /// Mean span duration, in nanoseconds (0 without spans).
    pub fn mean_ns(&self) -> f64 {
        crate::stats::ratio(self.total_ns as f64, self.count as f64)
    }

    /// Summed duration minus the direct `TxOps` children, in nanoseconds.
    pub fn minus_txops_ns(&self) -> f64 {
        self.total_ns.saturating_sub(self.txops_child_ns) as f64
    }
}

/// One kept span.
#[derive(Debug, Clone, Copy)]
struct SpanRecord {
    layer: Layer,
    id: u64,
    parent: u64,
    item: u64,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
struct OpenSpan {
    layer: Layer,
    id: u64,
    parent: u64,
    item: u64,
    start_ns: u64,
    child_ns: u64,
    txops_child_ns: u64,
    txops_children: u64,
}

/// The spans of one thread.
#[derive(Debug)]
struct Recorder {
    tid: u64,
    stack: Vec<OpenSpan>,
    totals: [LayerTotals; LAYERS],
    kept: Vec<SpanRecord>,
    next_id: u64,
}

impl Recorder {
    fn new(tid: u64) -> Self {
        Recorder {
            tid,
            stack: Vec::new(),
            totals: [LayerTotals::default(); LAYERS],
            kept: Vec::new(),
            next_id: 1,
        }
    }

    fn enter(&mut self, layer: Layer, item: u64) {
        let id = (self.tid << 48) | self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().map_or(0, |s| s.id);
        self.stack.push(OpenSpan {
            layer,
            id,
            parent,
            item,
            start_ns: now_ns(),
            child_ns: 0,
            txops_child_ns: 0,
            txops_children: 0,
        });
    }

    fn exit(&mut self) {
        let end_ns = now_ns();
        let span = self.stack.pop().expect("every span exit matches an enter");
        let duration = end_ns.saturating_sub(span.start_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += duration;
            if span.layer.is_txops() {
                parent.txops_child_ns += duration;
                parent.txops_children += 1;
            }
        }
        let totals = &mut self.totals[span.layer.index()];
        if totals.count < KEEP_PER_LAYER {
            self.kept.push(SpanRecord {
                layer: span.layer,
                id: span.id,
                parent: span.parent,
                item: span.item,
                start_ns: span.start_ns,
                end_ns,
            });
        }
        totals.count += 1;
        totals.total_ns += duration;
        totals.self_ns += duration.saturating_sub(span.child_ns);
        totals.txops_child_ns += span.txops_child_ns;
        totals.txops_children += span.txops_children;
    }
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static ENABLED: OnceLock<bool> = OnceLock::new();
static FINISHED: Mutex<Finished> =
    Mutex::new(Finished { recorders: Vec::new(), kept: [0; LAYERS] });
static NEXT_TID: Mutex<u64> = Mutex::new(1);

/// The flushed recorders, and how many spans of each layer they keep.
struct Finished {
    recorders: Vec<Recorder>,
    kept: [u64; LAYERS],
}

thread_local! {
    static LOCAL: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Nanoseconds since the process-wide trace epoch.
fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span recording on for the rest of the process. Untraced runs never
/// call this, so their wrappers reduce to one flag check.
pub fn enable() {
    now_ns();
    ENABLED.get_or_init(|| true);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.get().copied().unwrap_or(false)
}

/// An open span; it closes when dropped.
pub struct Span {
    active: bool,
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.active {
            LOCAL.with(|local| {
                if let Some(recorder) = local.borrow_mut().as_mut() {
                    recorder.exit();
                }
            });
        }
    }
}

/// Opens a span of `layer` for cell, request or pass `item` on this thread.
pub fn span(layer: Layer, item: u64) -> Span {
    if !enabled() {
        return Span { active: false };
    }
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let recorder = local.get_or_insert_with(|| {
            let mut next = NEXT_TID.lock().expect("trace thread ids");
            *next += 1;
            Recorder::new(*next - 1)
        });
        recorder.enter(layer, item);
    });
    Span { active: true }
}

/// Times `f` inside a span of `layer`.
pub fn timed<R>(layer: Layer, item: u64, f: impl FnOnce() -> R) -> R {
    let _span = span(layer, item);
    f()
}

/// Hands this thread's spans to the process-wide collection, keeping at
/// most [`KEEP_PER_LAYER`] spans of each layer across all threads. Tasklet
/// threads call this before they end; the main thread calls it at exit.
pub fn flush_thread() {
    if let Some(mut recorder) = LOCAL.with(|local| local.borrow_mut().take()) {
        assert!(recorder.stack.is_empty(), "a thread ended with open spans");
        let mut finished = FINISHED.lock().expect("trace collection");
        let kept = &mut finished.kept;
        recorder.kept.retain(|s| {
            let count = &mut kept[s.layer.index()];
            *count += 1;
            *count <= KEEP_PER_LAYER
        });
        finished.recorders.push(recorder);
    }
}

/// Totals of `layer` over every flushed thread. Flushes the calling thread
/// first.
pub fn totals(layer: Layer) -> LayerTotals {
    flush_thread();
    let mut sum = LayerTotals::default();
    for recorder in &FINISHED.lock().expect("trace collection").recorders {
        let t = recorder.totals[layer.index()];
        sum.count += t.count;
        sum.total_ns += t.total_ns;
        sum.self_ns += t.self_ns;
        sum.txops_child_ns += t.txops_child_ns;
        sum.txops_children += t.txops_children;
    }
    sum
}

/// Renders every kept span as Chrome trace-event JSON (complete events,
/// microsecond timestamps), loadable in `chrome://tracing` or Perfetto.
pub fn chrome_json(workload: &str, seed: u64) -> String {
    let finished = FINISHED.lock().expect("trace collection");
    let mut out = String::with_capacity(1 << 20);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"otherData\":{");
    let _ = write!(
        out,
        "\"workload\":\"{workload}\",\"seed\":{seed},\"kept_per_layer\":{KEEP_PER_LAYER}"
    );
    out.push_str("},\"traceEvents\":[");
    let mut first = true;
    for recorder in &finished.recorders {
        for s in &recorder.kept {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"item\":{}}}}}",
                s.layer.name(),
                recorder.tid,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.item
            );
        }
    }
    out.push_str("]}");
    out
}
