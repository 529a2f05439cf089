//! In-memory span recording for the traced run.
//!
//! Every span marks one call into a layer's public API: its layer, its
//! start and end on a monotonic clock, and the span that was open when
//! it began (its parent). Spans stay in memory until the run ends and
//! are written out in one go, so the file system is never touched
//! between the timed calls.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// The layers the benchmark times from outside, named after the crates
/// whose public functions the spans wrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole simulation pass (set-up, steps, finalize).
    Pass,
    /// `generate()` of a batch trace, or one `next_job` of a stream.
    Gen,
    /// `ClusterSim::new` / `ClusterSim::from_source`.
    Build,
    /// A `step()` call whose `rounds_executed()` did not advance.
    Event,
    /// A `step()` call that executed a scheduling round.
    Round,
    /// `run()` on a drained world (report assembly).
    Finalize,
    /// The whole phase replay.
    Replay,
    /// Rebuilding one round's observations and scheduler context.
    Context,
    /// `EvaScheduler::observe`.
    Observe,
    /// `ReservationPrices::compute`.
    Prices,
    /// `full_reconfiguration` (Algorithm 1).
    FullPack,
    /// `partial_reconfiguration`.
    Partial,
    /// `EvaScheduler::plan`.
    Plan,
    /// `StratusScheduler::plan`.
    BaselinePlan,
    /// Applying a replayed plan to the replay's own placement state.
    Apply,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 15] = [
        Layer::Pass,
        Layer::Gen,
        Layer::Build,
        Layer::Event,
        Layer::Round,
        Layer::Finalize,
        Layer::Replay,
        Layer::Context,
        Layer::Observe,
        Layer::Prices,
        Layer::FullPack,
        Layer::Partial,
        Layer::Plan,
        Layer::BaselinePlan,
        Layer::Apply,
    ];

    /// Stable name used in the span file and the printed table.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Pass => "bench.pass",
            Layer::Gen => "workloads.gen",
            Layer::Build => "sim.build",
            Layer::Event => "sim.event",
            Layer::Round => "sim.round",
            Layer::Finalize => "sim.finalize",
            Layer::Replay => "replay",
            Layer::Context => "replay.context",
            Layer::Observe => "core.observe",
            Layer::Prices => "core.prices",
            Layer::FullPack => "core.full_pack",
            Layer::Partial => "core.partial",
            Layer::Plan => "core.plan",
            Layer::BaselinePlan => "baselines.plan",
            Layer::Apply => "replay.apply",
        }
    }
}

/// One recorded span. `end_ns` is 0 while the span is open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer the span timed.
    pub layer: Layer,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, in nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the log's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-layer totals over a span log.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations, seconds.
    pub total_s: f64,
    /// Sum of span durations minus the time their child spans cover.
    pub self_s: f64,
}

/// The span recorder: an append-only vector plus the stack of open spans.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span and returns its index.
    pub fn enter(&mut self, layer: Layer) -> u32 {
        let idx = u32::try_from(self.spans.len()).expect("span count fits in u32");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent,
            start_ns,
            end_ns: 0,
        });
        self.open.push(idx);
        idx
    }

    /// Closes span `idx` (which must be the innermost open one) under
    /// `layer` — a step's layer is known only once the call returns.
    pub fn exit_as(&mut self, idx: u32, layer: Layer) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        let span = &mut self.spans[idx as usize];
        span.end_ns = end_ns.max(span.start_ns);
        span.layer = layer;
    }

    /// Closes span `idx` under the layer it was opened with.
    pub fn exit(&mut self, idx: u32) {
        let layer = self.spans[idx as usize].layer;
        self.exit_as(idx, layer);
    }

    /// Drops span `idx`, which must be the innermost open span and the
    /// last one recorded (a call that turned out to do no work).
    pub fn discard(&mut self, idx: u32) {
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        assert_eq!(
            self.spans.len() as u32,
            idx + 1,
            "only the newest span drops"
        );
        self.spans.pop();
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total time and self time of every layer, indexed by
    /// `layer as usize`. Self time is a span's duration minus the
    /// durations of its direct children.
    pub fn totals(&self) -> Vec<LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.duration_ns();
            }
        }
        let mut out = vec![LayerTotals::default(); Layer::ALL.len()];
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let slot = &mut out[span.layer as usize];
            let dur = span.duration_ns();
            slot.count += 1;
            slot.total_s += dur as f64 * 1e-9;
            slot.self_s += dur.saturating_sub(*children) as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as a tab-separated line
    /// (`id parent layer start_ns end_ns`; a root's parent is `-`).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::with_capacity(self.spans.len() * 40 + 64);
        text.push_str("id\tparent\tlayer\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(text, "{i}\t");
            if s.parent == NO_PARENT {
                text.push('-');
            } else {
                let _ = write!(text, "{}", s.parent);
            }
            let _ = writeln!(text, "\t{}\t{}\t{}", s.layer.name(), s.start_ns, s.end_ns);
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}
