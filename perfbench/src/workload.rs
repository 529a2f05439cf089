//! The benchmark's workloads and how each world is set up.
//!
//! Every workload is one single-threaded simulation whose inputs come
//! from the benchmark's `--seed`; the program only ever sees the
//! generated jobs.

use std::cell::RefCell;
use std::rc::Rc;

use eva_core::EvaConfig;
use eva_sim::{ClusterSim, SchedulerKind, SimConfig};
use eva_types::JobSpec;
use eva_workloads::{
    AlibabaTraceConfig, DurationModelChoice, JobSource, SyntheticSource, SyntheticTraceConfig,
    Trace, TraceHandle,
};

use crate::spans::{Layer, SpanLog};

/// Jobs in one `dense-eva` pass.
pub const DENSE_EVA_JOBS: usize = 2_000;

/// Generator seed of the `alibaba-eva` trace: the one `exp_table13`
/// (the paper's §6.3 Table 13) simulates. The paper replays one fixed
/// production trace, and its heavy-tailed durations make per-seed
/// regenerations differ by about a third in simulated work, so this
/// workload keeps the trace fixed and takes `--seed` as the
/// simulator's delay-model seed.
pub const ALIBABA_TRACE_SEED: u64 = 13;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Eva streaming the Table 7 synthetic recipe at the huge tiers'
    /// 30 s mean interarrival through `ClusterSim::from_source` with
    /// retirement on — the `eva serve` path.
    DenseEva,
    /// Eva on the §6.3 Alibaba-like trace (6,274 jobs) through the batch
    /// `ClusterSim::new` path that sweeps and experiments use.
    AlibabaEva,
    /// Stratus on the batch 100k-job huge tier.
    Stratus100k,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::DenseEva,
        Workload::AlibabaEva,
        Workload::Stratus100k,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseEva => "dense-eva",
            Workload::AlibabaEva => "alibaba-eva",
            Workload::Stratus100k => "stratus-100k",
        }
    }

    /// Resolves a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Jobs submitted in one pass.
    pub fn jobs(self) -> usize {
        match self {
            Workload::DenseEva => DENSE_EVA_JOBS,
            Workload::AlibabaEva => AlibabaTraceConfig::full(DurationModelChoice::Alibaba).num_jobs,
            Workload::Stratus100k => SyntheticTraceConfig::huge_100k().num_jobs,
        }
    }

    /// Whether the scheduler under test is Eva (the phase replay then
    /// times eva-core; otherwise it times the Stratus baseline).
    pub fn is_eva(self) -> bool {
        !matches!(self, Workload::Stratus100k)
    }

    fn dense_config() -> SyntheticTraceConfig {
        SyntheticTraceConfig {
            num_jobs: DENSE_EVA_JOBS,
            ..SyntheticTraceConfig::huge_100k()
        }
    }

    fn sim_config(self, trace: TraceHandle, seed: u64) -> SimConfig {
        let scheduler = if self.is_eva() {
            SchedulerKind::Eva(EvaConfig::eva())
        } else {
            SchedulerKind::Stratus
        };
        let mut cfg = SimConfig::new(trace, scheduler);
        cfg.seed = seed;
        cfg.retire_completed = self == Workload::DenseEva;
        cfg
    }

    /// The jobs one pass submits, materialized (the streamed workload's
    /// source yields exactly its config's `generate()` output). The
    /// phase replay reads arrivals and task specs from here.
    pub fn jobs_for(self, seed: u64) -> Trace {
        match self {
            Workload::DenseEva => Workload::dense_config().generate(seed),
            Workload::AlibabaEva => {
                AlibabaTraceConfig::full(DurationModelChoice::Alibaba).generate(ALIBABA_TRACE_SEED)
            }
            Workload::Stratus100k => SyntheticTraceConfig::huge_100k().generate(seed),
        }
    }

    /// Sets up one world: trace generation or source set-up, then world
    /// construction — everything before the first `step()`. With a span
    /// log, generation and construction are recorded as spans (for the
    /// streamed workload, every `next_job` is).
    pub fn build(self, seed: u64, log: Option<&Rc<RefCell<SpanLog>>>) -> ClusterSim {
        let enter = |layer| log.map(|l| l.borrow_mut().enter(layer));
        let exit = |span: Option<u32>| {
            if let (Some(l), Some(id)) = (log, span) {
                l.borrow_mut().exit(id);
            }
        };
        match self {
            Workload::DenseEva => {
                let cfg = self.sim_config(TraceHandle::new(Trace::new(Vec::new())), seed);
                let span = enter(Layer::Gen);
                let inner = SyntheticSource::new(&Workload::dense_config(), seed);
                exit(span);
                let source: Box<dyn JobSource> = match log {
                    Some(log) => Box::new(TimingSource::new(inner, log.clone())),
                    None => Box::new(inner),
                };
                let span = enter(Layer::Build);
                let sim = ClusterSim::from_source(&cfg, source);
                exit(span);
                sim
            }
            Workload::AlibabaEva | Workload::Stratus100k => {
                let span = enter(Layer::Gen);
                let trace = self.jobs_for(seed);
                exit(span);
                let cfg = self.sim_config(TraceHandle::new(trace), seed);
                let span = enter(Layer::Build);
                let sim = ClusterSim::new(&cfg);
                exit(span);
                sim
            }
        }
    }
}

/// A [`JobSource`] wrapper that records each `next_job` call as a
/// `workloads.gen` span and otherwise passes everything through
/// untouched.
pub struct TimingSource<S> {
    inner: S,
    log: Rc<RefCell<SpanLog>>,
}

impl<S: JobSource> TimingSource<S> {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: S, log: Rc<RefCell<SpanLog>>) -> Self {
        TimingSource { inner, log }
    }
}

impl<S: JobSource> JobSource for TimingSource<S> {
    fn next_job(&mut self) -> Option<JobSpec> {
        let id = self.log.borrow_mut().enter(Layer::Gen);
        let job = self.inner.next_job();
        self.log.borrow_mut().exit(id);
        job
    }

    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }

    fn ids_monotone(&self) -> bool {
        self.inner.ids_monotone()
    }
}
