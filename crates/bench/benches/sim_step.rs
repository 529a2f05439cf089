//! Criterion benchmarks for the simulator's event-loop hot path.
//!
//! * `cluster_sim/first_round` — build the world and step it through its
//!   first scheduling round (arrivals + one observe/plan/execute cycle):
//!   the per-round cost every sweep cell pays hundreds of times.
//! * `cluster_sim/run_to_completion` — a whole small-trace run, the unit
//!   the `SweepRunner` fans out across worker threads.
//! * `cluster_sim/build_100k` — world construction for the 100,000-job
//!   stress tier: the fixed cost a huge cell pays before its first
//!   event. Jobs are interned as they arrive, so this is the fault plan
//!   plus the first pull and should not grow with the trace.
//! * `cluster_sim/steady_churn` — 100 events through a *warm* sim (past
//!   its third round), where completions, reschedules, and incremental
//!   integral updates dominate instead of arrival setup. This is the
//!   regime the dirty-set O(changed) hot loop targets.
//! * `cluster_sim/ingest_retire` — a steady-state streaming run: jobs
//!   pulled one ingest ahead from the open-loop generator, every
//!   completion recycling its arena slots.
//!   Reported per-run; divide by the job count for ns/job through the
//!   full ingest → schedule → complete → retire cycle of `eva serve`.

use criterion::{criterion_group, criterion_main, Criterion};

use eva_core::EvaConfig;
use eva_sim::{ClusterSim, SchedulerKind, SimConfig};
use eva_types::SimDuration;
use eva_workloads::{
    SyntheticSource, SyntheticTraceConfig, Trace, TraceHandle, UniformHours,
};

fn dense_trace(jobs: usize) -> Trace {
    SyntheticTraceConfig {
        num_jobs: jobs,
        mean_interarrival: SimDuration::from_mins(3),
        duration: UniformHours::new(0.5, 1.5),
        single_task_only: false,
    }
    .generate(17)
}

fn bench_first_round(c: &mut Criterion) {
    let cfg = SimConfig::new(dense_trace(60), SchedulerKind::Eva(EvaConfig::eva()));
    let mut group = c.benchmark_group("cluster_sim");
    group.sample_size(20);
    group.bench_function("first_round", |b| {
        b.iter(|| {
            let mut sim = ClusterSim::new(&cfg);
            while sim.rounds_executed() < 1 && sim.step() {}
            sim.rounds_executed()
        })
    });
    group.finish();
}

fn bench_run_to_completion(c: &mut Criterion) {
    let cfg = SimConfig::new(dense_trace(20), SchedulerKind::Eva(EvaConfig::eva()));
    let mut group = c.benchmark_group("cluster_sim");
    group.sample_size(10);
    group.bench_function("run_to_completion", |b| {
        b.iter(|| ClusterSim::new(&cfg).run().jobs_completed)
    });
    group.finish();
}

fn warm_churning_sim(cfg: &SimConfig) -> ClusterSim {
    let mut sim = ClusterSim::new(cfg);
    while sim.rounds_executed() < 3 && sim.step() {}
    sim
}

fn bench_steady_churn(c: &mut Criterion) {
    let cfg = SimConfig::new(dense_trace(60), SchedulerKind::Eva(EvaConfig::eva()));
    let mut group = c.benchmark_group("cluster_sim");
    group.sample_size(20);
    group.bench_function("steady_churn", |b| {
        // The warm sim lives in the closure and is re-warmed when a
        // sample drains it, so every iteration steps steady-state churn
        // rather than paying construction or arrival setup.
        let mut sim = warm_churning_sim(&cfg);
        b.iter(|| {
            let mut events = 0u32;
            for _ in 0..100 {
                if !sim.step() {
                    sim = warm_churning_sim(&cfg);
                }
                events += 1;
            }
            events
        })
    });
    group.finish();
}

fn bench_build_100k(c: &mut Criterion) {
    let trace = SyntheticTraceConfig::huge_100k().generate(42);
    let cfg = SimConfig::new(trace, SchedulerKind::Stratus);
    let mut group = c.benchmark_group("cluster_sim");
    group.sample_size(10);
    group.bench_function("build_100k", |b| {
        b.iter(|| ClusterSim::new(&cfg).rounds_executed())
    });
    group.finish();
}

fn bench_ingest_retire(c: &mut Criterion) {
    // 300 jobs at the dense 3-minute interarrival keeps a steady
    // in-flight window churning through slot recycling.
    let cfg = SimConfig::new(
        TraceHandle::new(Trace::new(Vec::new())),
        SchedulerKind::Stratus,
    );
    let src_cfg = SyntheticTraceConfig {
        num_jobs: 300,
        mean_interarrival: SimDuration::from_mins(3),
        duration: UniformHours::new(0.5, 1.5),
        single_task_only: false,
    };
    let mut group = c.benchmark_group("cluster_sim");
    group.sample_size(10);
    group.bench_function("ingest_retire", |b| {
        b.iter(|| {
            let source = Box::new(SyntheticSource::new(&src_cfg, 17));
            ClusterSim::from_source(&cfg, source).run().jobs_completed
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_first_round,
    bench_run_to_completion,
    bench_steady_churn,
    bench_build_100k,
    bench_ingest_retire
);
criterion_main!(benches);
