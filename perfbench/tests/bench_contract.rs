//! The benchmark's own checks: the percentile rule, the timing source
//! wrapper's transparency, and the phase replay's context rebuild.

use std::cell::RefCell;
use std::rc::Rc;

use eva_core::EvaConfig;
use eva_perfbench::drive::traced_steps;
use eva_perfbench::replay::{replay, Replayed};
use eva_perfbench::spans::{Layer, SpanLog};
use eva_perfbench::stats::{median, percentile};
use eva_perfbench::workload::{TimingSource, Workload};
use eva_sim::{ClusterSim, SchedulerKind, SimConfig};
use eva_types::SimDuration;
use eva_workloads::{SyntheticSource, SyntheticTraceConfig, Trace, TraceHandle, UniformHours};

fn ascending(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn percentile_needs_ten_samples_beyond() {
    // 200 samples: p95 is rank 190, with exactly ten above it.
    assert_eq!(percentile(&ascending(200), 0.95), Some(190.0));
    // One sample fewer leaves nine beyond: refused.
    assert_eq!(percentile(&ascending(199), 0.95), None);
    // The median of 21 samples has ten beyond it.
    assert_eq!(percentile(&ascending(21), 0.5), Some(11.0));
    assert_eq!(percentile(&ascending(19), 0.5), None);
    // Out-of-range percentiles and empty input are refused.
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(percentile(&ascending(100), 0.0), None);
    assert_eq!(percentile(&ascending(100), 1.5), None);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

fn small_synthetic(jobs: usize) -> SyntheticTraceConfig {
    SyntheticTraceConfig {
        num_jobs: jobs,
        mean_interarrival: SimDuration::from_mins(2),
        duration: UniformHours::new(0.3, 1.2),
        single_task_only: false,
    }
}

fn streaming_cfg(scheduler: SchedulerKind) -> SimConfig {
    let mut cfg = SimConfig::new(TraceHandle::new(Trace::new(Vec::new())), scheduler);
    cfg.retire_completed = true;
    cfg
}

#[test]
fn timing_source_leaves_the_report_bit_identical() {
    let trace_cfg = small_synthetic(60);
    let cfg = streaming_cfg(SchedulerKind::Eva(EvaConfig::eva()));
    let bare = ClusterSim::from_source(&cfg, Box::new(SyntheticSource::new(&trace_cfg, 5))).run();

    let log = Rc::new(RefCell::new(SpanLog::new()));
    let timed = TimingSource::new(SyntheticSource::new(&trace_cfg, 5), log.clone());
    let wrapped = ClusterSim::from_source(&cfg, Box::new(timed)).run();

    assert_eq!(bare.jobs_completed, 60);
    assert_eq!(format!("{bare:?}"), format!("{wrapped:?}"));
    assert_eq!(
        bare.total_cost_dollars.to_bits(),
        wrapped.total_cost_dollars.to_bits()
    );
    // Every pull was recorded: 60 jobs plus the exhausting call.
    let gen = log.borrow().totals()[Layer::Gen as usize];
    assert_eq!(gen.count, 61);
}

/// Runs `sim` traced, replays its script and checks the rebuilt rounds
/// against what the simulator reported at each round.
fn assert_replay_matches(sim: ClusterSim, jobs: &Trace, mut scheduler: Replayed) {
    let log = Rc::new(RefCell::new(SpanLog::new()));
    let run = traced_steps(sim, &log);
    assert_eq!(run.report.jobs_completed, jobs.len());
    assert!(run.audit.is_ok(), "{:?}", run.audit);
    let outcome = replay(jobs.jobs(), &run.script, &mut scheduler, &log);
    assert_eq!(outcome.rounds, run.rounds);
    assert_eq!(outcome.active_per_round, run.active_per_round);
    assert!(
        run.active_per_round.iter().any(|&a| a > 3),
        "the trace must overlap jobs for the check to mean anything"
    );
    assert!(outcome.tasks >= outcome.redundant_tasks);
    let totals = log.borrow().totals();
    assert_eq!(totals[Layer::Round as usize].count, run.rounds);
    assert_eq!(totals[Layer::Replay as usize].count, 1);
}

#[test]
fn replayed_eva_rounds_match_active_jobs_batch() {
    let trace = small_synthetic(60).generate(11);
    let cfg = SimConfig::new(trace.clone(), SchedulerKind::Eva(EvaConfig::eva()));
    assert_replay_matches(ClusterSim::new(&cfg), &trace, Replayed::eva());
}

#[test]
fn replayed_eva_rounds_match_active_jobs_streamed() {
    let trace_cfg = small_synthetic(60);
    let cfg = streaming_cfg(SchedulerKind::Eva(EvaConfig::eva()));
    let sim = ClusterSim::from_source(&cfg, Box::new(SyntheticSource::new(&trace_cfg, 3)));
    assert_replay_matches(sim, &trace_cfg.generate(3), Replayed::eva());
}

#[test]
fn replayed_stratus_rounds_match_active_jobs() {
    let trace = small_synthetic(80).generate(2);
    let cfg = SimConfig::new(trace.clone(), SchedulerKind::Stratus);
    assert_replay_matches(ClusterSim::new(&cfg), &trace, Replayed::stratus());
}

#[test]
fn workload_names_round_trip() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert_eq!(Workload::parse("eva"), None);
}
