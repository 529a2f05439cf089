//! Safety rail for streaming ingestion: a job source other than the
//! world's own trace replay must produce a report byte-identical to
//! simulating the materialized trace, and a world that recycles slots
//! over a long stream must keep its bookkeeping consistent.
//! Serialized-JSON equality makes every float bit observable.

use eva::prelude::*;

fn batch_cfg(trace: Trace, scheduler: SchedulerKind) -> SimConfig {
    let mut cfg = SimConfig::new(trace, scheduler);
    cfg.seed = 7;
    cfg
}

fn report_json(report: &SimReport) -> String {
    serde_json::to_string(report).expect("report serializes")
}

#[test]
fn synthetic_source_stream_matches_pregenerated_trace_run() {
    // The open-loop generator replays `generate(seed)` job for job, so
    // streaming straight from the generator must equal simulating the
    // materialized trace.
    let cfg_src = SyntheticTraceConfig::small_scale();
    let trace = cfg_src.generate(9);
    let cfg = batch_cfg(trace, SchedulerKind::Stratus);
    let batch = report_json(&ClusterSim::new(&cfg).run());
    let source = Box::new(SyntheticSource::new(&cfg_src, 9));
    let streamed = report_json(&ClusterSim::from_source(&cfg, source).run());
    assert_eq!(batch, streamed);
}

#[test]
fn streaming_world_audits_clean_while_recycling() {
    let cfg = batch_cfg(SyntheticTraceConfig::small_scale().generate(5), SchedulerKind::Stratus);
    let source = Box::new(SyntheticSource::open_loop(6.0, 60, 13));
    let mut sim = ClusterSim::from_source(&cfg, source);
    let mut steps = 0u64;
    while sim.step() {
        steps += 1;
        if steps.is_multiple_of(64) {
            sim.audit_slots().expect("streaming audit");
        }
    }
    sim.audit_slots().expect("final streaming audit");
    assert_eq!(sim.jobs_ingested(), 60);
    assert!(
        sim.live_job_slots() == 0,
        "all retired at drain: {} live rows",
        sim.live_job_slots()
    );
    assert!(
        sim.job_arena_rows() < 60,
        "slot recycling kept rows below jobs ingested ({} rows)",
        sim.job_arena_rows()
    );
}
