//! Lockstep harness shared by the oracle tests: the default world
//! (O(changed) hot loop, completed jobs retired) against the test-only
//! reference world (`SimConfig::reference_full_scan`: eager full
//! scans, nothing retired).

use eva::prelude::*;
use proptest::prelude::*;

pub fn trace(jobs: usize, seed: u64) -> Trace {
    AlibabaTraceConfig {
        num_jobs: jobs,
        arrival_rate_per_hour: 8.0,
        durations: DurationModelChoice::Alibaba,
    }
    .generate(seed)
}

/// The default world and the reference world for one config.
pub fn sims(cfg: &SimConfig) -> (ClusterSim, ClusterSim) {
    let mut reference = cfg.clone();
    reference.reference_full_scan = true;
    (ClusterSim::new(cfg), ClusterSim::new(&reference))
}

/// What the default and reference worlds held once both drained.
pub struct Drained {
    /// Peak arena job rows of the default world.
    pub peak_rows: usize,
    /// Live job slots at the end: (default, reference).
    pub live_slots: (usize, usize),
    /// Jobs ingested by the default world.
    pub ingested: u64,
}

/// Steps both worlds to exhaustion, comparing stream digests at every
/// event boundary, then compares the final reports byte-for-byte.
pub fn assert_lockstep(
    mut lazy: ClusterSim,
    mut full: ClusterSim,
) -> Result<Drained, TestCaseError> {
    let mut steps = 0u64;
    let mut peak_rows = 0;
    loop {
        let (a, b) = (lazy.step(), full.step());
        prop_assert_eq!(a, b, "event streams diverged in length at step {}", steps);
        prop_assert_eq!(lazy.now(), full.now(), "clocks diverged at step {}", steps);
        let (da, db) = (lazy.stream_digest(), full.stream_digest());
        prop_assert_eq!(da, db, "world digests diverged at step {}", steps);
        lazy.audit_slots().map_err(TestCaseError::fail)?;
        full.audit_slots().map_err(TestCaseError::fail)?;
        peak_rows = peak_rows.max(lazy.job_arena_rows());
        if !a {
            break;
        }
        steps += 1;
    }
    let drained = Drained {
        peak_rows,
        live_slots: (lazy.live_job_slots(), full.live_job_slots()),
        ingested: lazy.jobs_ingested(),
    };
    let ra = serde_json::to_string(&lazy.run()).expect("report serializes");
    let rb = serde_json::to_string(&full.run()).expect("report serializes");
    prop_assert_eq!(ra, rb, "final reports diverged");
    Ok(drained)
}
