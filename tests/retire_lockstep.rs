//! Oracle for job retirement: the default world folds every completed
//! job into the completed-job log and recycles its arena slots, and
//! that must be *semantically invisible*. Longer traces than
//! `lazy_oracle`'s run in lockstep against the reference world, which
//! retires nothing, and the test checks both sides of the premise: the
//! default world really released every job and the reference world
//! really kept every one.

mod common;

use common::{assert_lockstep, sims, trace};
use eva::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn retirement_matches_keep_everything_reference(
        jobs in 14usize..28,
        seed in 0u64..500,
        regime in prop_oneof![
            Just("none"),
            Just("preempt-storm:3"),
            Just("worker-crash:2"),
            Just("straggler:2"),
            Just("ckpt-drop"),
        ],
        scheduler in prop_oneof![
            Just(SchedulerKind::Stratus),
            Just(SchedulerKind::Eva(EvaConfig::eva())),
        ],
    ) {
        let mut cfg = SimConfig::new(trace(jobs, seed), scheduler);
        cfg.seed = seed;
        cfg.faults = FaultSpec::parse(regime).expect("valid regime");
        let (retire, keep) = sims(&cfg);
        let drained = assert_lockstep(retire, keep)?;
        prop_assert_eq!(drained.ingested, jobs as u64);
        prop_assert_eq!(drained.live_slots.0, 0, "default world left jobs unreleased");
        prop_assert_eq!(drained.live_slots.1, jobs, "reference world released a job");
        prop_assert!(drained.peak_rows <= jobs);
    }
}
