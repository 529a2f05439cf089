//! Lockstep oracle for the default world. Its O(changed) hot loop
//! (segment-log progress, dirty-only completion rescheduling,
//! incremental allocation/capacity integrals) and its job retirement
//! (completed jobs fold into the completed-job log and recycle their
//! arena slots; terminated instances drop their provider records) must
//! both be *semantically invisible*. The same seeded simulation is
//! stepped in lockstep through the default world and the test-only
//! reference world (`SimConfig::reference_full_scan`: eager full scans,
//! nothing retired), and every event boundary must agree on live-job
//! progress, completed-job report contributions, cached rates,
//! completion times and integral accumulators — bit for bit, via
//! shortest-roundtrip float formatting (distinct bits ⇒ distinct
//! strings). Final reports must serialize identically.

mod common;

use common::{assert_lockstep, sims, trace};
use eva::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn lazy_dirty_set_path_matches_full_scan_reference(
        jobs in 2usize..14,
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
        let (lazy, full) = sims(&cfg);
        assert_lockstep(lazy, full)?;
    }
}

#[test]
fn eva_matches_reference_while_slots_recycle() {
    // Once job slots recycle, slot order stops being id order. Eva must
    // not see that: if interference products or its co-location contexts
    // followed task-slot order, this trace's Full-vs-Partial decisions
    // would change (full_reconfig_rate 3/155 instead of 5/155).
    let mut cfg = SimConfig::new(trace(32, 18), SchedulerKind::Eva(EvaConfig::eva()));
    cfg.seed = 18;
    let (lazy, full) = sims(&cfg);
    let drained = assert_lockstep(lazy, full).unwrap();
    assert_eq!(drained.ingested, 32);
    assert!(
        drained.peak_rows < 32,
        "slots must recycle for this case to mean anything ({} rows)",
        drained.peak_rows
    );
    assert_eq!(drained.live_slots.0, 0, "every completed job released");
    let report = ClusterSim::new(&cfg).run();
    assert_eq!(report.full_reconfig_rate, 5.0 / 155.0);
}
