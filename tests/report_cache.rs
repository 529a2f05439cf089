//! Persistent report-cache correctness.
//!
//! (a) A second run of the same grid against a warm cache is 100 % hits
//!     and produces byte-identical JSON.
//! (b) A *different* experiment declaring overlapping cells (same trace
//!     content, schedulers, seeds) also hits — the cache is keyed by
//!     content, not by grid or binary.
//! (c) Bumping the code schema version, or mutating the trace, makes
//!     every entry miss.
//! (d) The fault axis is part of every fingerprint: a cached clean-run
//!     cell can never be replayed for a faulted cell, and intensity is
//!     part of the key, not just the regime.
//! (e) Two `eva sweep` processes writing one cache dir at once agree
//!     byte for byte and leave a clean cache behind.

use std::path::{Path, PathBuf};
use std::process::Command;

use eva::prelude::*;
use eva_cloud::FidelityMode;
use eva_sim::cache::SCHEMA_VERSION;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eva-report-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn trace(seed: u64) -> Trace {
    AlibabaTraceConfig {
        num_jobs: 12,
        arrival_rate_per_hour: 6.0,
        durations: DurationModelChoice::Alibaba,
    }
    .generate(seed)
}

fn grid(trace: &Trace) -> SweepGrid {
    SweepGrid::new("cache-test", trace.clone())
        .schedulers_by_name(&["no-packing", "stratus"])
        .unwrap()
        .seeds(vec![1, 2])
        .fidelities(vec![FidelityMode::Nominal])
}

#[test]
fn warm_rerun_is_all_hits_and_byte_identical() {
    let dir = tmp_dir("warm");
    let trace = trace(5);
    let runner = SweepRunner::new(2).with_cache(ReportCache::new(&dir));

    let (first, s1) = runner.run_with_stats(&grid(&trace));
    assert_eq!(s1.executed, s1.unique, "cold cache simulates everything");
    assert_eq!(s1.cache_hits, 0);

    let (second, s2) = runner.run_with_stats(&grid(&trace));
    assert_eq!(s2.executed, 0, "warm cache simulates zero cells");
    assert_eq!(s2.cache_hits, s2.unique);
    assert!(s2.all_cached());
    assert_eq!(
        first.to_json_pretty(),
        second.to_json_pretty(),
        "cached reports must round-trip byte-identically"
    );

    // Thread count still cannot matter.
    let (third, _) = SweepRunner::new(8)
        .with_cache(ReportCache::new(&dir))
        .run_with_stats(&grid(&trace));
    assert_eq!(first.to_json_pretty(), third.to_json_pretty());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overlapping_experiments_share_cells_across_grids() {
    let dir = tmp_dir("cross");
    let trace = trace(6);
    let runner = SweepRunner::new(2).with_cache(ReportCache::new(&dir));

    let (_, s1) = runner.run_with_stats(&grid(&trace));
    assert_eq!(s1.cache_hits, 0);

    // A different experiment: single seed, one extra scheduler, new grid
    // label — the (trace × no-packing/stratus × seed 1) cells recur.
    let other = SweepGrid::new("another-experiment", trace.clone())
        .schedulers_by_name(&["no-packing", "stratus", "owl"])
        .unwrap()
        .seeds(vec![1])
        .fidelities(vec![FidelityMode::Nominal]);
    let (result, s2) = runner.run_with_stats(&other);
    assert_eq!(s2.cache_hits, 2, "no-packing + stratus cells recur");
    assert_eq!(s2.executed, 1, "only owl is new work");

    // Cached fan-out must equal a direct cold run of the same grid.
    let cold = SweepRunner::new(2).run(&other);
    assert_eq!(result.to_json_pretty(), cold.to_json_pretty());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_axis_is_part_of_every_cell_key() {
    let dir = tmp_dir("faults");
    let trace = trace(9);
    let runner = SweepRunner::new(2).with_cache(ReportCache::new(&dir));

    // Warm the cache with the fault-free grid.
    let (clean, s1) = runner.run_with_stats(&grid(&trace));
    assert_eq!(s1.cache_hits, 0);

    // The identical grid under an injected regime must miss on every
    // cell: replaying a cached clean run for a faulted cell would
    // silently report adversity-free numbers as robustness results.
    let storm = grid(&trace).faults(vec![FaultSpec::parse("preempt-storm:2").unwrap()]);
    let (faulted, s2) = runner.run_with_stats(&storm);
    assert_eq!(s2.cache_hits, 0, "clean cells must never serve faulted cells");
    assert_eq!(s2.executed, s2.unique);

    // Intensity is in the fingerprint too, not just the regime name.
    let harder = grid(&trace).faults(vec![FaultSpec::parse("preempt-storm:3").unwrap()]);
    let (_, s3) = runner.run_with_stats(&harder);
    assert_eq!(s3.cache_hits, 0, "intensity must be part of the key");

    // A warm rerun of the faulted grid hits and round-trips exactly.
    let (warm, s4) = runner.run_with_stats(&storm);
    assert!(s4.all_cached());
    assert_eq!(faulted.to_json_pretty(), warm.to_json_pretty());
    assert_ne!(clean.to_json_pretty(), faulted.to_json_pretty());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn schema_bump_invalidates_every_entry() {
    let dir = tmp_dir("schema");
    let trace = trace(7);

    let current = SweepRunner::new(2).with_cache(ReportCache::new(&dir));
    let (_, s1) = current.run_with_stats(&grid(&trace));
    assert_eq!(s1.cache_hits, 0);
    let (_, warm) = current.run_with_stats(&grid(&trace));
    assert!(warm.all_cached());

    let bumped = SweepRunner::new(2).with_cache(ReportCache::with_schema(
        &dir,
        format!("{SCHEMA_VERSION}-bumped"),
    ));
    let (_, s2) = bumped.run_with_stats(&grid(&trace));
    assert_eq!(s2.cache_hits, 0, "new schema must not read old entries");
    assert_eq!(s2.executed, s2.unique);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_mutation_invalidates_entries() {
    let dir = tmp_dir("mutate");
    let base = trace(8);
    let runner = SweepRunner::new(2).with_cache(ReportCache::new(&dir));
    let (_, s1) = runner.run_with_stats(&grid(&base));
    assert_eq!(s1.cache_hits, 0);

    // One job runs a minute longer: every cell key changes.
    let mut jobs = base.into_jobs();
    jobs[0].duration_at_full_tput += SimDuration::from_mins(1);
    let mutated = Trace::new(jobs);
    let (_, s2) = runner.run_with_stats(&grid(&mutated));
    assert_eq!(s2.cache_hits, 0, "mutated trace content must miss");
    assert_eq!(s2.executed, s2.unique);

    let _ = std::fs::remove_dir_all(&dir);
}

/// `eva sweep` over a small 2-scheduler × 2-seed grid into `cache_dir`.
fn eva_sweep(cache_dir: &Path, json: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_eva"));
    cmd.args([
        "sweep",
        "--jobs",
        "10",
        "--seeds",
        "1,2",
        "--schedulers",
        "eva,stratus",
        "--threads",
        "2",
        "--cache-dir",
    ])
    .arg(cache_dir)
    .arg("--json")
    .arg(json);
    cmd
}

#[test]
fn racing_coordinators_share_one_cache_dir() {
    let root = tmp_dir("race");
    let shared = root.join("cache");
    let (json_a, json_b) = (root.join("a.json"), root.join("b.json"));
    std::fs::create_dir_all(&root).unwrap();

    // Two sweeps launched together publish every cell into one dir.
    let mut a = eva_sweep(&shared, &json_a).spawn().unwrap();
    let mut b = eva_sweep(&shared, &json_b).spawn().unwrap();
    assert!(a.wait().unwrap().success());
    assert!(b.wait().unwrap().success());

    let bytes_a = std::fs::read(&json_a).unwrap();
    assert!(!bytes_a.is_empty());
    assert_eq!(
        bytes_a,
        std::fs::read(&json_b).unwrap(),
        "racing sweeps disagreed"
    );

    let verify = Command::new(env!("CARGO_BIN_EXE_eva"))
        .args(["cache", "verify", "--cache-dir"])
        .arg(&shared)
        .output()
        .unwrap();
    assert!(
        verify.status.success(),
        "cache verify not clean:\n{}{}",
        String::from_utf8_lossy(&verify.stdout),
        String::from_utf8_lossy(&verify.stderr)
    );
    let _ = std::fs::remove_dir_all(&root);
}
