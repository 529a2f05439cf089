//! Perf trajectory snapshot: measures the simulator's hot-path numbers
//! and writes a committed `BENCH_<date>.json` at the repo root.
//!
//! Probes, in order:
//!
//! * `sim_step` — manual re-timings of the `sim_step` criterion
//!   targets (ns per first scheduling round, ns per small
//!   run-to-completion, ns per 100 steady-state events in a warm
//!   churning sim), so the committed snapshot and `cargo bench`
//!   measure the same thing.
//! * `sweep` — the paper-set sweep (small + large synthetic traces ×
//!   the five §6.1 schedulers × two seeds) through the multi-threaded
//!   [`SweepRunner`] with caching disabled: cells per second.
//! * `huge_100k` — the 100,000-job stress tier simulated end to end on
//!   one cell (Stratus) from a materialized trace: jobs per second. This
//!   is the CI release-smoke target. Runs in a spawned child process so its `VmHWM` is the
//!   probe's own high-water mark, not the parent's lifetime one.
//! * `huge_1m` (`--full`) — the million-job tier pulled straight from
//!   the seeded generator via [`ClusterSim::from_source`], so neither
//!   the trace nor the arena (whose rows track the in-flight window)
//!   ever materializes a million jobs. Also a child process; its peak
//!   RSS must come in *below* the 100k tier's despite 10× the jobs —
//!   the 100k tier holds its whole trace in memory, this one holds none.
//! * `serve` — the service loop end to end ([`eva_sim::serve()`] over an
//!   open-loop synthetic source, rolling metrics into a sink):
//!   sustained jobs per second and the RSS plateau of a long-lived
//!   scheduler process (child process, `VmHWM` in kB).
//! * peak RSS (`VmHWM` from `/proc/self/status`) snapshotted after the
//!   sweep, plus the huge-100k child's own high-water mark.
//!
//! Flags:
//!
//! * `--out DIR` — write the snapshot into `DIR` (default: repo root);
//! * `--full` — also run the million-job tier (`huge_1m`);
//! * `--smoke SECS` — run *only* the huge-100k probe and exit non-zero
//!   if it exceeds the wall-clock budget (the CI smoke step);
//! * `--check FILE` — validate an existing snapshot's schema without
//!   simulating anything (the CI schema step); warns when the optional
//!   `huge_1m` tier was not run. When an older committed `BENCH_*.json`
//!   sits next to `FILE`, also prints per-metric deltas against the
//!   most recent one (informational — regressions warn, never fail)
//!   and flags any metric the previous snapshot had that the new one
//!   dropped (schema-drift guard).
//! * `--huge-worker 100k|1m` / `--serve-worker` — internal: run one
//!   probe in a child process and print its JSON result, so `VmHWM`
//!   measures that probe alone.

use std::path::PathBuf;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use eva_core::EvaConfig;
use eva_sim::{serve, ClusterSim, SchedulerKind, ServeConfig, SimConfig, SweepGrid, SweepRunner};
use eva_types::SimDuration;
use eva_workloads::{
    SyntheticSource, SyntheticTraceConfig, Trace, TraceHandle, UniformHours,
};

const SCHEMA: &str = "eva-perf-v5";

/// The committed snapshot format. `--check` round-trips a file through
/// this struct, so adding a field here is a schema change CI will catch.
#[derive(Debug, Serialize, Deserialize)]
struct BenchSnapshot {
    schema: String,
    date: String,
    sim_step: SimStepProbe,
    sweep: SweepProbe,
    huge_100k: HugeProbe,
    huge_1m: Option<HugeProbe>,
    serve: ServeProbe,
    peak_rss_mb: RssProbe,
}

/// Median timings of the `sim_step` criterion targets.
#[derive(Debug, Serialize, Deserialize)]
struct SimStepProbe {
    first_round_ns: u64,
    run_to_completion_ns: u64,
    /// ns per 100 events through a *warm* sim (past its third round),
    /// where steady-state churn — not arrival and placement setup —
    /// dominates. This is the number the dirty-set hot loop moves.
    steady_churn_ns: u64,
}

/// Paper-set sweep throughput.
#[derive(Debug, Serialize, Deserialize)]
struct SweepProbe {
    cells: usize,
    wall_secs: f64,
    cells_per_sec: f64,
}

/// One end-to-end run of a huge synthetic tier.
#[derive(Debug, Serialize, Deserialize)]
struct HugeProbe {
    jobs: usize,
    jobs_completed: usize,
    wall_secs: f64,
    jobs_per_sec: f64,
    /// Heap events pushed over the run — completion-rescheduling churn
    /// shows up here first (selective rescheduling exists to hold it
    /// down).
    events_scheduled: u64,
    /// Event-queue high-water mark (live events + tombstones).
    event_queue_peak: usize,
    /// `VmHWM` of the probe's own child process (MiB); 0 when run
    /// in-process (the `--smoke` path) or off Linux.
    peak_rss_mb: u64,
}

/// The long-lived service loop under sustained open-loop load.
#[derive(Debug, Serialize, Deserialize)]
struct ServeProbe {
    jobs: usize,
    wall_secs: f64,
    /// End-to-end throughput of `eva serve`: jobs retired per second of
    /// wall clock, rolling metrics emission included.
    sustained_jobs_per_sec: f64,
    /// Rolling metrics lines the run emitted.
    metrics_lines: usize,
    /// High-water mark of concurrently live arena job rows — the
    /// in-flight window retirement keeps the process down to.
    peak_job_rows: usize,
    /// `VmHWM` of the serve child process in kB — the memory plateau a
    /// long-lived scheduler settles at. 0 off Linux.
    rss_plateau_kb: u64,
}

/// `VmHWM` high-water marks (MiB); 0 where the kernel interface is
/// unavailable (non-Linux). `after_sweep` is the coordinating process's
/// own mark; `after_huge_100k` mirrors the huge-100k child's, kept here
/// so the v3 trajectory stays diffable.
#[derive(Debug, Serialize, Deserialize)]
struct RssProbe {
    after_sweep: u64,
    after_huge_100k: u64,
}

/// Same dense trace the `sim_step` criterion bench uses.
fn dense_trace(jobs: usize) -> Trace {
    SyntheticTraceConfig {
        num_jobs: jobs,
        mean_interarrival: SimDuration::from_mins(3),
        duration: UniformHours::new(0.5, 1.5),
        single_task_only: false,
    }
    .generate(17)
}

/// Median wall time of `iters` runs of `f`, in nanoseconds.
fn median_ns(iters: usize, mut f: impl FnMut()) -> u64 {
    let mut samples: Vec<u64> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// A dense-trace sim warmed past its third round, where placement has
/// settled and the event mix is steady-state churn.
fn warm_churning_sim(cfg: &SimConfig) -> ClusterSim {
    let mut sim = ClusterSim::new(cfg);
    while sim.rounds_executed() < 3 && sim.step() {}
    sim
}

fn probe_sim_step() -> SimStepProbe {
    let first = SimConfig::new(dense_trace(60), SchedulerKind::Eva(EvaConfig::eva()));
    let first_round_ns = median_ns(20, || {
        let mut sim = ClusterSim::new(&first);
        while sim.rounds_executed() < 1 && sim.step() {}
    });
    let whole = SimConfig::new(dense_trace(20), SchedulerKind::Eva(EvaConfig::eva()));
    let run_to_completion_ns = median_ns(10, || {
        ClusterSim::new(&whole).run();
    });
    // Same shape as the `steady_churn` criterion target: time 100-event
    // batches against a warm sim, re-warming whenever one drains.
    let mut warm = warm_churning_sim(&first);
    let steady_churn_ns = median_ns(20, || {
        for _ in 0..100 {
            if !warm.step() {
                warm = warm_churning_sim(&first);
            }
        }
    });
    SimStepProbe {
        first_round_ns,
        run_to_completion_ns,
        steady_churn_ns,
    }
}

fn probe_sweep() -> SweepProbe {
    let grid = SweepGrid::new("small", SyntheticTraceConfig::small_scale().generate(42))
        .trace("large", SyntheticTraceConfig::large_scale().generate(42))
        .paper_schedulers()
        .seeds(vec![1, 2]);
    let runner = SweepRunner::new(eva_bench::default_threads());
    let start = Instant::now();
    let result = runner.run(&grid);
    let wall_secs = start.elapsed().as_secs_f64();
    SweepProbe {
        cells: result.cells.len(),
        wall_secs,
        cells_per_sec: result.cells.len() as f64 / wall_secs.max(1e-9),
    }
}

fn probe_huge(cfg: SyntheticTraceConfig) -> HugeProbe {
    let jobs = cfg.num_jobs;
    let trace = cfg.generate(42);
    let sim_cfg = SimConfig::new(trace, SchedulerKind::Stratus);
    let start = Instant::now();
    // Step to exhaustion by hand so the engine's scheduling counters can
    // be read before finalization consumes the sim.
    let mut sim = ClusterSim::new(&sim_cfg);
    while sim.step() {}
    let events_scheduled = sim.events_scheduled();
    let event_queue_peak = sim.event_queue_peak();
    let report = sim.run();
    let wall_secs = start.elapsed().as_secs_f64();
    HugeProbe {
        jobs,
        jobs_completed: report.jobs_completed,
        wall_secs,
        jobs_per_sec: report.jobs_completed as f64 / wall_secs.max(1e-9),
        events_scheduled,
        event_queue_peak,
        peak_rss_mb: 0,
    }
}

/// An empty-trace config for streaming worlds (jobs arrive via a
/// [`JobSource`](eva_workloads::JobSource), not the trace).
fn streaming_cfg() -> SimConfig {
    SimConfig::new(
        TraceHandle::new(Trace::new(Vec::new())),
        SchedulerKind::Stratus,
    )
}

/// The million-job tier straight from the generator: jobs pulled one
/// ingest ahead, completed jobs retired, so neither the trace nor the
/// arena ever materializes a million rows.
fn probe_huge_streaming(cfg: SyntheticTraceConfig) -> HugeProbe {
    let jobs = cfg.num_jobs;
    let source = Box::new(SyntheticSource::new(&cfg, 42));
    let start = Instant::now();
    let mut sim = ClusterSim::from_source(&streaming_cfg(), source);
    while sim.step() {}
    // Growable-structure census on stderr: the first thing to read when
    // a streamed tier's RSS stops plateauing.
    eprintln!("   dims: {}", sim.arena_dims());
    let events_scheduled = sim.events_scheduled();
    let event_queue_peak = sim.event_queue_peak();
    let report = sim.run();
    let wall_secs = start.elapsed().as_secs_f64();
    HugeProbe {
        jobs,
        jobs_completed: report.jobs_completed,
        wall_secs,
        jobs_per_sec: report.jobs_completed as f64 / wall_secs.max(1e-9),
        events_scheduled,
        event_queue_peak,
        peak_rss_mb: peak_rss_mb(),
    }
}

/// The service-loop probe: `serve` over a sustained open-loop synthetic
/// stream (same 30-second mean interarrival as the huge tiers), rolling
/// metrics written to a sink. Run in a child process so `VmHWM` is the
/// plateau of a long-lived scheduler alone.
fn probe_serve() -> ServeProbe {
    const JOBS: usize = 20_000;
    let source = Box::new(SyntheticSource::open_loop(120.0, JOBS, 42));
    let opts = ServeConfig {
        metrics_every: SimDuration::from_hours(4),
        duration: None,
    };
    let start = Instant::now();
    let outcome = serve(&streaming_cfg(), source, &opts, &mut std::io::sink())
        .expect("serve probe runs");
    let wall_secs = start.elapsed().as_secs_f64();
    ServeProbe {
        jobs: JOBS,
        wall_secs,
        sustained_jobs_per_sec: outcome.report.jobs_completed as f64 / wall_secs.max(1e-9),
        metrics_lines: outcome.metrics_lines,
        peak_job_rows: outcome.peak_job_rows,
        rss_plateau_kb: peak_rss_kb(),
    }
}

/// Re-runs this binary with `flag` and parses the single JSON line the
/// worker prints, so the child's `VmHWM` covers exactly one probe.
fn spawn_probe<T: serde::de::DeserializeOwned>(flag: &[&str]) -> T {
    let exe = std::env::current_exe().expect("own binary path");
    let out = std::process::Command::new(exe)
        .args(flag)
        .output()
        .expect("spawn probe worker");
    if !out.status.success() {
        eprintln!(
            "error: probe worker {flag:?} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::process::exit(1);
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: probe worker {flag:?} emitted unparseable output: {e}\n{stdout}");
            std::process::exit(1);
        }
    }
}

/// `VmHWM` from `/proc/self/status` in kB; 0 when unavailable.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .unwrap_or(0)
}

/// `VmHWM` in MiB; 0 when unavailable.
fn peak_rss_mb() -> u64 {
    peak_rss_kb() / 1024
}

/// UTC date as `YYYY-MM-DD` from the system clock (civil-from-days, no
/// calendar dependency).
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Numeric leaves of a JSON tree as `(dotted.path, value)` pairs, in
/// document order.
fn numeric_leaves(prefix: &str, value: &serde_json::Value, out: &mut Vec<(String, f64)>) {
    match value {
        serde_json::Value::Object(pairs) => {
            for (key, child) in pairs {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                numeric_leaves(&path, child, out);
            }
        }
        serde_json::Value::Number(n) => out.push((prefix.to_string(), n.as_f64())),
        _ => {}
    }
}

/// Dotted paths of numeric metrics present in `prev` but absent from
/// `cur` — the schema-drift guard: a metric silently vanishing from the
/// committed trajectory usually means a probe was dropped by accident.
fn missing_metrics(prev: &serde_json::Value, cur: &serde_json::Value) -> Vec<String> {
    let (mut old, mut new) = (Vec::new(), Vec::new());
    numeric_leaves("", prev, &mut old);
    numeric_leaves("", cur, &mut new);
    old.iter()
        .map(|(metric, _)| metric)
        .filter(|metric| !new.iter().any(|(m, _)| m == *metric))
        .cloned()
        .collect()
}

/// The most recent committed `BENCH_*.json` sorting strictly before
/// `path` in its own directory (dates are `YYYY-MM-DD`, so filename
/// order is date order). A bare file name (as CI passes it) has an
/// empty parent, which means the current directory.
fn previous_snapshot(path: &std::path::Path) -> Option<PathBuf> {
    let dir = match path.parent()? {
        d if d.as_os_str().is_empty() => std::path::Path::new("."),
        d => d,
    };
    let name = path.file_name()?.to_str()?.to_string();
    std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json") && *n < *name)
        })
        .max()
}

/// Prints per-metric deltas of `path` against the previous committed
/// snapshot next to it, if any. Purely informational: regressions warn,
/// nothing fails — the committed trajectory is allowed to move.
fn print_deltas(path: &std::path::Path) {
    let Some(prev_path) = previous_snapshot(path) else {
        println!("   (no earlier BENCH_*.json beside it to diff against)");
        return;
    };
    let parse = |p: &std::path::Path| {
        std::fs::read_to_string(p)
            .ok()
            .and_then(|s| serde_json::from_str_value(&s).ok())
    };
    let (Some(prev), Some(cur)) = (parse(&prev_path), parse(path)) else {
        println!("   warning: could not parse snapshots for the delta report");
        return;
    };
    println!("   deltas vs {}:", prev_path.display());
    let (mut old, mut new) = (Vec::new(), Vec::new());
    numeric_leaves("", &prev, &mut old);
    numeric_leaves("", &cur, &mut new);
    for (metric, now) in &new {
        let Some((_, before)) = old.iter().find(|(m, _)| m == metric) else {
            println!("      {metric}: {now} (new metric)");
            continue;
        };
        if *before == 0.0 {
            continue;
        }
        let pct = (now - before) / before * 100.0;
        // Time-like metrics improve downward, throughputs upward; the
        // reader knows which is which — just report the movement.
        println!("      {metric}: {before} -> {now} ({pct:+.1}%)");
    }
    for metric in missing_metrics(&prev, &cur) {
        println!(
            "   warning: {metric}: present in {} but missing here — \
             schema drift? (probes must not silently disappear)",
            prev_path.display()
        );
    }
}

fn check_snapshot(path: &str) -> Result<(), String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let snap: BenchSnapshot =
        serde_json::from_str(&json).map_err(|e| format!("parse {path}: {e}"))?;
    if snap.schema != SCHEMA {
        return Err(format!("schema `{}`, expected `{SCHEMA}`", snap.schema));
    }
    if snap.date.len() != 10 {
        return Err(format!("date `{}` is not YYYY-MM-DD", snap.date));
    }
    if snap.sim_step.first_round_ns == 0 || snap.sim_step.run_to_completion_ns == 0 {
        return Err("sim_step timings must be non-zero".to_string());
    }
    if snap.sim_step.steady_churn_ns == 0 {
        return Err("steady-state churn timing must be non-zero".to_string());
    }
    if snap.sweep.cells == 0 || snap.sweep.cells_per_sec <= 0.0 {
        return Err("sweep probe must report cells and throughput".to_string());
    }
    if snap.huge_100k.jobs != 100_000 || snap.huge_100k.jobs_per_sec <= 0.0 {
        return Err("huge_100k probe must cover 100,000 jobs".to_string());
    }
    if snap.huge_100k.events_scheduled == 0 || snap.huge_100k.event_queue_peak == 0 {
        return Err("huge_100k probe must report heap churn counters".to_string());
    }
    if let Some(huge_1m) = &snap.huge_1m {
        // The v4 million-job tier streams from the generator; its own
        // high-water mark must undercut the materialized-trace 100k
        // tier's despite 10× the jobs. Only checkable where /proc exists
        // on both.
        if huge_1m.peak_rss_mb > 0
            && snap.huge_100k.peak_rss_mb > 0
            && huge_1m.peak_rss_mb >= snap.huge_100k.peak_rss_mb
        {
            return Err(format!(
                "huge_1m streamed {} MiB, not below the 100k tier's {} MiB — \
                 retirement is not bounding memory",
                huge_1m.peak_rss_mb, snap.huge_100k.peak_rss_mb
            ));
        }
    } else {
        println!("warning: huge_1m: tier not run (regenerate with --full to cover it)");
    }
    if snap.serve.jobs == 0 || snap.serve.sustained_jobs_per_sec <= 0.0 {
        return Err("serve probe must report sustained throughput".to_string());
    }
    if snap.serve.peak_job_rows == 0 || snap.serve.peak_job_rows >= snap.serve.jobs {
        return Err("serve probe must show arena rows bounded below total jobs".to_string());
    }
    Ok(())
}

fn main() {
    let mut out: Option<PathBuf> = None;
    let mut full = false;
    let mut smoke: Option<f64> = None;
    let mut check: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--huge-worker" => {
                let mut probe = match args.next().as_deref() {
                    Some("100k") => probe_huge(SyntheticTraceConfig::huge_100k()),
                    Some("1m") => probe_huge_streaming(SyntheticTraceConfig::huge_1m()),
                    // Diagnostic tier (not in the snapshot): the 100k
                    // config pulled from the generator, for bisecting
                    // memory growth against the materialized-trace 100k
                    // probe.
                    Some("100k-stream") => probe_huge_streaming(SyntheticTraceConfig::huge_100k()),
                    other => {
                        eprintln!("error: --huge-worker needs 100k or 1m, got {other:?}");
                        std::process::exit(2);
                    }
                };
                probe.peak_rss_mb = peak_rss_mb();
                println!("{}", serde_json::to_string(&probe).expect("probe serializes"));
                return;
            }
            "--serve-worker" => {
                let probe = probe_serve();
                println!("{}", serde_json::to_string(&probe).expect("probe serializes"));
                return;
            }
            "--out" => out = args.next().map(PathBuf::from),
            "--full" => full = true,
            "--smoke" => {
                smoke = args.next().and_then(|v| v.parse().ok());
                if smoke.is_none() {
                    eprintln!("error: --smoke needs a wall-clock budget in seconds");
                    std::process::exit(2);
                }
            }
            "--check" => check = args.next(),
            other => {
                eprintln!("error: unknown flag `{other}`");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = check {
        match check_snapshot(&path) {
            Ok(()) => {
                println!("ok: {path} matches {SCHEMA}");
                print_deltas(std::path::Path::new(&path));
                return;
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(budget) = smoke {
        println!("== huge-100k release smoke (budget {budget:.0}s) ==");
        let probe = probe_huge(SyntheticTraceConfig::huge_100k());
        println!(
            "   {} / {} jobs in {:.1}s ({:.0} jobs/s)",
            probe.jobs_completed, probe.jobs, probe.wall_secs, probe.jobs_per_sec
        );
        if probe.jobs_completed != probe.jobs {
            eprintln!("error: smoke run left jobs unfinished");
            std::process::exit(1);
        }
        if probe.wall_secs > budget {
            eprintln!(
                "error: smoke run took {:.1}s, over the {budget:.0}s budget",
                probe.wall_secs
            );
            std::process::exit(1);
        }
        return;
    }

    println!("== perf trajectory snapshot ==");
    println!("   probing sim_step (criterion targets, median of 20/10/20)...");
    let sim_step = probe_sim_step();
    println!(
        "   first_round {} ns, run_to_completion {} ns, steady_churn {} ns/100 events",
        sim_step.first_round_ns, sim_step.run_to_completion_ns, sim_step.steady_churn_ns
    );

    println!("   probing paper-set sweep (uncached)...");
    let sweep = probe_sweep();
    println!(
        "   {} cells in {:.1}s ({:.2} cells/s)",
        sweep.cells, sweep.wall_secs, sweep.cells_per_sec
    );
    let after_sweep = peak_rss_mb();

    println!("   probing huge-100k (Stratus, single cell, child process)...");
    let huge_100k: HugeProbe = spawn_probe(&["--huge-worker", "100k"]);
    println!(
        "   {} jobs in {:.1}s ({:.0} jobs/s, {} events scheduled, queue peak {}, {} MiB peak)",
        huge_100k.jobs_completed,
        huge_100k.wall_secs,
        huge_100k.jobs_per_sec,
        huge_100k.events_scheduled,
        huge_100k.event_queue_peak,
        huge_100k.peak_rss_mb
    );
    let after_huge_100k = huge_100k.peak_rss_mb;

    println!("   probing serve loop (open-loop synthetic stream, child process)...");
    let serve_probe: ServeProbe = spawn_probe(&["--serve-worker"]);
    println!(
        "   {} jobs at {:.0} jobs/s sustained, {} rolling lines, peak {} arena rows, {} kB plateau",
        serve_probe.jobs,
        serve_probe.sustained_jobs_per_sec,
        serve_probe.metrics_lines,
        serve_probe.peak_job_rows,
        serve_probe.rss_plateau_kb
    );

    let huge_1m = full.then(|| {
        println!("   probing huge-1m (Stratus, streamed from the generator, child process)...");
        let p: HugeProbe = spawn_probe(&["--huge-worker", "1m"]);
        println!(
            "   {} jobs in {:.1}s ({:.0} jobs/s, {} MiB peak vs {} MiB for the 100k tier)",
            p.jobs_completed, p.wall_secs, p.jobs_per_sec, p.peak_rss_mb, after_huge_100k
        );
        if p.peak_rss_mb > 0 && after_huge_100k > 0 && p.peak_rss_mb >= after_huge_100k {
            eprintln!(
                "warning: streamed million-job tier did not undercut the \
                 100k tier's peak RSS — retirement is not bounding memory"
            );
        }
        p
    });

    let snapshot = BenchSnapshot {
        schema: SCHEMA.to_string(),
        date: today_utc(),
        sim_step,
        sweep,
        huge_100k,
        huge_1m,
        serve: serve_probe,
        peak_rss_mb: RssProbe {
            after_sweep,
            after_huge_100k,
        },
    };

    let dir = out.unwrap_or_else(repo_root);
    let path = dir.join(format!("BENCH_{}.json", snapshot.date));
    match serde_json::to_string_pretty(&snapshot) {
        Ok(json) => match std::fs::write(&path, json + "\n") {
            Ok(()) => println!("   [saved {}]", path.display()),
            Err(e) => {
                eprintln!("error: could not write {}: {e}", path.display());
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("error: serialization failed: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(json: &str) -> serde_json::Value {
        serde_json::from_str_value(json).expect("valid test JSON")
    }

    #[test]
    fn missing_metrics_flags_dropped_numeric_leaves() {
        let prev = v(r#"{"a": 1, "nested": {"kept": 2.5, "dropped": 3}, "also_gone": 4}"#);
        let cur = v(r#"{"a": 9, "nested": {"kept": 0.5, "brand_new": 7}}"#);
        let mut missing = missing_metrics(&prev, &cur);
        missing.sort();
        assert_eq!(missing, vec!["also_gone", "nested.dropped"]);
    }

    #[test]
    fn missing_metrics_ignores_non_numeric_and_new_fields() {
        let prev = v(r#"{"schema": "eva-perf-v3", "x": 1}"#);
        let cur = v(r#"{"schema": "eva-perf-v4", "x": 2, "extra": 3}"#);
        // `schema` is a string leaf, `extra` only exists in the new
        // snapshot — neither is drift.
        assert!(missing_metrics(&prev, &cur).is_empty());
    }

    #[test]
    fn missing_metrics_clean_on_identical_schemas() {
        let snap = r#"{"huge_1m": {"jobs": 1, "rss": 2}, "serve": {"rate": 3.5}}"#;
        assert!(missing_metrics(&v(snap), &v(snap)).is_empty());
    }
}
