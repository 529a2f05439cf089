//! `eva-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! With `--trace 0`, runs whole simulation passes of the workload until
//! `S` seconds have gone by (at least one pass) and prints the
//! end-to-end metrics. With `--trace 1`, runs one untraced pass, one
//! traced pass and the phase replay, and prints the per-layer metrics.
//! Either way the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the process
//! exits non-zero when any correctness check failed.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

use eva_perfbench::drive::{setup_only, traced_pass, untraced_pass, Pass};
use eva_perfbench::replay::{replay, Replayed};
use eva_perfbench::spans::{Layer, SpanLog};
use eva_perfbench::stats::{median, percentile};
use eva_perfbench::workload::Workload;
use eva_sim::SimReport;

/// Set-up alone is sampled in bursts: before the first pass and after
/// every pass, so the median spans the whole run. Each burst repeats
/// the set-up at least `SETUP_BURST_MIN` times and, while it stays
/// cheap, until [`SETUP_BURST`] has gone by.
const SETUP_BURST_MIN: usize = 3;
const SETUP_BURST: Duration = Duration::from_millis(100);
const SETUP_BURST_MAX: usize = 2_000;

/// The tail percentile reported for round latency: the highest with at
/// least ten samples beyond it on every workload (`dense-eva` has the
/// fewest rounds, about 240 per pass).
const TAIL: f64 = 0.95;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (expected one of {names:?})")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(45.0),
        trace: trace.unwrap_or(false),
    })
}

/// Correctness checks, counted as they are made.
#[derive(Default)]
struct Checks {
    failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.failures.push(msg);
        }
    }

    /// Checks one finished run: every job completed (fail ratio 0), the
    /// world's slot audit passed, and the objective figures are positive.
    fn run(&mut self, workload: Workload, report: &SimReport, audit: &Result<(), String>) {
        let jobs = workload.jobs();
        self.check(report.jobs_completed == jobs, || {
            format!(
                "fail_ratio: {} of {jobs} jobs completed",
                report.jobs_completed
            )
        });
        self.check(audit.is_ok(), || format!("audit_slots: {audit:?}"));
        self.check(
            report.total_cost_dollars > 0.0 && report.avg_jct_hours > 0.0,
            || "cost and JCT must be positive".into(),
        );
    }

    /// Checks that two runs over the same inputs reported the same bits.
    fn same(&mut self, a: &SimReport, b: &SimReport, what: &str) {
        self.check(format!("{a:?}") == format!("{b:?}"), || {
            format!(
                "{what}: reports differ (cost {} vs {}, JCT {} vs {})",
                a.total_cost_dollars, b.total_cost_dollars, a.avg_jct_hours, b.avg_jct_hours
            )
        });
    }
}

/// Named metric values with units, printed as the result line.
#[derive(Default)]
struct Metrics {
    rows: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.rows.push((name, value, unit));
    }

    fn print(&self, checks: &Checks, attempted: usize, failed: usize) -> bool {
        let mut correct = checks.failures.is_empty();
        for (name, value, unit) in &self.rows {
            if !value.is_finite() {
                eprintln!("check failed: metric {name} is not finite");
                correct = false;
            }
            println!("{name:<28} {value:>16.6} {unit}");
        }
        let mut json = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.rows.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
        correct
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Appends one burst of set-up-only samples to `out`.
fn setup_burst(w: Workload, seed: u64, out: &mut Vec<f64>) {
    let started = Instant::now();
    for n in 0..SETUP_BURST_MAX {
        if n >= SETUP_BURST_MIN && started.elapsed() >= SETUP_BURST {
            break;
        }
        out.push(setup_only(w, seed));
    }
}

/// The end-to-end run: whole passes until `seconds` have gone by.
fn untraced(args: &Args) -> bool {
    let w = args.workload;
    let mut checks = Checks::default();

    // The first burst also warms the allocator before any pass.
    let mut setups = Vec::new();
    setup_burst(w, args.seed, &mut setups);

    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss = None;
    loop {
        let pass = untraced_pass(w, args.seed);
        checks.run(w, &pass.report, &pass.audit);
        if let Some(first) = passes.first() {
            checks.same(&first.report, &pass.report, "repeated passes");
        }
        println!(
            "pass {}: {:.3} s, {:.1} jobs/s, {} rounds",
            passes.len() + 1,
            pass.wall_s,
            pass.report.jobs_completed as f64 / pass.wall_s,
            pass.rounds
        );
        setups.push(pass.setup_s);
        passes.push(pass);
        // Later passes would add allocator fragmentation to the high-water
        // mark, coupling memory to how many passes the host's speed fits.
        peak_rss.get_or_insert_with(peak_rss_mib);
        setup_burst(w, args.seed, &mut setups);
        if started.elapsed() >= budget {
            break;
        }
    }

    let jobs = w.jobs();
    let mut round_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.round_ms.iter().copied())
        .collect();
    round_ms.sort_by(f64::total_cmp);
    let p50 = percentile(&round_ms, 0.5);
    let p95 = percentile(&round_ms, TAIL);
    checks.check(p95.is_some(), || {
        format!("only {} round samples: too few for p95", round_ms.len())
    });
    let completed: usize = passes.iter().map(|p| p.report.jobs_completed).sum();
    let attempted = jobs * passes.len();
    let report = &passes[0].report;

    println!(
        "workload {} seed {}: {} pass(es) in {:.2} s, {} rounds/pass, {} round samples, {} set-up samples",
        w.name(),
        args.seed,
        passes.len(),
        started.elapsed().as_secs_f64(),
        passes[0].rounds,
        round_ms.len(),
        setups.len(),
    );
    let mut m = Metrics::default();
    let jobs_per_s: Vec<f64> = passes
        .iter()
        .map(|p| p.report.jobs_completed as f64 / p.wall_s)
        .collect();
    m.add("jobs_per_s", median(&jobs_per_s), "1/s");
    m.add("round_p50_ms", p50.unwrap_or(f64::NAN), "ms");
    m.add("round_p95_ms", p95.unwrap_or(f64::NAN), "ms");
    m.add("peak_rss_mib", peak_rss.unwrap_or(f64::NAN), "MiB");
    m.add("setup_s", median(&setups), "s");
    m.add("cost_usd", report.total_cost_dollars, "USD");
    m.add("jct_h", report.avg_jct_hours, "h");
    m.add(
        "completion_ratio",
        completed as f64 / attempted as f64,
        "ratio",
    );
    m.print(&checks, attempted, attempted - completed)
}

fn spans_path(workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.tsv", workload.name()))
}

/// The traced run: one untraced pass for reference, one traced pass
/// with the script recorded, then the phase replay.
fn traced(args: &Args) -> bool {
    let w = args.workload;
    let mut checks = Checks::default();
    let base = untraced_pass(w, args.seed);
    checks.run(w, &base.report, &base.audit);

    let log = Rc::new(RefCell::new(SpanLog::new()));
    let (run, traced_wall) = traced_pass(w, args.seed, &log);
    let jobs = w.jobs_for(args.seed);
    let mut scheduler = if w.is_eva() {
        Replayed::eva()
    } else {
        Replayed::stratus()
    };
    let outcome = replay(jobs.jobs(), &run.script, &mut scheduler, &log);

    checks.run(w, &run.report, &run.audit);
    checks.same(&base.report, &run.report, "traced against untraced");
    checks.check(outcome.rounds == run.rounds, || {
        format!(
            "replay rebuilt {} rounds, the run executed {}",
            outcome.rounds, run.rounds
        )
    });
    checks.check(outcome.active_per_round == run.active_per_round, || {
        let first = outcome
            .active_per_round
            .iter()
            .zip(&run.active_per_round)
            .position(|(a, b)| a != b);
        format!("replayed active jobs diverge from active_jobs() at round {first:?}")
    });

    if let Err(e) = log.borrow().write_tsv(&spans_path(w)) {
        eprintln!("warning: could not write spans: {e}");
    }
    let totals = log.borrow().totals();
    let t = |layer: Layer| totals[layer as usize];
    println!(
        "workload {} seed {}: {} spans written to {}",
        w.name(),
        args.seed,
        log.borrow().spans().len(),
        spans_path(w).display()
    );
    println!(
        "{:<16} {:>10} {:>12} {:>12}",
        "layer", "spans", "total_s", "self_s"
    );
    for layer in Layer::ALL {
        let lt = t(layer);
        if lt.count > 0 {
            println!(
                "{:<16} {:>10} {:>12.6} {:>12.6}",
                layer.name(),
                lt.count,
                lt.total_s,
                lt.self_s
            );
        }
    }
    let untraced_jps = base.report.jobs_completed as f64 / base.wall_s;
    let traced_jps = run.report.jobs_completed as f64 / traced_wall;
    println!(
        "tracing overhead: traced {traced_jps:.1} jobs/s vs untraced {untraced_jps:.1} jobs/s \
         ({:+.2}% wall time)",
        (traced_wall / base.wall_s - 1.0) * 100.0
    );

    let rounds = outcome.rounds.max(1) as f64;
    let phases = t(Layer::Prices).total_s + t(Layer::FullPack).total_s + t(Layer::Partial).total_s;
    let active_mean = run.active_per_round.iter().sum::<usize>() as f64
        / run.active_per_round.len().max(1) as f64;
    let mut m = Metrics::default();
    m.add("workloads.gen_s", t(Layer::Gen).total_s, "s");
    m.add("sim.build_s", t(Layer::Build).total_s, "s");
    m.add("sim.event_steps", t(Layer::Event).count as f64, "count");
    m.add("sim.event_s", t(Layer::Event).total_s, "s");
    m.add("sim.round_steps", t(Layer::Round).count as f64, "count");
    m.add("sim.round_s", t(Layer::Round).total_s, "s");
    m.add("sim.finalize_s", t(Layer::Finalize).total_s, "s");
    m.add(
        "engine.events_scheduled",
        run.events_scheduled as f64,
        "count",
    );
    m.add("engine.queue_peak", run.queue_peak as f64, "count");
    m.add("sim.active_jobs_mean", active_mean, "count");
    m.add(
        "sim.live_job_slots_peak",
        run.live_job_slots_peak as f64,
        "count",
    );
    m.add(
        "cloud.instances_launched",
        run.report.instances_launched as f64,
        "count",
    );
    m.add("core.observe_s", t(Layer::Observe).total_s, "s");
    m.add("core.prices_s", t(Layer::Prices).total_s, "s");
    m.add("core.full_pack_s", t(Layer::FullPack).total_s, "s");
    m.add("core.partial_s", t(Layer::Partial).total_s, "s");
    m.add("core.plan_s", t(Layer::Plan).total_s, "s");
    let plan_rest = if w.is_eva() {
        t(Layer::Plan).total_s - phases
    } else {
        0.0
    };
    m.add("core.plan_rest_s", plan_rest, "s");
    m.add("core.rounds", outcome.rounds as f64, "count");
    m.add(
        "core.tasks_per_round",
        outcome.tasks as f64 / rounds,
        "count",
    );
    m.add(
        "core.full_adoption",
        outcome.full_adoption.unwrap_or(0.0),
        "ratio",
    );
    m.add(
        "core.redundant_task_share",
        outcome.redundant_tasks as f64 / outcome.tasks.max(1) as f64,
        "ratio",
    );
    m.add("baselines.plan_s", t(Layer::BaselinePlan).total_s, "s");
    m.add("trace.overhead", traced_wall / base.wall_s, "ratio");
    let attempted = 2 * w.jobs();
    let completed = base.report.jobs_completed + run.report.jobs_completed;
    m.print(&checks, attempted, attempted.saturating_sub(completed))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let correct = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    std::process::exit(if correct { 0 } else { 1 });
}
