//! Report assembly: folds a finished [`ClusterSim`] into a [`SimReport`],
//! and splices shard reports back into whole-trace reports.

use eva_types::{InstanceId, JobId, SimTime};
use eva_workloads::ShardMeta;
use serde::{Deserialize, Serialize};

use crate::metrics::{CdfPoint, SimReport};
use crate::world::ClusterSim;

/// Consumes a fully-stepped world and produces its experiment report.
pub(crate) fn finalize(mut sim: ClusterSim) -> SimReport {
    // Fold any deferred lazy progress into the job lanes before reading
    // them (a fully drained run has settled everything already; this is
    // the safety net for partially stepped worlds).
    sim.world.jobs.settle_active_and_reset();
    // Safety: nothing should remain live.
    let now = sim.now();
    let leftovers: Vec<InstanceId> = sim.cloud.live_instances(now).map(|i| i.id).collect();
    for id in leftovers {
        let _ = sim.cloud.terminate(id, now);
    }

    let end = sim.cloud.max_terminated_at().unwrap_or(now).max(now);

    // Completed jobs fold in ascending JobId order, matching the former
    // map iteration. Retired jobs contribute from the completed log
    // (values frozen at completion with the identical float operations
    // this pass applies to still-held slots); the rest — every completed
    // job of the reference world, which retires nothing — come from the
    // slot scan. The log's already-folded prefix (ids below every entry
    // here — see `CompletedLog`) seeds the sums, and the loop continues
    // the identical left-to-right additions.
    let mut completed: Vec<(JobId, f64, f64, f64)> = sim.completed.pending_rows().collect();
    for s in 0..sim.world.jobs.ids.len() as u32 {
        if sim.world.jobs.released[s as usize] || !sim.world.jobs.is_done(s) {
            continue;
        }
        let jct = sim.world.jobs.completed_at[s as usize]
            .map(|t| t.duration_since(sim.job_spec(s).arrival).as_hours_f64())
            .unwrap_or(0.0);
        completed.push((
            sim.world.jobs.ids[s as usize],
            jct,
            sim.world.jobs.idle_hours[s as usize],
            sim.world.jobs.mean_tput(s),
        ));
    }
    completed.sort_by_key(|e| e.0);
    let (folded_n, mut jct_sum, mut idle_sum, mut tput_sum) = sim.completed.folded();
    for e in &completed {
        jct_sum += e.1;
    }
    for e in &completed {
        idle_sum += e.2;
    }
    for e in &completed {
        tput_sum += e.3;
    }
    let jobs_completed = folded_n + completed.len();
    let n = jobs_completed.max(1) as f64;
    let avg_jct_hours = jct_sum / n;
    let avg_idle_hours = idle_sum / n;
    let avg_norm_tput = tput_sum / n;

    let uptimes: Vec<f64> = sim
        .cloud
        .uptime_rows(end)
        .into_iter()
        .map(|(_, u)| u)
        .collect();
    let billed_hours: f64 = uptimes.iter().sum();

    let alloc = |r: usize| {
        if sim.capacity_integral[r] <= 0.0 {
            0.0
        } else {
            sim.alloc_integral[r] / sim.capacity_integral[r]
        }
    };

    let first_arrival = sim.first_arrival.unwrap_or(SimTime::ZERO);

    SimReport {
        scheduler: sim.scheduler.name().to_string(),
        jobs_completed,
        total_cost_dollars: sim.cloud.total_bill(end).as_dollars(),
        instances_launched: sim.cloud.launch_count(),
        migrations_per_task: sim.migration_count as f64 / sim.total_tasks.max(1) as f64,
        avg_jct_hours,
        avg_idle_hours,
        avg_norm_tput,
        tasks_per_instance: if billed_hours > 0.0 {
            sim.task_running_hours / billed_hours
        } else {
            0.0
        },
        gpu_alloc: alloc(0),
        cpu_alloc: alloc(1),
        ram_alloc: alloc(2),
        uptime_cdf: crate::metrics::empirical_cdf(uptimes, 100),
        full_reconfig_rate: if sim.rounds > 0 {
            sim.full_rounds as f64 / sim.rounds as f64
        } else {
            0.0
        },
        makespan_hours: end.duration_since(first_arrival).as_hours_f64(),
        billed_hours,
    }
}

/// A whole-trace report recombined from shard reports, with the metrics
/// whose splice is approximate listed explicitly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplicedReport {
    /// The recombined report.
    pub report: SimReport,
    /// How many shard reports were spliced (1 = the report is a direct
    /// single-cell result, nothing was approximated).
    pub shards: usize,
    /// Metrics whose spliced value is approximate (see [`splice`] for the
    /// per-metric semantics). Empty when `shards == 1`.
    pub inexact_metrics: Vec<String>,
    /// Whether the shard partition was verified clean, and how dirty it
    /// is when not.
    pub audit: PartitionAudit,
}

/// The measured cleanliness of a shard partition.
///
/// A partition is **clean** when no job's estimated execution crosses a
/// window boundary ([`eva_workloads::ShardMeta::straddlers`] is zero in
/// every window). Only then do the integer-sum metrics of a spliced
/// report ([`EXACT_METRICS`]) carry the byte-identical-to-unsharded
/// guarantee; a dirty partition demotes them into
/// [`SplicedReport::inexact_metrics`], so exactness is a *checked*
/// property of every splice, never an assumption about the caller's
/// trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionAudit {
    /// True when no window reports boundary straddlers.
    pub clean: bool,
    /// Total jobs whose estimated execution crosses a window boundary.
    pub straddlers: usize,
    /// Windows in the partition (1 = direct single-cell result).
    pub windows: usize,
}

impl PartitionAudit {
    /// The audit of a direct, unsharded result: trivially clean.
    pub fn single() -> Self {
        PartitionAudit {
            clean: true,
            straddlers: 0,
            windows: 1,
        }
    }

    /// One-line human summary, printed by the CLI and bench harness.
    pub fn summary(&self) -> String {
        if self.clean {
            format!(
                "clean — 0 straddlers across {} window(s); integer metrics exact",
                self.windows
            )
        } else {
            format!(
                "DIRTY — {} straddler(s) across {} window(s); {} demoted to inexact",
                self.straddlers,
                self.windows,
                EXACT_METRICS.join("/")
            )
        }
    }
}

/// Metric names whose splice is exact **on a clean partition**: plain
/// integer sums over shards. A dirty partition (see [`PartitionAudit`])
/// demotes these into [`SplicedReport::inexact_metrics`].
pub const EXACT_METRICS: &[&str] = &["jobs_completed", "instances_launched"];

/// Metric names whose splice is approximate even on a clean partition
/// (everything except [`EXACT_METRICS`]).
pub const INEXACT_METRICS: &[&str] = &[
    "total_cost_dollars",
    "billed_hours",
    "migrations_per_task",
    "avg_jct_hours",
    "avg_idle_hours",
    "avg_norm_tput",
    "tasks_per_instance",
    "gpu_alloc",
    "cpu_alloc",
    "ram_alloc",
    "uptime_cdf",
    "full_reconfig_rate",
    "makespan_hours",
];

/// Recombines per-shard reports into one whole-trace [`SimReport`].
///
/// Shards are independent simulations of arrival-time windows of one
/// trace (see [`eva_workloads::TraceHandle::shard`]); `parts` must hold
/// every shard's `(ShardMeta, SimReport)` in shard order. Per-metric
/// semantics:
///
/// * **Integer sums — exact**: `jobs_completed`, `instances_launched`.
///   When the shard partition is clean (no instance or job interaction
///   crosses a window boundary, e.g. nominal fidelity with idle gaps
///   between windows), these are *byte-identical* to the unsharded run.
/// * **Float sums — approximate**: `total_cost_dollars`, `billed_hours`.
///   Values are the same shard-local sums the whole run would make, but
///   floating-point association order differs, so the last bits can too.
/// * **Time-shifted max — approximate**: `makespan_hours` is
///   `max over shards of (window offset + shard makespan)`, the shift
///   re-anchoring each window at its position in the whole trace.
/// * **Weighted averages — approximate**: `avg_jct_hours`,
///   `avg_idle_hours`, `avg_norm_tput` weight by shard completed jobs;
///   `migrations_per_task` by shard task count; `tasks_per_instance` and
///   the three allocation fractions by shard billed hours;
///   `full_reconfig_rate` by shard makespan (a round-count proxy).
/// * **CDF merge — approximate**: `uptime_cdf` is rebuilt from the shard
///   CDFs' density increments weighted by their instance counts.
///
/// Every approximate metric is listed in
/// [`SplicedReport::inexact_metrics`] (the [`INEXACT_METRICS`] set), so
/// downstream consumers can tell a spliced value from a directly
/// simulated one. A single-part splice is the report itself, exact.
///
/// The "integer sums are exact" claim additionally requires a **clean
/// partition**, and splice *audits* that instead of trusting the caller:
/// the shard metas carry per-window boundary-straddler counts (see
/// [`eva_workloads::TraceHandle::shard`]), and any straddler produces a
/// [`PartitionAudit`] with `clean: false` and demotes [`EXACT_METRICS`]
/// into `inexact_metrics` — the splice still proceeds, but no metric
/// claims an exactness the partition cannot deliver.
///
/// # Panics
///
/// Panics when `parts` is empty — there is no report to splice.
pub fn splice(parts: &[(ShardMeta, SimReport)]) -> SplicedReport {
    assert!(!parts.is_empty(), "cannot splice zero shard reports");
    if parts.len() == 1 {
        return SplicedReport {
            report: parts[0].1.clone(),
            shards: 1,
            inexact_metrics: Vec::new(),
            audit: PartitionAudit::single(),
        };
    }
    let straddlers: usize = parts.iter().map(|(m, _)| m.straddlers).sum();
    let audit = PartitionAudit {
        clean: straddlers == 0,
        straddlers,
        windows: parts.len(),
    };

    let jobs_completed: usize = parts.iter().map(|(_, r)| r.jobs_completed).sum();
    let instances_launched: u64 = parts.iter().map(|(_, r)| r.instances_launched).sum();
    let total_cost_dollars: f64 = parts.iter().map(|(_, r)| r.total_cost_dollars).sum();
    let billed_hours: f64 = parts.iter().map(|(_, r)| r.billed_hours).sum();

    // Weighted average over parts; 0 when no part carries weight.
    let weighted = |value: &dyn Fn(&SimReport) -> f64, weight: &dyn Fn(&ShardMeta, &SimReport) -> f64| {
        let total: f64 = parts.iter().map(|(m, r)| weight(m, r)).sum();
        if total <= 0.0 {
            0.0
        } else {
            parts
                .iter()
                .map(|(m, r)| value(r) * weight(m, r))
                .sum::<f64>()
                / total
        }
    };
    let by_jobs = |value: &dyn Fn(&SimReport) -> f64| {
        weighted(value, &|_, r| r.jobs_completed as f64)
    };
    let by_billed = |value: &dyn Fn(&SimReport) -> f64| {
        weighted(value, &|_, r| r.billed_hours)
    };

    let makespan_hours = parts
        .iter()
        .map(|(m, r)| m.offset.as_hours_f64() + r.makespan_hours)
        .fold(0.0f64, f64::max);

    // Rebuild a merged uptime CDF from each shard CDF's density
    // increments, weighted by that shard's instance count.
    let mut samples: Vec<(f64, f64)> = Vec::new();
    for (_, r) in parts {
        let mut prev = 0.0;
        for p in &r.uptime_cdf {
            let w = (p.density - prev) * r.instances_launched as f64;
            if w > 0.0 {
                samples.push((p.value, w));
            }
            prev = p.density;
        }
    }
    samples.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let total_weight: f64 = samples.iter().map(|(_, w)| w).sum();
    let mut uptime_cdf = Vec::with_capacity(samples.len());
    let mut cum = 0.0;
    for (value, w) in samples {
        cum += w;
        uptime_cdf.push(CdfPoint {
            value,
            density: cum / total_weight,
        });
    }
    if let Some(last) = uptime_cdf.last_mut() {
        last.density = 1.0;
    }

    let report = SimReport {
        scheduler: parts[0].1.scheduler.clone(),
        jobs_completed,
        total_cost_dollars,
        instances_launched,
        migrations_per_task: weighted(&|r| r.migrations_per_task, &|m, _| m.tasks as f64),
        avg_jct_hours: by_jobs(&|r| r.avg_jct_hours),
        avg_idle_hours: by_jobs(&|r| r.avg_idle_hours),
        avg_norm_tput: by_jobs(&|r| r.avg_norm_tput),
        tasks_per_instance: by_billed(&|r| r.tasks_per_instance),
        gpu_alloc: by_billed(&|r| r.gpu_alloc),
        cpu_alloc: by_billed(&|r| r.cpu_alloc),
        ram_alloc: by_billed(&|r| r.ram_alloc),
        uptime_cdf,
        full_reconfig_rate: weighted(&|r| r.full_reconfig_rate, &|_, r| r.makespan_hours),
        makespan_hours,
        billed_hours,
    };
    // Demoted integer metrics lead the list so a dirty partition is
    // visible at a glance in artifacts.
    let inexact_metrics = if audit.clean {
        INEXACT_METRICS.iter().map(|s| s.to_string()).collect()
    } else {
        EXACT_METRICS
            .iter()
            .chain(INEXACT_METRICS)
            .map(|s| s.to_string())
            .collect()
    };
    SplicedReport {
        report,
        shards: parts.len(),
        inexact_metrics,
        audit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_types::SimDuration;

    fn meta(index: usize, count: usize, offset_hours: u64, tasks: usize) -> ShardMeta {
        ShardMeta {
            index,
            count,
            offset: SimDuration::from_hours(offset_hours),
            end: (index + 1 < count).then(|| SimDuration::from_hours(offset_hours + 10)),
            jobs: tasks,
            tasks,
            straddlers: 0,
            weight: (tasks * 2) as u64,
        }
    }

    fn report(jobs: usize, cost: f64, jct: f64, makespan: f64, billed: f64) -> SimReport {
        SimReport {
            scheduler: "Eva".into(),
            jobs_completed: jobs,
            total_cost_dollars: cost,
            instances_launched: jobs as u64,
            migrations_per_task: 0.5,
            avg_jct_hours: jct,
            avg_idle_hours: jct / 10.0,
            avg_norm_tput: 0.9,
            tasks_per_instance: 1.2,
            gpu_alloc: 0.6,
            cpu_alloc: 0.5,
            ram_alloc: 0.4,
            uptime_cdf: vec![
                CdfPoint {
                    value: makespan / 2.0,
                    density: 0.5,
                },
                CdfPoint {
                    value: makespan,
                    density: 1.0,
                },
            ],
            full_reconfig_rate: 0.25,
            makespan_hours: makespan,
            billed_hours: billed,
        }
    }

    #[test]
    fn single_part_is_exact_passthrough() {
        let r = report(4, 10.0, 1.0, 3.0, 6.0);
        let spliced = splice(&[(meta(0, 1, 0, 4), r.clone())]);
        assert_eq!(spliced.report, r);
        assert_eq!(spliced.shards, 1);
        assert!(spliced.inexact_metrics.is_empty());
        assert_eq!(spliced.audit, PartitionAudit::single());
    }

    #[test]
    fn sums_add_and_makespan_time_shifts() {
        let a = report(4, 10.0, 1.0, 3.0, 6.0);
        let b = report(2, 5.0, 2.0, 4.0, 3.0);
        let spliced = splice(&[
            (meta(0, 2, 0, 4), a),
            (meta(1, 2, 10, 2), b),
        ]);
        let r = &spliced.report;
        assert_eq!(r.jobs_completed, 6);
        assert_eq!(r.instances_launched, 6);
        assert!((r.total_cost_dollars - 15.0).abs() < 1e-12);
        assert!((r.billed_hours - 9.0).abs() < 1e-12);
        // Shard 1 ends at 10 + 4 = 14h > shard 0's 3h.
        assert!((r.makespan_hours - 14.0).abs() < 1e-12);
        // JCT weighted by completed jobs: (1*4 + 2*2) / 6.
        assert!((r.avg_jct_hours - 8.0 / 6.0).abs() < 1e-12);
        assert_eq!(spliced.shards, 2);
        assert_eq!(
            spliced.inexact_metrics,
            INEXACT_METRICS
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
        );
        assert!(!spliced.inexact_metrics.contains(&"jobs_completed".to_string()));
        assert!(spliced.audit.clean);
        assert_eq!(spliced.audit.windows, 2);
        assert!(spliced.audit.summary().starts_with("clean"));
    }

    #[test]
    fn dirty_partitions_demote_integer_metrics() {
        let a = report(4, 10.0, 1.0, 3.0, 6.0);
        let b = report(2, 5.0, 2.0, 4.0, 3.0);
        let mut dirty = meta(0, 2, 0, 4);
        dirty.straddlers = 2;
        let spliced = splice(&[(dirty, a.clone()), (meta(1, 2, 10, 2), b.clone())]);
        // The splice still proceeds, values unchanged …
        assert_eq!(spliced.report.jobs_completed, 6);
        assert_eq!(spliced.report.instances_launched, 6);
        // … but the audit records the dirtiness and the integer metrics
        // lose their exactness claim.
        assert_eq!(
            spliced.audit,
            PartitionAudit {
                clean: false,
                straddlers: 2,
                windows: 2
            }
        );
        assert!(spliced.inexact_metrics.iter().any(|m| m == "jobs_completed"));
        assert!(spliced.inexact_metrics.iter().any(|m| m == "instances_launched"));
        assert_eq!(
            spliced.inexact_metrics.len(),
            EXACT_METRICS.len() + INEXACT_METRICS.len()
        );
        assert_eq!(&spliced.inexact_metrics[..2], &["jobs_completed", "instances_launched"]);
        assert!(spliced.audit.summary().contains("DIRTY"));
        assert!(spliced.audit.summary().contains("2 straddler(s)"));

        // The same parts with zero straddlers keep today's exact claims.
        let clean = splice(&[(meta(0, 2, 0, 4), a), (meta(1, 2, 10, 2), b)]);
        assert!(clean.audit.clean);
        assert!(!clean.inexact_metrics.iter().any(|m| m == "jobs_completed"));
    }

    #[test]
    fn partition_audit_serde_round_trips() {
        let audit = PartitionAudit {
            clean: false,
            straddlers: 3,
            windows: 8,
        };
        let json = serde_json::to_string(&audit).unwrap();
        let back: PartitionAudit = serde_json::from_str(&json).unwrap();
        assert_eq!(audit, back);
    }

    #[test]
    fn merged_cdf_is_monotone_and_ends_at_one() {
        let a = report(4, 10.0, 1.0, 3.0, 6.0);
        let b = report(2, 5.0, 2.0, 8.0, 3.0);
        let spliced = splice(&[
            (meta(0, 2, 0, 4), a),
            (meta(1, 2, 10, 2), b),
        ]);
        let cdf = &spliced.report.uptime_cdf;
        assert!(!cdf.is_empty());
        assert_eq!(cdf.last().unwrap().density, 1.0);
        for w in cdf.windows(2) {
            assert!(w[1].value >= w[0].value);
            assert!(w[1].density >= w[0].density);
        }
    }

    #[test]
    fn empty_shards_do_not_poison_averages() {
        let a = report(3, 9.0, 1.5, 3.0, 6.0);
        let mut empty = report(0, 0.0, 0.0, 0.0, 0.0);
        empty.instances_launched = 0;
        empty.uptime_cdf.clear();
        let spliced = splice(&[
            (meta(0, 2, 0, 3), a.clone()),
            (meta(1, 2, 50, 0), empty),
        ]);
        let r = &spliced.report;
        assert_eq!(r.jobs_completed, 3);
        assert!((r.avg_jct_hours - a.avg_jct_hours).abs() < 1e-12);
        assert!((r.tasks_per_instance - a.tasks_per_instance).abs() < 1e-12);
    }
}
