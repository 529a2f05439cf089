//! Criterion benchmarks for the algorithm runtimes the paper reports.
//!
//! * `full_reconfiguration/200` reproduces the Table 4 runtime column
//!   (378 ms in the paper's Python; the Rust port is much faster).
//! * `full_reconfiguration/{1000,2000}` reproduces the Table 5 scaling
//!   shape (quadratic in the task count).
//! * `full_reconfiguration_learned/{200,1000}` packs the same Table 7
//!   tasks (CPU workloads carry their `c7i`/`r7i` demand overrides) under
//!   a populated interference table, with every third job gang-coupled,
//!   so each greedy step memoizes per joining workload (also quadratic in
//!   the task count).
//! * `solvers/*` compare the exact branch-and-bound against FFD.
//! * `throughput_table/*` measure the co-location table's hot paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use eva_cloud::Catalog;
use eva_core::{full_reconfiguration, ReservationPrices, TaskSnapshot, TnrpEvaluator, UnitTput};
use eva_interference::ThroughputTable;
use eva_solver::{branch_and_bound, first_fit_decreasing, BnbConfig, Item, PackingProblem};
use eva_types::{JobId, SimDuration, TaskId, WorkloadKind};
use eva_workloads::WorkloadCatalog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sample_tasks(n: usize, seed: u64) -> Vec<TaskSnapshot> {
    let workloads = WorkloadCatalog::table7();
    let pool: Vec<_> = workloads.iter().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let w = pool[rng.gen_range(0..pool.len())];
            TaskSnapshot {
                id: TaskId::new(JobId(i as u64), 0),
                workload: w.kind,
                demand: w.demand.clone(),
                checkpoint_delay: SimDuration::ZERO,
                launch_delay: SimDuration::ZERO,
                gang_size: 1,
                gang_coupled: false,
                assigned_to: None,
                remaining_hint: None,
            }
        })
        .collect()
}

fn bench_full_reconfiguration(c: &mut Criterion) {
    let catalog = Catalog::aws_eval_2025();
    let mut group = c.benchmark_group("full_reconfiguration");
    group.sample_size(10);
    for n in [200usize, 1000, 2000] {
        let tasks = sample_tasks(n, n as u64);
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        group.bench_with_input(BenchmarkId::from_parameter(n), &tasks, |b, tasks| {
            b.iter(|| {
                let eval = TnrpEvaluator::new(&UnitTput, &prices, true);
                full_reconfiguration(tasks, &catalog, &eval)
            })
        });
    }
    group.finish();
}

/// [`sample_tasks`] with every third job gang-coupled (2–4 tasks).
fn learned_tasks(n: usize, seed: u64) -> Vec<TaskSnapshot> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tasks = sample_tasks(n, seed);
    for t in tasks.iter_mut().step_by(3) {
        t.gang_coupled = true;
        t.gang_size = rng.gen_range(2..=4);
    }
    tasks
}

/// A table with recorded pairwise entries and exact groups of two to four
/// co-located workloads over the Table 7 kinds.
fn learned_table(seed: u64) -> ThroughputTable {
    let kinds: Vec<WorkloadKind> = WorkloadCatalog::table7().iter().map(|w| w.kind).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut table = ThroughputTable::new(0.95);
    for _ in 0..200 {
        let task = kinds[rng.gen_range(0..kinds.len())];
        let others: Vec<WorkloadKind> = (0..rng.gen_range(1..=4))
            .map(|_| kinds[rng.gen_range(0..kinds.len())])
            .collect();
        table.record(task, &others, rng.gen_range(0.6..1.0));
    }
    table
}

fn bench_full_reconfiguration_learned(c: &mut Criterion) {
    let catalog = Catalog::aws_eval_2025();
    let table = learned_table(11);
    let mut group = c.benchmark_group("full_reconfiguration_learned");
    group.sample_size(10);
    for n in [200usize, 1000] {
        let tasks = learned_tasks(n, n as u64);
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        group.bench_with_input(BenchmarkId::from_parameter(n), &tasks, |b, tasks| {
            b.iter(|| {
                let eval = TnrpEvaluator::new(&table, &prices, true);
                full_reconfiguration(tasks, &catalog, &eval)
            })
        });
    }
    group.finish();
}

fn bench_solvers(c: &mut Criterion) {
    let catalog = Catalog::aws_eval_2025();
    let tasks = sample_tasks(40, 77);
    let items: Vec<Item> = tasks
        .iter()
        .enumerate()
        .map(|(i, t)| Item {
            id: i,
            demand: t.demand.clone(),
        })
        .collect();
    let problem = PackingProblem::new(items, catalog);
    let mut group = c.benchmark_group("solvers");
    group.sample_size(10);
    group.bench_function("ffd_40_tasks", |b| {
        b.iter(|| first_fit_decreasing(&problem))
    });
    group.bench_function("bnb_40_tasks_100ms", |b| {
        b.iter(|| {
            branch_and_bound(
                &problem,
                BnbConfig {
                    time_limit: std::time::Duration::from_millis(100),
                    ..Default::default()
                },
            )
        })
    });
    group.finish();
}

fn bench_throughput_table(c: &mut Criterion) {
    let mut table = ThroughputTable::new(0.95);
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..500 {
        let a = WorkloadKind(rng.gen_range(0..10));
        let others: Vec<WorkloadKind> = (0..rng.gen_range(1..5))
            .map(|_| WorkloadKind(rng.gen_range(0..10)))
            .collect();
        table.record(a, &others, rng.gen_range(0.5..1.0));
    }
    let mut group = c.benchmark_group("throughput_table");
    group.bench_function("estimate_group_of_4", |b| {
        b.iter(|| {
            table.estimate(
                WorkloadKind(3),
                &[
                    WorkloadKind(1),
                    WorkloadKind(4),
                    WorkloadKind(7),
                    WorkloadKind(2),
                ],
            )
        })
    });
    group.bench_function("record_pair", |b| {
        b.iter(|| table.record(WorkloadKind(0), &[WorkloadKind(1)], 0.9))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_full_reconfiguration,
    bench_full_reconfiguration_learned,
    bench_solvers,
    bench_throughput_table
);
criterion_main!(benches);
