//! Lockstep oracle for Algorithm 1. The production packer scores each
//! greedy candidate in O(1) from a per-step memo keyed on the joining
//! workload; the reference below is the naive packer it replaced, which
//! rebuilds `TNRP(T ∪ {τ})` with `tnrp_set` for every candidate. Over
//! random task sets, estimators and catalogs the two must produce the same
//! `PackedConfig`, with every `tnrp_dollars` equal bit for bit.

use eva::cloud::{Catalog, InstanceType};
use eva::core::{
    full_reconfiguration, PackedConfig, PackedInstance, ReservationPrices, TaskSnapshot,
    TnrpEvaluator, TputEstimator, UnitTput,
};
use eva::interference::ThroughputTable;
use eva::prelude::*;
use eva::types::InstanceTypeId;
use proptest::prelude::*;

/// The naive packer: Algorithm 1 built only on `tnrp_set` and
/// `types_by_cost_desc`.
fn reference_full_reconfiguration(
    tasks: &[TaskSnapshot],
    catalog: &Catalog,
    eval: &TnrpEvaluator<'_>,
) -> PackedConfig {
    let mut config = PackedConfig::default();
    // Tasks no type can host are unassignable regardless of packing.
    let mut remaining: Vec<&TaskSnapshot> = Vec::new();
    for t in tasks {
        if catalog.cheapest_fit(&t.demand).is_some() {
            remaining.push(t);
        } else {
            config.unassigned.push(t.id);
        }
    }

    for instance_type in catalog.types_by_cost_desc() {
        if remaining.is_empty() {
            break;
        }
        if instance_type.hourly_cost.is_zero() {
            // Ghost or free types would host everything vacuously.
            continue;
        }
        loop {
            let (set_indices, tnrp) = reference_pack_one_instance(&remaining, instance_type, eval);
            if set_indices.is_empty() {
                break;
            }
            // Commit only when cost-efficient (Algorithm 1 line 14).
            if tnrp + 1e-9 >= instance_type.hourly_cost.as_dollars() {
                // Record ids in assignment order, then remove by descending
                // index so earlier indices stay valid.
                let task_ids: Vec<TaskId> =
                    set_indices.iter().map(|idx| remaining[*idx].id).collect();
                let mut sorted = set_indices.clone();
                sorted.sort_unstable_by(|a, b| b.cmp(a));
                for idx in &sorted {
                    remaining.remove(*idx);
                }
                config.instances.push(PackedInstance {
                    type_id: instance_type.id,
                    tasks: task_ids,
                    tnrp_dollars: tnrp,
                    cost_dollars: instance_type.hourly_cost.as_dollars(),
                });
            } else {
                // Move on to the next cheaper type (line 17).
                break;
            }
        }
    }

    // Anything left is unassignable (should not happen for feasible tasks).
    config.unassigned.extend(remaining.iter().map(|t| t.id));
    config
}

/// Greedily fills one instance of `instance_type` from `remaining`
/// (Algorithm 1 lines 5–13). Returns the selected indices (in assignment
/// order) and the final set TNRP.
fn reference_pack_one_instance(
    remaining: &[&TaskSnapshot],
    instance_type: &InstanceType,
    eval: &TnrpEvaluator<'_>,
) -> (Vec<usize>, f64) {
    let mut selected: Vec<usize> = Vec::new();
    let mut set: Vec<&TaskSnapshot> = Vec::new();
    let mut used = ResourceVector::ZERO;
    let mut current_tnrp = 0.0;

    loop {
        let mut best: Option<(usize, f64)> = None;
        for (idx, task) in remaining.iter().enumerate() {
            if selected.contains(&idx) {
                continue;
            }
            let demand = instance_type.demand_of(&task.demand);
            let Some(total) = used.checked_add(&demand) else {
                continue;
            };
            if !total.fits_within(&instance_type.capacity) {
                continue;
            }
            set.push(task);
            let tnrp = eval.tnrp_set(&set);
            set.pop();
            // Strict improvement comparison with stable id tie-break keeps
            // the algorithm deterministic.
            let better = match best {
                None => true,
                Some((best_idx, best_tnrp)) => {
                    tnrp > best_tnrp + 1e-12
                        || ((tnrp - best_tnrp).abs() <= 1e-12
                            && remaining[idx].id < remaining[best_idx].id)
                }
            };
            if better {
                best = Some((idx, tnrp));
            }
        }
        let Some((idx, tnrp)) = best else { break };
        // Line 9: stop when the marginal addition lowers the set TNRP.
        if tnrp < current_tnrp {
            break;
        }
        selected.push(idx);
        set.push(remaining[idx]);
        used = used
            .checked_add(&instance_type.demand_of(&remaining[idx].demand))
            .unwrap_or(used);
        current_tnrp = tnrp;
    }

    (selected, current_tnrp)
}

/// A packed configuration with every float replaced by its bits, so `==`
/// means bit-equal.
type Bits = (Vec<(InstanceTypeId, Vec<TaskId>, u64, u64)>, Vec<TaskId>);

fn bits(config: &PackedConfig) -> Bits {
    let instances = config
        .instances
        .iter()
        .map(|i| {
            (
                i.type_id,
                i.tasks.clone(),
                i.tnrp_dollars.to_bits(),
                i.cost_dollars.to_bits(),
            )
        })
        .collect();
    (instances, config.unassigned.clone())
}

/// One generated job: `(workload, shape, gpus, cpus, ram GB, (gang size,
/// coupled))`. Shape 0 is a GPU task, shape 1 an Alibaba-style CPU task
/// whose `c7i`/`r7i` form needs half the vCPUs, and shape 2 an exact twin
/// of the previous job (same workload, demand and gang).
type JobSpec = (u32, u8, u32, u32, u64, (u32, u8));

fn arb_jobs() -> impl Strategy<Value = Vec<JobSpec>> {
    proptest::collection::vec(
        (
            0u32..5,
            0u8..3,
            1u32..=4,
            1u32..=32,
            1u64..=96,
            (1u32..=8, 0u8..2),
        ),
        1..28,
    )
}

/// Expands job specs into task snapshots. A gang-coupled job contributes
/// up to three of its siblings; the rest run elsewhere. Job ids are a
/// permutation, so id order differs from input order.
fn tasks_from(jobs: &[JobSpec]) -> Vec<TaskSnapshot> {
    let mut tasks: Vec<TaskSnapshot> = Vec::new();
    let mut prev: Option<(WorkloadKind, DemandSpec, u32, bool)> = None;
    for (i, &(workload, shape, gpu, cpu, ram_gb, (gang_size, coupled))) in jobs.iter().enumerate() {
        let fresh = || {
            let demand = if shape == 0 {
                DemandSpec::uniform(ResourceVector::with_ram_gb(gpu, cpu.min(8 * gpu), ram_gb))
            } else {
                let fast = ResourceVector::with_ram_gb(0, (cpu / 2).max(1), ram_gb);
                DemandSpec::uniform(ResourceVector::with_ram_gb(0, cpu, ram_gb))
                    .with_family_override("c7i", fast)
                    .with_family_override("r7i", fast)
            };
            (WorkloadKind(workload), demand, gang_size, coupled == 1)
        };
        let (workload, demand, gang_size, gang_coupled) = match (shape, &prev) {
            (2, Some(p)) => p.clone(),
            _ => fresh(),
        };
        let job = JobId((i as u64 * 37) % 101);
        let siblings = if gang_coupled { gang_size.min(3) } else { 1 };
        for idx in 0..siblings {
            tasks.push(TaskSnapshot {
                id: TaskId::new(job, idx),
                workload,
                demand: demand.clone(),
                checkpoint_delay: SimDuration::from_secs(2),
                launch_delay: SimDuration::from_secs(10),
                gang_size,
                gang_coupled,
                assigned_to: None,
                remaining_hint: None,
            });
        }
        prev = Some((workload, demand, gang_size, gang_coupled));
    }
    tasks
}

/// A learned table: recorded exact groups of one to four co-located
/// workloads (single-partner groups also set the pairwise entry), with
/// throughputs low enough that line 9's negative-TNRP stop fires.
fn arb_table() -> impl Strategy<Value = ThroughputTable> {
    (
        0.3f64..1.0,
        proptest::collection::vec(
            (
                0u32..5,
                proptest::collection::vec(0u32..5, 1..5),
                0.0f64..1.0,
            ),
            0..24,
        ),
    )
        .prop_map(|(default_tput, entries)| {
            let mut table = ThroughputTable::new(default_tput);
            for (task, others, tput) in entries {
                let others: Vec<WorkloadKind> = others.into_iter().map(WorkloadKind).collect();
                table.record(WorkloadKind(task), &others, tput);
            }
            table
        })
}

/// An estimator that reads the co-located slice in order: each partner's
/// factor depends on its position, so the packer must hand every estimator
/// the same slices in the same order as `tnrp_set` does.
struct PositionalTput;

impl TputEstimator for PositionalTput {
    fn estimate(&self, task: WorkloadKind, others: &[WorkloadKind]) -> f64 {
        others
            .iter()
            .enumerate()
            .map(|(i, o)| 1.0 - 0.07 * f64::from((task.0 + 2 * o.0 + 3 * i as u32) % 7))
            .product()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn memoized_packer_matches_naive_reference(
        jobs in arb_jobs(),
        table in arb_table(),
        estimator in 0u8..4,
        multi_task_aware in 0u8..2,
        table3 in 0u8..4,
    ) {
        let catalog = if table3 == 0 {
            Catalog::table3_example()
        } else {
            Catalog::aws_eval_2025()
        };
        let tasks = tasks_from(&jobs);
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        let tput: &dyn TputEstimator = match estimator {
            0 => &UnitTput,
            1 => &PositionalTput,
            _ => &table,
        };
        let eval = TnrpEvaluator::new(tput, &prices, multi_task_aware == 1);
        let fast = full_reconfiguration(&tasks, &catalog, &eval);
        let naive = reference_full_reconfiguration(&tasks, &catalog, &eval);
        prop_assert_eq!(bits(&fast), bits(&naive));
    }
}
