//! Scheduler inputs (cluster snapshots) and outputs (plans).
//!
//! The simulator and the live runtime describe the cluster to a scheduler
//! through [`SchedulerContext`] and receive back a [`Plan`]: the target
//! cluster configuration (which instances to keep or launch and which
//! tasks go where) plus the instances to terminate. Diffing the plan
//! against the current assignment yields the migrations.

use std::collections::HashMap;

use eva_interference::TaskContext;
use eva_types::{
    DemandSpec, InstanceId, InstanceTypeId, JobId, SimDuration, SimTime, TaskId, WorkloadKind,
};

use eva_cloud::Catalog;

/// A scheduler-visible view of one active task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSnapshot {
    /// The task.
    pub id: TaskId,
    /// Its workload kind (indexes the co-location table).
    pub workload: WorkloadKind,
    /// Its resource demands.
    pub demand: DemandSpec,
    /// Checkpoint delay if migrated.
    pub checkpoint_delay: SimDuration,
    /// Launch delay on a (new) instance.
    pub launch_delay: SimDuration,
    /// Number of sibling tasks in its job (1 for single-task jobs).
    pub gang_size: u32,
    /// Whether the job's tasks are performance-interdependent (§4.4).
    pub gang_coupled: bool,
    /// Where the task currently runs, if anywhere.
    pub assigned_to: Option<InstanceId>,
    /// Estimated remaining runtime, when the workload supplies one. Eva
    /// ignores this; the Stratus baseline receives perfect estimates here
    /// (its best case, §6.1).
    pub remaining_hint: Option<SimDuration>,
}

impl TaskSnapshot {
    /// Total migration delay (checkpoint + launch).
    pub fn migration_delay(&self) -> SimDuration {
        self.checkpoint_delay + self.launch_delay
    }
}

/// A scheduler-visible view of one live instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceSnapshot {
    /// The instance.
    pub id: InstanceId,
    /// Its catalog type.
    pub type_id: InstanceTypeId,
}

/// Everything a scheduler sees at one scheduling round.
#[derive(Debug, Clone)]
pub struct SchedulerContext<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The instance-type catalog.
    pub catalog: &'a Catalog,
    /// All tasks currently in the system (running or pending).
    pub tasks: &'a [TaskSnapshot],
    /// All live instances.
    pub instances: &'a [InstanceSnapshot],
}

impl SchedulerContext<'_> {
    /// Tasks currently assigned to `instance`.
    pub fn tasks_on(&self, instance: InstanceId) -> Vec<&TaskSnapshot> {
        self.tasks
            .iter()
            .filter(|t| t.assigned_to == Some(instance))
            .collect()
    }

    /// Tasks not assigned anywhere yet.
    pub fn pending_tasks(&self) -> Vec<&TaskSnapshot> {
        self.tasks
            .iter()
            .filter(|t| t.assigned_to.is_none())
            .collect()
    }
}

/// The instance slot an assignment targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedInstance {
    /// An instance that already exists.
    Existing(InstanceId),
    /// A new instance of the given type to launch.
    New(InstanceTypeId),
}

/// One instance in the target configuration with its task set.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Which instance hosts the tasks.
    pub instance: PlannedInstance,
    /// The tasks assigned to it.
    pub tasks: Vec<TaskId>,
}

/// A target cluster configuration.
///
/// Any live instance that appears neither in `assignments` nor is kept
/// implicitly must be listed in `terminate`; the executor drains and
/// terminates it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Plan {
    /// Target assignments (existing and new instances).
    pub assignments: Vec<Assignment>,
    /// Instances to terminate once drained.
    pub terminate: Vec<InstanceId>,
    /// Whether this plan came from a Full Reconfiguration (telemetry for
    /// the Figure 5a proportion metric).
    pub full_reconfiguration: bool,
}

impl Plan {
    /// The no-op plan.
    pub fn empty() -> Self {
        Plan::default()
    }

    /// Tasks that change instance relative to `tasks`' current assignment
    /// (includes first-time placements onto new instances only when
    /// `count_initial` is set).
    pub fn migrations(&self, tasks: &[TaskSnapshot], count_initial: bool) -> Vec<TaskId> {
        let by_id = index_by_id(tasks);
        let mut moved = Vec::new();
        for a in &self.assignments {
            for tid in &a.tasks {
                let Some(snap) = by_id.get(tid) else {
                    continue;
                };
                match (&a.instance, snap.assigned_to) {
                    (PlannedInstance::Existing(target), Some(current)) => {
                        if *target != current {
                            moved.push(*tid);
                        }
                    }
                    (PlannedInstance::New(_), Some(_)) => moved.push(*tid),
                    (_, None) => {
                        if count_initial {
                            moved.push(*tid);
                        }
                    }
                }
            }
        }
        moved
    }

    /// Number of new instances the plan launches.
    pub fn new_instance_count(&self) -> usize {
        self.assignments
            .iter()
            .filter(|a| matches!(a.instance, PlannedInstance::New(_)))
            .count()
    }
}

/// Indexes `tasks` by id; the first snapshot wins on a repeated id, as a
/// linear `find` would.
pub(crate) fn index_by_id(tasks: &[TaskSnapshot]) -> HashMap<TaskId, &TaskSnapshot> {
    let mut by_id = HashMap::with_capacity(tasks.len());
    for t in tasks {
        by_id.entry(t.id).or_insert(t);
    }
    by_id
}

/// A job-level throughput observation delivered to schedulers each round.
#[derive(Debug, Clone, PartialEq)]
pub struct JobObservation {
    /// The observed job.
    pub job: JobId,
    /// Whether its tasks are gang-coupled.
    pub gang_coupled: bool,
    /// Observed normalized throughput over the last window.
    pub observed_tput: f64,
    /// Per-task co-location contexts.
    pub contexts: Vec<TaskContext>,
}

/// The scheduling interface shared by Eva and every baseline.
pub trait Scheduler {
    /// Human-readable name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Produces the target configuration for this round.
    fn plan(&mut self, ctx: &SchedulerContext<'_>) -> Plan;

    /// Delivers throughput observations (schedulers that do not learn
    /// ignore them).
    fn observe(&mut self, _observations: &[JobObservation]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_types::ResourceVector;

    fn snap(job: u64, idx: u32, assigned: Option<u64>) -> TaskSnapshot {
        TaskSnapshot {
            id: TaskId::new(JobId(job), idx),
            workload: WorkloadKind(0),
            demand: DemandSpec::uniform(ResourceVector::new(1, 4, 1024)),
            checkpoint_delay: SimDuration::from_secs(2),
            launch_delay: SimDuration::from_secs(10),
            gang_size: 1,
            gang_coupled: false,
            assigned_to: assigned.map(InstanceId),
            remaining_hint: None,
        }
    }

    #[test]
    fn migrations_detect_moves_only() {
        let tasks = vec![snap(1, 0, Some(1)), snap(2, 0, Some(2)), snap(3, 0, None)];
        let plan = Plan {
            assignments: vec![
                Assignment {
                    instance: PlannedInstance::Existing(InstanceId(1)),
                    tasks: vec![TaskId::new(JobId(1), 0)], // Stays put.
                },
                Assignment {
                    instance: PlannedInstance::Existing(InstanceId(1)),
                    tasks: vec![TaskId::new(JobId(2), 0)], // Moves 2 → 1.
                },
                Assignment {
                    instance: PlannedInstance::New(InstanceTypeId(0)),
                    tasks: vec![TaskId::new(JobId(3), 0)], // Initial placement.
                },
            ],
            terminate: vec![InstanceId(2)],
            full_reconfiguration: false,
        };
        let moved = plan.migrations(&tasks, false);
        assert_eq!(moved, vec![TaskId::new(JobId(2), 0)]);
        let with_initial = plan.migrations(&tasks, true);
        assert_eq!(with_initial.len(), 2);
        assert_eq!(plan.new_instance_count(), 1);
    }

    #[test]
    fn moving_to_new_instance_counts_as_migration() {
        let tasks = vec![snap(1, 0, Some(5))];
        let plan = Plan {
            assignments: vec![Assignment {
                instance: PlannedInstance::New(InstanceTypeId(2)),
                tasks: vec![TaskId::new(JobId(1), 0)],
            }],
            ..Plan::empty()
        };
        assert_eq!(plan.migrations(&tasks, false).len(), 1);
    }

    #[test]
    fn context_filters_tasks() {
        let tasks = vec![snap(1, 0, Some(1)), snap(2, 0, Some(1)), snap(3, 0, None)];
        let instances = vec![InstanceSnapshot {
            id: InstanceId(1),
            type_id: InstanceTypeId(0),
        }];
        let catalog = Catalog::table3_example();
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            catalog: &catalog,
            tasks: &tasks,
            instances: &instances,
        };
        assert_eq!(ctx.tasks_on(InstanceId(1)).len(), 2);
        assert_eq!(ctx.pending_tasks().len(), 1);
    }
}
