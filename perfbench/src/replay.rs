//! Phase replay: rebuilds every scheduling round of a recorded run and
//! times the scheduler's public phase calls from outside.
//!
//! The inputs are the submitted jobs (arrivals and task specs) and the
//! run's recorded control-plane script. The script gives each round's
//! instant, every `JobDone`, and every task start, stop and kill with
//! the instance it ran on. From these the replay rebuilds, per round:
//!
//! * the active job set — arrived at or before the round and not yet
//!   done (same-instant completions and arrivals precede a round in the
//!   engine's dispatch order, and the script preserves that order);
//! * the throughput observations: the tasks running on each instance
//!   come from the script, their throughput from the ground-truth
//!   interference model (`InterferenceModel::measured`), exactly as the
//!   simulator derives what it shows the scheduler;
//! * the scheduler context: task placements and live instances follow
//!   the replayed scheduler's own plans (launches get fresh ids,
//!   terminations leave the live set), and each task's remaining-time
//!   hint is its recorded completion time minus the round's instant,
//!   capped at its full-throughput duration.
//!
//! The replayed placements are the scheduler's own, not copies of the
//! simulator's, so replayed phase times are an attribution of shares,
//! not a re-measurement of the simulated run.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::rc::Rc;

use eva_baselines::StratusScheduler;
use eva_cloud::Catalog;
use eva_core::{
    full_reconfiguration, partial_reconfiguration, EvaConfig, EvaScheduler, InstanceSnapshot,
    JobObservation, Plan, PlannedInstance, ReservationPrices, Scheduler, SchedulerContext,
    TaskSnapshot, TnrpEvaluator, TputEstimator, UnitTput,
};
use eva_interference::TaskContext;
use eva_sim::{ExecActionKind, ExecScript};
use eva_types::{InstanceId, InstanceTypeId, JobId, JobSpec, SimTime, TaskId, WorkloadKind};
use eva_workloads::{InterferenceModel, WorkloadCatalog};

use crate::spans::{Layer, SpanLog};

/// The scheduler a replay drives.
pub enum Replayed {
    /// Eva; its phases are timed one by one, then `plan()` as a whole.
    Eva(Box<EvaScheduler>, EvaConfig),
    /// The Stratus baseline; only `plan()` is timed.
    Stratus(StratusScheduler),
}

impl Replayed {
    /// Eva with the paper's default configuration.
    pub fn eva() -> Replayed {
        Replayed::Eva(
            Box::new(EvaScheduler::new(EvaConfig::eva())),
            EvaConfig::eva(),
        )
    }

    /// The Stratus baseline.
    pub fn stratus() -> Replayed {
        Replayed::Stratus(StratusScheduler::new())
    }
}

/// What a replay saw, besides its spans.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Rounds rebuilt (one per recorded round).
    pub rounds: u64,
    /// Active jobs in each rebuilt round.
    pub active_per_round: Vec<usize>,
    /// Tasks over all rebuilt rounds.
    pub tasks: u64,
    /// Tasks whose class (workload, demand, gang coupling and size)
    /// already had a member in the same round, over all rounds.
    pub redundant_tasks: u64,
    /// Share of rounds in which Eva adopted Full Reconfiguration (Eva
    /// only).
    pub full_adoption: Option<f64>,
}

/// The interchangeability class of a task within a round: tasks that
/// agree on all of these are priced and packed identically.
type ClassKey = (
    WorkloadKind,
    bool,
    u32,
    (u32, u32, u64),
    Vec<(String, (u32, u32, u64))>,
);

fn class_of(t: &TaskSnapshot) -> ClassKey {
    let rv = |r: &eva_types::ResourceVector| (r.gpu, r.cpu, r.ram_mb);
    (
        t.workload,
        t.gang_coupled,
        t.gang_size,
        rv(&t.demand.default),
        t.demand
            .per_family
            .iter()
            .map(|(family, r)| (family.clone(), rv(r)))
            .collect(),
    )
}

/// Replay state: the rebuilt world as of the script position.
struct World<'a> {
    jobs: &'a [JobSpec],
    done_at: Vec<Option<SimTime>>,
    index: HashMap<JobId, usize>,
    next_arrival: usize,
    /// Active jobs in id order.
    active: BTreeMap<JobId, usize>,
    /// Recorded: the instance each running task runs on.
    running: HashMap<TaskId, InstanceId>,
    /// Recorded: running tasks per instance, in task-id order.
    on_instance: HashMap<InstanceId, BTreeMap<TaskId, WorkloadKind>>,
    /// Replayed: where the scheduler's own plans put each task.
    placed: HashMap<TaskId, InstanceId>,
    /// Replayed: live instances the scheduler may plan with.
    live: BTreeMap<InstanceId, InstanceTypeId>,
    next_instance: u64,
    interference: InterferenceModel,
}

impl<'a> World<'a> {
    fn new(jobs: &'a [JobSpec], script: &ExecScript) -> Self {
        let index: HashMap<JobId, usize> =
            jobs.iter().enumerate().map(|(i, j)| (j.id, i)).collect();
        let mut done_at = vec![None; jobs.len()];
        for action in &script.actions {
            if let ExecActionKind::JobDone { job } = action.kind {
                if let Some(&i) = index.get(&job) {
                    done_at[i] = Some(action.at);
                }
            }
        }
        World {
            jobs,
            done_at,
            index,
            next_arrival: 0,
            active: BTreeMap::new(),
            running: HashMap::new(),
            on_instance: HashMap::new(),
            placed: HashMap::new(),
            live: BTreeMap::new(),
            next_instance: 0,
            interference: InterferenceModel::measured(&WorkloadCatalog::table7()),
        }
    }

    fn workload_of(&self, task: TaskId) -> WorkloadKind {
        let job = &self.jobs[self.index[&task.job]];
        job.tasks[task.index as usize].workload
    }

    fn admit_until(&mut self, t: SimTime) {
        while let Some(job) = self.jobs.get(self.next_arrival) {
            if job.arrival > t {
                break;
            }
            self.active.insert(job.id, self.next_arrival);
            self.next_arrival += 1;
        }
    }

    fn stop(&mut self, task: TaskId) {
        if let Some(inst) = self.running.remove(&task) {
            if let Some(set) = self.on_instance.get_mut(&inst) {
                set.remove(&task);
                if set.is_empty() {
                    self.on_instance.remove(&inst);
                }
            }
        }
    }

    fn start(&mut self, task: TaskId, instance: InstanceId) {
        self.stop(task);
        let workload = self.workload_of(task);
        self.running.insert(task, instance);
        self.on_instance
            .entry(instance)
            .or_default()
            .insert(task, workload);
    }

    fn job_done(&mut self, job: JobId) {
        let Some(&i) = self.index.get(&job) else {
            return;
        };
        for task in &self.jobs[i].tasks {
            self.stop(task.id);
            self.placed.remove(&task.id);
        }
        self.active.remove(&job);
    }

    /// Ground-truth throughput of `task` given its recorded co-runners.
    fn tput(&self, task: TaskId) -> Option<(f64, Vec<WorkloadKind>)> {
        let inst = self.running.get(&task)?;
        let others: Vec<WorkloadKind> = self.on_instance[inst]
            .iter()
            .filter(|(t, _)| **t != task)
            .map(|(_, w)| *w)
            .collect();
        let tput = self
            .interference
            .throughput(self.workload_of(task), &others);
        Some((tput, others))
    }

    /// The observations the simulator would deliver this round: jobs
    /// with at least one running task, gang-coupled jobs at the minimum
    /// of their tasks (0 unless all run), others at their first task's.
    fn observations(&self) -> Vec<JobObservation> {
        let mut out = Vec::new();
        for &i in self.active.values() {
            let spec = &self.jobs[i];
            let mut contexts = Vec::new();
            let mut min_tput = f64::INFINITY;
            let mut all_running = true;
            let mut first_tput = 0.0;
            for (pos, task) in spec.tasks.iter().enumerate() {
                match self.tput(task.id) {
                    Some((tput, others)) => {
                        if pos == 0 {
                            first_tput = tput;
                        }
                        min_tput = min_tput.min(tput);
                        contexts.push(TaskContext::new(task.id, task.workload, others));
                    }
                    None => all_running = false,
                }
            }
            if contexts.is_empty() {
                continue;
            }
            let observed_tput = if spec.gang_coupled {
                if all_running && min_tput.is_finite() {
                    min_tput
                } else {
                    0.0
                }
            } else {
                first_tput
            };
            out.push(JobObservation {
                job: spec.id,
                gang_coupled: spec.gang_coupled,
                observed_tput,
                contexts,
            });
        }
        out
    }

    /// The round's task and instance snapshots.
    fn snapshot(&self, now: SimTime) -> (Vec<TaskSnapshot>, Vec<InstanceSnapshot>) {
        let mut tasks = Vec::new();
        for &i in self.active.values() {
            let spec = &self.jobs[i];
            let remaining = match self.done_at[i] {
                Some(done) => done.duration_since(now).min(spec.duration_at_full_tput),
                None => spec.duration_at_full_tput,
            };
            for task in &spec.tasks {
                tasks.push(TaskSnapshot {
                    id: task.id,
                    workload: task.workload,
                    demand: task.demand.clone(),
                    checkpoint_delay: task.checkpoint_delay,
                    launch_delay: task.launch_delay,
                    gang_size: spec.num_tasks() as u32,
                    gang_coupled: spec.gang_coupled,
                    assigned_to: self.placed.get(&task.id).copied(),
                    remaining_hint: Some(remaining),
                });
            }
        }
        let instances = self
            .live
            .iter()
            .map(|(&id, &type_id)| InstanceSnapshot { id, type_id })
            .collect();
        (tasks, instances)
    }

    /// Applies a replayed plan the way the simulator executes one:
    /// launches get fresh ids, listed tasks move, and terminated
    /// instances not also assigned to leave the live set.
    fn apply(&mut self, plan: &Plan) {
        for a in &plan.assignments {
            let id = match a.instance {
                PlannedInstance::Existing(id) => id,
                PlannedInstance::New(ty) => {
                    let id = InstanceId(self.next_instance);
                    self.next_instance += 1;
                    self.live.insert(id, ty);
                    id
                }
            };
            for &task in &a.tasks {
                self.placed.insert(task, id);
            }
        }
        for id in &plan.terminate {
            let assigned_here = plan
                .assignments
                .iter()
                .any(|a| a.instance == PlannedInstance::Existing(*id));
            if !assigned_here {
                self.live.remove(id);
            }
        }
    }
}

/// Replays every round of `script` (a recorded run over `jobs`, which
/// must be in arrival order) through `scheduler`, recording each phase
/// call as a span under one `replay` span.
pub fn replay(
    jobs: &[JobSpec],
    script: &ExecScript,
    scheduler: &mut Replayed,
    log: &Rc<RefCell<SpanLog>>,
) -> ReplayOutcome {
    let catalog = Catalog::aws_eval_2025();
    let mut world = World::new(jobs, script);
    let mut outcome = ReplayOutcome {
        rounds: 0,
        active_per_round: Vec::new(),
        tasks: 0,
        redundant_tasks: 0,
        full_adoption: None,
    };
    let timed = |layer: Layer, f: &mut dyn FnMut()| {
        let span = log.borrow_mut().enter(layer);
        f();
        log.borrow_mut().exit(span);
    };
    let root = log.borrow_mut().enter(Layer::Replay);
    for action in &script.actions {
        world.admit_until(action.at);
        match action.kind {
            ExecActionKind::Start { task, instance, .. } => world.start(task, instance),
            ExecActionKind::Stop { task, .. } | ExecActionKind::Kill { task, .. } => {
                world.stop(task)
            }
            ExecActionKind::JobDone { job } => world.job_done(job),
            ExecActionKind::Round => {
                let span = log.borrow_mut().enter(Layer::Context);
                let observations = world.observations();
                let (tasks, instances) = world.snapshot(action.at);
                let mut classes = HashSet::new();
                let redundant = tasks
                    .iter()
                    .filter(|t| !classes.insert(class_of(t)))
                    .count();
                log.borrow_mut().exit(span);
                outcome.rounds += 1;
                outcome.active_per_round.push(world.active.len());
                outcome.tasks += tasks.len() as u64;
                outcome.redundant_tasks += redundant as u64;

                let ctx = SchedulerContext {
                    now: action.at,
                    catalog: &catalog,
                    tasks: &tasks,
                    instances: &instances,
                };
                let mut plan = Plan::empty();
                match scheduler {
                    Replayed::Eva(eva, cfg) => {
                        timed(Layer::Observe, &mut || eva.observe(&observations));
                        let mut prices = ReservationPrices::default();
                        timed(Layer::Prices, &mut || {
                            prices = ReservationPrices::compute(&catalog, tasks.iter())
                        });
                        {
                            let unit = UnitTput;
                            let tput: &dyn TputEstimator = if cfg.use_tnrp {
                                eva.monitor().table()
                            } else {
                                &unit
                            };
                            let eval = TnrpEvaluator::new(tput, &prices, cfg.multi_task_aware);
                            timed(Layer::FullPack, &mut || {
                                black_box(full_reconfiguration(&tasks, &catalog, &eval));
                            });
                            timed(Layer::Partial, &mut || {
                                black_box(partial_reconfiguration(
                                    &tasks,
                                    &instances,
                                    &catalog,
                                    &eval,
                                    cfg.refill_existing,
                                ));
                            });
                        }
                        timed(Layer::Plan, &mut || plan = eva.plan(&ctx));
                    }
                    Replayed::Stratus(stratus) => {
                        timed(Layer::BaselinePlan, &mut || plan = stratus.plan(&ctx));
                    }
                }
                timed(Layer::Apply, &mut || world.apply(&plan));
            }
        }
    }
    log.borrow_mut().exit(root);
    if let Replayed::Eva(eva, _) = scheduler {
        outcome.full_adoption = Some(eva.full_adoption_rate());
    }
    outcome
}
