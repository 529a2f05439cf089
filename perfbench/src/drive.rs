//! Stepping one world to completion, with tracing off or on.
//!
//! Both modes call only `ClusterSim`'s public API. The untraced pass
//! reads one clock per `step()` so each round's host latency is known;
//! the traced pass wraps every call in a span and additionally records
//! the control-plane script the phase replay rebuilds rounds from.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use eva_sim::{ClusterSim, ExecScript, SimReport};

use crate::spans::{Layer, SpanLog};
use crate::workload::Workload;

/// One untraced pass.
#[derive(Debug)]
pub struct Pass {
    /// The finalized report.
    pub report: SimReport,
    /// `audit_slots()` after the last step.
    pub audit: Result<(), String>,
    /// `rounds_executed()` at the end.
    pub rounds: u64,
    /// Host latency of every round step, milliseconds, in round order.
    pub round_ms: Vec<f64>,
    /// Set-up time: generation or source set-up plus world construction.
    pub setup_s: f64,
    /// Whole pass: set-up, every step and finalization.
    pub wall_s: f64,
}

/// Sets up `workload` and runs it to completion with tracing off.
pub fn untraced_pass(workload: Workload, seed: u64) -> Pass {
    let start = Instant::now();
    let mut sim = workload.build(seed, None);
    let setup_s = start.elapsed().as_secs_f64();
    let mut round_ms = Vec::new();
    let mut rounds = sim.rounds_executed();
    let mut prev = Instant::now();
    loop {
        let more = sim.step();
        let now = Instant::now();
        if !more {
            break;
        }
        let r = sim.rounds_executed();
        if r != rounds {
            rounds = r;
            round_ms.push(now.duration_since(prev).as_secs_f64() * 1e3);
        }
        prev = now;
    }
    let audit = sim.audit_slots();
    let report = sim.run();
    Pass {
        report,
        audit,
        rounds,
        round_ms,
        setup_s,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Set-up time alone: builds a world and drops it unstepped.
pub fn setup_only(workload: Workload, seed: u64) -> f64 {
    let start = Instant::now();
    let sim = workload.build(seed, None);
    let secs = start.elapsed().as_secs_f64();
    drop(sim);
    secs
}

/// What a traced pass observed besides its spans.
#[derive(Debug)]
pub struct Traced {
    /// The finalized report.
    pub report: SimReport,
    /// `audit_slots()` after the last step.
    pub audit: Result<(), String>,
    /// `rounds_executed()` at the end.
    pub rounds: u64,
    /// `active_jobs()` sampled right after every round step.
    pub active_per_round: Vec<usize>,
    /// Highest `live_job_slots()` seen at a round.
    pub live_job_slots_peak: usize,
    /// `events_scheduled()` once drained.
    pub events_scheduled: u64,
    /// `event_queue_peak()` once drained.
    pub queue_peak: usize,
    /// The recorded control-plane script.
    pub script: ExecScript,
}

/// Runs a built world to completion, recording every `step()` as a
/// `sim.event` or `sim.round` span and `run()` as `sim.finalize`.
pub fn traced_steps(mut sim: ClusterSim, log: &Rc<RefCell<SpanLog>>) -> Traced {
    sim.enable_recording();
    let mut active_per_round = Vec::new();
    let mut live_job_slots_peak = 0;
    let mut rounds = sim.rounds_executed();
    loop {
        let span = log.borrow_mut().enter(Layer::Event);
        if !sim.step() {
            log.borrow_mut().discard(span);
            break;
        }
        let r = sim.rounds_executed();
        if r == rounds {
            log.borrow_mut().exit(span);
            continue;
        }
        log.borrow_mut().exit_as(span, Layer::Round);
        rounds = r;
        active_per_round.push(sim.active_jobs());
        live_job_slots_peak = live_job_slots_peak.max(sim.live_job_slots());
    }
    let audit = sim.audit_slots();
    let events_scheduled = sim.events_scheduled();
    let queue_peak = sim.event_queue_peak();
    let script = sim.take_script();
    let span = log.borrow_mut().enter(Layer::Finalize);
    let report = sim.run();
    log.borrow_mut().exit(span);
    Traced {
        report,
        audit,
        rounds,
        active_per_round,
        live_job_slots_peak,
        events_scheduled,
        queue_peak,
        script,
    }
}

/// Sets up `workload` and runs it to completion with every layer call
/// recorded under one `bench.pass` span. Returns the pass's wall time.
pub fn traced_pass(workload: Workload, seed: u64, log: &Rc<RefCell<SpanLog>>) -> (Traced, f64) {
    let start = Instant::now();
    let pass = log.borrow_mut().enter(Layer::Pass);
    let sim = workload.build(seed, Some(log));
    let traced = traced_steps(sim, log);
    log.borrow_mut().exit(pass);
    (traced, start.elapsed().as_secs_f64())
}
