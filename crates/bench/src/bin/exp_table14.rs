//! Table 14: full Alibaba-trace simulation (Gavel durations).

use eva_bench::{is_full_scale, run_and_print, save_json, scheduler_set};
use eva_workloads::{AlibabaTraceConfig, DurationModelChoice};

fn main() {
    let mut cfg = AlibabaTraceConfig::full(DurationModelChoice::Gavel);
    if !is_full_scale() {
        cfg.num_jobs = 1200;
    }
    let trace = cfg.generate(14);
    let reports = run_and_print(
        &trace,
        scheduler_set(),
        "Table 14: Alibaba trace, Gavel durations",
    );
    save_json("table14.json", &reports);
}
