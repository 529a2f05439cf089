//! Table 13: full Alibaba-trace simulation (Alibaba durations).

use eva_bench::{is_full_scale, run_and_print, save_json, scheduler_set};
use eva_workloads::{AlibabaTraceConfig, DurationModelChoice};

fn main() {
    let mut cfg = AlibabaTraceConfig::full(DurationModelChoice::Alibaba);
    if !is_full_scale() {
        cfg.num_jobs = 2000;
    }
    let trace = cfg.generate(13);
    let reports = run_and_print(
        &trace,
        scheduler_set(),
        "Table 13: Alibaba trace, Alibaba durations",
    );
    save_json("table13.json", &reports);
}
