//! Table 11: 32-job end-to-end experiment with all five schedulers.

use eva_bench::{run_and_print, save_json, scheduler_set};
use eva_workloads::SyntheticTraceConfig;

fn main() {
    let trace = SyntheticTraceConfig::small_scale().generate(11);
    let reports = run_and_print(&trace, scheduler_set(), "Table 11: 32-job end-to-end");
    save_json("table11.json", &reports);
}
