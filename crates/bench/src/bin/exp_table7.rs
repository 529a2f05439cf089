//! Table 7: workload inventory.

use eva_workloads::WorkloadCatalog;

fn main() {
    println!("== Table 7: evaluated workloads ==");
    println!(
        "{:<12} {:<28} {:>4} {:>9} {:>8} {:>6} {:>7} {:>6}",
        "Workload", "Domain", "GPU", "CPU(P3)", "CPU(c7i)", "RAM", "Ckpt", "Launch"
    );
    for w in WorkloadCatalog::table7().iter() {
        let d = &w.demand;
        println!(
            "{:<12} {:<28} {:>4} {:>9} {:>8} {:>4}GB {:>6.0}s {:>5.0}s   ({} task{}{})",
            w.name,
            w.domain,
            d.default.gpu,
            d.default.cpu,
            d.for_family("c7i").cpu,
            d.default.ram_mb / 1024,
            w.checkpoint_delay.as_secs_f64(),
            w.launch_delay.as_secs_f64(),
            w.num_tasks,
            if w.num_tasks > 1 { "s" } else { "" },
            if w.gang_coupled { ", gang-coupled" } else { "" },
        );
    }
}
