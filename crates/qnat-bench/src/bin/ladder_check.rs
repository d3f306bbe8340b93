//! Smoke check: the Table-1 accuracy ladder on one cell.

use qnat_bench::harness::*;
use qnat_data::dataset::Task;
use qnat_noise::presets;
use std::time::Instant;

fn main() {
    let cfg = RunConfig::default();
    let device = presets::yorktown();
    let arch = ArchSpec::u3cu3(2, 2);
    for task in [Task::Mnist2, Task::Mnist4] {
        let t0 = Instant::now();
        println!(
            "== {} on {} ({}) ==",
            task.name(),
            device.name(),
            arch.label()
        );
        for arm in Arm::all() {
            let t1 = Instant::now();
            let (qnn, ds, report) = train_arm(task, arch, &device, arm, &cfg);
            let clean = eval_noise_free(&qnn, &ds, arm, &cfg);
            let hw = eval_on_hardware(&qnn, &ds, &device, arm, &cfg, 2);
            println!(
                "{:16} train_acc {:.3}  noise-free {:.3}  hardware {:.3}   ({:.1}s)",
                arm.label(),
                report.history.last().unwrap().train_acc,
                clean,
                hw,
                t1.elapsed().as_secs_f32()
            );
        }
        println!("cell total {:.1}s", t0.elapsed().as_secs_f32());
    }
}
