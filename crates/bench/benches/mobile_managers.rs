//! Throughput of the mobile simulator under the three kill policies on
//! the Fig. 9 workload, plus the Affect-Table learning-rate ablation,
//! timed through `bench::results`.

use std::hint::black_box;
use std::time::Duration;

use bench::results::{batch, print_group, Mode};
use mobile_sim::device::DeviceConfig;
use mobile_sim::manager::PolicyKind;
use mobile_sim::monkey::MonkeyScript;
use mobile_sim::sim::{compare_policies, Simulator};
use mobile_sim::subjects::SubjectProfile;

/// Target wall-clock of one cell's batch in one round.
const TARGET: Duration = Duration::from_millis(10);

fn main() {
    let mode = Mode::from_args();
    let device = DeviceConfig::paper_emulator();
    let subject = SubjectProfile::subject3();
    let policy_workload = MonkeyScript::new(&subject, 5)
        .paper_fig9()
        .build(&device)
        .unwrap();

    // DESIGN.md §7: App Affect Table learning rate vs reload savings.
    let workload = MonkeyScript::new(&subject, 6)
        .paper_fig9()
        .build(&device)
        .unwrap();
    eprintln!("\nAffect-table EMA alpha ablation (memory saving vs fifo):");
    for alpha in [0.0f32, 0.02, 0.05, 0.1, 0.3] {
        let report =
            compare_policies(&device, &subject, &workload, PolicyKind::Fifo, alpha).unwrap();
        eprintln!(
            "  alpha {alpha:>4}: memory saving {:>5.1}%  time saving {:>5.1}%",
            report.memory_saving() * 100.0,
            report.time_saving() * 100.0
        );
    }

    let (device, subject, policy_workload) = (&device, &subject, &policy_workload);
    let mut cells = Vec::new();
    for kind in [PolicyKind::Fifo, PolicyKind::Lru, PolicyKind::Emotion] {
        cells.push((
            format!("sim_policy/{kind}"),
            batch(mode, TARGET, move || {
                let mut sim = Simulator::with_subject(device.clone(), kind, subject, 0.05).unwrap();
                sim.run(black_box(policy_workload)).unwrap()
            }),
        ));
    }
    cells.push((
        "compare_policies_alpha_0.05".into(),
        batch(mode, TARGET, || {
            compare_policies(
                device,
                subject,
                black_box(&workload),
                PolicyKind::Fifo,
                0.05,
            )
            .unwrap()
        }),
    ));
    print_group(cells);
}
