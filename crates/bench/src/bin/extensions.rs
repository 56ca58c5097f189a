//! §8 future-work study: temperature-triggered migration and wearout.
//!
//! Compares fixed placement vs hot-to-cold migration on a
//! half-loaded CMP: throughput, peak temperature, and per-core aging.

use cmpsim::{app_pool, Workload};
use vasched::experiments::Context;
use vasched::extensions::{run_thermal_trial, MigrationConfig};
use vasched::manager::{ManagerSpec, PowerBudget};
use vasched::runtime::RuntimeConfig;
use vasched::sched::SchedulerSpec;
use vasp_bench::harness::Harness;
use vastats::SimRng;

fn main() {
    let h = Harness::from_args();
    let ctx = Context::new(h.scale().grid);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let threads = 10; // half load: idle cores exist to migrate onto
    let budget = PowerBudget::high_performance(threads);
    let runtime = RuntimeConfig::builder()
        .duration_ms(h.scale().duration_ms.max(200.0))
        .os_interval_ms(100.0)
        .build()
        .expect("bench timeline is valid");

    println!(
        "{:<22} {:>10} {:>12} {:>12} {:>12} {:>11}",
        "policy", "MIPS", "peak T (C)", "max aging", "mean aging", "migrations"
    );
    for (label, migration) in [
        ("fixed placement", None),
        (
            "migrate on 5 K gap",
            Some(MigrationConfig::default_policy()),
        ),
        (
            "migrate on 1 K gap",
            Some(MigrationConfig {
                interval_ms: 10.0,
                trigger_k: 1.0,
            }),
        ),
    ] {
        let mut mips = 0.0;
        let mut peak = 0.0;
        let mut max_aging = 0.0;
        let mut mean_aging = 0.0;
        let mut migrations = 0usize;
        for trial in 0..h.scale().trials {
            let seed = h.seed().wrapping_add(trial as u64 * 101);
            let mut rng = SimRng::seed_from(seed);
            let die = ctx.make_die(&mut rng);
            let mut machine = ctx.make_machine(&die);
            let workload = Workload::draw(&pool, threads, &mut rng);
            let out = run_thermal_trial(
                &mut machine,
                &workload,
                SchedulerSpec::VarFAppIpc,
                ManagerSpec::None,
                budget,
                &runtime,
                migration,
                &mut rng,
            )
            .expect("thermal trial config is valid");
            mips += out.mips;
            peak += out.peak_temp_k - 273.15;
            max_aging += out.max_aging_s;
            mean_aging += out.mean_aging_s;
            migrations += out.migrations;
        }
        let n = h.scale().trials as f64;
        println!(
            "{label:<22} {:>10.0} {:>12.1} {:>12.4} {:>12.4} {:>11}",
            mips / n,
            peak / n,
            max_aging / n,
            mean_aging / n,
            migrations / h.scale().trials
        );
    }
    println!("\n(aging in nominal-equivalent seconds at 95 C / 1 V; chip lifetime");
    println!(" tracks the max-aging column — migration trades locality for it)");

    println!("\n== workload-mix sensitivity (VarF&AppIPC+LinOpt vs Random+Foxton*, 16 threads) ==");
    println!("{:<16} {:>14}", "mix", "relative MIPS");
    for (name, ratio) in vasched::experiments::ablation::mix_sensitivity(h.scale(), h.seed()) {
        println!("{name:<16} {ratio:>14.4}");
    }
    println!("(variation-aware gains feed on heterogeneity: homogeneous mixes");
    println!(" should sit closer to 1.0 than the paper's balanced draw)");
}
