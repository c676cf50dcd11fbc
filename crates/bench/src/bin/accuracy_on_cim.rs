//! End-to-end accuracy check of the deployed datapath: train a model in
//! software, compile it onto ROM/SRAM CiM macros, and compare accuracy
//! through the analog simulator — the executable form of the paper's
//! "almost no accuracy loss (-0.5% ~ +0.2%)" claim, with the per-domain
//! energy split on the side.

use rand::rngs::StdRng;
use rand::SeedableRng;

use yoloc_bench::{default_workers, fmt, pct, print_table, smoke_or, WorkerPool};
use yoloc_core::compiler::{CompileOptions, CompiledNetwork};
use yoloc_core::rebranch::ReBranchRatios;
use yoloc_core::strategies::{
    build_strategy_model, pretrain_base, train_model, Strategy, TrainConfig,
};
use yoloc_core::tiny_models::{Family, TinyCnn};
use yoloc_data::classification::{TransferSuite, IMG_C, IMG_H, IMG_W};
use yoloc_tensor::loss::accuracy;
use yoloc_tensor::{Layer, Tensor};

/// Compiles a trained model's export onto the paper's ROM/SRAM macros,
/// calibrating every layer on `calibration`.
fn deploy(model: &TinyCnn, calibration: &Tensor) -> CompiledNetwork {
    let (desc, weights) = model.to_network((IMG_C, IMG_H, IMG_W));
    CompiledNetwork::compile(
        &desc,
        &weights,
        calibration,
        CompileOptions::paper_default(),
    )
    .expect("a TinyCnn export compiles")
}

fn main() {
    let seed = 404;
    let suite = TransferSuite::new(seed);
    println!("Training the software model ...");
    let base = pretrain_base(
        Family::Vgg,
        &[12, 16, 20],
        &suite.pretrain,
        smoke_or(TrainConfig::smoke(), TrainConfig::pretrain()),
        seed,
    );
    // Also deploy a ReBranch-transferred model (the real YOLoC scenario).
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let target = &suite.cifar10_like;
    let mut rb_model = build_strategy_model(
        &base,
        Strategy::ReBranch(ReBranchRatios::paper_default()),
        target.classes(),
        &mut rng,
    );
    train_model(
        &mut rb_model,
        target,
        smoke_or(TrainConfig::smoke(), TrainConfig::transfer()),
        &mut rng,
        |_| {},
    );

    // Deploy both models first, then evaluate each through the batched
    // engine on one persistent pool (per-sample RNG streams keep the
    // result independent of the worker count).
    let mut base = base;
    let (cal_base, _) = suite.pretrain.batch(16, &mut rng);
    let deployed_base = deploy(&base, &cal_base);
    let (cal_rb, _) = target.batch(16, &mut rng);
    let deployed_rb = deploy(&rb_model, &cal_rb);

    let workers = default_workers();
    let mut rows = Vec::new();
    WorkerPool::with(workers, |pool| {
        for (label, model, deployed, task) in [
            (
                "pretrained base (plain)",
                &mut base,
                &deployed_base,
                &suite.pretrain,
            ),
            (
                "ReBranch transfer (YOLoC)",
                &mut rb_model,
                &deployed_rb,
                target,
            ),
        ] {
            // The same samples through the float model and the deployment.
            let mut rng = StdRng::seed_from_u64(seed + 2);
            let (x, y) = task.batch(smoke_or(40, 300), &mut rng);
            let sw = accuracy(&model.forward(&x, false), &y);
            let (cim_logits, stats) = deployed.infer_batch(&x, seed + 2, pool);
            let cim = accuracy(&cim_logits, &y);
            rows.push(vec![
                label.to_string(),
                pct(sw as f64),
                pct(cim as f64),
                format!("{:+.1} pp", 100.0 * (cim - sw)),
                fmt(stats.rom.energy_pj / 1e6, 2),
                fmt(stats.sram.energy_pj / 1e6, 2),
            ]);
        }
    });
    print_table(
        "Accuracy through the analog CiM datapath (300 samples, batched engine)",
        &[
            "Model",
            "Software accuracy",
            "CiM accuracy",
            "Delta",
            "ROM energy (uJ/batch)",
            "SRAM energy (uJ/batch)",
        ],
        &rows,
    );
    println!(
        "\nPaper: deploying on the 8b x 8b ROM-CiM datapath costs between -0.5% \
         and +0.2% accuracy; the 5-bit ADC at 10 rows/activation is lossless, so \
         the only deviation is 8-bit quantization."
    );
}
