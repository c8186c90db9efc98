//! Extension experiment: layer partitioning applied *on top of* AutoScale
//! (the paper's Section IV footnote 4: "model partitioning at layer
//! granularity introduces additional context switching overhead ...
//! [and] is complementary to and can be applied on top of AutoScale").
//!
//! Adds three layer-split actions per model to AutoScale's action space
//! and lets Q-learning decide whether they ever pay. On this testbed —
//! as the paper's own model-granularity choice predicts — whole-model
//! targets dominate (the compressed camera frame on the wire is smaller
//! than any mid-network FP32 activation), so the hybrid matches but does
//! not beat pure AutoScale, and learns to leave the split actions alone.

use autoscale::experiment;
use autoscale::prelude::*;
use autoscale::scheduler::{AutoScaleScheduler, FixedScheduler, HybridScheduler};
use autoscale_bench::{mean, section, RUNS, TRAIN_RUNS, WARMUP};

fn main() {
    let config = EngineConfig::paper();
    let sim = Simulator::new(DeviceId::Mi8Pro);
    let ev = Evaluator::new(sim, config);
    let envs = [EnvironmentId::S1, EnvironmentId::S3, EnvironmentId::S4];

    section("pure AutoScale vs partition-augmented AutoScale (Mi8Pro)");

    // Pure AutoScale.
    let engine =
        experiment::train_engine(ev.sim(), &Workload::ALL, &envs, TRAIN_RUNS * 4, config, 7);

    // Hybrid: same training schedule over the augmented action space.
    let mut hybrid = HybridScheduler::new(ev.sim(), 3, 7, config);
    let mut rng = autoscale::seeded_rng(9);
    for w in Workload::ALL {
        for env in envs {
            let _ = ev.run(&mut hybrid, w, env, 0, TRAIN_RUNS * 4, None, &mut rng);
        }
    }

    let mut pure_ppws = Vec::new();
    let mut hybrid_ppws = Vec::new();
    let mut pure_qos = Vec::new();
    let mut hybrid_qos = Vec::new();
    for w in Workload::ALL {
        for env in envs {
            let mut base = FixedScheduler::edge_cpu_fp32(ev.sim());
            let baseline = ev.run(&mut base, w, env, 0, RUNS, None, &mut rng);
            let mut pure = AutoScaleScheduler::new(engine.clone());
            let rep = ev.run(&mut pure, w, env, WARMUP, RUNS, None, &mut rng);
            pure_ppws.push(rep.normalized_ppw(&baseline));
            pure_qos.push(rep.qos_violation_ratio);
            let rep = ev.run(&mut hybrid, w, env, WARMUP, RUNS, None, &mut rng);
            hybrid_ppws.push(rep.normalized_ppw(&baseline));
            hybrid_qos.push(rep.qos_violation_ratio);
        }
    }
    println!(
        "  pure AutoScale (66 actions):        PPW {:>5.2}x  QoS viol. {:>4.1}%",
        mean(&pure_ppws),
        mean(&pure_qos) * 100.0
    );
    println!(
        "  hybrid AutoScale (66+3 actions):    PPW {:>5.2}x  QoS viol. {:>4.1}%",
        mean(&hybrid_ppws),
        mean(&hybrid_qos) * 100.0
    );
    println!(
        "  partition actions in calm greedy decisions: {:.0}%",
        hybrid.partition_share(ev.sim()) * 100.0
    );
    println!(
        "\nReading: the hybrid matches pure AutoScale and learns to ignore the\n\
         split actions — consistent with the paper's choice of model-granularity\n\
         offloading and with NeuroSurgeon/MOSAIC trailing in Fig. 9."
    );
}
