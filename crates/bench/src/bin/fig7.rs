//! Figure 7: prediction-based approaches leave a significant gap to Opt
//! in the presence of stochastic runtime variance.
//!
//! Part 1 reproduces the MAPE / misclassification analysis of Section
//! III-C: every predictor trained and tested with and without runtime
//! variance. Part 2 runs the predictor-driven schedulers through a
//! variance-heavy environment mix and prints PPW (normalized to
//! `Edge (CPU)`) and QoS-violation ratio against Opt.

use autoscale::characterize::{self, VarianceMode};
use autoscale::experiment;
use autoscale::prelude::*;
use autoscale::scheduler::{
    BoScheduler, FixedScheduler, OracleScheduler, Scheduler, SchedulerKind,
};
use autoscale_bench::{section, SuiteAccumulator, RUNS};

fn main() {
    let config = EngineConfig::paper();
    let sim = Simulator::new(DeviceId::Mi8Pro);

    section("prediction error with and without runtime variance");
    for mode in [VarianceMode::Calm, VarianceMode::Stochastic] {
        let errors = experiment::predictor_errors(&sim, config, mode, 11);
        println!(
            "  {:?}: LR MAPE {:.1}%  SVR MAPE {:.1}%  BO MAPE {:.1}%  SVM misclass {:.1}%  KNN misclass {:.1}%",
            mode,
            errors.lr_mape,
            errors.svr_mape,
            errors.bo_mape,
            errors.svm_misclassification,
            errors.knn_misclassification
        );
    }

    section("scheduler comparison under stochastic variance");
    let dataset = experiment::characterization_dataset(&sim, VarianceMode::Stochastic, 21);
    let ev = Evaluator::new(sim, config);
    let oracle = OracleScheduler::new(ev.sim(), config);
    let mut rng = autoscale::seeded_rng(77);

    let sim = ev.sim();
    let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(FixedScheduler::edge_cpu_fp32(sim)),
        Box::new(characterize::train_lr_scheduler(sim, &dataset, config)),
        Box::new(characterize::train_svr_scheduler(sim, &dataset, config)),
        Box::new(characterize::train_svm_scheduler(sim, &dataset, config)),
        Box::new(characterize::train_knn_scheduler(sim, &dataset, config)),
        Box::new(BoScheduler::new(sim, 40, config)),
        Box::new(OracleScheduler::new(sim, config)),
    ];

    // The variance-heavy mix: interference plus weak/random signal.
    let envs = [
        EnvironmentId::S2,
        EnvironmentId::S3,
        EnvironmentId::S4,
        EnvironmentId::D3,
    ];
    let mut acc = SuiteAccumulator::new();
    for w in Workload::ALL {
        for env in envs {
            let mut base = FixedScheduler::edge_cpu_fp32(sim);
            let baseline = ev.run(&mut base, w, env, 0, RUNS, None, &mut rng);
            for s in schedulers.iter_mut() {
                // BO gets its exploration budget as warm-up, like the paper's
                // BO baseline which optimizes before being measured.
                let warmup = if s.kind() == SchedulerKind::BayesOpt {
                    50
                } else {
                    0
                };
                let rep = ev.run(s.as_mut(), w, env, warmup, RUNS, Some(&oracle), &mut rng);
                acc.record(&rep, &baseline);
            }
        }
    }
    acc.print("Fig. 7: predictors vs Opt (PPW normalized to Edge (CPU FP32))");
}
