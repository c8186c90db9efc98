//! Criterion benches for the substrate components: per-network latency
//! evaluation, end-to-end simulated execution, partition pricing, DBSCAN
//! discretization and GP fitting. These bound the cost of the oracle
//! sweeps and characterization runs the experiments perform.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use autoscale::prelude::*;
use autoscale_platform::{latency, ExecutionConditions, NetworkCostTable};
use autoscale_predictors::gp::RbfKernel;
use autoscale_predictors::partition::partition_cost;
use autoscale_predictors::GaussianProcess;
use autoscale_rl::Dbscan;

fn bench_components(c: &mut Criterion) {
    let sim = Simulator::new(DeviceId::Mi8Pro);
    let net = sim.network(Workload::ResNet50);
    let cpu = sim.host().processor(ProcessorKind::Cpu).expect("phone CPU");
    let cond = ExecutionConditions::max_frequency(cpu, Precision::Fp32);

    c.bench_function("network_latency_resnet50_cpu", |b| {
        b.iter(|| latency::network_latency_ms(cpu, black_box(net), &cond))
    });

    // The uncached layer walk vs the memoized cost table, on the deepest
    // and the shallowest vision networks.
    for workload in [Workload::ResNet50, Workload::MobileNetV3] {
        let net = sim.network(workload);
        let table = NetworkCostTable::build(cpu, net, Precision::Fp32);
        let name = match workload {
            Workload::ResNet50 => "resnet50",
            _ => "mobilenet_v3",
        };
        c.bench_function(&format!("latency_uncached_{name}_cpu"), |b| {
            b.iter(|| latency::network_latency_ms(cpu, black_box(net), &cond))
        });
        c.bench_function(&format!("latency_cached_{name}_cpu"), |b| {
            b.iter(|| table.latency_ms(cpu, black_box(&cond)))
        });
    }

    c.bench_function("simulate_inference_cloud", |b| {
        let request =
            Request::at_max_frequency(&sim, Placement::Cloud(ProcessorKind::Gpu), Precision::Fp32);
        let snapshot = Snapshot::calm();
        b.iter(|| sim.execute_expected(black_box(Workload::ResNet50), &request, &snapshot))
    });

    c.bench_function("partition_sweep_resnet50", |b| {
        let cloud_gpu = sim
            .cloud()
            .processor(ProcessorKind::Gpu)
            .expect("cloud GPU");
        let link = autoscale_net::LinkModel::for_kind(autoscale_net::LinkKind::Wlan);
        b.iter(|| {
            partition_cost(
                black_box(net),
                cpu,
                &cond,
                sim.host().base_power_w(),
                cloud_gpu,
                sim.cloud().serving_overhead_ms(),
                &link,
                autoscale_net::Rssi::STRONG,
            )
        })
    });

    c.bench_function("dbscan_discretizer", |b| {
        let samples: Vec<f64> = (0..500).map(|i| (i % 97) as f64 * 1.3).collect();
        let db = Dbscan::new(5.0, 3);
        b.iter(|| db.discretizer(black_box(&samples)))
    });

    c.bench_function("gp_fit_100", |b| {
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 * 0.1]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0].sin()).collect();
        b.iter(|| GaussianProcess::fit(black_box(&xs), &ys, RbfKernel::default()))
    });
}

criterion_group!(benches, bench_components);
criterion_main!(benches);
