//! The dense baseline of a warm fleet, shared by the integration tests
//! that compare it with `serve()` or measure it.

use autoscale::prelude::*;
use autoscale::serve::{session_seed, session_specs, FleetStoreStats};
use autoscale_rl::{QLearningAgent, QStoreKind};

/// The closed-loop fleet `serve(sim, mix, config, Some(warm))` runs,
/// with every session on a private dense clone of `warm` instead of an
/// overlay over one shared base. Like `serve()`, it spawns every session
/// from one template engine. Sessions run in order on the calling
/// thread; no latency is recorded.
pub fn dense_warm_fleet(
    sim: &Simulator,
    mix: &ScenarioMix,
    config: &ServeConfig,
    warm: &QLearningAgent,
) -> ServeReport {
    assert!(
        config.openloop.is_none(),
        "the dense baseline is closed-loop"
    );
    let mut store = FleetStoreStats {
        qstore: QStoreKind::Dense,
        private_bytes: 0,
        shared_bytes: 0,
        overlay_rows: 0,
        max_session_private_bytes: 0,
    };
    let template = AutoScaleEngine::new(sim, config.engine);
    let sessions = session_specs(mix, config)
        .into_iter()
        .enumerate()
        .map(|(index, spec)| {
            let run = DeviceSession::spawn(
                sim,
                spec,
                &template,
                Some(warm.clone()),
                session_seed(config.base_seed, index),
                config.faults,
            )
            .expect("the warm start fits the device")
            .run(false, None)
            .expect("warm fleets never error");
            store.private_bytes += run.store.private_bytes;
            store.max_session_private_bytes =
                store.max_session_private_bytes.max(run.store.private_bytes);
            run.report
        })
        .collect();
    ServeReport {
        sessions,
        latencies_ns: Vec::new(),
        store,
        traffic: None,
    }
}
