use std::collections::BTreeSet;
use std::path::PathBuf;

use autoscale::prelude::{DeviceId, ServeConfig, Simulator};
use autoscale::serve::serve;
use serde::Value;

use super::*;
use crate::replica::{replay, Replayed};
use crate::trace::Tracer;

/// `BENCHMARK.json` at the repository root, found upward from the
/// `autoscale-bench` package.
fn benchmark_json() -> Value {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    loop {
        let candidate = dir.join("BENCHMARK.json");
        if candidate.is_file() {
            let text = std::fs::read_to_string(&candidate).expect("BENCHMARK.json is readable");
            return serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
        }
        assert!(
            dir.pop(),
            "no BENCHMARK.json above {}",
            env!("CARGO_MANIFEST_DIR")
        );
    }
}

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    value
        .as_object()
        .and_then(|fields| fields.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no `{key}` in {value:?}"))
}

fn text(value: &Value) -> &str {
    match value {
        Value::String(s) => s,
        other => panic!("{other:?} is not a string"),
    }
}

/// The `key` field of every entry of one of `BENCHMARK.json`'s lists.
fn declared(section: &str, key: &str) -> Vec<String> {
    let Value::Array(entries) = field(&benchmark_json(), section).clone() else {
        panic!("`{section}` is not a list");
    };
    entries
        .iter()
        .map(|e| text(field(e, key)).to_string())
        .collect()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("autoscale-benchmark-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

/// One `--smoke` measurement of a workload: its metrics and checks.
fn smoke(workload: Workload, traced: bool, trace_dir: Option<PathBuf>) -> (Vec<Metric>, Checks) {
    let options = Options {
        seed: DEFAULT_SEED,
        divisor: SMOKE_DIVISOR,
        seconds: 0.0,
        trace_dir,
    };
    let mut checks = Checks::default();
    let metrics = if traced {
        measure::per_layer(workload, &options, &mut checks)
    } else {
        measure::end_to_end(workload, &options, &mut checks)
    };
    (metrics, checks)
}

fn names_and_units(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn a_smoke_run_passes_every_check() {
    let dir = temp_dir("smoke");
    for workload in Workload::ALL {
        for traced in [false, true] {
            let (metrics, checks) = smoke(workload, traced, Some(dir.clone()));
            assert!(checks.attempted > 0);
            assert_eq!(checks.failed, 0, "{} traced={traced}", workload.name());
            assert!(!metrics.is_empty());
            for m in &metrics {
                assert!(
                    m.value.is_finite(),
                    "{} {} = {}",
                    workload.name(),
                    m.name,
                    m.value
                );
            }
        }
        // The traced run exported the sampled session as Chrome trace
        // events: parent steps and layer spans naming them.
        let path = dir.join(format!("{}.trace.json", workload.name()));
        let trace: Value =
            serde_json::from_str(&std::fs::read_to_string(&path).expect("trace written"))
                .expect("the trace is JSON");
        let Value::Array(events) = field(&trace, "traceEvents") else {
            panic!("traceEvents is not a list");
        };
        let named = |name: &str| {
            events
                .iter()
                .filter(|e| text(field(e, "name")) == name)
                .count()
        };
        assert!(named("serve.step") > 0, "{}", workload.name());
        assert!(named("engine.decide") >= named("serve.step"));
        assert!(named("serve.step") <= trace::RAW_STEPS);
        for event in events {
            assert_eq!(text(field(event, "ph")), "X");
        }
    }
    std::fs::remove_dir_all(dir).expect("temp dir is removable");
}

#[test]
fn names_are_well_formed_and_equal_the_declared_sets() {
    let well_formed = |name: &str| {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    let workloads = declared("workloads", "name");
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);

    let (end_to_end, _) = smoke(Workload::Steady, false, None);
    let (per_layer, _) = smoke(Workload::Steady, true, None);
    for (section, produced) in [("end_to_end", &end_to_end), ("per_layer", &per_layer)] {
        let mut want: Vec<(String, String)> = declared(section, "name")
            .into_iter()
            .zip(declared(section, "unit"))
            .collect();
        let mut got = names_and_units(produced);
        want.sort();
        got.sort();
        assert_eq!(got, want, "{section}");
    }
    let all: Vec<&str> = ours
        .iter()
        .map(String::as_str)
        .chain(end_to_end.iter().chain(&per_layer).map(|m| m.name))
        .collect();
    assert!(all.iter().all(|n| well_formed(n)), "{all:?}");
    assert_eq!(
        all.iter().collect::<BTreeSet<_>>().len(),
        all.len(),
        "names repeat"
    );
}

#[test]
fn the_replica_reproduces_serve_and_notices_another_seed() {
    let sim = Simulator::new(DeviceId::Mi8Pro);
    for workload in [Workload::Steady, Workload::Chaos] {
        let mix = workload.mix();
        let config = ServeConfig {
            sessions: 8,
            decisions_per_session: 2_000,
            ..workload.config(DEFAULT_SEED, 1)
        };
        let report = serve(&sim, &mix, &config, None).expect("the fleet serves");
        if workload == Workload::Chaos {
            assert!(report.total_faulted() > 0, "the resilient path ran");
        }
        let expected: Vec<Replayed> = report.sessions.iter().map(Replayed::of_report).collect();
        let replayed = replay(&sim, &mix, &config, 0..8, &mut Tracer::new(None)).expect("replays");
        assert_eq!(replayed, expected, "{}", workload.name());

        let other = ServeConfig {
            base_seed: DEFAULT_SEED + 1,
            ..config
        };
        let elsewhere = replay(&sim, &mix, &other, 0..8, &mut Tracer::new(None)).expect("replays");
        assert!(
            elsewhere
                .iter()
                .zip(&expected)
                .all(|(a, b)| a.trace_digest != b.trace_digest),
            "{}: a replica of another fleet must not match",
            workload.name()
        );
    }
}

#[test]
fn the_command_line_parses() {
    let args = |line: &str| parse_args(line.split_whitespace().map(String::from));
    let parsed = args("--workload chaos --seed 42 --seconds 20 --trace 0").expect("parses");
    assert_eq!(parsed.workloads, [Workload::Chaos]);
    assert_eq!(
        (parsed.seed, parsed.seconds, parsed.trace),
        (42, 20.0, false)
    );
    assert!(args("--trace 1").expect("parses").trace);
    assert!(args("--trace --smoke").expect("parses").trace);
    assert_eq!(args("--seed 0xf1ee7").expect("parses").seed, DEFAULT_SEED);
    assert_eq!(args("").expect("parses").workloads, Workload::ALL);
    for bad in [
        "--workload nope",
        "--seconds -1",
        "--repeat 0",
        "--seed",
        "--frobnicate",
    ] {
        assert!(args(bad).is_err(), "{bad}");
    }
}

#[test]
fn quartiles_follow_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let values: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&values), (2.75, 8.25));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn the_result_line_is_the_documented_json_object() {
    let mut checks = Checks::default();
    checks.check(true, String::new);
    let metrics = [Metric::new("setup_s", 0.000_173_2, "s")];
    let line: Value = serde_json::from_str(&result_line(&metrics, &checks)).expect("JSON");
    let keys: Vec<&str> = line
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(*field(&line, "correct"), Value::Bool(true));
    let setup = field(field(&line, "metrics"), "setup_s");
    assert_eq!(*field(setup, "value"), Value::Float(0.000_173_2));
    assert_eq!(text(field(setup, "unit")), "s");
}
