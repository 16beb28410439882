use hswx_benchmark::json::{self, Json};
use hswx_benchmark::metrics::{end_to_end, per_layer, Metric};
use hswx_benchmark::run::Summary;
use hswx_benchmark::units::Workload;
use std::path::Path;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .expect(section)
        .arr()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(metrics: Vec<Metric>) -> Vec<(String, String)> {
    metrics
        .into_iter()
        .map(|m| (m.name, m.unit.to_string()))
        .collect()
}

#[test]
fn every_metric_name_and_unit_is_well_formed() {
    let s = Summary::default();
    let all = emitted(end_to_end(&s).into_iter().chain(per_layer(&s)).collect());
    for (name, unit) in &all {
        assert!(
            name.len() <= 64
                && name
                    .bytes()
                    .all(|c| c.is_ascii_alphanumeric() || b"_.-".contains(&c))
        );
        assert!(
            name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "{name}"
        );
        assert!(
            unit.len() <= 16
                && unit
                    .bytes()
                    .all(|c| c.is_ascii_alphanumeric() || b"_/%.-".contains(&c))
        );
        assert_eq!(
            all.iter().filter(|(n, _)| n == name).count(),
            1,
            "{name} is reported twice"
        );
    }
}

#[test]
fn emitted_metrics_are_the_declared_ones() {
    let s = Summary::default();
    assert_eq!(emitted(end_to_end(&s)), declared("end_to_end"));
    assert_eq!(emitted(per_layer(&s)), declared("per_layer"));
}

#[test]
fn benchmark_json_declares_the_workloads_and_bounds() {
    let b = benchmark_json();
    let names: Vec<&str> = b
        .get("workloads")
        .expect("workloads")
        .arr()
        .iter()
        .filter_map(|w| w.get("name")?.str())
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
    let bounds: Vec<(&str, f64)> = b
        .get("end_to_end")
        .expect("end_to_end")
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::str).unwrap(),
                m.get("bound").and_then(Json::num).unwrap(),
            )
        })
        .collect();
    let setup = bounds.iter().find(|b| b.0 == "setup_s").expect("setup_s").1;
    for (name, bound) in bounds {
        assert!(
            bound > 0.0 && bound <= 0.25 && bound <= setup,
            "{name}: {bound}"
        );
    }
}
