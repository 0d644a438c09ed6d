//! Metric names are well-formed and match `BENCHMARK.json`.

use e2ebench::output::{result_line, Metric, END_TO_END, PER_LAYER};
use e2ebench::specs::WORKLOADS;

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_metric_and_workload_name_is_well_formed_and_unique() {
    let mut seen = std::collections::BTreeSet::new();
    let names = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|(n, _)| *n)
        .chain(WORKLOADS.iter().map(|w| w.name()));
    for name in names {
        assert!(well_formed(name), "bad name `{name}`");
        assert!(seen.insert(name), "duplicate name `{name}`");
    }
}

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the harness");
    let doc = serde_json::from_str_value(&text).expect("BENCHMARK.json parses");
    let field = |v: &serde_json::Value, k: &str| match v {
        serde_json::Value::Object(o) => match o.iter().find(|(n, _)| n == k) {
            Some((_, serde_json::Value::String(s))) => s.clone(),
            _ => String::new(),
        },
        _ => String::new(),
    };
    let serde_json::Value::Object(top) = &doc else {
        panic!("not an object")
    };
    let Some((_, serde_json::Value::Array(items))) = top.iter().find(|(k, _)| k == section) else {
        panic!("no `{section}`")
    };
    items
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_reported_metrics() {
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), table(&END_TO_END));
    assert_eq!(declared("per_layer"), table(&PER_LAYER));
    let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn the_result_line_has_exactly_the_contract_keys() {
    let line = result_line(
        true,
        3,
        0,
        &[Metric {
            name: "setup_s",
            unit: "s",
            value: 0.25,
        }],
    );
    assert_eq!(
        line,
        r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#
    );
}
