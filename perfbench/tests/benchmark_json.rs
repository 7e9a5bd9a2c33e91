//! `BENCHMARK.json` at the repository root lists exactly the metrics the
//! benchmark prints, with the same units.

use photon_perfbench::record::per_layer_metrics;
use photon_perfbench::runner::END_TO_END;

/// `(name, unit)` of every metric object in the `key` array.
fn listed(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array end")];
    let field = |obj: &str, name: &str| -> String {
        let at = obj.find(&format!("\"{name}\"")).expect("field") + name.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("value start") + 1;
        let close = open + rest[open..].find('"').expect("value end");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn benchmark_json_matches_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let per_layer: Vec<(String, String)> = per_layer_metrics()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed(&json, "per_layer"), per_layer);
    let end_to_end: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed(&json, "end_to_end"), end_to_end);
}
