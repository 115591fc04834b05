//! The smoke mode runs every workload at tiny size, untraced and traced;
//! its output must name every metric `BENCHMARK.json` lists, with the
//! unit listed there and a sample count, and end each run with a result
//! line carrying exactly the listed metrics.

use std::process::Command;

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed(json: &str, list: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let at = entry
                    .find(&format!("\"{key}\": \""))
                    .expect("field present")
                    + key.len()
                    + 5;
                entry[at..entry[at..].find('"').unwrap() + at].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn smoke_output_names_every_metric_with_unit_and_count() {
    let manifest = env!("CARGO_MANIFEST_DIR");
    let spec = std::fs::read_to_string(format!("{manifest}/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let end_to_end = listed(&spec, "end_to_end");
    let per_layer = listed(&spec, "per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));

    let out = Command::new(env!("CARGO_BIN_EXE_machtlb-perfbench"))
        .arg("--smoke")
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "smoke failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines.len(),
        16,
        "a detail and a result line per workload and mode"
    );

    for pair in lines.chunks(2) {
        let (detail, result) = (pair[0], pair[1]);
        let traced = detail.contains("\"trace\": 1");
        let expected = if traced { &per_layer } else { &end_to_end };
        for (name, unit) in expected {
            let key = format!("\"{name}\": {{\"value\": ");
            let at = detail
                .find(&key)
                .unwrap_or_else(|| panic!("detail line lacks {name}: {detail}"));
            let entry = &detail[at..at + detail[at..].find('}').unwrap()];
            assert!(
                entry.contains(&format!("\"unit\": \"{unit}\"")),
                "{name}: unit {unit}: {entry}"
            );
            assert!(entry.contains("\"n\": "), "{name}: sample count: {entry}");
            assert!(result.contains(&key), "result line lacks {name}");
        }
        assert_eq!(
            result.matches("\"value\"").count(),
            expected.len(),
            "result line carries exactly the listed metrics: {result}"
        );
        assert!(
            result.starts_with("{\"correct\": true, \"attempted\": "),
            "{result}"
        );
        assert!(detail.contains("\"fail_pct\""), "fail share in every run");
        assert_eq!(
            detail.contains("\"paper_err_pct\""),
            detail.contains("\"workload\": \"paper-16\""),
            "paper_err_pct only where the paper has numbers"
        );
        for (tag, rank) in [("p50", 0.5), ("p90", 0.9)] {
            let key = format!("\"shoot_us.{tag}\": {{");
            let entry = &detail[detail.find(&key).unwrap()..];
            let entry = &entry[..entry.find('}').unwrap()];
            let num = |k: &str| -> f64 {
                let at = entry.find(&format!("\"{k}\": ")).unwrap() + k.len() + 4;
                entry[at..]
                    .split([',', '}'])
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap()
            };
            let supported = entry.contains("\"tail_supported\": true");
            assert_eq!(supported, num("beyond") >= 10.0, "{entry}");
            assert!(num("beyond") <= num("n") * (1.0 - rank) + 1.0, "{entry}");
        }
    }
}
