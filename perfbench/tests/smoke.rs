//! Tiny-size smoke test: every workload named in `BENCHMARK.json`
//! runs, checks its outputs, and emits exactly the metrics the file
//! names — the end-to-end set untraced, the per-layer set traced.

use std::process::Command;

/// The string values of every `"name": "<value>"` inside the JSON array
/// that follows `"<section>":` in `doc`.
fn names_in(doc: &str, section: &str) -> Vec<String> {
    let start = doc
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}`"));
    let body = &doc[start..];
    let end = body.find(']').expect("section is an array");
    body[..end]
        .split("\"name\"")
        .skip(1)
        .map(|rest| {
            let v = rest.split('"').nth(1).expect("name is a string");
            v.to_string()
        })
        .collect()
}

/// Metric names of a result line, in output order.
fn metric_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\":{").expect("result has metrics") + 11..];
    metrics
        .split("\"value\":")
        .filter_map(|chunk| chunk.rsplit_once(":{").map(|(head, _)| head))
        .map(|head| {
            head.rsplit('"')
                .nth(1)
                .expect("metric name is quoted")
                .to_string()
        })
        .collect()
}

#[test]
fn every_named_metric_is_emitted() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let workloads = names_in(&doc, "workloads");
    assert!(workloads.len() >= 2);
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let mut want = names_in(&doc, section);
        want.sort();
        for w in &workloads {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", w, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--tiny"])
                .output()
                .expect("benchmark binary runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{w} trace={trace} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\":true,"), "{last}");
            let mut got = metric_names(last);
            got.sort();
            assert_eq!(got, want, "{w} trace={trace}");
            assert!(
                !last.contains("\"value\":-1"),
                "non-finite metric in {last}"
            );
        }
    }
}
