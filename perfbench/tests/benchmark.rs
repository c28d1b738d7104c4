//! The benchmark's own test: every workload, shrunk, runs once with one
//! host pool worker and once with the default worker count. The
//! simulated-clock metrics must agree exactly, every result must pass the
//! correctness gate, and every printed metric name and unit must match
//! `BENCHMARK.json`.

use hcj_perfbench::{run, Opts, Report, Size, WORKLOADS};

/// The string value of `"key": "..."` inside one JSON object's text.
fn field(object: &str, key: &str) -> Option<String> {
    let at = object.find(&format!("\"{key}\":"))?;
    let rest = &object[at + key.len() + 3..];
    let start = rest.find('"')? + 1;
    let end = start + rest[start..].find('"')?;
    Some(rest[start..end].to_string())
}

/// `(name, unit)` of every metric declared in `section` of the manifest.
fn declared(manifest: &str, section: &str) -> Vec<(String, String)> {
    let at = manifest.find(&format!("\"{section}\":")).expect("section present");
    let body = &manifest[at..];
    let body = &body[body.find('[').expect("a list")..body.find(']').expect("a closed list")];
    body.split('}').filter_map(|o| Some((field(o, "name")?, field(o, "unit")?))).collect()
}

fn printed(report: &Report) -> Vec<(String, String)> {
    report.metrics().iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
}

fn run_small(workload: &str, trace: bool) -> Report {
    let opts =
        Opts { workload: workload.to_string(), seed: 3, seconds: 0.0, trace, size: Size::Small };
    let report = run(&opts).expect("a known workload");
    assert!(report.correct(), "{workload}: {:?}", report.verdict.wrong);
    assert!(report.result_line().starts_with("{\"correct\": true, \"attempted\": "));
    report
}

#[test]
fn shrunk_workloads_repeat_across_pool_sizes_and_match_the_manifest() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let end_to_end = declared(&manifest, "end_to_end");
    let per_layer = declared(&manifest, "per_layer");
    let workloads: Vec<String> = manifest
        .split("\"workloads\":")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .map(|list| list.split('}').filter_map(|o| field(o, "name")).collect())
        .expect("a workload list");
    assert_eq!(workloads, WORKLOADS);

    for workload in WORKLOADS {
        let mut simulated = Vec::new();
        for jobs in [1, hcj_host::pool::default_jobs()] {
            hcj_host::pool::set_jobs(jobs);
            let report = run_small(workload, false);
            assert_eq!(report.jobs, jobs);
            assert_eq!(printed(&report), end_to_end, "{workload}: end-to-end metrics");
            simulated.push(
                report
                    .end_to_end
                    .iter()
                    .filter(|m| m.name.starts_with("sim_") || m.name == "correct_share")
                    .map(|m| (m.name, m.value))
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(simulated[0], simulated[1], "{workload}: simulated metrics differ by pool size");
        let traced = run_small(workload, true);
        assert_eq!(printed(&traced), per_layer, "{workload}: per-layer metrics");
        assert!(traced.spans_json.as_deref().is_some_and(|s| s.contains("\"name\": \"pass\"")));
    }
}
