//! The command itself: every workload, untraced and traced, prints
//! exactly the metric names `BENCHMARK.json` declares for that kind of
//! run, and bad arguments exit nonzero without a result line.

use std::process::Command;

fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let body = &text[text.find(&format!("\"{section}\"")).expect("section")..];
    let body = &body[..body.find(']').expect("section end")];
    body.lines()
        .filter_map(|l| {
            let at = l.find("\"name\": \"")? + 9;
            Some(l[at..at + l[at..].find('"')?].to_string())
        })
        .collect()
}

/// The metric names of the result line, in order.
fn printed(stdout: &str) -> Vec<String> {
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    let metrics = &last[last.find("\"metrics\": {").expect("metrics") + 12..];
    metrics
        .split("}, ")
        .map(|m| {
            m.trim_start_matches('{')
                .split('"')
                .nth(1)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_prints_the_declared_metrics() {
    // `steady` is not in BENCHMARK.json (it runs by hand) but prints the
    // same metrics.
    let workloads = declared("workloads");
    assert_eq!(workloads, ["churn", "vrf"]);
    for w in ["steady", "churn", "vrf"] {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args([
                    "--workload",
                    w,
                    "--seed",
                    "5",
                    "--seconds",
                    "2",
                    "--trace",
                    trace,
                ])
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{w} trace {trace}: {}\n{stdout}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert_eq!(printed(&stdout), declared(section), "{w} trace {trace}");
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--seed", "1"],
        &["--workload", "vrf", "--seed", "x"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("run perfbench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
