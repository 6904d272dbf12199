//! `perfbench`: the forwarding router's benchmark, driven only through
//! the workspace's public APIs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <steady|churn|vrf> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
//! metrics of `metrics.rs` when `--trace 0` and the per-layer metrics
//! when `--trace 1`. The line before it is the run's provenance. A
//! human-readable summary goes to standard error, and a full run record
//! (plus, when traced, a Chrome trace of every span) to `perfbench/out/`.
//! Any wrong answer or failed operation makes the exit code 1.

mod host;
mod inputs;
mod loadgen;
mod metrics;
mod probes;
mod run;
mod spans;

use std::io::Write;
use std::process::ExitCode;

use metrics::{json_num, json_str, END_TO_END, PER_LAYER};

fn main() -> ExitCode {
    let args = match run::Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", run::USAGE);
            return ExitCode::from(2);
        }
    };
    let outcome = match run::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let workload = args.workload.name();
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = match outcome.metrics.to_json(defs) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let correct = outcome.failed == 0;
    let provenance = host::provenance_json(
        workload,
        args.seed,
        args.trace,
        args.seconds,
        outcome.steal_share,
    );

    eprintln!(
        "perfbench {workload} seed {} trace {}",
        args.seed,
        u8::from(args.trace)
    );
    for d in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(v) = outcome.metrics.get(d.name) {
            eprintln!("  {:<28} {:>14.4} {}", d.name, v, d.unit);
        }
    }
    if !outcome.ledger.is_empty() {
        eprintln!("  ledger (ns per lookup; gap = this row minus the row above):");
        let mut above = None;
        for (row, ns, gap) in &outcome.ledger {
            let delta = above.map_or(String::new(), |a: f64| format!("{:+9.2}  {gap}", ns - a));
            eprintln!("    {row:<24} {ns:>9.2}  {delta}");
            above = Some(*ns);
        }
    }
    for (what, n) in outcome.failures.iter().filter(|f| f.1 > 0) {
        eprintln!("  FAILED: {n} {what}");
    }

    // The run record: provenance, every metric measured (both kinds),
    // the failure accounting and the ledger.
    let all: Vec<String> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .filter_map(|d| {
            let v = outcome.metrics.get(d.name)?;
            Some(format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(d.name),
                json_num(v),
                json_str(d.unit),
                json_str(d.better)
            ))
        })
        .collect();
    let failures: Vec<String> = outcome
        .failures
        .iter()
        .map(|(w, n)| format!("{}: {n}", json_str(w)))
        .collect();
    let ledger: Vec<String> = outcome
        .ledger
        .iter()
        .map(|(row, ns, gap)| {
            format!(
                "{{\"row\": {}, \"ns_per_lookup\": {}, \"gap\": {}}}",
                json_str(row),
                json_num(*ns),
                json_str(gap)
            )
        })
        .collect();
    let record = format!(
        "{{\"provenance\": {provenance}, \"attempted\": {}, \"failed\": {}, \"failures\": {{{}}}, \"metrics\": {{{}}}, \"ledger\": [{}]}}\n",
        outcome.attempted,
        outcome.failed,
        failures.join(", "),
        all.join(", "),
        ledger.join(", ")
    );
    let out = host::repo_root().join("perfbench").join("out");
    let written = std::fs::create_dir_all(&out).and_then(|()| {
        let name = format!(
            "{workload}-seed{}-trace{}.json",
            args.seed,
            u8::from(args.trace)
        );
        std::fs::write(out.join(name), record)?;
        if let Some(spans) = &outcome.spans {
            let mut f = std::io::BufWriter::new(std::fs::File::create(
                out.join(format!("{workload}.trace.json")),
            )?);
            spans.write_chrome(&mut f)?;
            f.flush()?;
            eprintln!(
                "  {} spans written to perfbench/out/{workload}.trace.json",
                spans.len()
            );
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("perfbench: writing the run record: {e}");
        return ExitCode::from(1);
    }

    println!("{{\"provenance\": {provenance}}}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.attempted, outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
