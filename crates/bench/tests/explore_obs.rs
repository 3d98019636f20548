//! End-to-end checks of `explore`'s observability flags: two identical
//! sweep runs must produce byte-identical metric snapshots once the
//! wall-clock fields are zeroed, and `--trace-out` must emit well-formed
//! NDJSON spans plus a collapsed-stack file covering the solve path.

use std::path::{Path, PathBuf};
use std::process::Command;

use vstack_bench::obs::zero_wallclock;
use vstack_engine::json::Json;

fn run_explore(dir: &Path, tag: &str) -> (PathBuf, PathBuf) {
    let trace = dir.join(format!("trace-{tag}.ndjson"));
    let metrics = dir.join(format!("metrics-{tag}.json"));
    let output = Command::new(env!("CARGO_BIN_EXE_explore"))
        .args([
            "--sweep",
            "4",
            "--layers",
            "2",
            "--quick",
            "--imbalance",
            "0.6",
        ])
        .arg("--trace-out")
        .arg(&trace)
        .arg("--metrics-out")
        .arg(&metrics)
        // One worker: span→thread assignment (and hence the NDJSON span
        // order) is deterministic only without pool work-stealing.
        .env("VSTACK_THREADS", "1")
        .output()
        .expect("run explore");
    assert!(
        output.status.success(),
        "explore failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    (trace, metrics)
}

#[test]
fn repeated_sweeps_yield_identical_canonical_snapshots() {
    let dir = std::env::temp_dir().join(format!("vstack-explore-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");

    let (trace_a, metrics_a) = run_explore(&dir, "a");
    let (_, metrics_b) = run_explore(&dir, "b");

    // Identical runs → byte-identical snapshots modulo timestamps.
    let mut snapshots = [metrics_a, metrics_b].map(|p| {
        let text = std::fs::read_to_string(p).expect("read metrics");
        Json::parse(&text).expect("metrics snapshot parses")
    });
    for snapshot in &mut snapshots {
        assert_eq!(
            snapshot.get("schema").and_then(Json::as_str),
            Some("vstack-obs-metrics/1")
        );
        zero_wallclock(snapshot);
    }
    let [a, b] = snapshots;
    assert_eq!(a.emit(), b.emit(), "canonical snapshots must be identical");

    // The sweep actually exercised the stack the counters claim to cover.
    let counters = a.get("counters").expect("counters");
    let counter = |k: &str| counters.get(k).and_then(Json::as_usize).unwrap();
    assert_eq!(counter("engine_requests"), 4);
    assert!(counter("cg_solves") > 0);
    assert!(counter("solver_iterations") > 0);
    assert!(counter("pdn_solves") > 0);

    // NDJSON trace: one well-formed span object per line.
    let ndjson = std::fs::read_to_string(&trace_a).expect("read trace");
    assert!(!ndjson.is_empty(), "trace must record spans");
    let mut names = std::collections::BTreeSet::new();
    for line in ndjson.lines() {
        let span = Json::parse(line).expect("span line parses");
        for field in [
            "name", "stack", "thread", "seq", "depth", "start_us", "dur_us",
        ] {
            assert!(span.get(field).is_some(), "span missing {field}: {line}");
        }
        names.insert(span.get("name").and_then(Json::as_str).unwrap().to_string());
    }
    for expected in [
        "engine_batch",
        "scenario_solve",
        "pdn_solve",
        "cg_solve",
        "em_lifetimes",
    ] {
        assert!(names.contains(expected), "no {expected} span in {names:?}");
    }

    // Collapsed stacks: `frame;frame <self_us>` lines, flamegraph-ready,
    // rooted at the engine batch.
    let folded = std::fs::read_to_string(trace_a.with_extension("ndjson.folded"))
        .expect("read folded stacks");
    for line in folded.lines() {
        let (stack, value) = line.rsplit_once(' ').expect("folded line shape");
        assert!(!stack.is_empty());
        value.parse::<u64>().expect("folded value is integer µs");
    }
    assert!(
        folded.lines().any(|l| l.starts_with("engine_batch;")),
        "folded output must nest under engine_batch:\n{folded}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
