//! The benchmark's own checks: every workload prints every metric that
//! `BENCHMARK.json` names, a wrong answer is counted as a failed
//! operation, and inputs are a pure function of the seed.

use osd_perfbench::gen;
use osd_perfbench::report;
use osd_perfbench::session::{self, Outcome, RunOptions};
use osd_perfbench::workload::{self, Workload};
use std::path::{Path, PathBuf};

/// The entries of one list in `BENCHMARK.json`, as raw text.
fn entries(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split('{').skip(1).map(str::to_string).collect()
}

/// The string value of `key` in one entry.
fn field(entry: &str, key: &str) -> String {
    let at = entry.find(&format!("\"{key}\"")).expect("key present");
    let rest = &entry[at + key.len() + 2..];
    let open = rest.find('"').expect("string value") + 1;
    let close = rest[open..].find('"').expect("closed string") + open;
    rest[open..close].to_string()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    entries(section)
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

fn options(seed: u64, trace: bool, corrupt: bool) -> RunOptions {
    RunOptions {
        seed,
        seconds: 0.6,
        trace,
        corrupt,
        work_dir: PathBuf::new(),
    }
}

fn small_run(w: &Workload, seed: u64, trace: bool, corrupt: bool) -> Outcome {
    let work_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{}-{trace}-{corrupt}", w.name));
    let opts = RunOptions {
        work_dir: work_dir.clone(),
        ..options(seed, trace, corrupt)
    };
    let out = session::run(w, &opts).expect("small run sets up");
    let _ = std::fs::remove_dir_all(&work_dir);
    out
}

fn assert_reports(out: &Outcome, section: &str) {
    let want = declared(section);
    let got: Vec<(String, String)> = out
        .metrics
        .iter()
        .filter(|m| m.gated)
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(got, want, "{section} metrics and units");
    let json = report::result_json(out);
    for (name, unit) in &want {
        assert!(
            json.contains(&format!("\"{name}\":{{\"value\":")),
            "{name} missing from {json}"
        );
        assert!(json.contains(&format!("\"unit\":\"{unit}\"")));
    }
    let text = report::text(&workload::all()[0], &options(0, false, false), out);
    for m in &out.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        assert!(
            text.contains(m.name) && text.contains(m.unit),
            "{} printed",
            m.name
        );
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let names: Vec<String> = entries("workloads")
        .iter()
        .map(|e| field(e, "name"))
        .collect();
    let ours: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
    assert_eq!(names, ours, "BENCHMARK.json lists the workloads in order");
    for w in workload::all() {
        let w = w.scaled(400);
        let out = small_run(&w, 7, false, false);
        assert!(out.attempted > 0);
        assert_eq!(out.failed, 0, "{}: {:?}", w.name, out.failures);
        assert_reports(&out, "end_to_end");
        assert!(report::result_json(&out).starts_with("{\"correct\":true,"));

        let traced = small_run(&w, 7, true, false);
        assert_eq!(traced.failed, 0, "{}: {:?}", w.name, traced.failures);
        assert_reports(&traced, "per_layer");
        assert!(!traced.self_times.is_empty());
    }
}

#[test]
fn a_dropped_candidate_counts_as_a_failed_operation() {
    for w in workload::all() {
        let w = w.scaled(400);
        let out = small_run(&w, 3, false, true);
        assert!(out.failed >= 1, "{}: corruption went unnoticed", w.name);
        assert!(report::result_json(&out).starts_with("{\"correct\":false,"));
    }
}

#[test]
fn the_seed_alone_determines_the_inputs() {
    for w in workload::all() {
        let w = w.scaled(300);
        let make = |seed| w.inputs(seed);
        let (a, b, c) = (make(5), make(5), make(6));
        assert_eq!(gen::csv(&a.objects), gen::csv(&b.objects), "{}", w.name);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.stream, b.stream);
        assert_eq!(a.script, b.script);
        assert_ne!(gen::csv(&a.objects), gen::csv(&c.objects), "{}", w.name);
        assert_ne!(a.queries, c.queries);
        assert_ne!(a.script, c.script);
    }
}
