//! Printing a run: the environment block, every metric by name and unit,
//! the correctness summary, and the final one-line JSON result.

use crate::session::{Metric, Outcome, RunOptions, SHARES};
use crate::stats::host_cpus;
use crate::workload::{Layout, Workload};
use std::fmt::Write as _;

/// The environment block: host, toolchain, build and workload parameters.
pub fn env_json(w: &Workload, opts: &RunOptions) -> String {
    let features = if osd_core::QueryMetrics::enabled() {
        "[\"obs\"]"
    } else {
        "[]"
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let layout = match w.layout {
        Layout::Flat => "flat".to_string(),
        Layout::Sharded(k) => format!("sharded-{k}"),
    };
    let s = &w.shape;
    format!(
        "{{\"host_cpus\":{},\"rustc\":\"{}\",\"features\":{features},\"profile\":\"{profile}\",\
         \"git_rev\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"workload\":{{\"name\":\"{}\",\
         \"centers\":\"{:?}\",\"dim\":{},\"n\":{},\"m_d\":{},\"h_d\":{},\"m_q\":{},\"h_q\":{},\
         \"op\":\"{:?}\",\"layout\":\"{layout}\",\"distinct_queries\":{},\"pass_queries\":{},\
         \"repeats\":{},\"handles\":{},\"shares\":[{},{},{}]}}}}",
        host_cpus(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_GIT_REV"),
        opts.seed,
        opts.seconds,
        opts.trace,
        w.name,
        s.centers,
        s.dim,
        s.n,
        s.m_d,
        s.h_d,
        s.m_q,
        s.h_q,
        w.op,
        w.distinct,
        w.pass_queries,
        w.repeats,
        w.handles,
        SHARES[0],
        SHARES[1],
        SHARES[2],
    )
}

/// The human-readable lines printed before the result.
pub fn text(w: &Workload, opts: &RunOptions, out: &Outcome) -> String {
    let mut t = String::new();
    let _ = writeln!(t, "# workload {}: {}", w.name, w.why);
    let _ = writeln!(t, "# env {}", env_json(w, opts));
    let ratio = out.failed as f64 / out.attempted.max(1) as f64;
    let _ = writeln!(
        t,
        "# failed_ops {} of {} attempted (ratio {ratio})",
        out.failed, out.attempted
    );
    for f in &out.failures {
        let _ = writeln!(t, "# failure: {f}");
    }
    let _ = writeln!(
        t,
        "# note: the generated coordinates are continuous and never tie on min-distance, \
         so failed_ops = 0 here does not certify exact minimality under ties"
    );
    for m in &out.metrics {
        let gate = if m.gated { "" } else { " [printed only]" };
        let _ = writeln!(
            t,
            "{:<28} {:>20} {:<12} {}{gate}",
            m.name, m.value, m.unit, m.note
        );
    }
    if !out.self_times.is_empty() {
        let _ = writeln!(t, "# self time per span (calls, total self ms):");
        for (name, calls, self_ms) in &out.self_times {
            let _ = writeln!(t, "#   {name:<24} {calls:>8} {self_ms:>14.3}");
        }
    }
    if let Some(p) = &out.trace_file {
        let _ = writeln!(t, "# chrome trace: {}", p.display());
    }
    t
}

/// The final line: `{"correct", "attempted", "failed", "metrics"}`. A
/// metric that could not be measured (non-finite) makes the run incorrect.
pub fn result_json(out: &Outcome) -> String {
    let gated = || out.metrics.iter().filter(|m| m.gated);
    let finite = gated().all(|m| m.value.is_finite());
    let metrics: Vec<String> = gated().map(metric_json).collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0 && finite,
        out.attempted,
        out.failed,
        metrics.join(",")
    )
}

fn metric_json(m: &Metric) -> String {
    let value = if m.value.is_finite() {
        format!("{:?}", m.value)
    } else {
        "null".into()
    };
    format!(
        "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
        m.name, m.unit
    )
}
