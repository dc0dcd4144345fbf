//! End-to-end checks of `osd query` flag handling, through the built
//! binary: `--progressive --k K` streams exactly the K-robust set that
//! `--k K` prints; unknown flags (including the retired scatter switch),
//! recorder flags without `--trace`, non-finite or out-of-range query
//! coordinates and data files fail with exit code 2 (never a panic's 101)
//! and an error naming the flag or the line.

// Integration test: aborts are intentional.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::process::{Command, Output};

fn osd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_osd"))
        .args(args)
        .output()
        .expect("osd binary runs")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "osd failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).unwrap()
}

fn dataset(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("osd-query-flags-{}-{name}", std::process::id()));
    let path = p.to_string_lossy().into_owned();
    let args = [
        "gen",
        "--out",
        &path,
        "--dataset",
        "indep",
        "--n",
        "60",
        "--m",
        "3",
        "--dim",
        "2",
    ];
    stdout(&osd(&args));
    path
}

/// `(object, dominators)` rows of a `--k K` listing.
fn batch_rows(text: &str) -> Vec<(usize, usize)> {
    text.lines()
        .filter_map(|l| l.trim().strip_prefix("object"))
        .map(|rest| {
            let words: Vec<&str> = rest.split_whitespace().collect();
            (words[0].parse().unwrap(), words[4].parse().unwrap())
        })
        .collect()
}

/// `(object, dominators)` rows of a `--progressive --k K` stream.
fn streamed_rows(text: &str) -> Vec<(usize, usize)> {
    text.lines()
        .skip(1) // header
        .map(|l| {
            let words: Vec<&str> = l.split_whitespace().collect();
            (
                words[0].parse().unwrap(),
                words[words.len() - 1].parse().unwrap(),
            )
        })
        .collect()
}

#[test]
fn progressive_streams_the_k_robust_set() {
    let data = dataset("progk.csv");
    for shards in ["1", "4"] {
        let base = ["query", "--data", &data, "--query", "5000,5000"];
        let shard = ["--shards", shards, "--k", "3"];
        let batch = stdout(&osd(&[&base[..], &shard[..]].concat()));
        let streamed = stdout(&osd(&[&base[..], &shard[..], &["--progressive"]].concat()));
        let (batch, streamed) = (batch_rows(&batch), streamed_rows(&streamed));
        assert!(
            batch.iter().any(|&(_, d)| d > 0),
            "the 3-robust set should reach past the plain NNC: {batch:?}"
        );
        assert_eq!(streamed, batch, "--shards {shards}");
    }
    std::fs::remove_file(&data).ok();
}

#[test]
fn unknown_flags_exit_2_naming_the_flag() {
    let data = dataset("unknown.csv");
    let retired = concat!("--", "scatter");
    for extra in [&[retired][..], &["--bogus-flag", "3"]] {
        let args = [
            &["query", "--data", &data, "--query", "5000,5000"][..],
            extra,
        ]
        .concat();
        let out = osd(&args);
        assert_eq!(out.status.code(), Some(2), "{extra:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown flag \"{}\"", extra[0])),
            "{err}"
        );
    }
    std::fs::remove_file(&data).ok();
}

/// Runs `osd` expecting a clean failure: exit code 2 (not a panic) and
/// stderr containing `needle`.
fn fails_naming(args: &[&str], needle: &str) {
    let out = osd(args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
    assert!(
        err.contains(needle),
        "{args:?}: expected {needle:?} in {err}"
    );
}

#[test]
fn recorder_flags_without_trace_are_rejected() {
    let data = dataset("recorder.csv");
    let mut rec = std::env::temp_dir();
    rec.push(format!("osd-query-flags-{}-flight.log", std::process::id()));
    let rec = rec.to_string_lossy().into_owned();
    let base = ["query", "--data", &data, "--query", "5000,5000"];
    fails_naming(
        &[&base[..], &["--recorder", &rec]].concat(),
        "--recorder needs --trace",
    );
    fails_naming(
        &[&base[..], &["--slow-ms", "5"]].concat(),
        "--slow-ms needs --trace",
    );
    assert!(
        !std::path::Path::new(&rec).exists(),
        "nothing may be written"
    );
    std::fs::remove_file(&data).ok();
}

#[test]
fn bad_query_coordinates_are_rejected_naming_the_flag() {
    let data = dataset("badquery.csv");
    for spec in ["NaN,5", "5,inf", "1e308,0", "0,0;-1e200,1"] {
        fails_naming(&["query", "--data", &data, "--query", spec], "--query");
    }
    std::fs::remove_file(&data).ok();
}

#[test]
fn bad_data_coordinates_are_rejected_naming_the_line() {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "osd-query-flags-{}-baddata.csv",
        std::process::id()
    ));
    let path = path.to_string_lossy().into_owned();
    for (row, what) in [
        ("1,1.0,NaN,2", "is not finite"),
        ("1,1.0,3,-inf", "is not finite"),
        ("1,1.0,1e308,2", "exceeds the magnitude bound"),
    ] {
        std::fs::write(&path, format!("object_id,weight,c0,c1\n0,1.0,1,2\n{row}\n")).unwrap();
        fails_naming(
            &["query", "--data", &path, "--query", "0,0"],
            "line 3: coordinate",
        );
        fails_naming(&["query", "--data", &path, "--query", "0,0"], what);
    }
    std::fs::remove_file(&path).ok();
}
