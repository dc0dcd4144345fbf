//! End-to-end checks of `osd query` flag handling, through the built
//! binary: `--progressive --k K` streams exactly the K-robust set that
//! `--k K` prints, and unknown flags (including the retired scatter
//! switch) fail with exit code 2 and an error naming the flag.

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
