//! Records the compiler version and the source revision for the
//! environment block every result carries.

use std::fs;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={}", git_rev());
    println!("cargo:rerun-if-changed=build.rs");
}

/// The checked-out commit, read from `../.git` without running git;
/// "unknown" outside a git checkout.
fn git_rev() -> String {
    let Ok(head) = fs::read_to_string("../.git/HEAD") else {
        return "unknown".into();
    };
    println!("cargo:rerun-if-changed=../.git/HEAD");
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    println!("cargo:rerun-if-changed=../.git/{name}");
    fs::read_to_string(format!("../.git/{name}"))
        .ok()
        .map(|s| s.trim().to_string())
        .or_else(|| {
            fs::read_to_string("../.git/packed-refs")
                .ok()
                .and_then(|p| {
                    p.lines()
                        .find(|l| l.ends_with(name))
                        .and_then(|l| l.split_whitespace().next().map(str::to_string))
                })
        })
        .unwrap_or_else(|| "unknown".into())
}
