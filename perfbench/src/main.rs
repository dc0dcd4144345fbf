//! `osd-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`

use osd_perfbench::report;
use osd_perfbench::session::{self, RunOptions};
use osd_perfbench::workload::{self, Workload};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    match parse(std::env::args().skip(1).collect()) {
        Ok((w, opts)) => match session::run(&w, &opts) {
            Ok(out) => {
                print!("{}", report::text(&w, &opts, &out));
                println!("{}", report::result_json(&out));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("osd-perfbench: {e}");
                ExitCode::from(1)
            }
        },
        Err(e) => {
            eprintln!("osd-perfbench: {e}");
            eprintln!(
                "usage: osd-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::all()
                    .iter()
                    .map(|w| w.name)
                    .collect::<Vec<_>>()
                    .join("|")
            );
            ExitCode::from(2)
        }
    }
}

fn parse(args: Vec<String>) -> Result<(Workload, RunOptions), String> {
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let w = workload::by_name(&name).ok_or(format!("unknown workload {name}"))?;
    Ok((
        w,
        RunOptions {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            corrupt: false,
            work_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        },
    ))
}
