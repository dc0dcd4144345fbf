//! Seeded byte-mutation fuzzing of the CSV reader: thousands of mutated
//! copies of well-formed files — flipped, inserted, deleted and
//! duplicated bytes, spliced-in tokens such as `NaN`, `inf`, `1e308` and
//! invalid UTF-8 — must each load as `Ok` or fail as `Err`, never panic.
//! Every accepted object must satisfy the reader's contract: finite
//! coordinates within `MAX_COORD`, one dimensionality per object, and
//! probabilities summing to one.
//!
//! Std-only and deterministic: a SplitMix64 generator with fixed seeds.

// Integration test: aborts are intentional.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use osd_datagen::read_objects_csv;
use osd_geom::MAX_COORD;
use std::panic::{catch_unwind, AssertUnwindSafe};

const SEEDS: [u64; 3] = [1, 0xC5F_F022, 0xDEAD_BEEF];
const CASES_PER_SEED: usize = 1500;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

const SEEDS_FILES: &[&[u8]] = &[
    b"object_id,weight,coords...\n# comment\n0,1.0,12.5,7.25\n0,1.0,13.0,8.00\n1,2.0,55.1,40.9\n",
    b"3, 1.0 ,  0.5,-2.25\n1,2.0,1e3,.5\n3,3.0,-0.0,7\r\n0,1,0.1,0.2\n1, 6.0, -0 ,+4.5  \n",
    b"h\n5,1.0,1.0,2.0,3.0\n5,1.0,4.0,5.0,6.0\n2,0.5,0,0,0\n\n# end\n",
    b"9,1,1,0\n7,1,2,0\n7,1,3,0\n4,1,4,0\n9,1,5,0",
];

const TOKENS: &[&[u8]] = &[
    b"NaN",
    b"nan",
    b"inf",
    b"-inf",
    b"1e308",
    b"-1e308",
    b"1e150",
    b"1e151",
    b"-0",
    b"0x1",
    b",",
    b",,",
    b"\n",
    b"\r\n",
    b"#",
    b" ",
    b"\t",
    b"\xff",
    b"\xc3",
    b"18446744073709551616",
    b"-1",
    b"1e-320",
    b"+",
    b".",
    b"e",
];

fn mutate(rng: &mut Rng, base: &[u8]) -> Vec<u8> {
    let mut bytes = base.to_vec();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(5) {
            0 if at < bytes.len() => bytes[at] = rng.next() as u8,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            2 => {
                let token = TOKENS[rng.below(TOKENS.len())];
                bytes.splice(at..at, token.iter().copied());
            }
            3 if at < bytes.len() => {
                // Replace the field under `at` with a token.
                let end = bytes[at..]
                    .iter()
                    .position(|&b| b == b',' || b == b'\n')
                    .map_or(bytes.len(), |p| at + p);
                let token = TOKENS[rng.below(TOKENS.len())];
                bytes.splice(at..end, token.iter().copied());
            }
            _ => {
                // Duplicate a slice somewhere else.
                let from = rng.below(bytes.len());
                let len = rng.below(24).min(bytes.len() - from);
                let chunk: Vec<u8> = bytes[from..from + len].to_vec();
                bytes.splice(at..at, chunk);
            }
        }
    }
    bytes
}

#[test]
fn mutated_csv_files_load_or_fail_without_panicking() {
    let mut path = std::env::temp_dir();
    path.push(format!("osd-ingest-fuzz-{}.csv", std::process::id()));
    let (mut accepted, mut rejected) = (0usize, 0usize);
    for seed in SEEDS {
        let mut rng = Rng(seed);
        for case in 0..CASES_PER_SEED {
            let base = SEEDS_FILES[rng.below(SEEDS_FILES.len())];
            let bytes = mutate(&mut rng, base);
            std::fs::write(&path, &bytes).unwrap();
            let result = catch_unwind(AssertUnwindSafe(|| read_objects_csv(&path)));
            let Ok(result) = result else {
                panic!(
                    "seed {seed:#x} case {case}: reader panicked on {:?}",
                    String::from_utf8_lossy(&bytes)
                );
            };
            match result {
                Ok(objects) => {
                    accepted += 1;
                    assert!(!objects.is_empty());
                    for o in &objects {
                        let dim = o.dim();
                        let mass: f64 = o.instances().iter().map(|i| i.prob).sum();
                        assert!((mass - 1.0).abs() < 1e-6, "seed {seed:#x} case {case}");
                        for inst in o.instances() {
                            assert_eq!(inst.point.dim(), dim);
                            assert!(inst.point.coords().iter().all(|c| c.abs() <= MAX_COORD));
                        }
                    }
                }
                Err(e) => {
                    rejected += 1;
                    assert!(!e.to_string().is_empty());
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
    // The mutations must exercise both outcomes.
    assert!(accepted > 100, "only {accepted} mutants accepted");
    assert!(rejected > 100, "only {rejected} mutants rejected");
}
