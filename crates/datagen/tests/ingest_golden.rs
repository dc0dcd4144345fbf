//! Golden pin of the CSV reader: a fixed set of files — a header,
//! comments, blank lines, CRLF endings, padded fields, signed zeros,
//! out-of-order ids and ids repeated on non-adjacent lines — must load
//! into objects whose coordinate, probability and MBR bit patterns match
//! `tests/golden/ingest_pin.txt` exactly, and every malformed file must
//! fail with the pinned message (line numbers included).
//!
//! The golden was generated with the line-by-line `BTreeMap` reader that
//! preceded the one-pass reader; any change to how the file is scanned
//! must keep every line of it. To regenerate it after an *intended*
//! format change, run
//! `OSD_BLESS_GOLDEN=1 cargo test -p osd-datagen --test ingest_golden`
//! and review the diff.

// Integration test: aborts are intentional.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use osd_datagen::read_objects_csv;
use std::fmt::Write as _;
use std::path::PathBuf;

const GOLDEN: &str = "tests/golden/ingest_pin.txt";

/// Well-formed files.
const ACCEPTED: &[(&str, &[u8])] = &[
    (
        "mixed",
        b"object_id,weight,coords...\n\
          # a comment line\n\
          \n\
          3, 1.0 ,  0.5,-2.25\n\
          1,2.0,1e3,.5\n\
          \t  # indented comment\n\
          3,3.0,-0.0,7\n\
          0,1,0.1,0.2\r\n\
          1, 6.0, -0 ,+4.5  \n\
          \r\n\
          0,1,0.30000000000000004,-1e-300\n\
          +2,0.25,1.7976931348623157e10,-3.5\n\
          1,1.0,2.5,2.5\n\
          18446744073709551615,1,-7,-8",
    ),
    (
        "no-header",
        b"5,1.0,1.0,2.0,3.0\n5,1.0,4.0,5.0,6.0\n2,0.5,0,0,0\n",
    ),
    (
        "short-header",
        b"id,w\n4,1.0,9.75\n4,1.0,-9.75\n4,2.0,0.125\n",
    ),
    (
        "ascending",
        b"0,1,1,1\n0,1,2,2\n1,1,3,3\n2,1,4,4\n2,1,5,5\n2,1,6,6\n",
    ),
    (
        "descending",
        b"9,1,1,0\n7,1,2,0\n7,1,3,0\n4,1,4,0\n9,1,5,0\n",
    ),
];

/// Malformed files: each must fail with the pinned message.
const REJECTED: &[(&str, &[u8])] = &[
    ("empty", b""),
    ("header-only", b"object_id,weight,coords...\n"),
    ("comments-only", b"# nothing\n\n   \n"),
    ("two-fields", b"object_id,weight,coords...\n0,1.0\n"),
    ("bad-id", b"object_id,weight,c\n0,1,1\nnot-an-id,1.0,2.0\n"),
    ("negative-id", b"0,1,1\n-3,1,1\n"),
    ("header-late", b"\nobject_id,weight,c0\n0,1,1\n"),
    ("bad-weight", b"0,1,1\n0, abc ,2\n"),
    ("bad-coordinate", b"0,1,1,2\n0,1, 1.2.3,2\n"),
    ("empty-coordinate", b"0,1,1,\n"),
    ("later-parse-error-wins", b"7,-1,1,1\n8,1,x,1\n"),
    ("negative-weight", b"h\n7,-1.0,1.0,2.0\n"),
    ("zero-weight", b"0,1,1\n1,0,1\n"),
    ("nan-weight", b"0,NaN,1\n"),
    ("inf-weight", b"0,inf,1\n"),
    ("dimension-mismatch", b"0,1,1,2\n0,1,1\n"),
    ("first-bad-object-by-id", b"9,-1,1\n2,1,1,1\n2,1,1\n"),
    ("invalid-utf8", b"0,1,1\n0,1,\xff\n"),
    ("invalid-utf8-after-error", b"h\n0,x,1\n\xff\n"),
    ("invalid-utf8-in-comment", b"# \xff\n0,1,1\n"),
];

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "osd-ingest-golden-{}-{name}.csv",
        std::process::id()
    ));
    p
}

fn bits(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{:016x}", x.to_bits()))
        .collect::<Vec<_>>()
        .join(",")
}

fn render() -> String {
    let mut out = String::new();
    for (name, bytes) in ACCEPTED {
        let path = tmp(name);
        std::fs::write(&path, bytes).unwrap();
        let objects = read_objects_csv(&path);
        std::fs::remove_file(&path).ok();
        let objects = objects.unwrap_or_else(|e| panic!("{name}: {e}"));
        writeln!(out, "accept {name}: {} objects", objects.len()).unwrap();
        for (i, o) in objects.iter().enumerate() {
            writeln!(
                out,
                "  object {i}: {} instances, mbr [{}]..[{}]",
                o.len(),
                bits(o.mbr().lo()),
                bits(o.mbr().hi())
            )
            .unwrap();
            for inst in o.instances() {
                writeln!(
                    out,
                    "    p {:016x} at [{}]",
                    inst.prob.to_bits(),
                    bits(inst.point.coords())
                )
                .unwrap();
            }
        }
    }
    for (name, bytes) in REJECTED {
        let path = tmp(name);
        std::fs::write(&path, bytes).unwrap();
        let result = read_objects_csv(&path);
        std::fs::remove_file(&path).ok();
        match result {
            Ok(objects) => panic!("{name}: accepted {} objects", objects.len()),
            Err(e) => writeln!(out, "reject {name}: {e}").unwrap(),
        }
    }
    out
}

#[test]
fn reader_reproduces_the_golden_bit_for_bit() {
    let actual = render();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("OSD_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("golden file present");
    for (n, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "golden line {} diverged", n + 1);
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "golden line count diverged"
    );
}
