//! Plain-CSV import/export of multi-instance datasets.
//!
//! The paper's real datasets (NBA game logs, check-ins, …) arrive as flat
//! instance tables; this module reads and writes that shape so users can
//! swap the surrogate generators for their own data:
//!
//! ```text
//! object_id,weight,c0,c1[,c2,...]
//! 0,1.0,12.5,7.25
//! 0,1.0,13.0,8.00
//! 1,2.0,55.1,40.9
//! ```
//!
//! Weights are normalised per object (§2.1's multi-valued-object
//! transformation), so uniform datasets can simply use weight `1.0`.

use osd_geom::{check_coord, Point};
use osd_uncertain::{ObjectError, UncertainObject};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Errors raised while loading a dataset.
#[derive(Debug)]
pub enum DataError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed CSV line (1-based line number and message).
    Parse(usize, String),
    /// A structurally invalid object (object id and cause).
    Object(u64, ObjectError),
    /// The file contained no instances.
    Empty,
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::Io(e) => write!(f, "i/o error: {e}"),
            DataError::Parse(line, msg) => write!(f, "line {line}: {msg}"),
            DataError::Object(id, e) => write!(f, "object {id}: {e}"),
            DataError::Empty => write!(f, "dataset contains no instances"),
        }
    }
}

impl std::error::Error for DataError {}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io(e)
    }
}

/// Writes objects as instance rows. Probabilities are emitted as weights.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_objects_csv(path: &Path, objects: &[UncertainObject]) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    writeln!(w, "object_id,weight,coords...")?;
    for (id, o) in objects.iter().enumerate() {
        for inst in o.instances() {
            write!(w, "{id},{}", inst.prob)?;
            for c in inst.point.coords() {
                write!(w, ",{c}")?;
            }
            writeln!(w)?;
        }
    }
    w.flush()
}

/// Reads objects from instance rows (see the module docs for the format).
/// Lines starting with `#` and a leading header line are skipped. Object
/// ids need not be contiguous; output order follows ascending id, and each
/// object keeps its instances in file order.
///
/// The file is read once through one reused line buffer, and fields are
/// split in place. Rows whose ids arrive grouped and ascending (the shape
/// [`write_objects_csv`] produces) are appended to the current object; the
/// first id below its predecessor moves the groups into a `BTreeMap`,
/// which takes every later row.
///
/// Every coordinate must pass [`osd_geom::check_coord`] (finite and at
/// most [`osd_geom::MAX_COORD`] in magnitude, which keeps squared
/// distances finite); a row breaking that is a [`DataError::Parse`] naming
/// its line.
///
/// # Errors
/// Returns a [`DataError`] on I/O failure, malformed rows, or invalid
/// objects. Parse errors are reported for the first bad line; object
/// errors, once the whole file has parsed, for the lowest bad id.
pub fn read_objects_csv(path: &Path) -> Result<Vec<UncertainObject>, DataError> {
    let file = std::fs::File::open(path)?;
    let mut reader = BufReader::with_capacity(1 << 16, file);
    let mut groups = Groups::default();
    let mut line = Vec::new();
    let mut coords = Vec::new();
    let mut lineno = 0;
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        let row = parse_row(&line, lineno, &mut coords)?;
        lineno += 1;
        if let Some((id, weight)) = row {
            groups.push(id, (Point::new(coords.as_slice()), weight));
        }
    }
    groups.into_objects()
}

/// One parsed instance row: its point and weight.
type Row = (Point, f64);

/// Instance rows grouped by object id, in ascending id order.
#[derive(Default)]
struct Groups {
    /// Groups while ids arrive grouped and ascending.
    ascending: Vec<(u64, Vec<Row>)>,
    /// Every group, once an id arrived out of order.
    spilled: Option<BTreeMap<u64, Vec<Row>>>,
}

impl Groups {
    fn push(&mut self, id: u64, row: Row) {
        if let Some(map) = &mut self.spilled {
            map.entry(id).or_default().push(row);
            return;
        }
        match self.ascending.last() {
            Some(&(last, _)) if last == id => {}
            Some(&(last, _)) if last > id => {
                let mut map: BTreeMap<u64, Vec<Row>> =
                    std::mem::take(&mut self.ascending).into_iter().collect();
                map.entry(id).or_default().push(row);
                self.spilled = Some(map);
                return;
            }
            _ => self.ascending.push((id, Vec::new())),
        }
        if let Some((_, rows)) = self.ascending.last_mut() {
            rows.push(row);
        }
    }

    fn into_objects(self) -> Result<Vec<UncertainObject>, DataError> {
        let build = |(id, rows): (u64, Vec<Row>)| {
            UncertainObject::try_from_weighted(rows).map_err(|e| DataError::Object(id, e))
        };
        match self.spilled {
            Some(map) => map.into_iter().map(build).collect(),
            None if self.ascending.is_empty() => Err(DataError::Empty),
            None => self.ascending.into_iter().map(build).collect(),
        }
    }
}

/// Parses one raw line (`lineno` is 0-based). Returns the row's id and
/// weight with its coordinates in `coords`, or `None` for a line to skip
/// (blank, comment, or a header on the first line).
fn parse_row(
    raw: &[u8],
    lineno: usize,
    coords: &mut Vec<f64>,
) -> Result<Option<(u64, f64)>, DataError> {
    let line = std::str::from_utf8(raw).map_err(|_| {
        DataError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        ))
    })?;
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let bad = |msg: String| DataError::Parse(lineno + 1, msg);
    let fields = trimmed.bytes().filter(|&b| b == b',').count() + 1;
    if fields < 3 {
        if lineno == 0 {
            return Ok(None); // header
        }
        return Err(bad(format!("expected at least 3 fields, got {fields}")));
    }
    let mut fields = trimmed.split(',');
    let (id, weight) = (fields.next().unwrap_or(""), fields.next().unwrap_or(""));
    let id: u64 = match id.trim().parse() {
        Ok(v) => v,
        Err(_) if lineno == 0 => return Ok(None), // header line
        Err(_) => return Err(bad(format!("bad object id {id:?}"))),
    };
    let weight: f64 = weight
        .trim()
        .parse()
        .map_err(|_| bad(format!("bad weight {weight:?}")))?;
    coords.clear();
    for f in fields.clone() {
        let c: f64 = f
            .trim()
            .parse()
            .map_err(|_| bad(format!("bad coordinate {f:?}")))?;
        coords.push(c);
    }
    // Range checks run once every field parsed, so a malformed field is
    // reported as such even when an out-of-range one precedes it.
    for (f, &c) in fields.zip(coords.iter()) {
        check_coord(c).map_err(|why| bad(format!("coordinate {f:?} {why}")))?;
    }
    Ok(Some((id, weight)))
}

#[cfg(test)]
mod tests {
    // Exact expected values are intentional in tests.
    #![allow(clippy::float_cmp)]

    use super::*;
    use crate::synthetic::{generate_objects, CenterDistribution, SynthParams};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("osd-io-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_preserves_objects() {
        let params = SynthParams {
            n: 12,
            dim: 3,
            instances: 4,
            edge: 250.0,
            centers: CenterDistribution::Independent,
            seed: 55,
        };
        let objects = generate_objects(&params);
        let path = tmp("roundtrip.csv");
        write_objects_csv(&path, &objects).unwrap();
        let loaded = read_objects_csv(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.len(), objects.len());
        for (a, b) in loaded.iter().zip(objects.iter()) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.instances().iter().zip(b.instances().iter()) {
                assert_eq!(x.point.coords(), y.point.coords());
                assert!((x.prob - y.prob).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn reads_weighted_rows_and_normalises() {
        let path = tmp("weighted.csv");
        std::fs::write(
            &path,
            "object_id,weight,coords...\n# comment\n0,2.0,1.0,2.0\n0,6.0,3.0,4.0\n5,1.0,9.0,9.0\n",
        )
        .unwrap();
        let objects = read_objects_csv(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(objects.len(), 2);
        assert!((objects[0].instances()[0].prob - 0.25).abs() < 1e-12);
        assert!((objects[0].instances()[1].prob - 0.75).abs() < 1e-12);
        assert_eq!(objects[1].len(), 1);
    }

    #[test]
    fn malformed_rows_are_reported_with_line_numbers() {
        let path = tmp("bad.csv");
        std::fs::write(
            &path,
            "object_id,weight,coords...\n0,1.0,1.0\nnot-an-id,1.0,2.0\n",
        )
        .unwrap();
        let err = read_objects_csv(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        match err {
            DataError::Parse(line, msg) => {
                assert_eq!(line, 3);
                assert!(msg.contains("bad object id"));
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn empty_file_is_an_error() {
        let path = tmp("empty.csv");
        std::fs::write(&path, "object_id,weight,coords...\n").unwrap();
        let err = read_objects_csv(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, DataError::Empty));
    }

    #[test]
    fn bad_weight_is_attributed_to_object() {
        let path = tmp("badweight.csv");
        std::fs::write(&path, "h\n7,-1.0,1.0,2.0\n").unwrap();
        let err = read_objects_csv(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, DataError::Object(7, _)));
    }
}
