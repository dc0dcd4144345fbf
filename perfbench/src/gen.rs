//! Seeded input generation: the data CSV, the query coordinates and the
//! mutation script of a workload.
//!
//! The generator is self-contained (a SplitMix64 stream and Box–Muller
//! normals) so that the inputs depend only on the workload parameters and
//! the seed, never on the library under test. It follows the §6 recipe of
//! the paper: object centres from an anti-correlated or independent
//! distribution over `[0, 10000]^d`, MBB half-edges drawn from
//! `U(0, h)`, instances drawn from `N(centre, h/2)` truncated to the MBB.

use std::fmt::Write as _;

/// Upper bound of every coordinate.
pub const DOMAIN: f64 = 10_000.0;

/// SplitMix64: a small, fast, fully deterministic 64-bit stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `purpose` so the data, queries
    /// and script of one seed do not share draws.
    pub fn new(seed: u64, purpose: u64) -> Self {
        Rng(seed ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `N(mean, sd)` by Box–Muller.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        let u1 = self.unit().max(f64::EPSILON);
        let u2 = self.unit();
        mean + sd * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Where object centres come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Centers {
    /// A-N: anti-correlated centres near the plane `Σ x_i = const`.
    AntiCorrelated,
    /// E-N: independent uniform coordinates.
    Independent,
}

/// Shape of one generated object set and its queries.
#[derive(Debug, Clone)]
pub struct DataShape {
    /// Centre distribution.
    pub centers: Centers,
    /// Dimensionality.
    pub dim: usize,
    /// Objects.
    pub n: usize,
    /// Instances per object (`m_d`).
    pub m_d: usize,
    /// Expected MBB edge of an object (`h_d`).
    pub h_d: f64,
    /// Instances per query (`m_q`).
    pub m_q: usize,
    /// Expected MBB edge of a query (`h_q`).
    pub h_q: f64,
}

/// A set of equally sized point clouds stored flat: cloud `i`, point `j`,
/// coordinate `k` is `coords[(i * points + j) * dim + k]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Clouds {
    /// Dimensionality.
    pub dim: usize,
    /// Points per cloud.
    pub points: usize,
    /// All coordinates.
    pub coords: Vec<f64>,
}

impl Clouds {
    /// Number of clouds.
    pub fn len(&self) -> usize {
        self.coords.len() / (self.dim * self.points).max(1)
    }

    /// Whether there are no clouds.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// The coordinates of cloud `i`, point after point.
    pub fn cloud(&self, i: usize) -> &[f64] {
        let w = self.dim * self.points;
        &self.coords[i * w..(i + 1) * w]
    }
}

/// One step of the writer's script. Targets of deletes and updates are
/// drawn at run time as `pick % live`, over the ids live at that moment,
/// so the script never names a dead id.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// Insert the object with these instance coordinates.
    Insert(Vec<f64>),
    /// Delete a live object.
    Delete(u64),
    /// Replace a live object by one with these instance coordinates.
    Update(u64, Vec<f64>),
}

/// Everything a run feeds the program, made from the seed alone.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The object set (written to CSV; the program reads it back).
    pub objects: Clouds,
    /// The distinct queries.
    pub queries: Clouds,
    /// The request stream, pass after pass: indices into `queries`.
    pub stream: Vec<usize>,
    /// The writer's insert/delete/update round-robin script.
    pub script: Vec<Mutation>,
}

/// Generates the inputs of one run.
///
/// `distinct` queries are drawn. The request stream is a sequence of
/// passes: pass `p` holds queries `p·per_pass .. (p+1)·per_pass`, each
/// `repeats` times, in seeded shuffled order. The script holds
/// `mutations` steps.
pub fn inputs(
    shape: &DataShape,
    distinct: usize,
    per_pass: usize,
    repeats: usize,
    mutations: usize,
    seed: u64,
) -> Inputs {
    let mut rng = Rng::new(seed, 1);
    let centers = centers(shape, shape.n, &mut rng);
    let objects = clouds_around(&centers, shape.dim, shape.m_d, shape.h_d, &mut rng);

    // Queries sit at the centres of random data objects, as in §6.
    let mut rng = Rng::new(seed, 2);
    let qcenters: Vec<f64> = (0..distinct)
        .flat_map(|_| {
            let i = rng.below(shape.n);
            centers[i * shape.dim..(i + 1) * shape.dim].to_vec()
        })
        .collect();
    let queries = clouds_around(&qcenters, shape.dim, shape.m_q, shape.h_q, &mut rng);
    let ids: Vec<usize> = (0..distinct).collect();
    let stream: Vec<usize> = ids
        .chunks(per_pass.max(1))
        .flat_map(|chunk| {
            let mut pass: Vec<usize> = chunk
                .iter()
                .flat_map(|&q| std::iter::repeat_n(q, repeats))
                .collect();
            for i in (1..pass.len()).rev() {
                pass.swap(i, rng.below(i + 1));
            }
            pass
        })
        .collect();

    let mut rng = Rng::new(seed, 3);
    let script = (0..mutations)
        .map(|k| match k % 3 {
            0 => Mutation::Insert(fresh_object(shape, &mut rng)),
            1 => Mutation::Delete(rng.next_u64()),
            _ => {
                let pick = rng.next_u64();
                Mutation::Update(pick, fresh_object(shape, &mut rng))
            }
        })
        .collect();
    Inputs {
        objects,
        queries,
        stream,
        script,
    }
}

/// Renders an object set in the `osd` CSV format: one
/// `object_id,weight,coords...` row per instance, every instance at
/// weight 1 (the reader normalises weights per object). Coordinates use
/// Rust's shortest round-trip formatting, so reading them back is exact.
pub fn csv(objects: &Clouds) -> Vec<u8> {
    let mut out = String::with_capacity(objects.coords.len() * 20);
    out.push_str("object_id,weight,coords...\n");
    for i in 0..objects.len() {
        for pt in objects.cloud(i).chunks(objects.dim) {
            let _ = write!(out, "{i},1");
            for c in pt {
                let _ = write!(out, ",{c}");
            }
            out.push('\n');
        }
    }
    out.into_bytes()
}

fn fresh_object(shape: &DataShape, rng: &mut Rng) -> Vec<f64> {
    let c = centers(shape, 1, rng);
    clouds_around(&c, shape.dim, shape.m_d, shape.h_d, rng).coords
}

/// `count` centres, flat (`dim` coordinates each).
fn centers(shape: &DataShape, count: usize, rng: &mut Rng) -> Vec<f64> {
    let dim = shape.dim;
    match shape.centers {
        Centers::Independent => (0..count * dim).map(|_| rng.range(0.0, DOMAIN)).collect(),
        Centers::AntiCorrelated => (0..count).flat_map(|_| anti_correlated(dim, rng)).collect(),
    }
}

/// Börzsönyi-style anti-correlated centre: a plane offset
/// `v ~ N(0.5, 0.0625)` spread over the coordinates by moving mass between
/// random pairs, which keeps `Σ x_i = d·v`.
fn anti_correlated(dim: usize, rng: &mut Rng) -> Vec<f64> {
    let v = rng.normal(0.5, 0.0625).clamp(0.0, 1.0);
    let mut x = vec![v; dim];
    for _ in 0..dim * 4 {
        let i = rng.below(dim);
        let j = rng.below(dim);
        if i != j {
            let room = x[i].min(1.0 - x[j]);
            let delta = rng.range(0.0, room);
            x[i] -= delta;
            x[j] += delta;
        }
    }
    x.into_iter().map(|c| c * DOMAIN).collect()
}

/// One cloud of `points` instances around each centre: half-edges
/// `U(0, edge)` per dimension, instances `N(centre, edge/2)` truncated to
/// that box and to the domain.
fn clouds_around(centers: &[f64], dim: usize, points: usize, edge: f64, rng: &mut Rng) -> Clouds {
    let mut coords = Vec::with_capacity(centers.len() * points);
    let mut lo = vec![0.0; dim];
    let mut hi = vec![0.0; dim];
    for c in centers.chunks(dim) {
        for k in 0..dim {
            let half = rng.range(0.0, edge);
            lo[k] = (c[k] - half).max(0.0);
            hi[k] = (c[k] + half).min(DOMAIN).max(lo[k]);
        }
        for _ in 0..points {
            for k in 0..dim {
                coords.push(rng.normal(c[k], edge / 2.0).clamp(lo[k], hi[k]));
            }
        }
    }
    Clouds {
        dim,
        points,
        coords,
    }
}
