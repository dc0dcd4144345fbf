//~ path: crates/core/src/nnc.rs
fn gather(xs: &[f64]) -> Vec<f64> {
    xs
        .to_vec
        ()
}

//~ expect: no-owned-points-in-hot-paths @ 4
