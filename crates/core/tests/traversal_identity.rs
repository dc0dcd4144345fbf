//! One traversal, one counter contract: `k_nn_candidates` at `k = 1` is
//! `nn_candidates` — same ids, `min_dist` bits, emission order and every
//! [`Stats`](osd_core::Stats) counter — for every operator under every
//! rung of the Appendix C ablation ladder, on a flat and an 8-shard
//! layout.

use osd_core::{
    k_nn_candidates, nn_candidates, Database, FilterConfig, Operator, PreparedQuery,
    ShardedDatabase, SpatialIndex,
};
use osd_geom::Point;
use osd_uncertain::UncertainObject;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `n` objects of 2–4 instances scattered around random centers.
fn objects(rng: &mut StdRng, n: usize, spread: f64) -> Vec<UncertainObject> {
    (0..n)
        .map(|_| {
            let (cx, cy) = (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
            let m = rng.gen_range(2..5);
            UncertainObject::uniform(
                (0..m)
                    .map(|_| {
                        Point::new(vec![
                            cx + rng.gen_range(0.0..spread),
                            cy + rng.gen_range(0.0..spread),
                        ])
                    })
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn k1_reproduces_nnc_bit_for_bit_on_every_rung() {
    let mut rng = StdRng::seed_from_u64(0x17a5);
    let data = objects(&mut rng, 120, 6.0);
    let queries: Vec<PreparedQuery> = objects(&mut rng, 3, 3.0)
        .into_iter()
        .map(PreparedQuery::new)
        .collect();
    let layouts: [(&str, Box<dyn SpatialIndex>); 2] = [
        ("flat", Box::new(Database::new(data.clone()))),
        ("shard8", Box::new(ShardedDatabase::new(data, 8))),
    ];
    for (layout, db) in &layouts {
        for (rung, cfg) in FilterConfig::ablation_ladder() {
            for op in Operator::ALL {
                for (i, q) in queries.iter().enumerate() {
                    let nnc = nn_candidates(&**db, q, op, &cfg);
                    let k1 = k_nn_candidates(&**db, q, op, 1, &cfg);
                    let what = format!("{layout} {rung} {op:?} q{i}");
                    let nnc_keys: Vec<(usize, u64, usize)> = nnc
                        .candidates
                        .iter()
                        .map(|c| (c.id, c.min_dist.to_bits(), 0))
                        .collect();
                    let k1_keys: Vec<(usize, u64, usize)> = k1
                        .candidates
                        .iter()
                        .map(|(c, d)| (c.id, c.min_dist.to_bits(), *d))
                        .collect();
                    assert_eq!(k1_keys, nnc_keys, "{what}: candidates");
                    assert_eq!(k1.stats, nnc.stats, "{what}: stats");
                }
            }
        }
    }
}
