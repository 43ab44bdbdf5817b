//! Seeded inputs: porto-like trips, degraded query variants, the
//! serving model and jittered store contents. Nothing here is timed.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::path::Path;
use t2vec_core::{T2Vec, T2VecConfig};
use t2vec_spatial::point::Point;
use t2vec_spatial::transform::{distort, downsample};
use t2vec_trajgen::city::City;
use t2vec_trajgen::dataset::DatasetBuilder;
use t2vec_trajgen::Trajectory;

/// Minimum trip length, in points, of every generated corpus.
const MIN_LEN: usize = 20;

/// Seed of the one porto-like city every workload runs in, so a run's
/// seed varies the trips, not the road network.
const CITY_SEED: u64 = 0x0C17_4000;

/// `n` trips through the porto-like city, drawn from `seed`.
pub fn porto_trips(seed: u64, n: usize) -> Vec<Trajectory> {
    let city = City::porto_like(&mut StdRng::seed_from_u64(CITY_SEED));
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = DatasetBuilder::new(&city)
        .trips(n)
        .min_len(MIN_LEN)
        .split(0.98, 0.01)
        .build(&mut rng);
    ds.train.into_iter().chain(ds.val).chain(ds.test).collect()
}

/// The down-sampling and distortion rates of §V-A that degrade a query:
/// every query drops points, so it is shorter than the stored trip.
const DROP_RATES: [f64; 3] = [0.2, 0.4, 0.6];
const DISTORT_RATES: [f64; 3] = [0.2, 0.4, 0.6];

/// Degraded variants of `trips`, cycling through the §V-A rates.
pub fn degraded(trips: &[Trajectory], seed: u64) -> Vec<Vec<Point>> {
    let mut rng = StdRng::seed_from_u64(seed);
    trips
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let r1 = DROP_RATES[i % DROP_RATES.len()];
            let r2 = DISTORT_RATES[(i / DROP_RATES.len()) % DISTORT_RATES.len()];
            distort(&downsample(&t.points, r1, &mut rng), r2, &mut rng)
        })
        .collect()
}

/// Trains the serving model: `T2VecConfig::small()` for a fixed, short
/// step budget on `trips`, then writes it to `path`.
pub fn serving_model(trips: &[Trajectory], seed: u64, path: &Path) -> T2Vec {
    let mut config = T2VecConfig::small();
    config.max_iterations = 6;
    config.max_epochs = 1;
    let mut rng = StdRng::seed_from_u64(seed);
    let model = T2Vec::train(&config, trips, &mut rng).expect("serving model trains");
    let file = std::fs::File::create(path).expect("create model file");
    model
        .save(std::io::BufWriter::new(file))
        .expect("write model file");
    model
}

/// `n` vectors: the first `bases.len()` are `bases` themselves, the rest
/// jittered copies (±8 % of each dimension's spread), so the store
/// clusters the way a trained encoder's outputs do.
pub fn jittered(bases: &[Vec<f32>], n: usize, seed: u64) -> Vec<Vec<f32>> {
    let dim = bases[0].len();
    let spread: Vec<f32> = (0..dim)
        .map(|j| {
            let lo = bases.iter().map(|b| b[j]).fold(f32::INFINITY, f32::min);
            let hi = bases.iter().map(|b| b[j]).fold(f32::NEG_INFINITY, f32::max);
            (hi - lo).max(1e-3)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let base = &bases[i % bases.len()];
            if i < bases.len() {
                return base.clone();
            }
            (0..dim)
                .map(|j| base[j] + 0.08 * spread[j] * (rng.random::<f32>() * 2.0 - 1.0))
                .collect()
        })
        .collect()
}
