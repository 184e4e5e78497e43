//! Workload inputs, all derived from the run's `--seed`: the road
//! network, the batch dataset and the pre-generated stream batches.
//! Everything here runs during setup; nothing simulates while timing.
//!
//! The city is fixed: the map, its hotspots and destinations, and a pool
//! of simulated trips twice as large as a workload needs all come from
//! constant seeds. `--seed` draws which trips of the pool a run uses.
//! Left to the simulator's seed, the two hotspots and three destinations
//! would move from run to run and change the total route length, and
//! with it every timing, by a quarter either way; drawing from a fixed
//! pool varies the input without that.

use neat_mobisim::presets::DatasetPreset;
use neat_mobisim::{generate_dataset, SimConfig};
use neat_rnet::netgen::{generate_grid_network, GridNetworkConfig, MapPreset};
use neat_rnet::RoadNetwork;
use neat_traj::{io as trajio, Dataset, Trajectory};

/// Seed of the road network.
const NETWORK_SEED: u64 = 42;

/// Seed of the simulated city: hotspots, destinations and trip pool.
const CITY_SEED: u64 = 43;

/// Trips in the pool per trip a run draws.
const POOL_FACTOR: usize = 2;

/// Input scale: the paper's San Jose map, or a tiny grid for the
/// benchmark's own self-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fixture {
    Sj,
    Tiny,
}

impl Fixture {
    pub fn network(self) -> RoadNetwork {
        match self {
            Fixture::Sj => MapPreset::SanJose.generate(NETWORK_SEED),
            Fixture::Tiny => {
                generate_grid_network(&GridNetworkConfig::small_test(10, 10), NETWORK_SEED)
            }
        }
    }

    fn sim_config(self, objects: usize) -> SimConfig {
        match self {
            Fixture::Sj => DatasetPreset::new(MapPreset::SanJose, objects).sim_config(),
            Fixture::Tiny => SimConfig {
                num_objects: objects,
                ..SimConfig::default()
            },
        }
    }

    /// Objects in the batch workload's dataset (SJ5000 at full scale).
    pub fn batch_objects(self) -> usize {
        match self {
            Fixture::Sj => 5000,
            Fixture::Tiny => 120,
        }
    }
}

/// splitmix64: a tiny seeded generator for drawing from the pool.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// `n` distinct trips of `pool` chosen by `seed`, in pool order.
fn draw(pool: &Dataset, n: usize, seed: u64) -> Vec<&Trajectory> {
    let trs = pool.trajectories();
    let mut idx: Vec<usize> = (0..trs.len()).collect();
    let mut rng = SplitMix(seed);
    let n = n.min(idx.len());
    for i in 0..n {
        let j = i + (rng.next() % (idx.len() - i) as u64) as usize;
        idx.swap(i, j);
    }
    let mut chosen = idx[..n].to_vec();
    chosen.sort_unstable();
    chosen.into_iter().map(|i| &trs[i]).collect()
}

/// The batch workload's dataset: SJ5000 drawn from the city's pool.
pub fn batch_dataset(fx: Fixture, net: &RoadNetwork, seed: u64) -> Dataset {
    let objects = fx.batch_objects();
    let pool = generate_dataset(
        net,
        &fx.sim_config(objects * POOL_FACTOR),
        CITY_SEED,
        "pool",
    );
    let trips = draw(&pool, objects, seed).into_iter().cloned().collect();
    Dataset::from_trajectories(format!("SJ{objects}"), trips)
}

/// One pre-generated stream batch: its ID and the text payload pushed
/// to the daemon.
pub struct Batch {
    pub id: String,
    pub payload: Vec<u8>,
}

/// `count` batches of `per_batch` trajectories each from a stream whose
/// departures arrive at `departures_per_s` (in observation time). Trips
/// are batched in the order they complete, as a feed reports them, so
/// every batch carries the newest observations yet and every push
/// advances the retention watermark.
pub fn stream_batches(
    fx: Fixture,
    net: &RoadNetwork,
    seed: u64,
    per_batch: usize,
    departures_per_s: f64,
    count: usize,
) -> Vec<Batch> {
    let objects = per_batch * count;
    let mut cfg = fx.sim_config(objects * POOL_FACTOR);
    // The draw keeps one trip in POOL_FACTOR, so the pool departs that
    // much faster than the stream.
    cfg.start_window_s = objects as f64 / departures_per_s;
    let pool = generate_dataset(net, &cfg, CITY_SEED ^ 0x5eed_57ea, "stream");
    let mut trips: Vec<Trajectory> = draw(&pool, objects, seed).into_iter().cloned().collect();
    drop(pool);
    trips.sort_by(|a, b| {
        a.last()
            .time
            .total_cmp(&b.last().time)
            .then(a.id().cmp(&b.id()))
    });
    // Encode batch by batch, freeing each batch's trips as it goes.
    let mut trips = trips.into_iter();
    let mut batches = Vec::with_capacity(count);
    loop {
        let chunk: Vec<Trajectory> = trips.by_ref().take(per_batch).collect();
        if chunk.is_empty() {
            return batches;
        }
        let id = format!("b{:06}", batches.len());
        let payload = dataset_text(&Dataset::from_trajectories(id.clone(), chunk));
        batches.push(Batch { id, payload });
    }
}

/// Text encoding of a dataset, as `neat simulate` writes it.
pub fn dataset_text(data: &Dataset) -> Vec<u8> {
    // About 65 bytes a sample; sizing up front spares the copies of a
    // growing buffer.
    let mut buf = Vec::with_capacity(data.total_points() * 70);
    // Writing to a Vec cannot fail.
    trajio::write_dataset(data, &mut buf).expect("in-memory write");
    buf
}

/// Text encoding of a network, as `neat gen-network` writes it.
pub fn network_text(net: &RoadNetwork) -> Vec<u8> {
    let mut buf = Vec::new();
    neat_rnet::io::write_network(net, &mut buf).expect("in-memory write");
    buf
}
