//! Workload inputs, pure in the workload seed.
//!
//! Every random choice a run makes — dataset, model initialisation,
//! batch order, which encoder row a request carries, sweep seeds —
//! draws from a named sub-stream of the workload seed. A traced and an
//! untraced run of one seed therefore offer the program identical
//! inputs, and a shorter run offers a prefix of a longer one.

use qnat_core::executor::splitmix64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Independent sub-streams of one workload seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// Dataset synthesis.
    Data,
    /// Model parameter initialisation.
    Init,
    /// Mini-batch order.
    Batches,
    /// Error-gate sampling during training.
    Noise,
    /// Error-gate sampling while the traced run re-runs a step's layer
    /// calls one by one.
    Replay,
    /// Rows one closed-loop serving client sends.
    Client(usize),
    /// Rows and sweep seeds of the closed-loop mitigation client.
    Sweeps,
}

impl Stream {
    fn tag(self) -> u64 {
        match self {
            Stream::Data => 1,
            Stream::Init => 2,
            Stream::Batches => 3,
            Stream::Noise => 4,
            Stream::Sweeps => 5,
            Stream::Replay => 6,
            Stream::Client(i) => 0x100 + i as u64,
        }
    }
}

/// The sub-stream seed `stream` of workload seed `seed`, by the
/// repository's `splitmix64(seed ^ splitmix64(k))` schedule.
pub fn sub_seed(seed: u64, stream: Stream) -> u64 {
    splitmix64(seed ^ splitmix64(stream.tag()))
}

/// A generator over sub-stream `stream` of `seed`.
pub fn rng(seed: u64, stream: Stream) -> StdRng {
    StdRng::seed_from_u64(sub_seed(seed, stream))
}

/// The endless, seeded sequence of rows serving client `client` sends,
/// drawn uniformly from `0..n_rows`.
pub fn rows(seed: u64, client: usize, n_rows: usize) -> impl Iterator<Item = usize> {
    let mut rng = rng(seed, Stream::Client(client));
    std::iter::repeat_with(move || rng.gen_range(0..n_rows))
}

/// One closed-loop request: the row it carries and its sweep seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepInput {
    /// Which input row the sweep runs.
    pub row: usize,
    /// The sweep's replay seed.
    pub sweep_seed: u64,
}

/// An endless, seeded sequence of closed-loop sweep inputs.
pub struct Sweeps {
    rng: StdRng,
    n_rows: usize,
}

impl Sweeps {
    /// The sweep inputs of workload seed `seed` over `n_rows` rows.
    pub fn new(seed: u64, n_rows: usize) -> Sweeps {
        Sweeps {
            rng: rng(seed, Stream::Sweeps),
            n_rows,
        }
    }
}

impl Iterator for Sweeps {
    type Item = SweepInput;

    fn next(&mut self) -> Option<SweepInput> {
        Some(SweepInput {
            row: self.rng.gen_range(0..self.n_rows),
            // The wire carries seeds as JSON numbers, exact below 2⁵³.
            sweep_seed: self.rng.gen::<u64>() >> 11,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take_rows(seed: u64, client: usize) -> Vec<usize> {
        rows(seed, client, 300).take(50).collect()
    }

    #[test]
    fn equal_seeds_give_equal_schedules() {
        assert_eq!(take_rows(7, 0), take_rows(7, 0));
        let a: Vec<_> = Sweeps::new(7, 300).take(50).collect();
        let b: Vec<_> = Sweeps::new(7, 300).take(50).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        assert_ne!(take_rows(7, 0), take_rows(8, 0));
        assert_ne!(take_rows(7, 0), take_rows(7, 1));
        let a: Vec<_> = Sweeps::new(7, 300).take(50).collect();
        let b: Vec<_> = Sweeps::new(8, 300).take(50).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn rows_stay_in_range_and_cover_it() {
        let rs: Vec<usize> = rows(3, 0, 10).take(1000).collect();
        assert!(rs.iter().all(|&r| r < 10));
        assert!((0..10).all(|r| rs.contains(&r)));
    }
}
