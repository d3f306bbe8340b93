//! Task datasets with the paper's splits.
//!
//! Eight classification tasks (§4.1): MNIST 10/4/2-class, Fashion 10/4/2,
//! CIFAR-2 and Vowel-4. Image tasks synthesize per-class prototypes and
//! follow the crop/pool pipeline; Vowel-4 synthesizes 990 samples split
//! 6:1:3 with a from-scratch PCA down to 10 dimensions. All features land
//! in `[0, 1]` and are later scaled to rotation angles by the encoder.

use crate::image::{synth_features, ImageStyle};
use crate::pca::Pca;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One labeled sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Feature vector (values in `[0, 1]`).
    pub features: Vec<f64>,
    /// Class label in `0..n_classes`.
    pub label: usize,
}

/// A train/validation/test split.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Task name (e.g. `"mnist-4"`).
    pub name: String,
    /// Number of classes.
    pub n_classes: usize,
    /// Feature dimension.
    pub n_features: usize,
    /// Training samples.
    pub train: Vec<Sample>,
    /// Validation samples.
    pub valid: Vec<Sample>,
    /// Test samples.
    pub test: Vec<Sample>,
}

/// The eight benchmark tasks of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Task {
    /// MNIST digits 0–3, 4×4 features.
    Mnist4,
    /// MNIST digits 3 vs 6, 4×4 features.
    Mnist2,
    /// MNIST 10-class, 6×6 features.
    Mnist10,
    /// Fashion 4-class (t-shirt/trouser/pullover/dress), 4×4 features.
    Fashion4,
    /// Fashion 2-class (dress vs shirt), 4×4 features.
    Fashion2,
    /// Fashion 10-class, 6×6 features.
    Fashion10,
    /// CIFAR 2-class (frog vs ship), grayscale 4×4 features.
    Cifar2,
    /// Vowel 4-class, PCA to 10 features.
    Vowel4,
}

impl Task {
    /// All tasks, in the paper's table order.
    pub fn all() -> [Task; 8] {
        [
            Task::Mnist4,
            Task::Fashion4,
            Task::Vowel4,
            Task::Mnist2,
            Task::Fashion2,
            Task::Cifar2,
            Task::Mnist10,
            Task::Fashion10,
        ]
    }

    /// Task name.
    pub fn name(&self) -> &'static str {
        match self {
            Task::Mnist4 => "mnist-4",
            Task::Mnist2 => "mnist-2",
            Task::Mnist10 => "mnist-10",
            Task::Fashion4 => "fashion-4",
            Task::Fashion2 => "fashion-2",
            Task::Fashion10 => "fashion-10",
            Task::Cifar2 => "cifar-2",
            Task::Vowel4 => "vowel-4",
        }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        match self {
            Task::Mnist10 | Task::Fashion10 => 10,
            Task::Mnist4 | Task::Fashion4 | Task::Vowel4 => 4,
            _ => 2,
        }
    }

    /// Feature dimension after preprocessing (16, 36 or 10).
    pub fn n_features(&self) -> usize {
        match self {
            Task::Mnist10 | Task::Fashion10 => 36,
            Task::Vowel4 => 10,
            _ => 16,
        }
    }

    fn style(&self) -> Option<ImageStyle> {
        match self {
            Task::Mnist4 | Task::Mnist2 | Task::Mnist10 => Some(ImageStyle::mnist()),
            Task::Fashion4 | Task::Fashion2 | Task::Fashion10 => Some(ImageStyle::fashion()),
            Task::Cifar2 => Some(ImageStyle::cifar()),
            Task::Vowel4 => None,
        }
    }

    /// Corpus seed: distinct prototype universes per corpus.
    fn corpus_seed(&self) -> u64 {
        match self {
            Task::Mnist4 | Task::Mnist2 | Task::Mnist10 => 101,
            Task::Fashion4 | Task::Fashion2 | Task::Fashion10 => 202,
            Task::Cifar2 => 303,
            Task::Vowel4 => 404,
        }
    }

    /// Which corpus classes this task selects (paper: MNIST-2 is digits
    /// {3, 6}, Fashion-2 is {dress, shirt} = {3, 6} in Fashion-MNIST label
    /// order, CIFAR-2 is {frog, ship} = {6, 8}).
    fn class_ids(&self) -> Vec<usize> {
        match self {
            Task::Mnist4 | Task::Fashion4 => vec![0, 1, 2, 3],
            Task::Mnist2 | Task::Fashion2 => vec![3, 6],
            Task::Cifar2 => vec![6, 8],
            Task::Mnist10 | Task::Fashion10 => (0..10).collect(),
            Task::Vowel4 => vec![0, 1, 2, 3],
        }
    }

    /// `(crop, pool)` of the preprocessing pipeline.
    fn crop_pool(&self) -> (usize, usize) {
        match self {
            Task::Mnist10 | Task::Fashion10 => (24, 6),
            Task::Cifar2 => (28, 4),
            _ => (24, 4),
        }
    }
}

/// Dataset sizes and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskConfig {
    /// Training-set size.
    pub n_train: usize,
    /// Validation-set size (paper: 5% of train split).
    pub n_valid: usize,
    /// Test-set size (paper: first 300 test images).
    pub n_test: usize,
    /// RNG seed for sample generation and splits.
    pub seed: u64,
}

impl Default for TaskConfig {
    fn default() -> Self {
        TaskConfig {
            n_train: 400,
            n_valid: 100,
            n_test: 300,
            seed: 7,
        }
    }
}

impl TaskConfig {
    /// A reduced configuration for fast tests and benches.
    pub fn small(seed: u64) -> Self {
        TaskConfig {
            n_train: 96,
            n_valid: 32,
            n_test: 64,
            seed,
        }
    }
}

fn image_split(task: Task, n: usize, rng: &mut StdRng) -> Vec<Sample> {
    let style = task.style().expect("image task");
    let classes = task.class_ids();
    let (crop, pool) = task.crop_pool();
    (0..n)
        .map(|i| {
            let label = i % classes.len();
            let features =
                synth_features(task.corpus_seed(), classes[label], &style, crop, pool, rng);
            Sample { features, label }
        })
        .collect()
}

fn build_vowel(config: &TaskConfig) -> Dataset {
    // 990 samples, 4 classes, raw 20-dimensional formant-like features:
    // class-dependent Gaussians with shared covariance structure.
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xBEEF);
    let n_total = 990;
    let raw_dim = 20;
    let mut proto_rng = StdRng::seed_from_u64(404);
    let protos: Vec<Vec<f64>> = (0..4)
        .map(|_| {
            (0..raw_dim)
                .map(|_| proto_rng.gen_range(-1.0..1.0))
                .collect()
        })
        .collect();
    let mut samples: Vec<Sample> = (0..n_total)
        .map(|i| {
            let label = i % 4;
            let features = protos[label]
                .iter()
                .map(|&m| {
                    let u1: f64 = rng.gen_range(1e-12..1.0);
                    let u2: f64 = rng.gen();
                    let n = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                    m + 0.55 * n
                })
                .collect();
            Sample { features, label }
        })
        .collect();
    samples.shuffle(&mut rng);
    // Paper split: train:valid:test = 6:1:3.
    let n_train = n_total * 6 / 10;
    let n_valid = n_total / 10;
    let train_raw = &samples[..n_train];
    // Fit PCA on the training split only.
    let pca = Pca::fit(
        &train_raw
            .iter()
            .map(|s| s.features.clone())
            .collect::<Vec<_>>(),
        10,
    );
    // Rescale each PCA dimension to [0, 1] using train statistics.
    let projected: Vec<Vec<f64>> = samples.iter().map(|s| pca.transform(&s.features)).collect();
    let mut lo = [f64::INFINITY; 10];
    let mut hi = [f64::NEG_INFINITY; 10];
    for p in projected.iter().take(n_train) {
        for (d, &v) in p.iter().enumerate() {
            lo[d] = lo[d].min(v);
            hi[d] = hi[d].max(v);
        }
    }
    let rescaled: Vec<Sample> = samples
        .iter()
        .zip(&projected)
        .map(|(s, p)| Sample {
            features: p
                .iter()
                .enumerate()
                .map(|(d, &v)| ((v - lo[d]) / (hi[d] - lo[d]).max(1e-12)).clamp(0.0, 1.0))
                .collect(),
            label: s.label,
        })
        .collect();
    Dataset {
        name: "vowel-4".into(),
        n_classes: 4,
        n_features: 10,
        train: rescaled[..n_train].to_vec(),
        valid: rescaled[n_train..n_train + n_valid].to_vec(),
        test: rescaled[n_train + n_valid..].to_vec(),
    }
}

/// Builds a task dataset.
///
/// # Examples
///
/// ```
/// use qnat_data::dataset::{build, Task, TaskConfig};
/// let ds = build(Task::Mnist4, &TaskConfig::small(1));
/// assert_eq!(ds.n_classes, 4);
/// assert_eq!(ds.n_features, 16);
/// assert_eq!(ds.train.len(), 96);
/// ```
pub fn build(task: Task, config: &TaskConfig) -> Dataset {
    if task == Task::Vowel4 {
        return build_vowel(config);
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    Dataset {
        name: task.name().into(),
        n_classes: task.n_classes(),
        n_features: task.n_features(),
        train: image_split(task, config.n_train, &mut rng),
        valid: image_split(task, config.n_valid, &mut rng),
        test: image_split(task, config.n_test, &mut rng),
    }
}

/// Shuffles sample indices and yields mini-batches of at most `batch_size`.
pub fn batch_indices<R: Rng>(n: usize, batch_size: usize, rng: &mut R) -> Vec<Vec<usize>> {
    assert!(batch_size > 0, "batch size must be positive");
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    idx.chunks(batch_size).map(|c| c.to_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_tasks_build_with_declared_shapes() {
        let cfg = TaskConfig::small(3);
        for task in Task::all() {
            let ds = build(task, &cfg);
            assert_eq!(ds.n_classes, task.n_classes(), "{}", task.name());
            assert_eq!(ds.n_features, task.n_features(), "{}", task.name());
            for s in ds.train.iter().chain(&ds.valid).chain(&ds.test) {
                assert_eq!(s.features.len(), ds.n_features);
                assert!(s.label < ds.n_classes);
                assert!(s.features.iter().all(|&v| (0.0..=1.0).contains(&v)));
            }
        }
    }

    #[test]
    fn builds_are_deterministic() {
        let cfg = TaskConfig::small(5);
        assert_eq!(build(Task::Fashion2, &cfg), build(Task::Fashion2, &cfg));
    }

    #[test]
    fn different_seeds_differ() {
        let a = build(Task::Mnist4, &TaskConfig::small(1));
        let b = build(Task::Mnist4, &TaskConfig::small(2));
        assert_ne!(a.train[0].features, b.train[0].features);
    }

    #[test]
    fn vowel_split_is_6_1_3() {
        let ds = build(Task::Vowel4, &TaskConfig::default());
        assert_eq!(ds.train.len(), 594);
        assert_eq!(ds.valid.len(), 99);
        assert_eq!(ds.test.len(), 297);
        assert_eq!(ds.n_features, 10);
    }

    #[test]
    fn labels_are_balanced() {
        let ds = build(Task::Mnist4, &TaskConfig::small(4));
        let mut counts = [0usize; 4];
        for s in &ds.train {
            counts[s.label] += 1;
        }
        assert_eq!(counts, [24, 24, 24, 24]);
    }

    #[test]
    fn batch_indices_cover_everything() {
        let mut rng = StdRng::seed_from_u64(1);
        let batches = batch_indices(10, 4, &mut rng);
        assert_eq!(batches.len(), 3);
        let mut all: Vec<usize> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn two_class_tasks_use_distinct_prototypes() {
        // MNIST-2 (classes 3, 6) must not duplicate MNIST-4's classes 0/1.
        let m2 = build(Task::Mnist2, &TaskConfig::small(1));
        let m4 = build(Task::Mnist4, &TaskConfig::small(1));
        assert_ne!(m2.train[0].features, m4.train[0].features);
    }
}
