//! Synthetic image generation and the paper's exact preprocessing pipeline.
//!
//! Real MNIST/Fashion/CIFAR files are not available offline, so each class
//! is a *smooth random prototype field* (a seeded mixture of Gaussian
//! blobs); samples are drawn by jittering the prototype position and adding
//! pixel noise. What the experiments measure — robustness deltas between
//! noise-free and noisy inference and the ordering of the ablation arms —
//! depends on the moderate class separability of the downsampled features,
//! not on actual digit shapes. Preprocessing follows §4.1 exactly:
//! center-crop 28×28 → 24×24, average-pool to 4×4 (2/4-class) or 6×6
//! (10-class); CIFAR is "converted to grayscale", cropped to 28×28 and
//! pooled to 4×4.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A square grayscale image with pixels in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    size: usize,
    pixels: Vec<f64>,
}

impl Image {
    /// Creates an image from raw pixels.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len() != size²`.
    pub fn new(size: usize, pixels: Vec<f64>) -> Self {
        assert_eq!(pixels.len(), size * size, "pixel count mismatch");
        Image { size, pixels }
    }

    /// Side length in pixels.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Pixel at `(row, col)`.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.pixels[row * self.size + col]
    }

    /// Flat pixel data (row-major).
    pub fn pixels(&self) -> &[f64] {
        &self.pixels
    }

    /// Center-crops to `out` × `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out > size`.
    pub fn center_crop(&self, out: usize) -> Image {
        assert!(out <= self.size, "crop larger than image");
        let off = (self.size - out) / 2;
        let mut pixels = Vec::with_capacity(out * out);
        for r in 0..out {
            for c in 0..out {
                pixels.push(self.get(r + off, c + off));
            }
        }
        Image::new(out, pixels)
    }

    /// Average-pools to `out` × `out` (the paper's down-sampling).
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a multiple of `out`.
    pub fn avg_pool(&self, out: usize) -> Image {
        assert_eq!(self.size % out, 0, "pool size must divide image size");
        let k = self.size / out;
        let mut pixels = Vec::with_capacity(out * out);
        for r in 0..out {
            for c in 0..out {
                let mut acc = 0.0;
                for i in 0..k {
                    for j in 0..k {
                        acc += self.get(r * k + i, c * k + j);
                    }
                }
                pixels.push(acc / (k * k) as f64);
            }
        }
        Image::new(out, pixels)
    }
}

/// A Gaussian blob of a class prototype.
#[derive(Debug, Clone, Copy)]
struct Blob {
    row: f64,
    col: f64,
    sigma: f64,
    amp: f64,
}

/// A per-class generative prototype: a mixture of Gaussian blobs.
#[derive(Debug, Clone)]
pub struct ClassPrototype {
    blobs: Vec<Blob>,
}

/// Style knobs distinguishing the synthetic corpora.
///
/// Every class of a corpus shares `n_shared` *common* blobs (the "all
/// digits are pen strokes on a dark background" structure) and differs only
/// by `n_class` class-specific blobs of amplitude `class_amp` — this keeps
/// the class margins moderate, like the paper's downsampled 4×4 images,
/// instead of trivially separable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageStyle {
    /// Blobs shared by all classes of the corpus.
    pub n_shared: usize,
    /// Class-specific blobs.
    pub n_class: usize,
    /// Amplitude of the class-specific blobs (shared blobs have ~1).
    pub class_amp: f64,
    /// Blob σ range (pixels).
    pub sigma: (f64, f64),
    /// Per-sample positional jitter (± pixels).
    pub jitter: f64,
    /// Per-pixel additive Gaussian noise σ.
    pub pixel_noise: f64,
}

impl ImageStyle {
    /// MNIST-like: compact strokes, modest class deviations.
    pub fn mnist() -> Self {
        ImageStyle {
            n_shared: 3,
            n_class: 4,
            class_amp: 0.5,
            sigma: (1.8, 3.5),
            jitter: 2.2,
            pixel_noise: 0.12,
        }
    }

    /// Fashion-MNIST-like: broader garment-ish masses, closer classes.
    pub fn fashion() -> Self {
        ImageStyle {
            n_shared: 4,
            n_class: 4,
            class_amp: 0.42,
            sigma: (2.5, 5.5),
            jitter: 2.0,
            pixel_noise: 0.13,
        }
    }

    /// Grayscale-CIFAR-like: diffuse, noisy, weakly separable.
    pub fn cifar() -> Self {
        ImageStyle {
            n_shared: 6,
            n_class: 4,
            class_amp: 0.26,
            sigma: (3.0, 7.0),
            jitter: 2.8,
            pixel_noise: 0.18,
        }
    }
}

impl ClassPrototype {
    /// Deterministically builds the prototype of `class` for a corpus seed:
    /// shared corpus blobs plus weaker class-specific ones.
    pub fn generate(corpus_seed: u64, class: usize, style: &ImageStyle, size: usize) -> Self {
        let mut shared_rng = StdRng::seed_from_u64(corpus_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut class_rng = StdRng::seed_from_u64(
            corpus_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(1 + class as u64),
        );
        let mut blobs: Vec<Blob> = (0..style.n_shared)
            .map(|_| Blob {
                row: shared_rng.gen_range(0.2..0.8) * size as f64,
                col: shared_rng.gen_range(0.2..0.8) * size as f64,
                sigma: shared_rng.gen_range(style.sigma.0..style.sigma.1),
                amp: shared_rng.gen_range(0.5..1.0),
            })
            .collect();
        blobs.extend((0..style.n_class).map(|_| Blob {
            row: class_rng.gen_range(0.15..0.85) * size as f64,
            col: class_rng.gen_range(0.15..0.85) * size as f64,
            sigma: class_rng.gen_range(style.sigma.0..style.sigma.1),
            amp: class_rng.gen_range(0.5..1.0) * style.class_amp,
        }));
        ClassPrototype { blobs }
    }

    /// Renders one sample of this class: jitter the blob positions, add
    /// pixel noise, clip to `[0, 1]`.
    pub fn sample<R: Rng>(&self, style: &ImageStyle, size: usize, rng: &mut R) -> Image {
        let dr: f64 = rng.gen_range(-style.jitter..=style.jitter);
        let dc: f64 = rng.gen_range(-style.jitter..=style.jitter);
        let mut pixels = vec![0.0; size * size];
        for blob in &self.blobs {
            let (br, bc) = (blob.row + dr, blob.col + dc);
            let inv = 1.0 / (2.0 * blob.sigma * blob.sigma);
            for r in 0..size {
                for c in 0..size {
                    let d2 = (r as f64 - br).powi(2) + (c as f64 - bc).powi(2);
                    pixels[r * size + c] += blob.amp * (-d2 * inv).exp();
                }
            }
        }
        for p in &mut pixels {
            // Box-Muller Gaussian pixel noise.
            let u1: f64 = rng.gen_range(1e-12..1.0);
            let u2: f64 = rng.gen();
            let n = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            *p = (*p + n * style.pixel_noise).clamp(0.0, 1.0);
        }
        Image::new(size, pixels)
    }
}

/// Renders a sample of `class` and applies the paper's preprocessing:
/// 28×28 → center-crop `crop` → average-pool to `out`. Returns the flat
/// feature vector (length `out²`).
pub fn synth_features<R: Rng>(
    corpus_seed: u64,
    class: usize,
    style: &ImageStyle,
    crop: usize,
    out: usize,
    rng: &mut R,
) -> Vec<f64> {
    let proto = ClassPrototype::generate(corpus_seed, class, style, 28);
    let img = proto.sample(style, 28, rng);
    img.center_crop(crop).avg_pool(out).pixels().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crop_and_pool_shapes() {
        let img = Image::new(28, vec![0.5; 28 * 28]);
        let c = img.center_crop(24);
        assert_eq!(c.size(), 24);
        let p = c.avg_pool(4);
        assert_eq!(p.size(), 4);
        assert!((p.get(0, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn avg_pool_averages() {
        let mut pixels = vec![0.0; 16];
        pixels[0] = 1.0; // one bright pixel in the 2×2 top-left block
        let img = Image::new(4, pixels);
        let p = img.avg_pool(2);
        assert!((p.get(0, 0) - 0.25).abs() < 1e-12);
        assert_eq!(p.get(1, 1), 0.0);
    }

    #[test]
    fn prototypes_are_deterministic() {
        let s = ImageStyle::mnist();
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let a = synth_features(1, 0, &s, 24, 4, &mut r1);
        let b = synth_features(1, 0, &s, 24, 4, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn classes_are_distinguishable() {
        // Mean feature vectors of two classes should differ much more than
        // within-class variation.
        let s = ImageStyle::mnist();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 40;
        let mean = |class: usize, rng: &mut StdRng| -> Vec<f64> {
            let mut acc = vec![0.0; 16];
            for _ in 0..n {
                let f = synth_features(1, class, &s, 24, 4, rng);
                for (a, v) in acc.iter_mut().zip(&f) {
                    *a += v;
                }
            }
            acc.into_iter().map(|v| v / n as f64).collect()
        };
        let m0 = mean(0, &mut rng);
        let m1 = mean(1, &mut rng);
        let dist: f64 = m0
            .iter()
            .zip(&m1)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(dist > 0.1, "class means too close: {dist}");
    }

    #[test]
    fn pixels_stay_in_unit_range() {
        let s = ImageStyle::cifar();
        let mut rng = StdRng::seed_from_u64(9);
        for class in 0..2 {
            let f = synth_features(5, class, &s, 28, 4, &mut rng);
            assert!(f.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    #[should_panic(expected = "pool size must divide")]
    fn bad_pool_panics() {
        Image::new(10, vec![0.0; 100]).avg_pool(4);
    }
}
