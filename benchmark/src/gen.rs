//! The benchmark's own load: a seeded PRNG and the arrival and content
//! generators built on it. Nothing here calls into the repo, so the load is
//! the same on every commit the benchmark is run against.

/// SplitMix64 — small, fast, and good enough to draw arrivals and pixels.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for an independent stream of the same run: `stream`
    /// names the consumer (arrivals, content, ...), so adding a consumer
    /// does not shift the numbers the others draw.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, 1)` with 24 random bits (exact in an `f32`).
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u32 << 24) as f32
    }
}

/// Due times, in microseconds from the start of the phase, of Poisson
/// arrivals at `rate_hz` over `seconds`.
pub fn poisson_schedule(seed: u64, rate_hz: f64, seconds: f64) -> Vec<u64> {
    let mut rng = Rng::stream(seed, 1);
    let horizon_us = seconds * 1e6;
    let mut t_us = 0.0f64;
    let mut due = Vec::with_capacity((rate_hz * seconds * 1.1) as usize + 16);
    loop {
        t_us += -(1.0 - rng.next_f64()).ln() / rate_hz * 1e6;
        if t_us >= horizon_us {
            return due;
        }
        due.push(t_us as u64);
    }
}

/// Zipf(s) ranks over `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Request pixels. Every image is random in `[0, 1)`, and its first two
/// pixels carry a 48-bit serial number, so no two images from one
/// generator are equal whatever the PRNG draws — the cache can never be
/// hit by content meant to be distinct.
#[derive(Debug, Clone)]
pub struct Content {
    rng: Rng,
    pixels: usize,
    serial: u64,
}

impl Content {
    /// `pixels` must be at least 2.
    pub fn new(seed: u64, pixels: usize) -> Self {
        assert!(pixels >= 2, "an image needs two pixels for its serial");
        Content {
            rng: Rng::stream(seed, 2),
            pixels,
            serial: 0,
        }
    }

    pub fn next_image(&mut self) -> Vec<f32> {
        let mut img: Vec<f32> = (0..self.pixels).map(|_| self.rng.next_f32()).collect();
        const SCALE: f32 = (1u32 << 24) as f32;
        img[0] = (self.serial & 0xFF_FFFF) as f32 / SCALE;
        img[1] = ((self.serial >> 24) & 0xFF_FFFF) as f32 / SCALE;
        self.serial += 1;
        img
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_repeats_per_seed_and_is_sorted() {
        let a = poisson_schedule(7, 1000.0, 2.0);
        assert_eq!(a, poisson_schedule(7, 1000.0, 2.0));
        assert_ne!(a, poisson_schedule(8, 1000.0, 2.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < 2_000_000));
        // 2000 expected, sd ~45.
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn zipf_repeats_per_seed_and_favours_low_ranks() {
        let z = Zipf::new(4096, 1.0);
        let draw = |seed| {
            let mut rng = Rng::stream(seed, 3);
            (0..20_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(1);
        assert_eq!(a, draw(1));
        assert_ne!(a, draw(2));
        assert!(a.iter().all(|&k| k < 4096));
        let top = a.iter().filter(|&&k| k == 0).count() as f64 / a.len() as f64;
        // P(rank 1) = 1 / H_4096 = 0.112.
        assert!((0.09..0.14).contains(&top), "{top}");
    }

    #[test]
    fn content_repeats_per_seed() {
        let mut a = Content::new(5, 36);
        let mut b = Content::new(5, 36);
        let mut c = Content::new(6, 36);
        let first = a.next_image();
        assert_eq!(first, b.next_image());
        assert_ne!(first, c.next_image());
        assert!(first.iter().all(|&p| (0.0..1.0).contains(&p)));
    }
}
