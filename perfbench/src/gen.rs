//! Seeded inputs and the independent golden check.
//!
//! Every input the benchmark feeds the program comes from [`Rng`], seeded
//! by `--seed`; the program under test never sees the seed. The golden
//! model is `ntt-ref`'s plan-based transform, behind the benchmark's own
//! [`PlanCache`] so the service's cache counters stay the program's.

use ntt_pim::engine::batch::{JobKind, NttJob};
use ntt_ref::cache::PlanCache;

/// SplitMix64: small, fast, and good enough for workload generation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate`/s.
    pub fn exp_gap_s(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The operation a generated request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Forward,
    Inverse,
    Polymul,
}

impl Kind {
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "forward" => Ok(Kind::Forward),
            "inverse" => Ok(Kind::Inverse),
            "polymul" => Ok(Kind::Polymul),
            other => Err(format!("unknown job kind `{other}`")),
        }
    }
}

/// One request shape: what the mix draws before values are filled in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub kind: Kind,
    pub n: usize,
    pub q: u64,
}

pub fn poly(rng: &mut Rng, n: usize, q: u64) -> Vec<u64> {
    (0..n).map(|_| rng.next_u64() % q).collect()
}

pub fn job(rng: &mut Rng, shape: Shape) -> NttJob {
    let coeffs = poly(rng, shape.n, shape.q);
    match shape.kind {
        Kind::Forward => NttJob::forward(coeffs, shape.q),
        Kind::Inverse => NttJob::inverse(coeffs, shape.q),
        Kind::Polymul => {
            let rhs = poly(rng, shape.n, shape.q);
            NttJob::negacyclic_polymul(coeffs, rhs, shape.q)
        }
    }
}

/// Every combination of the mix's kinds, lengths and moduli that the
/// modulus supports (`2N | q-1`), in a fixed order.
pub fn grid(kinds: &[Kind], lengths: &[usize], moduli: &[u64]) -> Vec<Shape> {
    let mut shapes = Vec::new();
    for &kind in kinds {
        for &n in lengths {
            for &q in moduli {
                if (q - 1) % (2 * n as u64) == 0 {
                    shapes.push(Shape { kind, n, q });
                }
            }
        }
    }
    shapes
}

/// An endless stratified stream of shapes: each block of `grid.len()`
/// draws is a fresh seeded permutation of the grid, so every seed sees
/// the same mix proportions and only the order differs.
pub struct ShapeStream {
    grid: Vec<Shape>,
    block: Vec<Shape>,
}

impl ShapeStream {
    pub fn new(grid: Vec<Shape>) -> Self {
        assert!(!grid.is_empty(), "the mix admits no shape");
        Self {
            grid,
            block: Vec::new(),
        }
    }

    pub fn next(&mut self, rng: &mut Rng) -> Shape {
        if self.block.is_empty() {
            self.block = self.grid.clone();
            rng.shuffle(&mut self.block);
        }
        self.block.pop().expect("refilled above")
    }

    /// The next shape, filled with seeded values.
    pub fn next_job(&mut self, rng: &mut Rng) -> NttJob {
        let shape = self.next(rng);
        job(rng, shape)
    }
}

/// The golden model every output is checked against.
pub struct Golden {
    cache: PlanCache,
}

impl Golden {
    pub fn new() -> Self {
        Self {
            cache: PlanCache::new(),
        }
    }

    /// The expected output of `job`. A split large transform is a forward
    /// NTT of the whole input.
    pub fn expect(&self, job: &NttJob) -> Vec<u64> {
        let plan = self
            .cache
            .get_or_build(job.n(), job.q)
            .expect("generated jobs have an NTT-friendly modulus");
        let mut data = job.coeffs.clone();
        match &job.kind {
            JobKind::Forward | JobKind::SplitLarge => plan.forward(&mut data),
            JobKind::Inverse => plan.inverse(&mut data),
            JobKind::NegacyclicPolymul { rhs } => {
                data = ntt_ref::poly::mul_negacyclic(&plan, &job.coeffs, rhs)
            }
        }
        data
    }

    pub fn check(&self, job: &NttJob, got: &[u64]) -> bool {
        self.expect(job) == got
    }
}
