// lint-fixture-path: crates/demo/src/underived.rs
//! Fixture: RNG streams seeded outside the derivation discipline. A
//! literal or ad-hoc seed is underived; a `*seed*`-named argument, a
//! waived fixed stream, a constructor definition and test code are not.

/// A stream seeded from a bare literal — underived.
pub fn literal_stream() -> StdRng {
    StdRng::seed_from_u64(42)
}

/// A stream seeded from raw bytes — underived.
pub fn byte_stream(index: u8) -> StdRng {
    StdRng::from_seed([index; 32])
}

/// A stream derived from the seed discipline — clean.
pub fn derived_stream(base_seed: u64, index: usize) -> StdRng {
    StdRng::seed_from_u64(cell_seed(base_seed, index))
}

/// A deliberate fixed stream, waived — silent.
pub fn fixed_stream() -> StdRng {
    // lint:allow(underived-rng-stream): fixture: a fixed stream pinned elsewhere
    StdRng::seed_from_u64(7)
}

impl SeedableRng for Demo {
    /// A constructor definition, not a construction — clean.
    fn seed_from_u64(state: u64) -> Self {
        Demo { state }
    }
}

#[cfg(test)]
mod tests {
    /// Tests may pin literal seeds freely.
    fn pinned() -> StdRng {
        StdRng::seed_from_u64(3)
    }
}
