//! Analytic SRAM buffer model (the role CACTI plays in the paper).
//!
//! The paper obtains SRAM-buffer and DRAM read/write energy and latency
//! from CACTI \[24\]. We replace it with a capacity-scaled analytic model:
//! access energy and latency grow with the square root of capacity (word
//! lines and bit lines both scale with sqrt(bits) in a square macro), which
//! is the first-order behaviour CACTI itself exhibits.

use serde::{Deserialize, Serialize};

/// An on-chip SRAM buffer (cache) of a given capacity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SramBuffer {
    /// Capacity in bits.
    pub capacity_bits: u64,
    /// Access word width in bits.
    pub word_bits: u32,
    /// Energy per bit at the 64 Kb reference size, pJ/bit.
    pub e_ref_pj_per_bit: f64,
    /// Latency at the 64 Kb reference size, ns.
    pub t_ref_ns: f64,
    /// Area efficiency: buffer density in Mb/mm² (plain 6T, compact rule).
    pub density_mb_per_mm2: f64,
}

/// Reference capacity for the scaling law (64 Kb).
const REF_BITS: f64 = 65_536.0;

impl SramBuffer {
    /// A 28 nm SRAM buffer with published-ballpark constants:
    /// ~0.08 pJ/bit access at 64 Kb, ~0.6 ns, 2.6 Mb/mm² density.
    pub fn new_28nm(capacity_bits: u64) -> Self {
        SramBuffer {
            capacity_bits,
            word_bits: 64,
            e_ref_pj_per_bit: 0.08,
            t_ref_ns: 0.6,
            density_mb_per_mm2: 2.6,
        }
    }

    fn scale(&self) -> f64 {
        (self.capacity_bits as f64 / REF_BITS).max(1.0).sqrt()
    }

    /// Energy to read or write `bits` bits, in pJ.
    pub fn access_energy_pj(&self, bits: u64) -> f64 {
        bits as f64 * self.e_ref_pj_per_bit * self.scale()
    }

    /// Latency of one word access in ns.
    pub fn access_latency_ns(&self) -> f64 {
        self.t_ref_ns * self.scale()
    }

    /// Time to stream `bits` bits through the buffer port, ns.
    pub fn stream_latency_ns(&self, bits: u64) -> f64 {
        let words = bits.div_ceil(self.word_bits as u64);
        // Pipelined accesses: one word per cycle after the first.
        self.access_latency_ns() + (words.saturating_sub(1)) as f64 * 0.25 * self.scale()
    }

    /// Buffer area in mm².
    pub fn area_mm2(&self) -> f64 {
        self.capacity_bits as f64 / 1_048_576.0 / self.density_mb_per_mm2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_scales_with_capacity() {
        let small = SramBuffer::new_28nm(64 * 1024);
        let big = SramBuffer::new_28nm(16 * 1024 * 1024);
        let ratio = big.access_energy_pj(64) / small.access_energy_pj(64);
        // sqrt(16 Mb / 64 Kb) = 16.
        assert!((ratio - 16.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn latency_monotonic_in_capacity() {
        let mut last = 0.0;
        for bits in [1u64 << 16, 1 << 18, 1 << 20, 1 << 24] {
            let b = SramBuffer::new_28nm(bits);
            assert!(b.access_latency_ns() >= last);
            last = b.access_latency_ns();
        }
    }

    #[test]
    fn area_tracks_density() {
        let b = SramBuffer::new_28nm(2_600 * 1024 * 1024 / 1024); // 2.6 Mb
        assert!((b.area_mm2() - 1.0).abs() < 0.05, "{}", b.area_mm2());
    }

    #[test]
    fn streaming_beats_random_access() {
        let b = SramBuffer::new_28nm(1 << 20);
        let stream = b.stream_latency_ns(64 * 100);
        let random = b.access_latency_ns() * 100.0;
        assert!(stream < random);
    }

    #[test]
    fn tiny_buffers_clamp_to_reference() {
        let b = SramBuffer::new_28nm(1024);
        assert!((b.access_latency_ns() - b.t_ref_ns).abs() < 1e-12);
    }
}
