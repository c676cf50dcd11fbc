//! Behavioural analog model of a CiM subarray evaluation.
//!
//! One evaluation of the Fig. 5 datapath: bit lines are precharged, a
//! word-line pulse train (0..=3 pulses for a 2-bit activation digit) is
//! applied, strapped cells discharge their bit line once per pulse, and the
//! remnant bit-line charge is digitized by a column ADC. The analog
//! quantity is therefore the *count of cell discharge events* per column;
//! noise and ADC resolution corrupt it exactly the way the real bit-line
//! voltage sensing would.

use rand::Rng;

use crate::cells::RomCell;
use crate::faults::ColumnFaults;

/// ADC transfer model for bit-line sensing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdcModel {
    /// Infinite-resolution readout: returns the exact discharge count.
    /// Used as the golden mode to verify functional equivalence.
    Ideal,
    /// A `bits`-resolution ADC whose full scale covers `full_scale`
    /// discharge events (at most `rows_per_activation * max_pulses`).
    /// Counts are linearly mapped to codes and back, so the output is the
    /// count rounded to the nearest of `2^bits - 1` levels and saturated.
    Sar {
        /// Resolution in bits (the paper's macro uses 5).
        bits: u8,
        /// Discharge-event count mapped to the top code.
        full_scale: u32,
    },
}

impl AdcModel {
    /// Digitizes a (possibly noisy) discharge count, returning the count
    /// value the digital side will use.
    pub fn digitize(&self, count: f32) -> i64 {
        match *self {
            AdcModel::Ideal => count.round().max(0.0) as i64,
            AdcModel::Sar { bits, full_scale } => {
                let levels = (1u32 << bits) - 1;
                // When the count range fits the code range the ADC resolves
                // single discharge events (LSB = 1 count) — the design
                // point the paper's 5-bit ADC with limited simultaneous
                // rows sits at. Otherwise the LSB covers several counts and
                // the readout quantizes.
                let lsb = (full_scale as f32 / levels as f32).max(1.0);
                let code = (count / lsb).round().clamp(0.0, levels as f32);
                (code * lsb).round() as i64
            }
        }
    }

    /// Worst-case absolute quantization error in discharge counts.
    pub fn max_quantization_error(&self) -> f32 {
        match *self {
            AdcModel::Ideal => 0.5,
            AdcModel::Sar { bits, full_scale } => {
                let levels = (1u32 << bits) - 1;
                (full_scale as f32 / levels as f32).max(1.0) / 2.0 + 0.5
            }
        }
    }
}

/// Configuration of one analog subarray evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalogConfig {
    /// Physical rows in the subarray (128 in the paper's macro).
    pub rows: usize,
    /// Physical bit lines (256 in the paper's macro).
    pub cols: usize,
    /// Rows driven simultaneously per evaluation; larger values raise
    /// parallelism but stress ADC dynamic range (paper §4.3.1 trade-off).
    pub rows_per_activation: usize,
    /// Gaussian noise sigma on the discharge count (thermal/offset noise
    /// referred to the bit line), in count units.
    pub noise_sigma: f32,
    /// Maximum word-line pulses per evaluation (3 for 2-bit digits).
    pub max_pulses: u8,
    /// Column ADC model.
    pub adc: AdcModel,
}

/// A subarray of ROM cells with the analog evaluation model.
#[derive(Debug, Clone)]
pub struct AnalogArray {
    config: AnalogConfig,
    /// Row-major cell matrix, `rows x cols`.
    cells: Vec<RomCell>,
    /// Per-column ADC transfer faults (`len == cols` when installed,
    /// empty on a healthy array — the default).
    col_faults: ColumnFaults,
}

impl AnalogArray {
    /// Fabricates an array from a row-major bit matrix.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != rows * cols`.
    pub fn from_bits(config: AnalogConfig, bits: &[bool]) -> Self {
        assert_eq!(
            bits.len(),
            config.rows * config.cols,
            "bit matrix must be rows x cols"
        );
        AnalogArray {
            config,
            cells: bits.iter().map(|&b| RomCell::new(b)).collect(),
            col_faults: Vec::new(),
        }
    }

    /// Installs per-column ADC transfer faults (see
    /// [`AdcFault`](crate::faults::AdcFault)); an
    /// empty table restores the healthy transfer.
    ///
    /// # Panics
    ///
    /// Panics if the table is neither empty nor one entry per column.
    pub fn set_column_faults(&mut self, faults: ColumnFaults) {
        assert!(
            faults.is_empty() || faults.len() == self.config.cols,
            "one fault slot per column"
        );
        self.col_faults = faults;
    }

    /// The stored bit at `(row, col)`.
    pub fn bit(&self, row: usize, col: usize) -> bool {
        self.cells[row * self.config.cols + col].bit()
    }

    /// Evaluates the array for one activation digit vector.
    ///
    /// `pulses[i]` is the pulse count (0..=max_pulses) applied to word line
    /// `i`. Rows are processed in groups of `rows_per_activation`; each
    /// group is one analog evaluation (noise + ADC applied per group, as in
    /// hardware), and group results are accumulated digitally.
    ///
    /// Returns per-column digitized MAC counts and the number of analog
    /// group evaluations performed (for energy accounting).
    ///
    /// # Panics
    ///
    /// Panics if `pulses.len() != rows` or any pulse count exceeds
    /// `max_pulses`.
    pub fn evaluate<R: Rng + ?Sized>(&self, pulses: &[u8], rng: &mut R) -> (Vec<i64>, usize) {
        let cfg = &self.config;
        assert_eq!(pulses.len(), cfg.rows, "one pulse count per word line");
        assert!(
            pulses.iter().all(|&p| p <= cfg.max_pulses),
            "pulse count exceeds max_pulses"
        );
        let mut totals = vec![0i64; cfg.cols];
        let mut evaluations = 0usize;
        for group_start in (0..cfg.rows).step_by(cfg.rows_per_activation) {
            let group_end = (group_start + cfg.rows_per_activation).min(cfg.rows);
            // Skip fully-silent groups: no word line toggles, no evaluation.
            if pulses[group_start..group_end].iter().all(|&p| p == 0) {
                continue;
            }
            evaluations += 1;
            for (col, total) in totals.iter_mut().enumerate() {
                let mut count = 0u32;
                for (offset, &pulse) in pulses[group_start..group_end].iter().enumerate() {
                    let row = group_start + offset;
                    count += self.cells[row * cfg.cols + col].conduct(pulse) as u32;
                }
                let noisy = if cfg.noise_sigma > 0.0 {
                    count as f32 + gaussian(rng) * cfg.noise_sigma
                } else {
                    count as f32
                };
                // A broken column-shared ADC corrupts the sensed count
                // before digitization (identical transform on every
                // execution path — see `crate::faults`).
                let sensed = match self.col_faults.get(col) {
                    Some(&Some(f)) => f.apply_analog(noisy),
                    _ => noisy,
                };
                *total += cfg.adc.digitize(sensed);
            }
        }
        (totals, evaluations)
    }
}

fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_cfg(adc: AdcModel) -> AnalogConfig {
        AnalogConfig {
            rows: 8,
            cols: 4,
            rows_per_activation: 4,
            noise_sigma: 0.0,
            max_pulses: 3,
            adc,
        }
    }

    #[test]
    fn ideal_adc_matches_integer_dot_product() {
        let cfg = small_cfg(AdcModel::Ideal);
        let bits: Vec<bool> = (0..32).map(|i| i % 3 == 0).collect();
        let arr = AnalogArray::from_bits(cfg, &bits);
        let pulses = [1u8, 0, 3, 2, 1, 1, 0, 3];
        let mut rng = StdRng::seed_from_u64(0);
        let (out, _) = arr.evaluate(&pulses, &mut rng);
        for col in 0..4 {
            let expect: i64 = (0..8)
                .map(|r| (bits[r * 4 + col] as i64) * pulses[r] as i64)
                .sum();
            assert_eq!(out[col], expect);
        }
    }

    #[test]
    fn sar_adc_error_bounded() {
        let cfg = small_cfg(AdcModel::Sar {
            bits: 5,
            full_scale: 12,
        });
        let bits: Vec<bool> = (0..32).map(|i| i % 2 == 0).collect();
        let arr = AnalogArray::from_bits(cfg, &bits);
        let pulses = [3u8, 3, 3, 3, 3, 3, 3, 3];
        let mut rng = StdRng::seed_from_u64(0);
        let (out, _) = arr.evaluate(&pulses, &mut rng);
        let per_group_err = cfg.adc.max_quantization_error() as i64 + 1;
        for col in 0..4 {
            let expect: i64 = (0..8)
                .map(|r| (bits[r * 4 + col] as i64) * pulses[r] as i64)
                .sum();
            assert!(
                (out[col] - expect).abs() <= 2 * per_group_err,
                "col {col}: {} vs {expect}",
                out[col]
            );
        }
    }

    #[test]
    fn silent_groups_skip_evaluations() {
        let cfg = small_cfg(AdcModel::Ideal);
        let arr = AnalogArray::from_bits(cfg, &[true; 32]);
        let mut rng = StdRng::seed_from_u64(0);
        // Only the first group has activity.
        let (_, evals) = arr.evaluate(&[1, 0, 0, 0, 0, 0, 0, 0], &mut rng);
        assert_eq!(evals, 1);
        let (_, evals) = arr.evaluate(&[0; 8], &mut rng);
        assert_eq!(evals, 0);
        let (_, evals) = arr.evaluate(&[1; 8], &mut rng);
        assert_eq!(evals, 2);
    }

    #[test]
    fn noise_perturbs_but_tracks() {
        let cfg = AnalogConfig {
            noise_sigma: 0.4,
            ..small_cfg(AdcModel::Ideal)
        };
        let bits = vec![true; 32];
        let arr = AnalogArray::from_bits(cfg, &bits);
        let mut rng = StdRng::seed_from_u64(7);
        let pulses = [2u8; 8];
        // Average over repeats approaches the true count (16 per column).
        let mut acc = 0.0;
        let reps = 200;
        for _ in 0..reps {
            let (out, _) = arr.evaluate(&pulses, &mut rng);
            acc += out[0] as f64;
        }
        let mean = acc / reps as f64;
        assert!((mean - 16.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "pulse count exceeds")]
    fn rejects_overdrive() {
        let cfg = small_cfg(AdcModel::Ideal);
        let arr = AnalogArray::from_bits(cfg, &[false; 32]);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = arr.evaluate(&[4, 0, 0, 0, 0, 0, 0, 0], &mut rng);
    }

    proptest! {
        #[test]
        fn prop_ideal_evaluation_exact(
            bits in prop::collection::vec(any::<bool>(), 32),
            pulses in prop::collection::vec(0u8..=3, 8),
        ) {
            let cfg = small_cfg(AdcModel::Ideal);
            let arr = AnalogArray::from_bits(cfg, &bits);
            let mut rng = StdRng::seed_from_u64(1);
            let (out, _) = arr.evaluate(&pulses, &mut rng);
            for col in 0..4 {
                let expect: i64 = (0..8)
                    .map(|r| (bits[r * 4 + col] as i64) * pulses[r] as i64)
                    .sum();
                prop_assert_eq!(out[col], expect);
            }
        }
    }
}
