//! Deterministic, seeded fault injection for the CiM fabric.
//!
//! Real ROM-CiM silicon ships with defects: mask or contact failures
//! strap individual bit cells to a fixed value (stuck-at-0/1), whole
//! subarrays die (word-line driver or sense failures), column-shared
//! SAR ADCs drift into saturating or offset transfers, and chiplet
//! links degrade to a slower lane. This module models all four as a
//! *pure function of a seed and a rate specification*: every fault
//! decision is a counter-mode hash of `(seed, stream, entity ids)`, so
//! two programs of the same weights under the same [`FaultSpec`] see
//! the *same* faults — on every kernel tier, on every execution path,
//! on every host. That determinism is what lets the tier-parity suites
//! hold **under faults** and lets chaos runs replay byte-for-byte.
//!
//! Faults are applied at `program` time (see
//! [`crate::macro_model::RomMvm::program_with_faults`]):
//!
//! * **stuck-at bits** rewrite the *effective weight code* — a stuck
//!   bit-plane bit decodes, by construction of the two's-complement
//!   bit-plane encoding, to another valid signed code, so every path
//!   (analog reference, popcount stream, exact matmul, all SIMD tiers)
//!   computes on identical faulty weights with zero kernel changes;
//! * **dead subarrays** zero the codes of the tile's `(out, in)` range
//!   (a dead array contributes nothing to the accumulation);
//! * **ADC faults** install a per-column transfer applied to the
//!   discharge count *before* digitization, shared verbatim by the
//!   analog reference walk and the popcount mask stream (both
//!   transforms map 0 to 0, so the skip-silent-column shortcuts stay
//!   exact); a faulted ADC moves a popcount engine off the exact matmul
//!   and onto the stream;
//! * **link degradation** scales the engine's evaluation latency.
//!
//! Event counters ([`crate::macro_model::MvmStats`]) are pure functions
//! of the activations, so stuck/dead/ADC faults never perturb energy
//! accounting — only values — while link faults only perturb latency.

use serde::{Deserialize, Serialize};

use crate::macro_model::MacroParams;

/// Decision-stream tags: distinct hash domains per fault class so the
/// same entity id never correlates across classes.
const STREAM_STUCK: u64 = 0x57;
const STREAM_DEAD: u64 = 0xD0;
const STREAM_ADC: u64 = 0xAD;
const STREAM_LINK: u64 = 0x71;

/// One round of the splitmix64 output mixer (Steele et al.): a cheap,
/// well-distributed 64-bit hash used in counter mode.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A well-mixed draw for one `(stream, entity, sub-entity)` tuple.
fn draw(seed: u64, stream: u64, a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed ^ stream).wrapping_add(a)).wrapping_add(b))
}

/// Bernoulli trial on the top 53 bits of a draw: `rate = 0.0` never
/// fires, `rate = 1.0` always does.
fn bernoulli(h: u64, rate: f64) -> bool {
    ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < rate
}

/// Polarity of a stuck bit cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StuckKind {
    /// The cell reads as unprogrammed (`0`) regardless of the mask bit.
    Zero,
    /// The cell reads as strapped (`1`) regardless of the mask bit.
    One,
}

/// A faulty column-ADC transfer, applied to the discharge count of
/// every column sharing the broken ADC *before* digitization.
///
/// Both variants map a zero count to zero, which keeps the
/// silent-column shortcuts of the popcount streams exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdcFault {
    /// The ADC saturates early: counts clamp to `level`.
    Saturated {
        /// The highest count the broken ADC still resolves.
        level: u32,
    },
    /// The ADC has a negative input-referred offset: counts shift down
    /// by `offset`, floored at zero.
    Offset {
        /// Discharge counts lost to the offset.
        offset: u32,
    },
}

impl AdcFault {
    /// Applies the faulty transfer to an integer discharge count.
    pub fn apply_count(&self, count: u64) -> u64 {
        match *self {
            AdcFault::Saturated { level } => count.min(u64::from(level)),
            AdcFault::Offset { offset } => count.saturating_sub(u64::from(offset)),
        }
    }

    /// Applies the faulty transfer to a (possibly noisy) analog count.
    /// Agrees with [`AdcFault::apply_count`] on integer inputs.
    pub fn apply_analog(&self, count: f32) -> f32 {
        match *self {
            AdcFault::Saturated { level } => count.min(level as f32),
            AdcFault::Offset { offset } => (count - offset as f32).max(0.0),
        }
    }
}

/// Per-column ADC fault table of one subarray (`len == cols`; `None`
/// for healthy columns).
pub type ColumnFaults = Vec<Option<AdcFault>>;

/// Seed + rate specification from which a [`FaultPlan`] derives every
/// fault decision. All rates zero ([`FaultSpec::none`]) means a
/// provably fault-free fabric: the faulted programming path then
/// delegates to the pristine one, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Root seed of every fault decision stream.
    pub seed: u64,
    /// Per-bit-cell probability of a stuck-at fault.
    pub stuck_rate: f64,
    /// Fraction of stuck cells strapped to `1` (the rest stick at `0`).
    pub stuck_one_fraction: f64,
    /// Per-subarray probability of the whole array being dead.
    pub dead_subarray_rate: f64,
    /// Per-ADC probability of a saturating/offset transfer fault
    /// (column-shared: one broken ADC corrupts all its columns).
    pub adc_fault_rate: f64,
    /// Per-chiplet-link probability of degradation.
    pub link_rate: f64,
    /// Evaluation-latency multiplier on a degraded link (`>= 1.0`).
    pub link_slowdown: f64,
}

impl FaultSpec {
    /// The fault-free specification (all rates zero).
    pub fn none() -> Self {
        FaultSpec {
            seed: 0,
            stuck_rate: 0.0,
            stuck_one_fraction: 0.5,
            dead_subarray_rate: 0.0,
            adc_fault_rate: 0.0,
            link_rate: 0.0,
            link_slowdown: 1.0,
        }
    }

    /// A uniform specification: every fault class at `rate`, under
    /// `seed` (links slow down 4x when degraded).
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultSpec {
            seed,
            stuck_rate: rate,
            stuck_one_fraction: 0.5,
            dead_subarray_rate: rate,
            adc_fault_rate: rate,
            link_rate: rate,
            link_slowdown: 4.0,
        }
    }

    /// Whether no fault class can ever fire under this specification.
    pub fn is_none(&self) -> bool {
        self.stuck_rate <= 0.0
            && self.dead_subarray_rate <= 0.0
            && self.adc_fault_rate <= 0.0
            && self.link_rate <= 0.0
    }
}

/// Physical tile geometry of the fabric: how logical weight cells map
/// onto subarray rows and bit-line columns (the layout
/// [`crate::macro_model::RomMvm::program`] builds).
#[derive(Debug, Clone, Copy)]
pub struct FabricGeometry {
    /// Word lines per subarray.
    pub rows: usize,
    /// Bit lines per subarray.
    pub cols: usize,
    /// Bit-plane columns per output.
    pub weight_bits: u8,
}

impl FabricGeometry {
    /// The geometry of a macro's subarrays.
    pub fn from_params(params: &MacroParams) -> Self {
        FabricGeometry {
            rows: params.rows,
            cols: params.cols,
            weight_bits: params.weight_bits,
        }
    }

    /// Outputs per subarray (`cols / weight_bits`).
    pub fn outs_per_array(&self) -> usize {
        self.cols / self.weight_bits as usize
    }
}

/// A deterministic fault oracle over the whole fabric.
///
/// Every query is a pure function of the [`FaultSpec`] and the queried
/// physical entity ids — no state is materialized, so a plan covering
/// millions of subarrays costs nothing to hold and two holders always
/// agree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    spec: FaultSpec,
}

impl FaultPlan {
    /// Wraps a specification into a queryable plan.
    pub fn new(spec: FaultSpec) -> Self {
        FaultPlan { spec }
    }

    /// The underlying specification.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Whether this plan can never produce a fault.
    pub fn is_none(&self) -> bool {
        self.spec.is_none()
    }

    /// Whether physical subarray `phys` is dead.
    pub fn subarray_dead(&self, phys: u64) -> bool {
        self.spec.dead_subarray_rate > 0.0
            && bernoulli(
                draw(self.spec.seed, STREAM_DEAD, phys, 0),
                self.spec.dead_subarray_rate,
            )
    }

    /// All dead subarrays among physical ids `0..total`, in id order.
    pub fn dead_subarrays(&self, total: u64) -> Vec<u64> {
        (0..total).filter(|&p| self.subarray_dead(p)).collect()
    }

    /// The stuck-at state of bit cell `(row, col)` of subarray `phys`.
    pub fn stuck_bit(&self, phys: u64, row: u64, col: u64) -> Option<StuckKind> {
        if self.spec.stuck_rate <= 0.0 {
            return None;
        }
        let h = draw(self.spec.seed, STREAM_STUCK, phys, (row << 20) | col);
        if !bernoulli(h, self.spec.stuck_rate) {
            return None;
        }
        if bernoulli(splitmix64(h), self.spec.stuck_one_fraction) {
            Some(StuckKind::One)
        } else {
            Some(StuckKind::Zero)
        }
    }

    /// The transfer fault of column-shared ADC `adc` of subarray
    /// `phys`, with magnitudes scaled to the reachable count range
    /// `full_scale`.
    pub fn adc_fault(&self, phys: u64, adc: u64, full_scale: u32) -> Option<AdcFault> {
        if self.spec.adc_fault_rate <= 0.0 {
            return None;
        }
        let h = draw(self.spec.seed, STREAM_ADC, phys, adc);
        if !bernoulli(h, self.spec.adc_fault_rate) {
            return None;
        }
        let h2 = splitmix64(h);
        if h2 & 1 == 0 {
            // Saturate somewhere in the upper half of the count range —
            // low enough to corrupt, high enough to stay plausible.
            let span = (full_scale / 2).max(1);
            Some(AdcFault::Saturated {
                level: full_scale.max(2) / 2 + (h2 >> 1) as u32 % span,
            })
        } else {
            Some(AdcFault::Offset {
                offset: 1 + (h2 >> 1) as u32 % 3,
            })
        }
    }

    /// Whether chiplet link `link` is degraded.
    pub fn link_degraded(&self, link: u64) -> bool {
        self.spec.link_rate > 0.0
            && bernoulli(
                draw(self.spec.seed, STREAM_LINK, link, 0),
                self.spec.link_rate,
            )
    }

    /// The evaluation-latency multiplier for an engine whose traffic
    /// crosses `links` (1.0 when every link is healthy; degraded links
    /// do not compound — the slowest lane bounds the transfer).
    pub fn slowdown_for_links(&self, links: &[u64]) -> f64 {
        if links.iter().any(|&l| self.link_degraded(l)) {
            self.spec.link_slowdown
        } else {
            1.0
        }
    }

    /// Rewrites `codes` (`outs x ins`, row-major, signed
    /// `weight_bits`-range) into the *effective* codes the faulty
    /// fabric computes with: dead subarrays zero their tile's range,
    /// stuck bit cells force the corresponding two's-complement
    /// bit-plane bit. `phys_ids` gives the physical subarray id of
    /// every tile in `row_tile * col_tiles + col_tile` order.
    ///
    /// # Panics
    ///
    /// Panics if `phys_ids` does not cover exactly the tile grid.
    pub fn apply_code_faults(
        &self,
        codes: &mut [i32],
        outs: usize,
        ins: usize,
        geom: &FabricGeometry,
        phys_ids: &[u64],
    ) {
        let opa = geom.outs_per_array();
        let row_tiles = ins.div_ceil(geom.rows);
        let col_tiles = outs.div_ceil(opa);
        assert_eq!(codes.len(), outs * ins, "weight matrix size mismatch");
        assert_eq!(
            phys_ids.len(),
            row_tiles * col_tiles,
            "one physical subarray id per tile"
        );
        let wb = geom.weight_bits as u32;
        let code_mask = (1u32 << wb) - 1;
        let sext = 32 - wb;
        for rt in 0..row_tiles {
            for ct in 0..col_tiles {
                let phys = phys_ids[rt * col_tiles + ct];
                let dead = self.subarray_dead(phys);
                if !dead && self.spec.stuck_rate <= 0.0 {
                    continue;
                }
                for r in 0..geom.rows {
                    let in_idx = rt * geom.rows + r;
                    if in_idx >= ins {
                        break;
                    }
                    for o in 0..opa {
                        let out_idx = ct * opa + o;
                        if out_idx >= outs {
                            break;
                        }
                        let slot = &mut codes[out_idx * ins + in_idx];
                        if dead {
                            *slot = 0;
                            continue;
                        }
                        let orig = (*slot as u32) & code_mask;
                        let mut u = orig;
                        for j in 0..wb as usize {
                            let col = (o * wb as usize + j) as u64;
                            match self.stuck_bit(phys, r as u64, col) {
                                Some(StuckKind::Zero) => u &= !(1u32 << j),
                                Some(StuckKind::One) => u |= 1u32 << j,
                                None => {}
                            }
                        }
                        if u != orig {
                            // Sign-extend the faulted bit pattern back to a
                            // valid signed code.
                            *slot = ((u << sext) as i32) >> sext;
                        }
                    }
                }
            }
        }
    }
}

/// Everything the faulted programming entries need beyond the weights:
/// the fault oracle, the physical identity of each tile, and the link
/// latency penalty the mapping layer resolved for this engine.
#[derive(Debug, Clone, Copy)]
pub struct FaultContext<'a> {
    /// The fault oracle.
    pub plan: &'a FaultPlan,
    /// Physical subarray id per tile (`row_tile * col_tiles +
    /// col_tile` order); empty means "use tile index as id".
    pub phys_ids: &'a [u64],
    /// Evaluation-latency multiplier from degraded links (1.0 = none).
    pub link_slowdown: f64,
}

impl<'a> FaultContext<'a> {
    /// A context with identity physical ids and healthy links.
    pub fn bare(plan: &'a FaultPlan) -> Self {
        FaultContext {
            plan,
            phys_ids: &[],
            link_slowdown: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_never_fault() {
        let plan = FaultPlan::new(FaultSpec::none());
        assert!(plan.is_none());
        for phys in 0..64 {
            assert!(!plan.subarray_dead(phys));
            assert!(!plan.link_degraded(phys));
            assert_eq!(plan.stuck_bit(phys, 3, 17), None);
            assert_eq!(plan.adc_fault(phys, 2, 30), None);
        }
    }

    #[test]
    fn unit_rates_always_fault() {
        let spec = FaultSpec {
            stuck_rate: 1.0,
            dead_subarray_rate: 1.0,
            adc_fault_rate: 1.0,
            link_rate: 1.0,
            ..FaultSpec::uniform(9, 1.0)
        };
        let plan = FaultPlan::new(spec);
        for phys in 0..16 {
            assert!(plan.subarray_dead(phys));
            assert!(plan.link_degraded(phys));
            assert!(plan.stuck_bit(phys, 0, 0).is_some());
            assert!(plan.adc_fault(phys, 0, 30).is_some());
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(FaultSpec::uniform(1, 0.3));
        let b = FaultPlan::new(FaultSpec::uniform(1, 0.3));
        let c = FaultPlan::new(FaultSpec::uniform(2, 0.3));
        let deads_a = a.dead_subarrays(256);
        assert_eq!(deads_a, b.dead_subarrays(256), "same seed, same plan");
        assert_ne!(deads_a, c.dead_subarrays(256), "seed changes the plan");
        // Rate roughly respected (256 trials at 0.3 -> ~77 expected).
        assert!((40..=120).contains(&deads_a.len()), "{}", deads_a.len());
    }

    #[test]
    fn adc_fault_magnitudes_are_in_range() {
        let plan = FaultPlan::new(FaultSpec::uniform(5, 1.0));
        for phys in 0..32 {
            match plan.adc_fault(phys, phys % 16, 30).unwrap() {
                AdcFault::Saturated { level } => {
                    assert!((1..30).contains(&level), "level {level}")
                }
                AdcFault::Offset { offset } => {
                    assert!((1..=3).contains(&offset), "offset {offset}")
                }
            }
        }
    }

    #[test]
    fn fault_transforms_fix_zero() {
        for f in [
            AdcFault::Saturated { level: 7 },
            AdcFault::Offset { offset: 2 },
        ] {
            assert_eq!(f.apply_count(0), 0);
            assert_eq!(f.apply_analog(0.0), 0.0);
            // Integer agreement between the two transforms.
            for c in 0..40u64 {
                assert_eq!(f.apply_count(c) as f32, f.apply_analog(c as f32));
            }
        }
    }

    #[test]
    fn code_faults_zero_dead_tiles_and_stay_in_range() {
        let geom = FabricGeometry {
            rows: 16,
            cols: 32,
            weight_bits: 8,
        };
        // 4 outputs/array, 2 row tiles x 2 col tiles for (7, 20).
        let (outs, ins) = (7, 20);
        let mut codes: Vec<i32> = (0..outs * ins).map(|i| (i % 255) as i32 - 127).collect();
        let spec = FaultSpec {
            dead_subarray_rate: 1.0,
            ..FaultSpec::none()
        };
        FaultPlan::new(spec).apply_code_faults(&mut codes, outs, ins, &geom, &[0, 1, 2, 3]);
        assert!(codes.iter().all(|&c| c == 0), "every tile is dead");
        let mut codes: Vec<i32> = (0..outs * ins).map(|i| (i % 255) as i32 - 127).collect();
        let stuck = FaultSpec {
            stuck_rate: 0.2,
            ..FaultSpec::uniform(3, 0.0)
        };
        FaultPlan::new(stuck).apply_code_faults(&mut codes, outs, ins, &geom, &[0, 1, 2, 3]);
        assert!(
            codes.iter().all(|&c| (-128..=127).contains(&c)),
            "faulted codes stay valid signed 8-bit"
        );
        let pristine: Vec<i32> = (0..outs * ins).map(|i| (i % 255) as i32 - 127).collect();
        assert_ne!(codes, pristine, "a 20% stuck rate must flip something");
    }
}
