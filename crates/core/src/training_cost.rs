//! On-chip training cost model (paper §3.3, last paragraph).
//!
//! The paper observes that because only the small SRAM-CiM branch is
//! trainable, YOLoC "provides a chance to greatly reduce the on-chip
//! training overhead" compared with training a full SRAM-CiM model \[8\].
//! This module quantifies that claim: for one SGD step, it counts the
//! forward MACs, the backward MACs (input-gradient + weight-gradient
//! passes, the standard 2x of forward for *trainable* layers, 1x for
//! frozen layers that only propagate gradients), the weight-update array
//! writes, and the optimizer-state buffer traffic — then prices them with
//! the same macro/buffer constants as inference.

use serde::{Deserialize, Serialize};

use crate::system::SystemParams;
use yoloc_memory::SramBuffer;
use yoloc_models::{LayerSpec, NetworkDesc, NetworkError};

/// What is trainable during on-chip adaptation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainableSet {
    /// Every weight (the all-SRAM-CiM baseline of \[8\]).
    All,
    /// Only ReBranch residual convs and the prediction head (YOLoC).
    ReBranchOnly,
    /// Only the prediction head (Option II extreme).
    HeadOnly,
}

/// Cost of one on-chip SGD step (batch size 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingCost {
    /// Forward MACs.
    pub forward_macs: u64,
    /// Backward MACs (input-gradient for all layers on the gradient path,
    /// weight-gradient only for trainable layers).
    pub backward_macs: u64,
    /// Trainable parameters updated.
    pub updated_params: u64,
    /// SRAM-CiM array write energy for the updates, µJ.
    pub update_write_uj: f64,
    /// Compute energy (forward + backward), µJ.
    pub compute_uj: f64,
    /// Optimizer-state (momentum) buffer traffic energy, µJ.
    pub optimizer_uj: f64,
}

impl TrainingCost {
    /// Total energy of the step, µJ.
    pub fn total_uj(&self) -> f64 {
        self.update_write_uj + self.compute_uj + self.optimizer_uj
    }
}

/// Estimates one SGD step's cost for `net` under the given trainable set.
///
/// # Errors
///
/// Propagates [`NetworkError`] on inconsistent model descriptions.
pub fn training_step_cost(
    net: &NetworkDesc,
    set: TrainableSet,
    p: &SystemParams,
) -> Result<TrainingCost, NetworkError> {
    let reports = net.analyze()?;
    let buffer = SramBuffer::new_28nm(p.act_buffer_bits);
    let (d, u) = (p.rebranch.d as u64, p.rebranch.u as u64);
    let mut forward = 0u64;
    let mut backward = 0u64;
    let mut updated = 0u64;
    let n_cim = reports.iter().filter(|r| !r.lowered.is_empty()).count();
    let mut cim_seen = 0usize;
    for r in &reports {
        if r.lowered.is_empty() {
            continue;
        }
        cim_seen += 1;
        let is_head = cim_seen == n_cim;
        forward += r.macs;
        // Input-gradient pass mirrors the forward for every layer that
        // sits on the gradient path (all of them, in a chain model).
        backward += r.macs;
        let (trainable_macs, trainable_params): (u64, u64) = match set {
            TrainableSet::All => (r.macs, r.params),
            TrainableSet::HeadOnly => {
                if is_head {
                    (r.macs, r.params)
                } else {
                    (0, 0)
                }
            }
            TrainableSet::ReBranchOnly => {
                if is_head {
                    (r.macs, r.params)
                } else if let LayerSpec::Conv { kernel, .. } = &net.layers[r.index] {
                    if *kernel > 1 {
                        // The branch's res-conv carries 1/(D*U) of the
                        // trunk's parameters and MACs.
                        (r.macs / (d * u), r.params / (d * u))
                    } else {
                        (0, 0)
                    }
                } else {
                    (0, 0)
                }
            }
        };
        // Weight-gradient pass costs one more MAC set for trainable
        // layers; forward of a branch adds its own (small) MACs too.
        backward += trainable_macs;
        updated += trainable_params;
    }
    let e_op = 1.0 / p.sram.spec().energy_efficiency_tops_w; // pJ per op
    let compute_pj = 2.0 * (forward + backward) as f64 * e_op * p.peripheral_overhead;
    let update_write_pj = updated as f64 * 8.0 * p.sram.e_write_per_bit_pj;
    // Momentum read + write per updated parameter (8-bit state).
    let optimizer_pj = buffer.access_energy_pj(updated * 8 * 2);
    Ok(TrainingCost {
        forward_macs: forward,
        backward_macs: backward,
        updated_params: updated,
        update_write_uj: update_write_pj / 1e6,
        compute_uj: compute_pj / 1e6,
        optimizer_uj: optimizer_pj / 1e6,
    })
}

/// Convenience: the ratio of full-model to ReBranch-only training energy.
///
/// # Errors
///
/// Propagates [`NetworkError`].
pub fn rebranch_training_saving(net: &NetworkDesc, p: &SystemParams) -> Result<f64, NetworkError> {
    let all = training_step_cost(net, TrainableSet::All, p)?;
    let rb = training_step_cost(net, TrainableSet::ReBranchOnly, p)?;
    Ok(all.total_uj() / rb.total_uj())
}

#[cfg(test)]
mod tests {
    use super::*;
    use yoloc_models::zoo;

    fn p() -> SystemParams {
        SystemParams::paper_default()
    }

    #[test]
    fn rebranch_updates_far_fewer_params() {
        let net = zoo::yolo_v2(20, 5);
        let all = training_step_cost(&net, TrainableSet::All, &p()).unwrap();
        let rb = training_step_cost(&net, TrainableSet::ReBranchOnly, &p()).unwrap();
        assert!(all.updated_params > 10 * rb.updated_params);
        // Forward cost is identical; backward is smaller for ReBranch.
        assert_eq!(all.forward_macs, rb.forward_macs);
        assert!(all.backward_macs > rb.backward_macs);
    }

    #[test]
    fn training_energy_saving_is_meaningful() {
        let net = zoo::yolo_v2(20, 5);
        let saving = rebranch_training_saving(&net, &p()).unwrap();
        // Compute dominates (forward + input-gradient run either way), so
        // the saving is bounded by ~1.5x on compute plus the update writes.
        assert!(saving > 1.2, "saving {saving}");
        assert!(saving < 3.0, "saving {saving} suspiciously large");
    }

    #[test]
    fn head_only_is_cheapest() {
        let net = zoo::resnet18(100);
        let pp = p();
        let all = training_step_cost(&net, TrainableSet::All, &pp).unwrap();
        let rb = training_step_cost(&net, TrainableSet::ReBranchOnly, &pp).unwrap();
        let head = training_step_cost(&net, TrainableSet::HeadOnly, &pp).unwrap();
        assert!(head.total_uj() < rb.total_uj());
        assert!(rb.total_uj() < all.total_uj());
        assert!(head.updated_params < rb.updated_params);
    }

    #[test]
    fn update_write_energy_scales_with_params() {
        let net = zoo::vgg8(100);
        let all = training_step_cost(&net, TrainableSet::All, &p()).unwrap();
        let expect = all.updated_params as f64 * 8.0 * p().sram.e_write_per_bit_pj / 1e6;
        assert!((all.update_write_uj - expect).abs() < 1e-9);
    }
}
