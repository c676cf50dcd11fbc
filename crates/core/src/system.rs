//! System-level evaluation of the three Fig. 13 configurations.
//!
//! * **YOLoC** (Fig. 13a): trunk weights resident in ROM-CiM, ReBranch
//!   residual convs + prediction head in SRAM-CiM, no per-inference DRAM
//!   weight traffic, layer-pipelined execution (intermediate maps stream
//!   through line buffers).
//! * **Single-chip SRAM-CiM** (Fig. 13b): iso-area chip; weights that do
//!   not fit on chip stream from DRAM every inference, non-resident layers
//!   break the pipeline and materialize large feature maps through DRAM,
//!   and the chip stalls on DRAM bandwidth.
//! * **SRAM-CiM chiplets** (Fig. 13c): enough chips to hold all weights,
//!   no DRAM, but intermediate maps cross SIMBA-class chip-to-chip links.
//!
//! Energy/latency/area roll up into [`SystemReport`] (Fig. 14a-c). All
//! calibration constants live in [`SystemParams`] with documented
//! provenance; see `EXPERIMENTS.md` for measured-vs-paper numbers.

use serde::{Deserialize, Serialize};

use crate::mapping::map_network;
use crate::rebranch::ReBranchRatios;
use yoloc_cim::MacroParams;
use yoloc_memory::{ChipletLink, DramModel, SramBuffer};
use yoloc_models::{rebranch_widths, LayerSpec, NetworkDesc, NetworkError};

/// Calibration constants of the system model.
///
/// # Examples
///
/// ```
/// use yoloc_core::system::{evaluate, SystemKind, SystemParams};
///
/// let p = SystemParams::paper_default();
/// let yolo = yoloc_models::zoo::yolo_v2(20, 5);
/// let report = evaluate(&yolo, SystemKind::Yoloc, &p)?;
/// // All YOLO weights live on chip: no per-inference DRAM traffic.
/// assert_eq!(report.dram_traffic_bits, 0);
/// # Ok::<(), yoloc_models::NetworkError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SystemParams {
    /// ROM-CiM macro (Table I).
    pub rom: MacroParams,
    /// SRAM-CiM macro (ISSCC'21 \[3\] class).
    pub sram: MacroParams,
    /// Off-chip DRAM interface.
    pub dram: DramModel,
    /// Chip-to-chip link (SIMBA \[25\]).
    pub link: ChipletLink,
    /// On-chip activation cache capacity in bits (paper Fig. 9 "cache").
    pub act_buffer_bits: u64,
    /// Activation precision.
    pub act_bits: u8,
    /// ReBranch ratios for the YOLoC configuration.
    pub rebranch: ReBranchRatios,
    /// System energy overhead factor on CiM compute (controller, clock
    /// tree, NoC of Fig. 9); 1.0 = macro-only energy.
    pub peripheral_overhead: f64,
    /// Power burned while the chip waits on DRAM streaming (clock tree,
    /// PLL, SRAM leakage of a cm²-class 28 nm chip: ~1-2 W active-idle),
    /// in watts.
    pub idle_power_w: f64,
    /// Fraction of the ReBranch branch-path latency that is *not* hidden
    /// behind trunk computation (merge and driver sharing).
    pub branch_overlap: f64,
}

impl SystemParams {
    /// Defaults calibrated against the paper's headline results; every
    /// constant is physically motivated (see field docs and DESIGN.md §2).
    pub fn paper_default() -> Self {
        SystemParams {
            rom: MacroParams::rom_paper(),
            sram: MacroParams::sram_paper(),
            dram: DramModel::lpddr4(),
            link: ChipletLink::simba(),
            act_buffer_bits: 2 * 1024 * 1024, // 2 Mb cache
            act_bits: 8,
            rebranch: ReBranchRatios::paper_default(),
            peripheral_overhead: 1.3,
            idle_power_w: 1.2,
            branch_overlap: 0.65,
        }
    }
}

/// Which Fig. 13 configuration to evaluate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SystemKind {
    /// ReBranch-assisted ROM-CiM (proposed).
    Yoloc,
    /// Single SRAM-CiM chip. `cim_area_mm2 = None` sizes it iso-area to
    /// the YOLoC chip evaluated on the same model.
    SramSingleChip {
        /// CiM area budget; `None` = iso-area with YOLoC.
        cim_area_mm2: Option<f64>,
    },
    /// SRAM-CiM chiplet system holding all weights. `chips = None` sizes
    /// chips to the YOLoC chip area.
    SramChiplet {
        /// Number of chiplets; `None` = derived from capacity.
        chips: Option<usize>,
    },
}

/// Energy breakdown per inference, µJ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// CiM array MAC energy.
    pub cim_uj: f64,
    /// Controller/clock/NoC overhead on compute.
    pub peripheral_uj: f64,
    /// Activation buffer traffic.
    pub buffer_uj: f64,
    /// On-chip mesh NoC traffic between CiM macro clusters and the cache
    /// (accounted live by the graph executor; the static model folds it
    /// into `peripheral_uj`).
    pub noc_uj: f64,
    /// DRAM transfer energy (weights + materialized activations).
    pub dram_uj: f64,
    /// SRAM-CiM array write energy for streamed weights.
    pub write_uj: f64,
    /// Idle/stall energy while waiting on DRAM bandwidth.
    pub stall_uj: f64,
    /// Chiplet interconnect energy.
    pub link_uj: f64,
}

impl EnergyBreakdown {
    /// Adds another breakdown component-wise (used to reduce per-sample
    /// breakdowns from the batched executor). Lives next to the struct so
    /// adding a field here forces the reduction to be updated too.
    pub fn accumulate(&mut self, other: &EnergyBreakdown) {
        let EnergyBreakdown {
            cim_uj,
            peripheral_uj,
            buffer_uj,
            noc_uj,
            dram_uj,
            write_uj,
            stall_uj,
            link_uj,
        } = other;
        self.cim_uj += cim_uj;
        self.peripheral_uj += peripheral_uj;
        self.buffer_uj += buffer_uj;
        self.noc_uj += noc_uj;
        self.dram_uj += dram_uj;
        self.write_uj += write_uj;
        self.stall_uj += stall_uj;
        self.link_uj += link_uj;
    }

    /// Total energy per inference, µJ.
    #[must_use]
    pub fn total_uj(&self) -> f64 {
        self.cim_uj
            + self.peripheral_uj
            + self.buffer_uj
            + self.noc_uj
            + self.dram_uj
            + self.write_uj
            + self.stall_uj
            + self.link_uj
    }

    /// The "DRAM" share of Fig. 14(c) (transfer + write + stall).
    #[must_use]
    pub fn dram_share(&self) -> f64 {
        let t = self.total_uj();
        if t == 0.0 {
            0.0
        } else {
            (self.dram_uj + self.write_uj + self.stall_uj) / t
        }
    }
}

/// Area breakdown, mm² (Fig. 14b).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AreaBreakdown {
    /// ROM-CiM cell arrays.
    pub rom_array_mm2: f64,
    /// SRAM-CiM cell arrays.
    pub sram_array_mm2: f64,
    /// Column ADCs.
    pub adc_mm2: f64,
    /// Word-line drivers and R/W interface.
    pub driver_mm2: f64,
    /// Control, shift-&-add and other peripherals.
    pub ctrl_mm2: f64,
    /// Activation cache.
    pub buffer_mm2: f64,
}

impl AreaBreakdown {
    /// Total chip (or chip-set) area, mm².
    #[must_use]
    pub fn total_mm2(&self) -> f64 {
        self.rom_array_mm2
            + self.sram_array_mm2
            + self.adc_mm2
            + self.driver_mm2
            + self.ctrl_mm2
            + self.buffer_mm2
    }
}

/// Full evaluation result for one (model, configuration) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemReport {
    /// Configuration label.
    pub system: String,
    /// Model name.
    pub model: String,
    /// Area breakdown.
    pub area: AreaBreakdown,
    /// Per-inference energy breakdown.
    pub energy: EnergyBreakdown,
    /// Per-inference latency, ms.
    pub latency_ms: f64,
    /// Operations per inference (2 x MACs).
    pub ops: u64,
    /// System energy efficiency, TOPS/W.
    pub energy_eff_tops_w: f64,
    /// DRAM traffic per inference, bits.
    pub dram_traffic_bits: u64,
    /// Chiplet link traffic per inference, bits.
    pub link_traffic_bits: u64,
}

/// Per-CiM-layer accounting extracted from the IR.
struct CimLayer {
    w_bits: u64,
    macs: u64,
    in_bits: u64,
    out_bits: u64,
    /// Branch bits if ReBranch-wrapped: (rom extra, sram res-conv).
    branch: Option<(u64, u64)>,
    is_head: bool,
}

fn collect_layers(desc: &NetworkDesc, p: &SystemParams) -> Result<Vec<CimLayer>, NetworkError> {
    let reports = desc.analyze()?;
    let ab = p.act_bits as u64;
    let wb = 8u64;
    let mut layers = Vec::new();
    for (i, r) in reports.iter().enumerate() {
        if r.lowered.is_empty() {
            continue;
        }
        // Branch geometry needs the raw conv spec (channel counts).
        let branch = match &desc.layers[r.index] {
            LayerSpec::Conv {
                in_ch,
                out_ch,
                kernel,
                ..
            } if *kernel > 1 => {
                let (nc, mc) = rebranch_widths(*in_ch, *out_ch, p.rebranch.d, p.rebranch.u);
                let (n, mm, k) = (*in_ch as u64, *out_ch as u64, *kernel as u64);
                let (nc, mc) = (nc as u64, mc as u64);
                Some(((n * nc + mc * mm) * wb, nc * mc * k * k * wb))
            }
            // The model prices its own branches (`SystemParams::rebranch`)
            // on plain convs; a wrapped conv would count its SRAM res-conv
            // as ROM trunk bits.
            LayerSpec::ReBranch { name, .. } => {
                return Err(NetworkError {
                    msg: format!(
                        "{name}: system evaluation wraps plain convs itself; \
                         evaluate the network without ReBranch layers"
                    ),
                })
            }
            _ => None,
        };
        let _ = i;
        layers.push(CimLayer {
            w_bits: r
                .lowered
                .iter()
                .map(|m| (m.ins * m.outs) as u64)
                .sum::<u64>()
                * wb,
            macs: r.macs,
            in_bits: (r.in_shape.0 * r.in_shape.1 * r.in_shape.2) as u64 * ab,
            out_bits: (r.out_shape.0 * r.out_shape.1 * r.out_shape.2) as u64 * ab,
            branch,
            is_head: false,
        });
    }
    if let Some(last) = layers.last_mut() {
        // The prediction layer stays trainable in SRAM-CiM (Fig. 9).
        last.is_head = true;
        last.branch = None;
    }
    Ok(layers)
}

fn pj_per_op(params: &MacroParams) -> f64 {
    // TOPS/W == OP/pJ, so energy per op is the reciprocal.
    1.0 / params.spec().energy_efficiency_tops_w
}

/// Splits a CiM area into the Fig. 14(b) components, pro-rata to the
/// macro's internal geometry.
fn macro_area_split(bits: u64, params: &MacroParams) -> (f64, f64, f64, f64) {
    let subarrays = (bits as f64 / params.subarray_bits() as f64).ceil();
    let cells = bits as f64 * params.cell.area_um2() / 1e6;
    let adc = subarrays * params.adcs_per_subarray as f64 * params.a_adc_um2 / 1e6;
    let driver = subarrays * params.rows as f64 * params.a_driver_um2 / 1e6;
    let ctrl = subarrays * params.a_ctrl_um2 / 1e6;
    (cells, adc, driver, ctrl)
}

/// Evaluates a model under a system configuration.
///
/// # Errors
///
/// Returns [`NetworkError`] if the model description is inconsistent.
#[must_use = "dropping the result discards the evaluated system report"]
pub fn evaluate(
    desc: &NetworkDesc,
    kind: SystemKind,
    p: &SystemParams,
) -> Result<SystemReport, NetworkError> {
    let layers = collect_layers(desc, p)?;
    let total_macs: u64 = layers.iter().map(|l| l.macs).sum();
    let ops = 2 * total_macs;
    let buffer = SramBuffer::new_28nm(p.act_buffer_bits);
    match kind {
        SystemKind::Yoloc => {
            let mut rom_bits = 0u64;
            let mut sram_bits = 0u64;
            let mut branch_macs = 0u64;
            for l in &layers {
                if l.is_head {
                    sram_bits += l.w_bits;
                } else {
                    rom_bits += l.w_bits;
                    if let Some((rom_extra, sram)) = l.branch {
                        rom_bits += rom_extra;
                        sram_bits += sram;
                        // Branch MACs scale like its parameter share.
                        let ratio = (rom_extra + sram) as f64 / l.w_bits as f64;
                        branch_macs += (l.macs as f64 * ratio) as u64;
                    }
                }
            }
            let head_macs: u64 = layers.iter().filter(|l| l.is_head).map(|l| l.macs).sum();
            let trunk_macs = total_macs - head_macs;

            // Energy.
            let cim_pj = 2.0
                * (trunk_macs as f64 * pj_per_op(&p.rom)
                    + (branch_macs + head_macs) as f64 * pj_per_op(&p.sram));
            let buffer_pj: f64 = layers
                .iter()
                .map(|l| buffer.access_energy_pj(2 * l.out_bits))
                .sum();
            let energy = EnergyBreakdown {
                cim_uj: cim_pj / 1e6,
                peripheral_uj: cim_pj * (p.peripheral_overhead - 1.0) / 1e6,
                buffer_uj: buffer_pj / 1e6,
                ..Default::default()
            };

            // Area: map trunk onto ROM macros, branch + head onto SRAM.
            let mapping = map_network(desc, &p.rom)?;
            let rom_mapped_bits =
                (mapping.subarrays_packed as u64 * p.rom.subarray_bits()).max(rom_bits);
            let (rom_cells, rom_adc, rom_drv, rom_ctrl) = macro_area_split(rom_mapped_bits, &p.rom);
            let (sram_cells, sram_adc, sram_drv, sram_ctrl) = macro_area_split(sram_bits, &p.sram);
            let area = AreaBreakdown {
                rom_array_mm2: rom_cells,
                sram_array_mm2: sram_cells
                    + (sram_bits as f64 / 1_048_576.0 / p.sram.spec().density_mb_per_mm2
                        - sram_cells)
                        .max(0.0),
                adc_mm2: rom_adc + sram_adc,
                driver_mm2: rom_drv + sram_drv,
                ctrl_mm2: rom_ctrl + sram_ctrl,
                buffer_mm2: buffer.area_mm2(),
            };
            // Correct double count: sram_array includes its periphery via
            // density; subtract the split components to avoid counting
            // them twice.
            let mut area = area;
            area.sram_array_mm2 =
                (area.sram_array_mm2 - sram_adc - sram_drv - sram_ctrl).max(sram_cells);

            // Latency: layer-pipelined MVM stream + un-hidden branch time.
            let branch_fraction = if trunk_macs > 0 {
                branch_macs as f64 / trunk_macs as f64
            } else {
                0.0
            };
            let latency_ns = mapping.total_mvms() as f64
                * p.rom.t_inference_ns
                * (1.0 + branch_fraction * p.branch_overlap);

            Ok(SystemReport {
                system: "YOLoC".to_string(),
                model: desc.name.clone(),
                area,
                latency_ms: latency_ns / 1e6,
                ops,
                energy_eff_tops_w: ops as f64 / (energy.total_uj() * 1e6),
                dram_traffic_bits: 0,
                link_traffic_bits: 0,
                energy,
            })
        }
        SystemKind::SramSingleChip { cim_area_mm2 } => {
            // Iso-area by default: the YOLoC chip's CiM area.
            let yoloc = evaluate(desc, SystemKind::Yoloc, p)?;
            let cim_area = cim_area_mm2.unwrap_or(yoloc.area.total_mm2() - yoloc.area.buffer_mm2);
            let capacity = (cim_area * p.sram.spec().density_mb_per_mm2 * 1_048_576.0) as u64;
            // Residency: keep the most reuse-intensive layers on chip.
            let mut order: Vec<usize> = (0..layers.len()).collect();
            order.sort_by(|&a, &b| {
                let ra = layers[a].macs as f64 / layers[a].w_bits as f64;
                let rb = layers[b].macs as f64 / layers[b].w_bits as f64;
                rb.partial_cmp(&ra).unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut resident = vec![false; layers.len()];
            let mut used = 0u64;
            for i in order {
                if used + layers[i].w_bits <= capacity {
                    used += layers[i].w_bits;
                    resident[i] = true;
                }
            }
            let spill_bits: u64 = layers
                .iter()
                .zip(&resident)
                .filter(|(_, &r)| !r)
                .map(|(l, _)| l.w_bits)
                .sum();
            // Non-resident layers break the pipeline: large maps at their
            // boundaries materialize through DRAM (write + read).
            let mut act_dram_bits = 0u64;
            for (i, l) in layers.iter().enumerate() {
                if resident[i] {
                    continue;
                }
                if l.in_bits > p.act_buffer_bits {
                    act_dram_bits += 2 * l.in_bits;
                }
                if l.out_bits > p.act_buffer_bits {
                    act_dram_bits += 2 * l.out_bits;
                }
            }
            let dram_bits = spill_bits + act_dram_bits;

            let cim_pj = 2.0 * total_macs as f64 * pj_per_op(&p.sram);
            let buffer_pj: f64 = layers
                .iter()
                .map(|l| buffer.access_energy_pj(2 * l.out_bits))
                .sum();
            let dram_pj = p.dram.transfer_energy_pj(dram_bits);
            let write_pj = spill_bits as f64 * p.sram.e_write_per_bit_pj;
            let dram_time_ns = p.dram.transfer_latency_ns(dram_bits);
            let stall_pj = p.idle_power_w * dram_time_ns * 1e3; // W * ns = nJ -> pJ: *1e3... (1 W = 1e3 pJ/ns)
            let energy = EnergyBreakdown {
                cim_uj: cim_pj / 1e6,
                peripheral_uj: cim_pj * (p.peripheral_overhead - 1.0) / 1e6,
                buffer_uj: buffer_pj / 1e6,
                noc_uj: 0.0,
                dram_uj: dram_pj / 1e6,
                write_uj: write_pj / 1e6,
                stall_uj: stall_pj / 1e6,
                link_uj: 0.0,
            };
            let mapping = map_network(desc, &p.sram)?;
            let compute_ns = mapping.total_mvms() as f64 * p.sram.t_inference_ns;
            // Ping-pong overlaps compute with streaming; the longer of the
            // two dominates, with a 5% switching penalty.
            let latency_ns = compute_ns.max(dram_time_ns) * 1.05;
            let (cells, adc, drv, ctrl) = macro_area_split(capacity, &p.sram);
            let scale = cim_area / (cells + adc + drv + ctrl).max(1e-12);
            Ok(SystemReport {
                system: "SRAM-CiM single chip".to_string(),
                model: desc.name.clone(),
                area: AreaBreakdown {
                    rom_array_mm2: 0.0,
                    sram_array_mm2: cells * scale,
                    adc_mm2: adc * scale,
                    driver_mm2: drv * scale,
                    ctrl_mm2: ctrl * scale,
                    buffer_mm2: buffer.area_mm2(),
                },
                latency_ms: latency_ns / 1e6,
                ops,
                energy_eff_tops_w: ops as f64 / (energy.total_uj() * 1e6),
                dram_traffic_bits: dram_bits,
                link_traffic_bits: 0,
                energy,
            })
        }
        SystemKind::SramChiplet { chips } => {
            let total_w_bits: u64 = layers.iter().map(|l| l.w_bits).sum();
            let yoloc = evaluate(desc, SystemKind::Yoloc, p)?;
            let chip_area = yoloc.area.total_mm2();
            let chip_capacity = (chip_area * p.sram.spec().density_mb_per_mm2 * 1_048_576.0) as u64;
            let n_chips = chips
                .unwrap_or_else(|| (total_w_bits as f64 / chip_capacity as f64).ceil() as usize)
                .max(1);
            // Assign layers to chips by cumulative weight; count boundary
            // crossings.
            let per_chip = total_w_bits.div_ceil(n_chips as u64);
            let mut link_bits = 0u64;
            let mut acc = 0u64;
            let mut chip_of = Vec::with_capacity(layers.len());
            for l in &layers {
                chip_of.push((acc / per_chip.max(1)) as usize);
                acc += l.w_bits;
            }
            for i in 1..layers.len() {
                if chip_of[i] != chip_of[i - 1] {
                    link_bits += layers[i].in_bits;
                }
            }
            let cim_pj = 2.0 * total_macs as f64 * pj_per_op(&p.sram);
            let buffer_pj: f64 = layers
                .iter()
                .map(|l| buffer.access_energy_pj(2 * l.out_bits))
                .sum();
            let link_pj = p.link.transfer_energy_pj(link_bits);
            let energy = EnergyBreakdown {
                cim_uj: cim_pj / 1e6,
                peripheral_uj: cim_pj * (p.peripheral_overhead - 1.0) / 1e6,
                buffer_uj: buffer_pj / 1e6,
                link_uj: link_pj / 1e6,
                ..Default::default()
            };
            let mapping = map_network(desc, &p.sram)?;
            let latency_ns = mapping.total_mvms() as f64 * p.sram.t_inference_ns
                + p.link.transfer_latency_ns(link_bits);
            let stored_bits = total_w_bits.max(chip_capacity * n_chips as u64);
            let (cells, adc, drv, ctrl) = macro_area_split(stored_bits, &p.sram);
            let density_area = total_w_bits as f64 / 1_048_576.0 / p.sram.spec().density_mb_per_mm2;
            let scale = density_area.max(1.0) / (cells + adc + drv + ctrl).max(1e-12);
            Ok(SystemReport {
                system: format!("SRAM-CiM {n_chips} chiplets"),
                model: desc.name.clone(),
                area: AreaBreakdown {
                    rom_array_mm2: 0.0,
                    sram_array_mm2: cells * scale,
                    adc_mm2: adc * scale,
                    driver_mm2: drv * scale,
                    ctrl_mm2: ctrl * scale,
                    buffer_mm2: buffer.area_mm2() * n_chips as f64,
                },
                latency_ms: latency_ns / 1e6,
                ops,
                energy_eff_tops_w: ops as f64 / (energy.total_uj() * 1e6),
                dram_traffic_bits: 0,
                link_traffic_bits: link_bits,
                energy,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yoloc_models::zoo;

    fn p() -> SystemParams {
        SystemParams::paper_default()
    }

    #[test]
    fn yoloc_has_no_dram_traffic() {
        let r = evaluate(&zoo::yolo_v2(20, 5), SystemKind::Yoloc, &p()).unwrap();
        assert_eq!(r.dram_traffic_bits, 0);
        assert!(r.energy.dram_uj == 0.0 && r.energy.stall_uj == 0.0);
        assert!(r.energy_eff_tops_w > 3.0, "eff {}", r.energy_eff_tops_w);
    }

    #[test]
    fn iso_area_sram_chip_spills_yolo_weights() {
        let net = zoo::yolo_v2(20, 5);
        let r = evaluate(
            &net,
            SystemKind::SramSingleChip { cim_area_mm2: None },
            &p(),
        )
        .unwrap();
        assert!(r.dram_traffic_bits > net.weight_bits(8) / 2);
        assert!(
            r.energy.dram_share() > 0.5,
            "share {}",
            r.energy.dram_share()
        );
    }

    #[test]
    fn yoloc_beats_single_chip_on_big_models() {
        let pp = p();
        for net in [
            zoo::resnet18(100),
            zoo::tiny_yolo(20, 5),
            zoo::yolo_v2(20, 5),
        ] {
            let y = evaluate(&net, SystemKind::Yoloc, &pp).unwrap();
            let s = evaluate(&net, SystemKind::SramSingleChip { cim_area_mm2: None }, &pp).unwrap();
            let improvement = y.energy_eff_tops_w / s.energy_eff_tops_w;
            assert!(
                improvement > 2.0,
                "{}: improvement only {improvement:.2}",
                net.name
            );
        }
    }

    #[test]
    fn chiplet_close_to_yoloc_energy_but_much_bigger() {
        let pp = p();
        let net = zoo::yolo_v2(20, 5);
        let y = evaluate(&net, SystemKind::Yoloc, &pp).unwrap();
        let c = evaluate(&net, SystemKind::SramChiplet { chips: None }, &pp).unwrap();
        // Paper: ~2% energy-efficiency difference (essentially parity),
        // ~10x area advantage for YOLoC.
        let e_ratio = y.energy_eff_tops_w / c.energy_eff_tops_w;
        assert!((0.8..1.6).contains(&e_ratio), "energy ratio {e_ratio}");
        let a_ratio = c.area.total_mm2() / y.area.total_mm2();
        assert!(a_ratio > 5.0, "area ratio {a_ratio}");
        assert_eq!(c.dram_traffic_bits, 0);
        assert!(c.link_traffic_bits > 0);
    }

    #[test]
    fn already_wrapped_networks_are_rejected() {
        // The model adds the branches itself; it must not price a wrapped
        // net's SRAM res-convs as ROM trunk bits.
        let net = zoo::rebranched(&zoo::resnet18(100), 2, 2);
        for kind in [SystemKind::Yoloc, SystemKind::SramChiplet { chips: None }] {
            let err = evaluate(&net, kind, &p()).unwrap_err();
            assert!(err.msg.contains("ReBranch"), "{err}");
        }
    }

    #[test]
    fn rebranch_latency_overhead_is_moderate() {
        // Paper: ~8% latency overhead from the residual branch on YOLO.
        let pp = p();
        let net = zoo::yolo_v2(20, 5);
        let with_branch = evaluate(&net, SystemKind::Yoloc, &pp).unwrap();
        let mut no_branch = pp.clone();
        no_branch.branch_overlap = 0.0;
        let base = evaluate(&net, SystemKind::Yoloc, &no_branch).unwrap();
        let overhead = with_branch.latency_ms / base.latency_ms - 1.0;
        assert!(
            (0.02..0.15).contains(&overhead),
            "branch latency overhead {overhead}"
        );
    }

    #[test]
    fn improvement_grows_from_vgg8_to_yolo() {
        // The Fig. 14(c) comparison runs every model on one chip design —
        // the YOLO-sized YOLoC chip and an SRAM-CiM chip of the same area
        // ("ISSCC 21 [3]-single chip"). Small models fit the SRAM chip and
        // gain little; YOLO-class models spill heavily and gain the most.
        let pp = p();
        let yolo_chip = evaluate(&zoo::yolo_v2(20, 5), SystemKind::Yoloc, &pp).unwrap();
        let iso = yolo_chip.area.total_mm2() - yolo_chip.area.buffer_mm2;
        let imp = |net: &NetworkDesc| {
            let y = evaluate(net, SystemKind::Yoloc, &pp).unwrap();
            let s = evaluate(
                net,
                SystemKind::SramSingleChip {
                    cim_area_mm2: Some(iso),
                },
                &pp,
            )
            .unwrap();
            y.energy_eff_tops_w / s.energy_eff_tops_w
        };
        let vgg = imp(&zoo::vgg8(100));
        let resnet = imp(&zoo::resnet18(100));
        let yolo = imp(&zoo::yolo_v2(20, 5));
        // VGG-8 fits on the iso-area SRAM chip: near parity (paper: 1x).
        assert!(vgg < 2.0, "vgg improvement {vgg}");
        assert!(resnet > vgg, "resnet {resnet} vs vgg {vgg}");
        assert!(yolo > 3.0, "yolo improvement {yolo}");
    }

    #[test]
    fn area_breakdown_sums() {
        let r = evaluate(&zoo::tiny_yolo(20, 5), SystemKind::Yoloc, &p()).unwrap();
        let a = &r.area;
        let total = a.total_mm2();
        assert!(total > 0.0);
        for part in [
            a.rom_array_mm2,
            a.sram_array_mm2,
            a.adc_mm2,
            a.driver_mm2,
            a.ctrl_mm2,
            a.buffer_mm2,
        ] {
            assert!(part >= 0.0 && part <= total + 1e-9);
        }
    }
}
