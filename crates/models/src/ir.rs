//! Network intermediate representation.
//!
//! The system-level evaluation (area, energy, latency of Fig. 12/14) needs
//! layer *shapes and counts*, not trained weights, so networks are
//! described by this lightweight IR. The same IR drives the CiM weight
//! mapper (every conv lowers to a `(out_ch, in_ch*k*k)` matrix applied to
//! `OH*OW` positions) and the trainable-model builders in `yoloc-core`.

use serde::{Deserialize, Serialize};

/// Activation function kinds used by the paper's models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActKind {
    /// Rectified linear unit (VGG/ResNet).
    Relu,
    /// Leaky ReLU with slope 0.1 (DarkNet family).
    Leaky,
}

/// One layer of a network description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LayerSpec {
    /// 2-D convolution.
    Conv {
        /// Layer name (unique within the network).
        name: String,
        /// Input channels.
        in_ch: usize,
        /// Output channels.
        out_ch: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        padding: usize,
        /// Whether the layer has a bias vector.
        bias: bool,
    },
    /// A ReBranch convolution (Fig. 7): a frozen `kernel` x `kernel`
    /// trunk conv summed with a residual branch of three convs — a 1x1
    /// compress to `max(in_ch / d, 1)` channels, a trainable `kernel` x
    /// `kernel` res-conv at the trunk's stride and padding to
    /// `max(out_ch / u, 1)` channels, and a 1x1 decompress to `out_ch`.
    /// It maps onto four CiM matrices, in this order: trunk, compress,
    /// res-conv, decompress.
    ReBranch {
        /// Layer name (unique within the network).
        name: String,
        /// Input channels N.
        in_ch: usize,
        /// Output channels M.
        out_ch: usize,
        /// Square kernel size of the trunk and the res-conv.
        kernel: usize,
        /// Stride of the trunk and the res-conv.
        stride: usize,
        /// Zero padding of the trunk and the res-conv.
        padding: usize,
        /// Channel compression ratio D.
        d: usize,
        /// Channel decompression ratio U.
        u: usize,
    },
    /// Fully-connected layer.
    Linear {
        /// Layer name.
        name: String,
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
        /// Whether the layer has a bias vector.
        bias: bool,
    },
    /// Batch normalization (folded into the preceding conv for CiM
    /// deployment; parameters are counted but not mapped).
    BatchNorm {
        /// Normalized channels.
        channels: usize,
    },
    /// Elementwise activation.
    Activation(ActKind),
    /// Square max pooling.
    MaxPool {
        /// Window size.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Global average pooling to `(N, C)`.
    GlobalAvgPool,
    /// YOLOv2 passthrough/reorg concatenation: appends `extra_ch` channels
    /// (a space-to-depth reorganization of an earlier feature map) to the
    /// current map. Parameter-free in this IR (the reference 512->64
    /// squeeze conv is ~0.03 M parameters, negligible at YOLO scale).
    Passthrough {
        /// Channels appended by the reorg path.
        extra_ch: usize,
    },
    /// The output of the layer `blocks_back` positions earlier (or the
    /// network input when `blocks_back == index + 1`) is added elementwise
    /// (ResNet skip connection), optionally through a 1x1 projection conv
    /// (the strided shortcut of stage-entry blocks).
    ResidualAdd {
        /// How many layers back the skip source sits.
        blocks_back: usize,
        /// Optional projection applied to the skip source.
        projection: Option<ProjectionSpec>,
    },
}

/// A 1x1 projection conv (+ folded batch-norm) on a ResNet skip path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProjectionSpec {
    /// Layer name.
    pub name: String,
    /// Input channels (channels of the skip source).
    pub in_ch: usize,
    /// Output channels.
    pub out_ch: usize,
    /// Stride.
    pub stride: usize,
}

impl ProjectionSpec {
    /// Parameters: 1x1 conv weights plus batch-norm scale/shift.
    pub fn param_count(&self) -> u64 {
        (self.in_ch * self.out_ch + 2 * self.out_ch) as u64
    }
}

impl LayerSpec {
    /// Number of scalar parameters.
    pub fn param_count(&self) -> u64 {
        match self {
            LayerSpec::Conv {
                in_ch,
                out_ch,
                kernel,
                bias,
                ..
            } => (out_ch * in_ch * kernel * kernel + if *bias { *out_ch } else { 0 }) as u64,
            LayerSpec::ReBranch {
                in_ch,
                out_ch,
                kernel,
                d,
                u,
                ..
            } => {
                let (nc, mc) = rebranch_widths(*in_ch, *out_ch, *d, *u);
                let (n, m, kk) = (*in_ch, *out_ch, kernel * kernel);
                (m * n * kk + nc * n + mc * nc * kk + m * mc) as u64
            }
            LayerSpec::ResidualAdd {
                projection: Some(p),
                ..
            } => p.param_count(),
            LayerSpec::Linear {
                in_features,
                out_features,
                bias,
                ..
            } => (out_features * in_features + if *bias { *out_features } else { 0 }) as u64,
            LayerSpec::BatchNorm { channels } => 2 * *channels as u64,
            _ => 0,
        }
    }

    /// Whether this layer's weights are mapped onto CiM arrays
    /// (convs, ReBranch groups, linears and skip projections; batch-norm
    /// folds away).
    pub fn is_cim_layer(&self) -> bool {
        matches!(
            self,
            LayerSpec::Conv { .. }
                | LayerSpec::ReBranch { .. }
                | LayerSpec::Linear { .. }
                | LayerSpec::ResidualAdd {
                    projection: Some(_),
                    ..
                }
        )
    }
}

/// The four convs of a [`LayerSpec::ReBranch`], in execution order (the
/// order of its lowered matrices, placements and weights).
pub const REBRANCH_CONVS: [&str; 4] = ["trunk", "compress", "res-conv", "decompress"];

/// The branch widths `(max(N / D, 1), max(M / U, 1))` of a ReBranch over
/// an `n`-to-`m`-channel trunk: the compress and res-conv output channels.
pub fn rebranch_widths(n: usize, m: usize, d: usize, u: usize) -> (usize, usize) {
    ((n / d).max(1), (m / u).max(1))
}

/// Feature-map shape `(channels, height, width)`.
pub type Shape = (usize, usize, usize);

/// Per-layer analysis produced by [`NetworkDesc::analyze`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerReport {
    /// Index in the layer list.
    pub index: usize,
    /// Human-readable description.
    pub name: String,
    /// Scalar parameters.
    pub params: u64,
    /// Multiply-accumulate operations for one inference.
    pub macs: u64,
    /// Input feature-map shape.
    pub in_shape: Shape,
    /// Output feature-map shape (`(features, 1, 1)` after flatten/linear).
    pub out_shape: Shape,
    /// The lowered matrices of a CiM layer, one per mapped conv in
    /// execution order: one for a conv, linear or projection; the
    /// [`REBRANCH_CONVS`] for a ReBranch. Empty for digital layers.
    pub lowered: Vec<LoweredMatrix>,
}

/// The im2col-lowered matrix geometry of a CiM-mapped layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoweredMatrix {
    /// Dot-product depth (`in_ch * k * k` for conv, `in_features` for FC).
    pub ins: usize,
    /// Output neurons (`out_ch` or `out_features`).
    pub outs: usize,
    /// Matrix-vector products per inference (`OH*OW` positions, 1 for FC).
    pub mvms: u64,
}

/// Error produced when a network description is inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkError {
    /// Explanation.
    pub msg: String,
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "network error: {}", self.msg)
    }
}

impl std::error::Error for NetworkError {}

/// A complete network description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkDesc {
    /// Network name (e.g. `"darknet19-yolo"`).
    pub name: String,
    /// Input shape `(C, H, W)`.
    pub input: Shape,
    /// Layers in execution order.
    pub layers: Vec<LayerSpec>,
}

impl NetworkDesc {
    /// Creates an empty network.
    pub fn new(name: impl Into<String>, input: Shape) -> Self {
        NetworkDesc {
            name: name.into(),
            input,
            layers: Vec::new(),
        }
    }

    /// Total scalar parameters.
    pub fn param_count(&self) -> u64 {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Parameters of CiM-mapped layers only (what must live in ROM/SRAM
    /// CiM arrays; batch-norm folds into conv weights).
    pub fn cim_param_count(&self) -> u64 {
        self.layers
            .iter()
            .filter(|l| l.is_cim_layer())
            .map(|l| l.param_count())
            .sum()
    }

    /// Storage bits of CiM-mapped parameters at `bits` precision.
    pub fn weight_bits(&self, bits: u8) -> u64 {
        self.cim_param_count() * bits as u64
    }

    /// Total MACs per inference.
    pub fn macs(&self) -> Result<u64, NetworkError> {
        Ok(self.analyze()?.iter().map(|r| r.macs).sum())
    }

    /// Propagates shapes through the network, returning per-layer reports.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if shapes are inconsistent (channel
    /// mismatches, windows that do not fit, bad residual targets).
    pub fn analyze(&self) -> Result<Vec<LayerReport>, NetworkError> {
        let mut reports: Vec<LayerReport> = Vec::with_capacity(self.layers.len());
        let mut shape = self.input;
        let mut flattened = false;
        // Output dims of a `kernel` x `kernel` conv over the current map,
        // after checking it applies there.
        let conv_hw = |name: &str,
                       in_ch: usize,
                       kernel: usize,
                       stride: usize,
                       padding: usize,
                       shape: Shape,
                       flattened: bool|
         -> Result<(usize, usize), NetworkError> {
            if flattened {
                return Err(NetworkError {
                    msg: format!("conv {name} after flatten"),
                });
            }
            if shape.0 != in_ch {
                return Err(NetworkError {
                    msg: format!(
                        "conv {name}: expected {in_ch} input channels, got {}",
                        shape.0
                    ),
                });
            }
            let eff_h = shape.1 + 2 * padding;
            let eff_w = shape.2 + 2 * padding;
            if eff_h < kernel || eff_w < kernel {
                return Err(NetworkError {
                    msg: format!("conv {name}: kernel does not fit input"),
                });
            }
            Ok(((eff_h - kernel) / stride + 1, (eff_w - kernel) / stride + 1))
        };
        for (index, layer) in self.layers.iter().enumerate() {
            let in_shape = shape;
            let (lowered, name): (Vec<LoweredMatrix>, String) = match layer {
                LayerSpec::Conv {
                    name,
                    in_ch,
                    out_ch,
                    kernel,
                    stride,
                    padding,
                    ..
                } => {
                    let (oh, ow) =
                        conv_hw(name, *in_ch, *kernel, *stride, *padding, shape, flattened)?;
                    shape = (*out_ch, oh, ow);
                    (
                        vec![LoweredMatrix {
                            ins: in_ch * kernel * kernel,
                            outs: *out_ch,
                            mvms: (oh * ow) as u64,
                        }],
                        format!("{name} (conv {in_ch}x{kernel}x{kernel}->{out_ch})"),
                    )
                }
                LayerSpec::ReBranch {
                    name,
                    in_ch,
                    out_ch,
                    kernel,
                    stride,
                    padding,
                    d,
                    u,
                } => {
                    let (oh, ow) =
                        conv_hw(name, *in_ch, *kernel, *stride, *padding, shape, flattened)?;
                    let (nc, mc) = rebranch_widths(*in_ch, *out_ch, *d, *u);
                    let (at_input, at_output) = ((shape.1 * shape.2) as u64, (oh * ow) as u64);
                    shape = (*out_ch, oh, ow);
                    let matrix = |ins, outs, mvms| LoweredMatrix { ins, outs, mvms };
                    (
                        vec![
                            matrix(in_ch * kernel * kernel, *out_ch, at_output),
                            matrix(*in_ch, nc, at_input),
                            matrix(nc * kernel * kernel, mc, at_output),
                            matrix(mc, *out_ch, at_output),
                        ],
                        format!("{name} (rebranch {in_ch}x{kernel}x{kernel}->{out_ch}, D{d} U{u})"),
                    )
                }
                LayerSpec::Linear {
                    name,
                    in_features,
                    out_features,
                    ..
                } => {
                    let feat = shape.0 * shape.1 * shape.2;
                    if feat != *in_features {
                        return Err(NetworkError {
                            msg: format!(
                                "linear {name}: expected {in_features} features, got {feat}"
                            ),
                        });
                    }
                    flattened = true;
                    shape = (*out_features, 1, 1);
                    (
                        vec![LoweredMatrix {
                            ins: *in_features,
                            outs: *out_features,
                            mvms: 1,
                        }],
                        format!("{name} (fc {in_features}->{out_features})"),
                    )
                }
                LayerSpec::BatchNorm { channels } => {
                    if shape.0 != *channels {
                        return Err(NetworkError {
                            msg: format!(
                                "batchnorm: expected {channels} channels, got {}",
                                shape.0
                            ),
                        });
                    }
                    (Vec::new(), format!("bn({channels})"))
                }
                LayerSpec::Activation(k) => (Vec::new(), format!("act({k:?})")),
                LayerSpec::MaxPool { kernel, stride } => {
                    if shape.1 < *kernel || shape.2 < *kernel {
                        return Err(NetworkError {
                            msg: "maxpool window does not fit".to_string(),
                        });
                    }
                    shape = (
                        shape.0,
                        (shape.1 - kernel) / stride + 1,
                        (shape.2 - kernel) / stride + 1,
                    );
                    (Vec::new(), format!("maxpool({kernel}/{stride})"))
                }
                LayerSpec::GlobalAvgPool => {
                    shape = (shape.0, 1, 1);
                    (Vec::new(), "gap".to_string())
                }
                LayerSpec::Passthrough { extra_ch } => {
                    shape = (shape.0 + extra_ch, shape.1, shape.2);
                    (Vec::new(), format!("passthrough(+{extra_ch})"))
                }
                LayerSpec::ResidualAdd {
                    blocks_back,
                    projection,
                } => {
                    if *blocks_back == 0 || *blocks_back > index + 1 {
                        return Err(NetworkError {
                            msg: format!("residual add at {index}: bad target {blocks_back}"),
                        });
                    }
                    let src_shape = if *blocks_back == index + 1 {
                        self.input
                    } else {
                        reports[index - blocks_back].out_shape
                    };
                    match projection {
                        None => {
                            if src_shape != shape {
                                return Err(NetworkError {
                                    msg: format!(
                                        "residual add at {index}: shape {src_shape:?} vs {shape:?}"
                                    ),
                                });
                            }
                            (Vec::new(), "residual-add".to_string())
                        }
                        Some(p) => {
                            if src_shape.0 != p.in_ch {
                                return Err(NetworkError {
                                    msg: format!(
                                        "projection {}: expected {} channels, got {}",
                                        p.name, p.in_ch, src_shape.0
                                    ),
                                });
                            }
                            let oh = (src_shape.1 - 1) / p.stride + 1;
                            let ow = (src_shape.2 - 1) / p.stride + 1;
                            if (p.out_ch, oh, ow) != shape {
                                return Err(NetworkError {
                                    msg: format!(
                                        "projection {}: produces {:?}, main path {:?}",
                                        p.name,
                                        (p.out_ch, oh, ow),
                                        shape
                                    ),
                                });
                            }
                            (
                                vec![LoweredMatrix {
                                    ins: p.in_ch,
                                    outs: p.out_ch,
                                    mvms: (oh * ow) as u64,
                                }],
                                format!("{} (proj {}->{})", p.name, p.in_ch, p.out_ch),
                            )
                        }
                    }
                }
            };
            reports.push(LayerReport {
                index,
                name,
                params: layer.param_count(),
                // Every MAC of a layer is one of its CiM matrices'.
                macs: lowered
                    .iter()
                    .map(|m| (m.ins * m.outs) as u64 * m.mvms)
                    .sum(),
                in_shape,
                out_shape: shape,
                lowered,
            });
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(name: &str, i: usize, o: usize, k: usize, s: usize, p: usize) -> LayerSpec {
        LayerSpec::Conv {
            name: name.into(),
            in_ch: i,
            out_ch: o,
            kernel: k,
            stride: s,
            padding: p,
            bias: false,
        }
    }

    #[test]
    fn param_counting() {
        let c = conv("c", 3, 16, 3, 1, 1);
        assert_eq!(c.param_count(), 3 * 16 * 9);
        let l = LayerSpec::Linear {
            name: "fc".into(),
            in_features: 10,
            out_features: 4,
            bias: true,
        };
        assert_eq!(l.param_count(), 44);
        assert_eq!(LayerSpec::BatchNorm { channels: 8 }.param_count(), 16);
        assert_eq!(LayerSpec::GlobalAvgPool.param_count(), 0);
    }

    #[test]
    fn shape_propagation_and_macs() {
        let mut net = NetworkDesc::new("t", (3, 8, 8));
        net.layers.push(conv("c1", 3, 4, 3, 1, 1));
        net.layers.push(LayerSpec::MaxPool {
            kernel: 2,
            stride: 2,
        });
        net.layers.push(LayerSpec::GlobalAvgPool);
        net.layers.push(LayerSpec::Linear {
            name: "fc".into(),
            in_features: 4,
            out_features: 2,
            bias: false,
        });
        let reports = net.analyze().unwrap();
        assert_eq!(reports[0].out_shape, (4, 8, 8));
        assert_eq!(reports[0].macs, (4 * 27 * 64) as u64);
        assert_eq!(reports[1].out_shape, (4, 4, 4));
        assert_eq!(reports[2].out_shape, (4, 1, 1));
        assert_eq!(reports[3].out_shape, (2, 1, 1));
        assert_eq!(net.macs().unwrap(), (4 * 27 * 64 + 8) as u64);
    }

    #[test]
    fn channel_mismatch_rejected() {
        let mut net = NetworkDesc::new("bad", (3, 8, 8));
        net.layers.push(conv("c1", 4, 8, 3, 1, 1));
        assert!(net.analyze().is_err());
    }

    #[test]
    fn residual_shape_check() {
        let mut net = NetworkDesc::new("res", (4, 8, 8));
        net.layers.push(conv("c1", 4, 4, 3, 1, 1));
        net.layers.push(conv("c2", 4, 4, 3, 1, 1));
        net.layers.push(LayerSpec::ResidualAdd {
            blocks_back: 2,
            projection: None,
        });
        assert!(net.analyze().is_ok());
        // Mismatched skip shapes are rejected.
        let mut bad = NetworkDesc::new("res2", (4, 8, 8));
        bad.layers.push(conv("c1", 4, 8, 3, 1, 1));
        bad.layers.push(LayerSpec::ResidualAdd {
            blocks_back: 2, // points at the network input: 4ch vs 8ch
            projection: None,
        });
        assert!(bad.analyze().is_err());
    }

    #[test]
    fn projection_shortcut_counts_params_and_macs() {
        let mut net = NetworkDesc::new("proj", (4, 8, 8));
        net.layers.push(conv("c1", 4, 8, 3, 2, 1)); // (8, 4, 4)
        net.layers.push(LayerSpec::ResidualAdd {
            blocks_back: 2,
            projection: Some(ProjectionSpec {
                name: "down".into(),
                in_ch: 4,
                out_ch: 8,
                stride: 2,
            }),
        });
        let r = net.analyze().unwrap();
        assert_eq!(r[1].out_shape, (8, 4, 4));
        assert_eq!(r[1].macs, (4 * 8 * 16) as u64);
        assert_eq!(net.param_count(), (8 * 4 * 9) as u64 + (4 * 8 + 16) as u64);
    }

    #[test]
    fn rebranch_counts_all_four_convs() {
        // N = 8 -> N/D = 2 compress channels, M = 12 -> M/U = 4 res-conv
        // channels, trunk and res-conv at stride 2.
        let mut net = NetworkDesc::new("rb", (8, 8, 8));
        net.layers.push(LayerSpec::ReBranch {
            name: "rb".into(),
            in_ch: 8,
            out_ch: 12,
            kernel: 3,
            stride: 2,
            padding: 1,
            d: 4,
            u: 3,
        });
        let rb = &net.layers[0];
        assert!(rb.is_cim_layer());
        assert_eq!(rebranch_widths(8, 12, 4, 3), (2, 4));
        assert_eq!(
            rb.param_count(),
            (12 * 8 * 9 + 2 * 8 + 4 * 2 * 9 + 12 * 4) as u64
        );
        let r = net.analyze().unwrap();
        assert_eq!(r[0].out_shape, (12, 4, 4));
        let shapes: Vec<_> = r[0]
            .lowered
            .iter()
            .map(|m| (m.ins, m.outs, m.mvms))
            .collect();
        assert_eq!(shapes, [(72, 12, 16), (8, 2, 64), (18, 4, 16), (4, 12, 16)]);
        assert_eq!(
            r[0].macs,
            72 * 12 * 16 + 8 * 2 * 64 + 18 * 4 * 16 + 4 * 12 * 16
        );
        // Widths never drop below one channel.
        assert_eq!(rebranch_widths(1, 2, 4, 4), (1, 1));
    }

    #[test]
    fn lowered_geometry() {
        let mut net = NetworkDesc::new("low", (16, 10, 10));
        net.layers.push(conv("c", 16, 32, 3, 1, 1));
        let r = net.analyze().unwrap();
        let m = r[0].lowered[0];
        assert_eq!(m.ins, 144);
        assert_eq!(m.outs, 32);
        assert_eq!(m.mvms, 100);
    }
}
