//! The paper's model zoo: VGG-8, ResNet-18, DarkNet-19 (YOLO backbone),
//! YOLO (v2 head) and Tiny-YOLO, described in the [`crate::ir`] IR.
//!
//! These definitions drive the area/energy/latency evaluation of
//! Fig. 12/14 and Table I; the reduced-width trainable variants used for
//! the accuracy experiments live in `yoloc-core`.

use crate::ir::{ActKind, LayerSpec, NetworkDesc, ProjectionSpec};

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

#[allow(clippy::too_many_arguments)] // mirrors the conv hyper-parameter list
fn conv_bn_act(
    net: &mut NetworkDesc,
    name: &str,
    i: usize,
    o: usize,
    k: usize,
    s: usize,
    p: usize,
    act: ActKind,
) {
    net.layers.push(conv(name, i, o, k, s, p));
    net.layers.push(LayerSpec::BatchNorm { channels: o });
    net.layers.push(LayerSpec::Activation(act));
}

fn maxpool2(net: &mut NetworkDesc) {
    net.layers.push(LayerSpec::MaxPool {
        kernel: 2,
        stride: 2,
    });
}

/// VGG-8 for 32x32 inputs (CIFAR-class): six 3x3 convs in three stages
/// with a global-average-pool classifier (~4.7 M parameters), the compact
/// VGG variant used throughout the CiM literature. The paper's Fig. 10(a)
/// memory-area ratio (ResNet-18 ~2.6x VGG-8) pins this form rather than
/// the FC-heavy original.
pub fn vgg8(classes: usize) -> NetworkDesc {
    let mut net = NetworkDesc::new("vgg8", (3, 32, 32));
    conv_bn_act(&mut net, "conv1", 3, 128, 3, 1, 1, ActKind::Relu);
    conv_bn_act(&mut net, "conv2", 128, 128, 3, 1, 1, ActKind::Relu);
    maxpool2(&mut net);
    conv_bn_act(&mut net, "conv3", 128, 256, 3, 1, 1, ActKind::Relu);
    conv_bn_act(&mut net, "conv4", 256, 256, 3, 1, 1, ActKind::Relu);
    maxpool2(&mut net);
    conv_bn_act(&mut net, "conv5", 256, 512, 3, 1, 1, ActKind::Relu);
    conv_bn_act(&mut net, "conv6", 512, 512, 3, 1, 1, ActKind::Relu);
    maxpool2(&mut net);
    net.layers.push(LayerSpec::GlobalAvgPool);
    net.layers.push(LayerSpec::Linear {
        name: "fc".into(),
        in_features: 512,
        out_features: classes,
        bias: true,
    });
    net
}

fn basic_block(net: &mut NetworkDesc, name: &str, i: usize, o: usize, stride: usize) {
    let downsample = stride != 1 || i != o;
    conv_bn_act(
        net,
        &format!("{name}.conv1"),
        i,
        o,
        3,
        stride,
        1,
        ActKind::Relu,
    );
    net.layers
        .push(conv(&format!("{name}.conv2"), o, o, 3, 1, 1));
    net.layers.push(LayerSpec::BatchNorm { channels: o });
    // The skip source is the layer just before this block (5 layers back
    // from the add: conv1, bn, act, conv2, bn).
    net.layers.push(LayerSpec::ResidualAdd {
        blocks_back: 6,
        projection: downsample.then(|| ProjectionSpec {
            name: format!("{name}.down"),
            in_ch: i,
            out_ch: o,
            stride,
        }),
    });
    net.layers.push(LayerSpec::Activation(ActKind::Relu));
}

/// ResNet-18 for 224x224 inputs (~11.7 M parameters with 1000 classes).
pub fn resnet18(classes: usize) -> NetworkDesc {
    let mut net = NetworkDesc::new("resnet18", (3, 224, 224));
    conv_bn_act(&mut net, "conv1", 3, 64, 7, 2, 3, ActKind::Relu);
    net.layers.push(LayerSpec::MaxPool {
        kernel: 2,
        stride: 2,
    });
    basic_block(&mut net, "layer1.0", 64, 64, 1);
    basic_block(&mut net, "layer1.1", 64, 64, 1);
    basic_block(&mut net, "layer2.0", 64, 128, 2);
    basic_block(&mut net, "layer2.1", 128, 128, 1);
    basic_block(&mut net, "layer3.0", 128, 256, 2);
    basic_block(&mut net, "layer3.1", 256, 256, 1);
    basic_block(&mut net, "layer4.0", 256, 512, 2);
    basic_block(&mut net, "layer4.1", 512, 512, 1);
    net.layers.push(LayerSpec::GlobalAvgPool);
    net.layers.push(LayerSpec::Linear {
        name: "fc".into(),
        in_features: 512,
        out_features: classes,
        bias: true,
    });
    net
}

fn darknet_backbone(net: &mut NetworkDesc) {
    let l = ActKind::Leaky;
    conv_bn_act(net, "conv1", 3, 32, 3, 1, 1, l);
    maxpool2(net);
    conv_bn_act(net, "conv2", 32, 64, 3, 1, 1, l);
    maxpool2(net);
    conv_bn_act(net, "conv3", 64, 128, 3, 1, 1, l);
    conv_bn_act(net, "conv4", 128, 64, 1, 1, 0, l);
    conv_bn_act(net, "conv5", 64, 128, 3, 1, 1, l);
    maxpool2(net);
    conv_bn_act(net, "conv6", 128, 256, 3, 1, 1, l);
    conv_bn_act(net, "conv7", 256, 128, 1, 1, 0, l);
    conv_bn_act(net, "conv8", 128, 256, 3, 1, 1, l);
    maxpool2(net);
    conv_bn_act(net, "conv9", 256, 512, 3, 1, 1, l);
    conv_bn_act(net, "conv10", 512, 256, 1, 1, 0, l);
    conv_bn_act(net, "conv11", 256, 512, 3, 1, 1, l);
    conv_bn_act(net, "conv12", 512, 256, 1, 1, 0, l);
    conv_bn_act(net, "conv13", 256, 512, 3, 1, 1, l);
    maxpool2(net);
    conv_bn_act(net, "conv14", 512, 1024, 3, 1, 1, l);
    conv_bn_act(net, "conv15", 1024, 512, 1, 1, 0, l);
    conv_bn_act(net, "conv16", 512, 1024, 3, 1, 1, l);
    conv_bn_act(net, "conv17", 1024, 512, 1, 1, 0, l);
    conv_bn_act(net, "conv18", 512, 1024, 3, 1, 1, l);
}

/// DarkNet-19 classifier for 224x224 inputs (~20.8 M parameters at 1000
/// classes): the YOLO backbone.
pub fn darknet19(classes: usize) -> NetworkDesc {
    let mut net = NetworkDesc::new("darknet19", (3, 224, 224));
    darknet_backbone(&mut net);
    net.layers.push(conv("conv19", 1024, classes, 1, 1, 0));
    net.layers.push(LayerSpec::GlobalAvgPool);
    net
}

/// YOLO (v2) detector with the DarkNet-19 backbone at 416x416
/// (~46-51 M parameters for 20 VOC classes, 5 anchors).
///
/// The passthrough/reorg concatenation of the reference implementation is
/// modelled by widening the fusion conv's input to 1024 + 256 channels
/// (the reorg of the 26x26x512 map contributes 2048, compressed by the
/// standard 512->64 squeeze to 256).
pub fn yolo_v2(classes: usize, anchors: usize) -> NetworkDesc {
    let mut net = NetworkDesc::new("yolo-v2", (3, 416, 416));
    darknet_backbone(&mut net);
    let l = ActKind::Leaky;
    conv_bn_act(&mut net, "head1", 1024, 1024, 3, 1, 1, l);
    conv_bn_act(&mut net, "head2", 1024, 1024, 3, 1, 1, l);
    // Passthrough: reorg of the 26x26x512 map (squeezed to 64 channels,
    // space-to-depth x4) concatenates 256 channels at 13x13.
    net.layers.push(LayerSpec::Passthrough { extra_ch: 256 });
    conv_bn_act(&mut net, "head3", 1024 + 256, 1024, 3, 1, 1, l);
    let out = anchors * (5 + classes);
    net.layers.push(conv("detect", 1024, out, 1, 1, 0));
    net
}

/// Tiny-YOLO (v2) detector at 416x416 (~15.8 M parameters for 20 VOC
/// classes; the paper quotes 11.3 M for its Tiny-YOLO variant).
pub fn tiny_yolo(classes: usize, anchors: usize) -> NetworkDesc {
    let mut net = NetworkDesc::new("tiny-yolo", (3, 416, 416));
    let l = ActKind::Leaky;
    conv_bn_act(&mut net, "conv1", 3, 16, 3, 1, 1, l);
    maxpool2(&mut net);
    conv_bn_act(&mut net, "conv2", 16, 32, 3, 1, 1, l);
    maxpool2(&mut net);
    conv_bn_act(&mut net, "conv3", 32, 64, 3, 1, 1, l);
    maxpool2(&mut net);
    conv_bn_act(&mut net, "conv4", 64, 128, 3, 1, 1, l);
    maxpool2(&mut net);
    conv_bn_act(&mut net, "conv5", 128, 256, 3, 1, 1, l);
    maxpool2(&mut net);
    conv_bn_act(&mut net, "conv6", 256, 512, 3, 1, 1, l);
    net.layers.push(LayerSpec::MaxPool {
        kernel: 1,
        stride: 1,
    });
    conv_bn_act(&mut net, "conv7", 512, 1024, 3, 1, 1, l);
    conv_bn_act(&mut net, "conv8", 1024, 1024, 3, 1, 1, l);
    let out = anchors * (5 + classes);
    net.layers.push(conv("detect", 1024, out, 1, 1, 0));
    net
}

/// Scales a zoo description to an executable footprint: divides every
/// channel count by `div` (minimum 1, including the input channels) and
/// re-resolutions the input to `(h, w)`.
///
/// Fully-convolutional detection networks re-resolve exactly; classifier
/// networks keep their `Linear` head valid because it follows global
/// average pooling (`in_features` equals the last channel count, which
/// scales by the same rule). The scaled description keeps the zoo
/// architecture's depth, stage structure and residual/passthrough
/// topology — it is the same graph at a width the functional CiM
/// simulator executes end to end in milliseconds instead of hours.
///
/// Use divisors that divide the network's channel widths (8/16/32 for the
/// zoo) so concatenation arithmetic (`Passthrough`) stays consistent; the
/// result should always be validated with [`NetworkDesc::analyze`].
pub fn scaled(net: &NetworkDesc, div: usize, hw: (usize, usize)) -> NetworkDesc {
    let s = |c: usize| (c / div).max(1);
    let mut out = NetworkDesc::new(
        format!("{}/w{}@{}x{}", net.name, div, hw.0, hw.1),
        (s(net.input.0), hw.0, hw.1),
    );
    for layer in &net.layers {
        out.layers.push(match layer {
            LayerSpec::Conv {
                name,
                in_ch,
                out_ch,
                kernel,
                stride,
                padding,
                bias,
            } => LayerSpec::Conv {
                name: name.clone(),
                in_ch: s(*in_ch),
                out_ch: s(*out_ch),
                kernel: *kernel,
                stride: *stride,
                padding: *padding,
                bias: *bias,
            },
            LayerSpec::ReBranch {
                name,
                in_ch,
                out_ch,
                kernel,
                stride,
                padding,
                d,
                u,
            } => LayerSpec::ReBranch {
                name: name.clone(),
                in_ch: s(*in_ch),
                out_ch: s(*out_ch),
                kernel: *kernel,
                stride: *stride,
                padding: *padding,
                d: *d,
                u: *u,
            },
            LayerSpec::Linear {
                name,
                in_features,
                out_features,
                bias,
            } => LayerSpec::Linear {
                name: name.clone(),
                in_features: s(*in_features),
                out_features: *out_features,
                bias: *bias,
            },
            LayerSpec::BatchNorm { channels } => LayerSpec::BatchNorm {
                channels: s(*channels),
            },
            LayerSpec::Passthrough { extra_ch } => LayerSpec::Passthrough {
                extra_ch: s(*extra_ch),
            },
            LayerSpec::ResidualAdd {
                blocks_back,
                projection,
            } => LayerSpec::ResidualAdd {
                blocks_back: *blocks_back,
                projection: projection.as_ref().map(|p| ProjectionSpec {
                    name: p.name.clone(),
                    in_ch: s(p.in_ch),
                    out_ch: s(p.out_ch),
                    stride: p.stride,
                }),
            },
            other => other.clone(),
        });
    }
    out
}

/// Wraps every spatial (`kernel > 1`) conv of `net` in a ReBranch with
/// ratios `d` and `u` (the paper's YOLoC deployment: frozen ROM trunks,
/// each with a residual branch). Shapes are unchanged, so the result is
/// valid wherever `net` is; 1x1 convs, linears and projections stay as
/// they are.
pub fn rebranched(net: &NetworkDesc, d: usize, u: usize) -> NetworkDesc {
    let mut out = NetworkDesc::new(format!("{}+rebranch{d}x{u}", net.name), net.input);
    out.layers = net
        .layers
        .iter()
        .map(|layer| match layer {
            LayerSpec::Conv {
                name,
                in_ch,
                out_ch,
                kernel,
                stride,
                padding,
                ..
            } if *kernel > 1 => LayerSpec::ReBranch {
                name: name.clone(),
                in_ch: *in_ch,
                out_ch: *out_ch,
                kernel: *kernel,
                stride: *stride,
                padding: *padding,
                d,
                u,
            },
            other => other.clone(),
        })
        .collect();
    out
}

/// A deterministic random zoo architecture: a shape-consistent stack of
/// conv / activation / pooling blocks with occasional residual skips
/// (projected when channel counts change) and an optional GAP + linear
/// head. The generator is seeded and dependency-free (SplitMix64 inline),
/// so property tests across crates can sweep "any zoo-shaped graph"
/// reproducibly — the fusion parity suite compiles these and pins the
/// optimized plan against the legacy unfused walk.
///
/// Every returned network passes [`NetworkDesc::analyze`] (asserted by a
/// unit test over many seeds) and stays small enough to execute on the
/// functional simulator in milliseconds.
pub fn random_zoo(seed: u64) -> NetworkDesc {
    // SplitMix64: small, stable, and avoids a rand dependency here.
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        let mut z = state;
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut pick = |n: u64| (next() % n) as usize;
    let in_ch = 1 + pick(4);
    let mut hw = 8 + 4 * pick(3); // 8, 12 or 16
    let mut net = NetworkDesc::new(format!("rand-zoo-{seed}"), (in_ch, hw, hw));
    let mut ch = in_ch;
    let blocks = 1 + pick(4);
    for b in 0..blocks {
        let out_ch = 2 + 2 * pick(8); // even, 2..=16
                                      // Odd kernels only: `same` padding k/2 then preserves the spatial
                                      // dims exactly, which the skip connections rely on.
        let mut kernel = [1usize, 3, 3, 5][pick(4)].min(hw);
        if kernel % 2 == 0 {
            kernel -= 1;
        }
        net.layers.push(LayerSpec::Conv {
            name: format!("c{b}"),
            in_ch: ch,
            out_ch,
            kernel,
            stride: 1,
            padding: kernel / 2,
            bias: false,
        });
        net.layers.push(LayerSpec::Activation(if pick(2) == 0 {
            ActKind::Relu
        } else {
            ActKind::Leaky
        }));
        // Occasional residual skip back over this block (projected when
        // the channel count changed across it). `blocks_back` reaches the
        // layer *before* this block's conv — or the network input when
        // the conv opened the stack.
        if pick(3) == 0 {
            let projection = if out_ch == ch {
                None
            } else {
                Some(ProjectionSpec {
                    name: format!("proj{b}"),
                    in_ch: ch,
                    out_ch,
                    stride: 1,
                })
            };
            net.layers.push(LayerSpec::ResidualAdd {
                // Each block is exactly conv + activation, so the block
                // input is always 3 layers back from the residual.
                blocks_back: 3,
                projection,
            });
        }
        ch = out_ch;
        if hw >= 8 && pick(3) == 0 {
            net.layers.push(LayerSpec::MaxPool {
                kernel: 2,
                stride: 2,
            });
            hw /= 2;
        }
    }
    if pick(2) == 0 {
        net.layers.push(LayerSpec::GlobalAvgPool);
        net.layers.push(LayerSpec::Linear {
            name: "fc".into(),
            in_features: ch,
            out_features: 2 + pick(8),
            bias: pick(2) == 0,
        });
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgg8_params_about_5m() {
        let net = vgg8(100);
        let p = net.param_count();
        assert!((4_200_000..5_500_000).contains(&p), "params {p}");
        assert!(net.analyze().is_ok());
    }

    #[test]
    fn resnet_to_vgg8_area_ratio_matches_fig10() {
        // Fig. 10(a): all-SRAM memory area of ResNet-18 is ~2.58x VGG-8.
        let r = resnet18(100).cim_param_count() as f64;
        let v = vgg8(100).cim_param_count() as f64;
        let ratio = r / v;
        assert!((2.2..3.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn resnet18_params_match_torchvision() {
        // torchvision resnet18 (1000 classes): 11.69 M parameters.
        let net = resnet18(1000);
        let p = net.param_count();
        assert!(
            (11_000_000..12_300_000).contains(&p),
            "params {p} (expect ~11.69M)"
        );
        assert!(net.analyze().is_ok());
    }

    #[test]
    fn darknet19_params_about_21m() {
        let net = darknet19(1000);
        let p = net.param_count();
        assert!((19_000_000..22_500_000).contains(&p), "params {p}");
        // ~2.8 GMACs (5.6 GFLOPs) at 224x224 for the reference model.
        let macs = net.macs().unwrap();
        assert!(
            (2_400_000_000..3_400_000_000).contains(&macs),
            "macs {macs}"
        );
    }

    #[test]
    fn yolo_params_tens_of_millions() {
        // Paper: "Tiny-YOLO and YOLO have 11.3 M and 46 M weights".
        let yolo = yolo_v2(20, 5);
        let p = yolo.param_count();
        assert!((44_000_000..53_000_000).contains(&p), "params {p}");
        let tiny = tiny_yolo(20, 5);
        let tp = tiny.param_count();
        assert!((10_000_000..17_000_000).contains(&tp), "params {tp}");
        assert!(p > 3 * tp, "YOLO must be several times Tiny-YOLO");
        assert!(yolo.analyze().is_ok());
        assert!(tiny.analyze().is_ok());
    }

    #[test]
    fn yolo_downsamples_to_13x13() {
        let yolo = yolo_v2(20, 5);
        let reports = yolo.analyze().unwrap();
        let last = reports.last().unwrap();
        assert_eq!(last.out_shape.1, 13);
        assert_eq!(last.out_shape.2, 13);
        assert_eq!(last.out_shape.0, 125);
    }

    #[test]
    fn backbone_dominates_yolo_params() {
        // Paper: "over 90% of parameters are stored in the high-density
        // ROM-CiM" — the backbone + fixed head convs dominate.
        let yolo = yolo_v2(20, 5);
        let detect_params: u64 = yolo
            .layers
            .iter()
            .filter_map(|l| match l {
                LayerSpec::Conv { name, .. } if name == "detect" => Some(l.param_count()),
                _ => None,
            })
            .sum();
        assert!((detect_params as f64) < 0.01 * yolo.param_count() as f64);
    }

    #[test]
    fn weight_bits_at_8bit() {
        let net = vgg8(10);
        assert_eq!(net.weight_bits(8), net.cim_param_count() * 8);
    }

    #[test]
    fn scaled_networks_stay_consistent() {
        // Every zoo model survives width/resolution scaling with valid
        // shape propagation — the precondition for executing them.
        for (net, hw) in [
            (vgg8(10), (16, 16)),
            (resnet18(10), (32, 32)),
            (darknet19(10), (64, 64)),
            (yolo_v2(4, 2), (64, 64)),
            (tiny_yolo(4, 2), (64, 64)),
        ] {
            for div in [8, 16, 32] {
                let s = scaled(&net, div, hw);
                assert!(
                    s.analyze().is_ok(),
                    "{} fails analysis: {:?}",
                    s.name,
                    s.analyze().err()
                );
                assert!(s.param_count() < net.param_count());
            }
        }
    }

    #[test]
    fn rebranched_networks_keep_every_shape() {
        // Wrapping commutes with scaling and changes no feature-map shape;
        // every wrapped conv adds its branch's parameters.
        for (net, hw) in [(vgg8(10), (16, 16)), (resnet18(10), (32, 32))] {
            let base = scaled(&net, 16, hw);
            let rb = rebranched(&base, 2, 2);
            assert_eq!(rb.layers, scaled(&rebranched(&net, 2, 2), 16, hw).layers);
            let shapes = |d: &NetworkDesc| -> Vec<_> {
                d.analyze().unwrap().iter().map(|r| r.out_shape).collect()
            };
            assert_eq!(shapes(&rb), shapes(&base), "{}", rb.name);
            assert!(rb.param_count() > base.param_count());
            assert!(rb
                .layers
                .iter()
                .any(|l| matches!(l, LayerSpec::ReBranch { .. })));
        }
    }

    #[test]
    fn random_zoo_is_always_analyzable() {
        // The property-test generator must never emit an inconsistent
        // graph, across a wide seed sweep, and must be deterministic.
        for seed in 0..500u64 {
            let net = random_zoo(seed);
            assert!(
                net.analyze().is_ok(),
                "seed {seed} ({}): {:?}",
                net.name,
                net.analyze().err()
            );
        }
        let a = random_zoo(42);
        let b = random_zoo(42);
        assert_eq!(a.layers.len(), b.layers.len());
        assert_eq!(a.param_count(), b.param_count());
        // Diversity: some seeds produce residuals, some linears.
        let any_residual = (0..50).any(|s| {
            random_zoo(s)
                .layers
                .iter()
                .any(|l| matches!(l, LayerSpec::ResidualAdd { .. }))
        });
        let any_linear = (0..50).any(|s| {
            random_zoo(s)
                .layers
                .iter()
                .any(|l| matches!(l, LayerSpec::Linear { .. }))
        });
        assert!(any_residual && any_linear);
    }

    #[test]
    fn scaled_keeps_depth_and_topology() {
        let net = yolo_v2(20, 5);
        let s = scaled(&net, 32, (64, 64));
        assert_eq!(s.layers.len(), net.layers.len());
        assert_eq!(s.name, "yolo-v2/w32@64x64");
        // Detection head output: anchors * (5 + classes) is NOT scaled
        // away — the conv out_ch scales, matching the scaled graph.
        let r = s.analyze().unwrap();
        assert_eq!(r.last().unwrap().out_shape.1, 2); // 64 / 32 downsample
    }
}
