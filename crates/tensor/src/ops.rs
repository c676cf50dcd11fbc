//! Convolution lowering primitives.
//!
//! Convolutions in the CiM datapath are executed as matrix-vector products
//! over unrolled patches (the same lowering the paper's mapping scheme uses
//! to place weights in 128x256 subarrays). [`im2col`] builds that patch
//! matrix in `f32` for the training substrate's convolution, and [`col2im`]
//! is its adjoint. A CiM conv lowers its quantized input codes into the
//! same matrix without copying it ([`ShiftedPlanes`]) or as its transpose
//! ([`PatchRows`]).

use crate::tensor::Tensor;

/// Geometry of a 2-D convolution / pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Kernel side length (square kernels).
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero-padding in both dimensions.
    pub padding: usize,
}

impl Conv2dGeometry {
    /// Output spatial size for an input of `(h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit the padded input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let eff_h = h + 2 * self.padding;
        let eff_w = w + 2 * self.padding;
        assert!(
            eff_h >= self.kernel && eff_w >= self.kernel,
            "kernel {} does not fit padded input {}x{}",
            self.kernel,
            eff_h,
            eff_w
        );
        (
            (eff_h - self.kernel) / self.stride + 1,
            (eff_w - self.kernel) / self.stride + 1,
        )
    }

    /// Rows of the im2col matrix: `C * k * k`.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }
}

/// Unrolls an `(N, C, H, W)` input into a `(C*k*k, N*OH*OW)` patch matrix.
///
/// Column `n*OH*OW + oh*OW + ow` holds the receptive field of output pixel
/// `(oh, ow)` of sample `n`; out-of-bounds taps read as zero.
///
/// Patch row `(ci*k + kh)*k + kw` of column `(ni, ohi, owi)` reads
/// channel `ci` of sample `ni` at `(ohi*s + kh - padding, owi*s + kw -
/// padding)`. The walk goes tap by tap along output rows: a tap's
/// in-bounds output columns are the same for every output row, so each
/// row's in-bounds taps are one run, copied as one slice at stride 1.
/// Padded taps keep the allocation's zero.
///
/// # Panics
///
/// Panics if `x` is not rank-4 or its channel count mismatches `geom`.
pub fn im2col(x: &Tensor, geom: &Conv2dGeometry) -> Tensor {
    assert_eq!(x.ndim(), 4, "im2col expects (N, C, H, W)");
    let (n, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
    assert_eq!(x.shape()[1], geom.in_channels, "channel mismatch");
    let (oh, ow) = geom.output_hw(h, w);
    let Conv2dGeometry {
        in_channels: c,
        kernel: k,
        stride: s,
        padding: p,
    } = *geom;
    let (rows, cols) = (geom.patch_len(), n * oh * ow);
    let x = x.data();
    let mut out = vec![0.0; rows * cols];
    for kw in 0..k {
        // Output columns whose tap `owi*s + kw - p` lands in `0..w`.
        let first = p.saturating_sub(kw).div_ceil(s).min(ow);
        let end = (w + p).saturating_sub(kw).div_ceil(s).clamp(first, ow);
        let run = end - first;
        if run == 0 {
            continue;
        }
        for kh in 0..k {
            for ni in 0..n {
                for ohi in 0..oh {
                    let Some(ih) = (ohi * s + kh).checked_sub(p).filter(|&ih| ih < h) else {
                        continue;
                    };
                    let col = (ni * oh + ohi) * ow + first;
                    for ci in 0..c {
                        let src = &x[((ni * c + ci) * h + ih) * w + first * s + kw - p..];
                        let row = (ci * k + kh) * k + kw;
                        let dst = &mut out[row * cols + col..][..run];
                        if s == 1 {
                            dst.copy_from_slice(&src[..run]);
                        } else {
                            for (d, &v) in dst.iter_mut().zip(src.iter().step_by(s)) {
                                *d = v;
                            }
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[rows, cols]).expect("im2col shape is consistent")
}

/// The column-shifted planes of a convolution's input: the layout whose
/// slices a CiM conv's taps read in place, through one offset per tap,
/// instead of a copied im2col matrix (the indirection buffer of M.
/// Dukhan, "The Indirect Convolution Algorithm", arXiv:1907.02129).
///
/// For stride `s` and a `k x k` kernel there are `min(s, k) * k`
/// planes. Plane `(a, kw)` (row phase `a`, kernel column `kw`) holds,
/// for every channel and sample, the padded input rows `Y*s + a` for
/// `Y < OH + (k - 1) div s`, each sampled at the padded columns
/// `kw + j*s` for `j < OW`. Padding, and rows past the padded input,
/// read as the pad value. Tap `(c, kh, kw)` of output position
/// `(oy, ox)` is then element `(oy + kh div s, ox)` of plane
/// `(kh mod s, kw)`'s block for channel `c`, so the tap's values over a
/// sample's `OH*OW` positions are one contiguous slice starting at row
/// `kh div s`: position order is im2col's column order.
///
/// Blocks lie `[plane][channel][sample][row][column]`, so one run of
/// [`ShiftedPlanes::lanes`] lanes from a tap's offset covers every
/// sample. Sample `ni`'s positions are lanes
/// `ni * period .. ni * period + OH*OW`; the `(k - 1) div s` rows
/// between two samples are gap lanes, which the consumer drops.
///
/// At stride 1 the planes hold `k * C * (H + 2p) * OW` values per
/// sample against im2col's `k * k * C * OH * OW`. A 1x1 stride-1
/// unpadded conv has one plane, the input with channels and samples
/// swapped (the input itself at `N = 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShiftedPlanes {
    geom: Conv2dGeometry,
    n: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    /// Row phases with a plane: `min(s, k)`.
    phases: usize,
    /// Rows per (plane, channel, sample) block: `OH + (k - 1) div s`.
    rows: usize,
}

impl ShiftedPlanes {
    /// The planes of a conv with geometry `geom` over an `(N, C, H, W)`
    /// input (`dims` is `[N, H, W]`).
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit the padded input.
    pub fn new(geom: &Conv2dGeometry, dims: [usize; 3]) -> Self {
        let [n, h, w] = dims;
        let (oh, ow) = geom.output_hw(h, w);
        let (k, s) = (geom.kernel, geom.stride);
        ShiftedPlanes {
            geom: *geom,
            n,
            h,
            w,
            oh,
            ow,
            phases: s.min(k),
            rows: oh + (k - 1) / s,
        }
    }

    /// Output positions per sample, `OH * OW`.
    pub fn positions(&self) -> usize {
        self.oh * self.ow
    }

    /// Lanes between the first positions of two consecutive samples.
    pub fn period(&self) -> usize {
        self.rows * self.ow
    }

    /// Lanes one run from a tap's offset spans to cover every sample,
    /// gap lanes included: `(N - 1) * period + OH * OW`.
    pub fn lanes(&self) -> usize {
        self.n
            .checked_sub(1)
            .map_or(0, |last| last * self.period() + self.positions())
    }

    /// Values the planes hold.
    pub fn codes(&self) -> usize {
        let planes = self.phases * self.geom.kernel;
        planes * self.geom.in_channels * self.n * self.period()
    }

    /// Writes into `offsets` the offset of every im2col row's first lane
    /// (row `(c*k + kh)*k + kw` is tap `(c, kh, kw)`), one per row.
    pub fn tap_offsets_into(&self, offsets: &mut Vec<usize>) {
        let Conv2dGeometry {
            in_channels: c,
            kernel: k,
            stride: s,
            ..
        } = self.geom;
        let block = self.n * self.period();
        offsets.clear();
        for ci in 0..c {
            for kh in 0..k {
                for kw in 0..k {
                    let plane = (kh % s) * k + kw;
                    offsets.push((plane * c + ci) * block + kh / s * self.ow);
                }
            }
        }
    }

    /// Fills the planes from a raw row-major `(N, C, H, W)` buffer `x`
    /// (a conv's activation codes, quantized beforehand), writing `pad`
    /// for padding. Only bytes move. `row` is scratch for one padded
    /// input row. Every one of the [`ShiftedPlanes::codes`] values of
    /// `out` is written.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `N * C * H * W` long or `out` is not
    /// [`ShiftedPlanes::codes`] long.
    pub fn lower_into<T: Copy>(&self, x: &[T], pad: T, row: &mut Vec<T>, out: &mut [T]) {
        let Conv2dGeometry {
            in_channels: c,
            kernel: k,
            stride: s,
            padding: p,
        } = self.geom;
        let (h, w, ow) = (self.h, self.w, self.ow);
        assert_eq!(x.len(), self.n * c * h * w, "input buffer length mismatch");
        assert_eq!(out.len(), self.codes(), "plane buffer length mismatch");
        if s == 1 && 2 * p + 1 == k {
            return self.lower_same_into(x, pad, out);
        }
        let period = self.period();
        // The padding columns stay `pad`; each input row overwrites the
        // middle.
        row.clear();
        row.resize(w + 2 * p, pad);
        for ci in 0..c {
            for ni in 0..self.n {
                let chan = &x[(ni * c + ci) * h * w..][..h * w];
                for y in 0..self.rows {
                    for a in 0..self.phases {
                        let ih = (y * s + a).checked_sub(p).filter(|&ih| ih < h);
                        if let Some(ih) = ih {
                            row[p..p + w].copy_from_slice(&chan[ih * w..][..w]);
                        }
                        for kw in 0..k {
                            let plane = a * k + kw;
                            let start = ((plane * c + ci) * self.n + ni) * period + y * ow;
                            let dst = &mut out[start..start + ow];
                            match ih {
                                None => dst.fill(pad),
                                Some(_) if s == 1 => dst.copy_from_slice(&row[kw..kw + ow]),
                                Some(_) => {
                                    for (d, &v) in dst.iter_mut().zip(row[kw..].iter().step_by(s)) {
                                        *d = v;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// [`ShiftedPlanes::lower_into`] for a stride-1 conv padded by
    /// `(k - 1) / 2`, which keeps the input's size. Each block of the
    /// middle plane `kw = p` is then `p` pad rows, the channel's input
    /// and `p` pad rows, and plane `kw` is the middle plane moved
    /// `kw - p` lanes, its columns moved across a row edge set to the
    /// pad. So the middle plane is one fill and one copy per block, and
    /// every other plane one copy, instead of row by row. The edge
    /// columns take the pad in one strided pass each: at the small maps
    /// of late convs a fill per row cost more than the plane's copy.
    fn lower_same_into<T: Copy>(&self, x: &[T], pad: T, out: &mut [T]) {
        let (c, k, p) = (self.geom.in_channels, self.geom.kernel, self.geom.padding);
        let (h, w) = (self.h, self.w);
        let block = self.period();
        let plane_len = c * self.n * block;
        let (head, tail) = out.split_at_mut(p * plane_len);
        let (middle, tail) = tail.split_at_mut(plane_len);
        middle.fill(pad);
        for (b, dst) in middle.chunks_exact_mut(block).enumerate() {
            let (ci, ni) = (b / self.n, b % self.n);
            dst[p * w..][..h * w].copy_from_slice(&x[(ni * c + ci) * h * w..][..h * w]);
        }
        let planes = head
            .chunks_exact_mut(plane_len)
            .chain(tail.chunks_exact_mut(plane_len));
        for (kw, plane) in (0..k).filter(|&kw| kw != p).zip(planes) {
            let edge = if kw > p {
                let d = (kw - p).min(plane_len);
                plane[..plane_len - d].copy_from_slice(&middle[d..]);
                w.saturating_sub(d)..w
            } else {
                let d = (p - kw).min(plane_len);
                plane[d..].copy_from_slice(&middle[..plane_len - d]);
                0..d.min(w)
            };
            for col in edge {
                for v in plane[col..].iter_mut().step_by(w) {
                    *v = pad;
                }
            }
        }
    }
}

/// The vector-major im2col rows of a convolution, copied from its input
/// padded once: the transpose of [`im2col`]'s patch-major matrix
/// (`out[v * C*k*k + r]` is patch row `r` of output position `v`), the
/// layout a row-major CiM conv reads.
///
/// The input is first laid out with its `p` rows and columns of padding
/// written in (none at `p = 0`, where the input itself serves). Every
/// window then lies inside that map, so each (position, channel, kernel
/// row) is one `k`-value copy from the padded map, with no per-tap bounds
/// test. The copies are compiled for a fixed width at the zoo's kernels,
/// 1 and 3; other kernels take the same walk at a run-time width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchRows {
    geom: Conv2dGeometry,
    n: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
}

impl PatchRows {
    /// The rows of a conv with geometry `geom` over an `(N, C, H, W)`
    /// input (`dims` is `[N, H, W]`).
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit the padded input.
    pub fn new(geom: &Conv2dGeometry, dims: [usize; 3]) -> Self {
        let [n, h, w] = dims;
        let (oh, ow) = geom.output_hw(h, w);
        PatchRows {
            geom: *geom,
            n,
            h,
            w,
            oh,
            ow,
        }
    }

    /// Values the rows hold: `N * OH * OW * C * k * k`.
    pub fn codes(&self) -> usize {
        self.n * self.oh * self.ow * self.geom.patch_len()
    }

    /// Fills the rows from a raw row-major `(N, C, H, W)` buffer `x` (a
    /// conv's activation codes, quantized beforehand), writing `pad` for
    /// padding. Only bytes move. `padded` is scratch for the padded map
    /// (unused at `p = 0`). Every one of the [`PatchRows::codes`] values
    /// of `out` is written.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `N * C * H * W` long or `out` is not
    /// [`PatchRows::codes`] long.
    pub fn lower_into<T: Copy>(&self, x: &[T], pad: T, padded: &mut Vec<T>, out: &mut [T]) {
        let Conv2dGeometry {
            in_channels: c,
            kernel: k,
            padding: p,
            ..
        } = self.geom;
        let (h, w) = (self.h, self.w);
        assert_eq!(x.len(), self.n * c * h * w, "input buffer length mismatch");
        assert_eq!(out.len(), self.codes(), "row buffer length mismatch");
        let map = if p == 0 {
            x
        } else {
            let wp = w + 2 * p;
            padded.clear();
            padded.resize(self.n * c * (h + 2 * p) * wp, pad);
            for (src, dst) in x
                .chunks_exact((h * w).max(1))
                .zip(padded.chunks_exact_mut((h + 2 * p) * wp))
            {
                for (row, d) in src.chunks_exact(w).zip(dst[p * wp..].chunks_exact_mut(wp)) {
                    d[p..p + w].copy_from_slice(row);
                }
            }
            padded
        };
        match k {
            1 => self.copy_windows::<T, 1>(map, out),
            3 => self.copy_windows::<T, 3>(map, out),
            _ => self.copy_windows_of(map, out, k),
        }
    }

    /// [`PatchRows::copy_windows_of`] at a width fixed at compile time.
    fn copy_windows<T: Copy, const K: usize>(&self, map: &[T], out: &mut [T]) {
        self.copy_windows_of(map, out, K);
    }

    /// Copies every position's window out of the padded map `map`
    /// (`k` values per channel and kernel row), positions in im2col
    /// column order.
    #[inline(always)]
    fn copy_windows_of<T: Copy>(&self, map: &[T], out: &mut [T], k: usize) {
        let (c, s, p) = (self.geom.in_channels, self.geom.stride, self.geom.padding);
        let wp = self.w + 2 * p;
        let plane = (self.h + 2 * p) * wp;
        let mut windows = out.chunks_exact_mut(c * k * k);
        for sample in map.chunks_exact(c * plane) {
            for oy in 0..self.oh {
                for ox in 0..self.ow {
                    let at = oy * s * wp + ox * s;
                    let window = windows.next().expect("one window per position");
                    for (chan, rows) in sample
                        .chunks_exact(plane)
                        .zip(window.chunks_exact_mut(k * k))
                    {
                        for (kh, row) in rows.chunks_exact_mut(k).enumerate() {
                            row.copy_from_slice(&chan[at + kh * wp..][..k]);
                        }
                    }
                }
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatters a `(C*k*k, N*OH*OW)` patch-gradient matrix
/// back onto an `(N, C, H, W)` input gradient (overlaps accumulate).
///
/// # Panics
///
/// Panics if `cols` does not have the shape `im2col` would have produced for
/// an input of `input_shape` under `geom`.
pub fn col2im(cols: &Tensor, input_shape: &[usize], geom: &Conv2dGeometry) -> Tensor {
    assert_eq!(input_shape.len(), 4, "col2im expects (N, C, H, W)");
    let (n, c, h, w) = (
        input_shape[0],
        input_shape[1],
        input_shape[2],
        input_shape[3],
    );
    let (oh, ow) = geom.output_hw(h, w);
    let k = geom.kernel;
    assert_eq!(
        cols.shape(),
        &[geom.patch_len(), n * oh * ow],
        "col2im input shape mismatch"
    );
    let mut out = vec![0.0f32; n * c * h * w];
    let cd = cols.data();
    let ncols = n * oh * ow;
    for ni in 0..n {
        for ci in 0..c {
            let x_base = (ni * c + ci) * h * w;
            for kh in 0..k {
                for kw in 0..k {
                    let row = (ci * k + kh) * k + kw;
                    let col_base = row * ncols + ni * oh * ow;
                    for ohi in 0..oh {
                        let ih = (ohi * geom.stride + kh) as isize - geom.padding as isize;
                        if ih < 0 || ih >= h as isize {
                            continue;
                        }
                        let x_row = x_base + ih as usize * w;
                        let col_row = col_base + ohi * ow;
                        for owi in 0..ow {
                            let iw = (owi * geom.stride + kw) as isize - geom.padding as isize;
                            if iw < 0 || iw >= w as isize {
                                continue;
                            }
                            out[x_row + iw as usize] += cd[col_row + owi];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, input_shape).expect("col2im shape is consistent")
}

/// Direct (non-lowered) reference convolution, used to cross-check the
/// im2col path in tests. `weight` is `(OC, C, k, k)`, `x` is `(N, C, H, W)`.
///
/// # Panics
///
/// Panics on rank or channel mismatches.
pub fn conv2d_reference(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    padding: usize,
) -> Tensor {
    assert_eq!(x.ndim(), 4);
    assert_eq!(weight.ndim(), 4);
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (oc, wc, k, k2) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    assert_eq!(c, wc, "channel mismatch");
    assert_eq!(k, k2, "non-square kernel");
    let geom = Conv2dGeometry {
        in_channels: c,
        kernel: k,
        stride,
        padding,
    };
    let (oh, ow) = geom.output_hw(h, w);
    let mut out = Tensor::zeros(&[n, oc, oh, ow]);
    for ni in 0..n {
        for oci in 0..oc {
            let b = bias.map_or(0.0, |bb| bb.data()[oci]);
            for ohi in 0..oh {
                for owi in 0..ow {
                    let mut acc = b;
                    for ci in 0..c {
                        for kh in 0..k {
                            for kw in 0..k {
                                let ih = (ohi * stride + kh) as isize - padding as isize;
                                let iw = (owi * stride + kw) as isize - padding as isize;
                                if ih < 0 || iw < 0 || ih >= h as isize || iw >= w as isize {
                                    continue;
                                }
                                acc += x.at(&[ni, ci, ih as usize, iw as usize])
                                    * weight.at(&[oci, ci, kh, kw]);
                            }
                        }
                    }
                    *out.at_mut(&[ni, oci, ohi, owi]) = acc;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_hw_formula() {
        let g = Conv2dGeometry {
            in_channels: 3,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        assert_eq!(g.output_hw(8, 8), (8, 8));
        let g2 = Conv2dGeometry {
            in_channels: 3,
            kernel: 2,
            stride: 2,
            padding: 0,
        };
        assert_eq!(g2.output_hw(8, 8), (4, 4));
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1: im2col is a pure reshape/permute.
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]).unwrap();
        let g = Conv2dGeometry {
            in_channels: 2,
            kernel: 1,
            stride: 1,
            padding: 0,
        };
        let cols = im2col(&x, &g);
        assert_eq!(cols.shape(), &[2, 4]);
        assert_eq!(cols.data(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn im2col_matches_reference_conv() {
        let mut rng = StdRng::seed_from_u64(11);
        let x = Tensor::randn(&[2, 3, 7, 7], 0.0, 1.0, &mut rng);
        let w = Tensor::randn(&[4, 3, 3, 3], 0.0, 1.0, &mut rng);
        let g = Conv2dGeometry {
            in_channels: 3,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let (oh, ow) = g.output_hw(7, 7);
        let cols = im2col(&x, &g);
        let wm = w.reshape(&[4, g.patch_len()]).unwrap();
        let om = wm.matmul(&cols);
        // Rearrange (OC, N*OH*OW) into (N, OC, OH, OW).
        let mut lowered = Tensor::zeros(&[2, 4, oh, ow]);
        for n in 0..2 {
            for oc in 0..4 {
                for p in 0..oh * ow {
                    *lowered.at_mut(&[n, oc, p / ow, p % ow]) = om.at(&[oc, n * oh * ow + p]);
                }
            }
        }
        let reference = conv2d_reference(&x, &w, None, 2, 1);
        for (a, b) in lowered.data().iter().zip(reference.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining
        // property of the adjoint, which is what backprop relies on.
        let mut rng = StdRng::seed_from_u64(5);
        let g = Conv2dGeometry {
            in_channels: 2,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let x = Tensor::randn(&[1, 2, 5, 5], 0.0, 1.0, &mut rng);
        let cols = im2col(&x, &g);
        let y = Tensor::randn(cols.shape(), 0.0, 1.0, &mut rng);
        let lhs: f32 = cols.mul(&y).sum();
        let back = col2im(&y, &[1, 2, 5, 5], &g);
        let rhs: f32 = x.mul(&back).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    /// Lowers a convolution through `im2col` + matmul and compares against
    /// `conv2d_reference` elementwise, then checks the code lowering of
    /// the same input against the float one.
    fn assert_lowering_matches_direct(n: usize, c: usize, oc: usize, hw: usize, g: Conv2dGeometry) {
        let mut rng = StdRng::seed_from_u64((g.kernel * 100 + g.stride * 10 + g.padding) as u64);
        let x = Tensor::randn(&[n, c, hw, hw], 0.0, 1.0, &mut rng);
        let w = Tensor::randn(&[oc, c, g.kernel, g.kernel], 0.0, 1.0, &mut rng);
        let (oh, ow) = g.output_hw(hw, hw);
        let cols = im2col(&x, &g);
        assert_code_lowering_matches(&x, &cols, &g);
        let om = w.reshape(&[oc, g.patch_len()]).unwrap().matmul(&cols);
        let reference = conv2d_reference(&x, &w, None, g.stride, g.padding);
        for ni in 0..n {
            for oci in 0..oc {
                for p in 0..oh * ow {
                    let lowered = om.at(&[oci, ni * oh * ow + p]);
                    let direct = reference.at(&[ni, oci, p / ow, p % ow]);
                    assert!(
                        (lowered - direct).abs() < 1e-4,
                        "k={} s={} p={}: {lowered} vs {direct}",
                        g.kernel,
                        g.stride,
                        g.padding
                    );
                }
            }
        }
    }

    /// A stand-in affine quantizer whose zero point (37) makes the code
    /// of 0.0, the pad code, nonzero.
    fn code(v: f32) -> i32 {
        ((v / 0.05).round() as i32 + 37).clamp(0, 255)
    }

    /// Lowering the quantized input (padding with the code of 0.0) gives
    /// `im2col(x)` quantized element by element: the vector-major rows
    /// copied from the padded map are its transpose, and each tap's slice
    /// of the column-shifted planes, which hold a code in every slot, is
    /// its row. The planes and rows are filled from scratch buffers
    /// holding stale values.
    fn assert_code_lowering_matches(x: &Tensor, cols: &Tensor, g: &Conv2dGeometry) {
        const UNTOUCHED: i32 = -1;
        let (rows, ncols) = (cols.shape()[0], cols.shape()[1]);
        let want: Vec<i32> = cols.data().iter().map(|&v| code(v)).collect();
        let codes: Vec<i32> = x.data().iter().map(|&v| code(v)).collect();
        let dims = [x.shape()[0], x.shape()[2], x.shape()[3]];
        let vector_major: Vec<i32> = (0..ncols)
            .flat_map(|v| (0..rows).map(move |r| (r, v)))
            .map(|(r, v)| want[r * ncols + v])
            .collect();

        let stale = || vec![UNTOUCHED - 1; 5];
        let patch_rows = PatchRows::new(g, dims);
        assert_eq!(patch_rows.codes(), ncols * rows);
        let mut out = vec![UNTOUCHED; patch_rows.codes()];
        patch_rows.lower_into(&codes, code(0.0), &mut stale(), &mut out);
        assert_eq!(out, vector_major, "{g:?}: rows copied from the padded map");

        let planes = ShiftedPlanes::new(g, dims);
        let mut out = vec![UNTOUCHED; planes.codes()];
        planes.lower_into(&codes, code(0.0), &mut stale(), &mut out);
        assert!(
            !out.contains(&UNTOUCHED),
            "{g:?}: a plane slot left unwritten"
        );
        let mut offsets = Vec::new();
        planes.tap_offsets_into(&mut offsets);
        assert_eq!(offsets.len(), rows);
        let (n, positions, period) = (dims[0], planes.positions(), planes.period());
        assert_eq!(planes.lanes(), (n - 1) * period + positions);
        for (r, &off) in offsets.iter().enumerate() {
            for ni in 0..n {
                let lane = off + ni * period;
                let want_run = &want[r * ncols + ni * positions..][..positions];
                assert_eq!(
                    &out[lane..lane + positions],
                    want_run,
                    "{g:?} row {r} n{ni}"
                );
            }
        }
    }

    #[test]
    fn im2col_matches_reference_conv_shape_grid() {
        // The hardware mapper reuses the im2col matrix verbatim, so the
        // lowering must agree with direct convolution for every window
        // geometry the model zoo uses — not just the 3x3/s1/p1 hot case —
        // including maps smaller than the kernel.
        for hw in [8, 3, 1] {
            for kernel in [1, 2, 3, 5] {
                for stride in [1, 2, 3] {
                    for padding in [0, 1, 2] {
                        if hw + 2 * padding < kernel {
                            continue;
                        }
                        let g = Conv2dGeometry {
                            in_channels: 2,
                            kernel,
                            stride,
                            padding,
                        };
                        assert_lowering_matches_direct(2, 2, 3, hw, g);
                    }
                }
            }
        }
    }

    #[test]
    fn im2col_matches_reference_conv_batched_channels() {
        // Larger channel counts and batch to exercise the row indexing of
        // the patch matrix (C*k*k rows) across channel boundaries.
        let g = Conv2dGeometry {
            in_channels: 5,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        assert_lowering_matches_direct(3, 5, 4, 9, g);
    }
}
