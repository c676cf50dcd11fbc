//! Convolution lowering primitives: `im2col` / `col2im`, pooling kernels.
//!
//! Convolutions in the CiM datapath are executed as matrix-vector products
//! over unrolled patches (the same lowering the paper's mapping scheme uses
//! to place weights in 128x256 subarrays), so `im2col` is the shared
//! geometry for both the training substrate and the hardware mapper.

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
/// # Panics
///
/// Panics if `x` is not rank-4 or its channel count mismatches `geom`.
pub fn im2col(x: &Tensor, geom: &Conv2dGeometry) -> Tensor {
    assert_eq!(x.ndim(), 4, "im2col expects (N, C, H, W)");
    let (n, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
    assert_eq!(x.shape()[1], geom.in_channels, "channel mismatch");
    let (oh, ow) = geom.output_hw(h, w);
    let (rows, cols) = (geom.patch_len(), n * oh * ow);
    let mut out = vec![0.0; rows * cols];
    im2col_into(
        x.data(),
        [n, h, w],
        geom,
        0.0,
        PatchWindow::patch_major(cols),
        &mut out,
    );
    Tensor::from_vec(out, &[rows, cols]).expect("im2col shape is consistent")
}

/// The part of a `(C*k*k, N*OH*OW)` patch matrix [`im2col_into`] writes,
/// and where: columns `lo..hi`, element `(row, col)` at
/// `out[row * row_stride + (col - lo) * col_stride]`.
///
/// [`im2col`] lowers the whole matrix patch-major
/// ([`PatchWindow::patch_major`]); a tile of output positions can be
/// lowered vector-major (`row_stride == 1`, `col_stride == rows`) or into
/// a lane-major panel whose rows are padded past the tile width
/// (`row_stride >= hi - lo`, `col_stride == 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchWindow {
    /// First column (output position) written.
    pub lo: usize,
    /// One past the last column written.
    pub hi: usize,
    /// Distance in `out` between consecutive patch rows.
    pub row_stride: usize,
    /// Distance in `out` between consecutive columns.
    pub col_stride: usize,
}

impl PatchWindow {
    /// All `cols` columns, patch-major: the layout [`im2col`] returns.
    pub fn patch_major(cols: usize) -> Self {
        PatchWindow {
            lo: 0,
            hi: cols,
            row_stride: cols,
            col_stride: 1,
        }
    }
}

/// Lowers the columns `win` selects of the im2col matrix of a raw
/// row-major `(N, C, H, W)` buffer (`dims` is `[N, H, W]`) into `out`, in
/// the layout `win` describes. Every element of the window is written —
/// out-of-bounds taps take `pad` — and nothing else in `out` is touched.
///
/// Generic over the element so the same lowering serves float maps
/// ([`im2col`], zero padding) and activation codes (padding with the
/// code of 0.0). The walk follows the layout so that runs of in-bounds
/// taps land contiguously: along an output row when columns are
/// adjacent in `out` (a stride-1 run is copied as one slice), along a
/// kernel row when patch rows are.
///
/// # Panics
///
/// Panics if `x.len() != N * in_channels * H * W`, if the window exceeds
/// the `N*OH*OW` columns, or if `out` is too short for it.
pub fn im2col_into<T: Copy>(
    x: &[T],
    dims: [usize; 3],
    geom: &Conv2dGeometry,
    pad: T,
    win: PatchWindow,
    out: &mut [T],
) {
    let [n, h, w] = dims;
    assert_eq!(
        x.len(),
        n * geom.in_channels * h * w,
        "input buffer length mismatch"
    );
    let (oh, ow) = geom.output_hw(h, w);
    assert!(
        win.lo <= win.hi && win.hi <= n * oh * ow,
        "window exceeds the patch matrix"
    );
    if win.lo == win.hi {
        return;
    }
    let last = (geom.patch_len() - 1) * win.row_stride + (win.hi - win.lo - 1) * win.col_stride;
    assert!(last < out.len(), "output buffer too short for the window");
    let lowering = Lowering {
        x,
        geom,
        h,
        w,
        oh,
        ow,
        pad,
        win,
    };
    if win.col_stride == 1 {
        lowering.by_tap(out);
    } else {
        lowering.by_position(out);
    }
}

/// One [`im2col_into`] call: the input, its geometry and the window.
///
/// Patch row `(ci*k + kh)*k + kw` of column `(ni, ohi, owi)` reads
/// channel `ci` of sample `ni` at `(ohi*s + kh - padding, owi*s + kw -
/// padding)`. Every channel shares a tap's bounds, so both walks work
/// those out once and step through the channels by fixed strides.
struct Lowering<'a, T> {
    x: &'a [T],
    geom: &'a Conv2dGeometry,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    pad: T,
    win: PatchWindow,
}

impl<T: Copy> Lowering<'_, T> {
    /// The input row kernel row `kh` reads for output row `ohi`, if it
    /// lies inside the map.
    fn input_row(&self, ohi: usize, kh: usize) -> Option<usize> {
        (ohi * self.geom.stride + kh)
            .checked_sub(self.geom.padding)
            .filter(|&ih| ih < self.h)
    }

    /// The window's first column as `(sample, output row, output column)`.
    fn start(&self) -> (usize, usize, usize) {
        let plane = self.oh * self.ow;
        let lo = self.win.lo;
        (lo / plane, lo % plane / self.ow, lo % self.ow)
    }

    /// Walk for layouts whose columns are adjacent in `out`: per tap,
    /// output row by output row, each row's in-bounds taps are one run.
    fn by_tap(&self, out: &mut [T]) {
        let Conv2dGeometry {
            in_channels: c,
            kernel: k,
            stride: s,
            padding,
        } = *self.geom;
        let PatchWindow {
            lo,
            hi,
            row_stride,
            col_stride,
        } = self.win;
        let (h, w, chan) = (self.h, self.w, self.h * self.w);
        let start = self.start();
        for kw in 0..k {
            // Output columns whose tap `owi*s + kw - padding` lands in
            // `0..w`, the same for every output row.
            let first = padding.saturating_sub(kw).div_ceil(s).min(self.ow);
            let end = (w + padding).saturating_sub(kw).div_ceil(s);
            let (in_lo, in_hi) = (first, end.clamp(first, self.ow));
            for kh in 0..k {
                let row = kh * k + kw;
                let (mut ni, mut ohi, mut owi) = start;
                let mut col = lo;
                while col < hi {
                    let end = self.ow.min(owi + hi - col);
                    let dst = row * row_stride + (col - lo) * col_stride;
                    // Pad, then the in-bounds run `a..b`, then pad.
                    let ih = self.input_row(ohi, kh);
                    let (a, b) = match ih {
                        Some(_) => (in_lo.clamp(owi, end), in_hi.clamp(owi, end)),
                        None => (end, end),
                    };
                    let src = ih
                        .filter(|_| a < b)
                        .map(|ih| (ni * c * h + ih) * w + a * s + kw - padding);
                    for ci in 0..c {
                        let d = dst + ci * k * k * row_stride;
                        fill(out, d, col_stride, a - owi, self.pad);
                        let run = d + (a - owi) * col_stride;
                        if let Some(src) = src {
                            let taps = &self.x[src + ci * chan..];
                            copy(out, run, col_stride, taps, s, b - a);
                        }
                        fill(
                            out,
                            run + (b - a) * col_stride,
                            col_stride,
                            end - b,
                            self.pad,
                        );
                    }
                    col += end - owi;
                    owi = 0;
                    ohi += 1;
                    if ohi == self.oh {
                        ohi = 0;
                        ni += 1;
                    }
                }
            }
        }
    }

    /// Walk for layouts whose patch rows are adjacent in `out`: per
    /// column, each kernel row's in-bounds taps are one run.
    fn by_position(&self, out: &mut [T]) {
        let Conv2dGeometry {
            in_channels: c,
            kernel: k,
            stride: s,
            padding,
        } = *self.geom;
        let PatchWindow {
            lo,
            hi,
            row_stride,
            col_stride,
        } = self.win;
        let (h, w, chan) = (self.h, self.w, self.h * self.w);
        let (mut ni, mut ohi, mut owi) = self.start();
        for col in lo..hi {
            let dst = (col - lo) * col_stride;
            // Kernel columns whose tap `owi*s + kw - padding` lands in
            // `0..w`.
            let left = owi * s;
            let first = padding.saturating_sub(left).min(k);
            let (in_lo, in_hi) = (first, (w + padding).saturating_sub(left).clamp(first, k));
            for kh in 0..k {
                // Pad, then the in-bounds run `a..b`, then pad.
                let ih = self.input_row(ohi, kh);
                let (a, b) = if ih.is_some() { (in_lo, in_hi) } else { (k, k) };
                let src = ih
                    .filter(|_| a < b)
                    .map(|ih| (ni * c * h + ih) * w + left + a - padding);
                for ci in 0..c {
                    let d = dst + (ci * k + kh) * k * row_stride;
                    fill(out, d, row_stride, a, self.pad);
                    let run = d + a * row_stride;
                    if let Some(src) = src {
                        copy(out, run, row_stride, &self.x[src + ci * chan..], 1, b - a);
                    }
                    fill(out, run + (b - a) * row_stride, row_stride, k - b, self.pad);
                }
            }
            owi += 1;
            if owi == self.ow {
                owi = 0;
                ohi += 1;
                if ohi == self.oh {
                    ohi = 0;
                    ni += 1;
                }
            }
        }
    }
}

/// Writes `v` to `count` elements of `out` starting at `start`, `stride`
/// apart.
fn fill<T: Copy>(out: &mut [T], start: usize, stride: usize, count: usize, v: T) {
    if stride == 1 {
        out[start..start + count].fill(v);
    } else {
        for j in 0..count {
            out[start + j * stride] = v;
        }
    }
}

/// Copies `count` elements of `src`, `src_stride` apart, to `out` from
/// `start`, `stride` apart.
fn copy<T: Copy>(
    out: &mut [T],
    start: usize,
    stride: usize,
    src: &[T],
    src_stride: usize,
    count: usize,
) {
    if stride == 1 && src_stride == 1 {
        out[start..start + count].copy_from_slice(&src[..count]);
    } else {
        for j in 0..count {
            out[start + j * stride] = src[j * src_stride];
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
    /// `im2col(x)` quantized element by element, in every layout the
    /// CiM staging uses: the whole matrix patch-major, and three tiles
    /// of columns vector-major and into lane panels three lanes wider
    /// than the tile, whose padding lanes must stay untouched.
    fn assert_code_lowering_matches(x: &Tensor, cols: &Tensor, g: &Conv2dGeometry) {
        const UNTOUCHED: i32 = -1;
        let (rows, ncols) = (cols.shape()[0], cols.shape()[1]);
        let want: Vec<i32> = cols.data().iter().map(|&v| code(v)).collect();
        let codes: Vec<i32> = x.data().iter().map(|&v| code(v)).collect();
        let dims = [x.shape()[0], x.shape()[2], x.shape()[3]];
        let lower = |win: PatchWindow, len: usize| {
            let mut out = vec![UNTOUCHED; len];
            im2col_into(&codes, dims, g, code(0.0), win, &mut out);
            out
        };
        assert_eq!(lower(PatchWindow::patch_major(ncols), rows * ncols), want);
        let cuts = [0, ncols / 3, 2 * ncols / 3, ncols];
        for (lo, hi) in cuts.iter().zip(&cuts[1..]).map(|(&lo, &hi)| (lo, hi)) {
            let (count, lanes) = (hi - lo, hi - lo + 3);
            let vector_major = PatchWindow {
                lo,
                hi,
                row_stride: 1,
                col_stride: rows,
            };
            let panel = PatchWindow {
                lo,
                hi,
                row_stride: lanes,
                col_stride: 1,
            };
            let vm = lower(vector_major, count * rows);
            let lm = lower(panel, rows * lanes);
            for r in 0..rows {
                let want_row = &want[r * ncols + lo..r * ncols + hi];
                let vm_row: Vec<i32> = (0..count).map(|v| vm[v * rows + r]).collect();
                assert_eq!(vm_row, want_row, "{g:?} row {r} cols {lo}..{hi}");
                assert_eq!(&lm[r * lanes..r * lanes + count], want_row);
                assert_eq!(lm[r * lanes + count..(r + 1) * lanes], [UNTOUCHED; 3]);
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
