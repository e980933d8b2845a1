//! Direct 2-D convolution, forward and backward.
//!
//! Inputs are NCHW; weights are `[out_ch, in_ch, kh, kw]`. Both kernels are
//! parallel over the batch, one worker-pool task per image, and call no
//! dispatched SIMD kernel in their inner loops: those run over 3-element
//! kernel rows, where a dispatched call costs more than the arithmetic.
//!
//! - **Forward (row-tap form).** For each output row `(oc, oy)` and input
//!   row `(ic, ky)`, a *tap row* `s[ox] = Σ_kx x[ox·stride + kx − pad]·w[kx]`
//!   is built over a tile of output columns and added into the output row.
//!   The loops run over output columns with fixed-width chunks, so LLVM
//!   vectorizes them whatever the `RFL_SIMD` setting.
//! - **Backward (pixel form).** For each nonzero output gradient `g` and
//!   in-bounds kernel row, `dx += g·w` and `dw += g·x` over the clipped
//!   kernel row, in plain element loops.
//!
//! ## Per-output operation sequence
//!
//! Only independent outputs are reordered. Each output value sees one fixed
//! sequence of f32 operations, with separate multiply and add, never fused
//! or reassociated:
//!
//! - **Forward.** `y = bias`. Then, for each kernel row `(ic, ky)` in
//!   ascending order that has an in-bounds tap, `y += s`. The tap sum `s`
//!   starts at `+0.0` and adds `x·w` for each in-bounds `kx` in ascending
//!   order. For kernels narrower than [`LANES`](crate::simd::LANES) this is
//!   exactly [`crate::simd::dot_slices`] on the clipped row: both backends
//!   reduce rows that short to the sequential fold from `+0.0`. Wider
//!   kernels keep one `dot_slices` per output and its 8-lane reduction.
//! - **Backward.** Each `dinput` element adds `g·w`, and each per-image
//!   `dweight` element adds `g·x`, in ascending `(oc, oy, ox)` order over
//!   the nonzero output gradients `g`. The per-image `dweight` partials are
//!   then summed in image order.
//!
//! Results are therefore bit-identical at any thread count and on either
//! SIMD backend.

use crate::simd::LANES;
use crate::tensor::Tensor;

/// Static description of a convolution (kernel size, stride, padding).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvSpec {
    pub kernel: usize,
    pub stride: usize,
    pub pad: usize,
}

impl ConvSpec {
    /// Spatial output size for input extent `n`.
    #[inline]
    pub fn out_size(&self, n: usize) -> usize {
        assert!(
            n + 2 * self.pad >= self.kernel,
            "kernel {} larger than padded input {}",
            self.kernel,
            n + 2 * self.pad
        );
        (n + 2 * self.pad - self.kernel) / self.stride + 1
    }
}

/// Gradients produced by [`conv2d_backward`].
pub struct Conv2dGrads {
    pub dinput: Tensor,
    pub dweight: Tensor,
    pub dbias: Tensor,
}

impl Conv2dGrads {
    /// Placeholder gradients for use as a reusable [`conv2d_backward_into`]
    /// destination; resized (and fully overwritten) on first use.
    pub fn scratch() -> Self {
        Conv2dGrads {
            dinput: Tensor::scratch(),
            dweight: Tensor::scratch(),
            dbias: Tensor::scratch(),
        }
    }
}

/// Forward convolution: `input [N,C,H,W]`, `weight [O,C,kh,kw]`, `bias [O]`.
///
/// Parallel over the batch dimension: each worker-pool task owns one image's
/// output slab, so results are bit-identical at any thread count.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: ConvSpec) -> Tensor {
    let mut out = Tensor::scratch();
    conv2d_into(input, weight, bias, spec, &mut out);
    out
}

/// [`conv2d`] into a caller-provided buffer (every output cell overwritten).
pub fn conv2d_into(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: ConvSpec,
    out: &mut Tensor,
) {
    let (n, c, h, w) = nchw(input);
    let (o, c2, kh, kw) = nchw(weight);
    assert_eq!(c, c2, "conv2d channel mismatch");
    assert_eq!(kh, spec.kernel);
    assert_eq!(kw, spec.kernel);
    assert_eq!(bias.numel(), o, "conv2d bias mismatch");
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    out.resize(&[n, o, oh, ow]);

    let x = input.data();
    let wt = weight.data();
    let b = bias.data();
    let cols = TapCols::new(spec, w, ow);
    let (lo, hi) = cols.any;

    crate::threads::parallel_for_chunks(out.data_mut(), o * oh * ow, |img, y| {
        for (y_oc, &bias_v) in y.chunks_exact_mut(oh * ow).zip(b) {
            y_oc.fill(bias_v);
        }
        let ximg = &x[img * c * h * w..][..c * h * w];
        // Rows outside `lo..hi` have no in-bounds tap and keep the bias.
        for t0 in (lo..hi).step_by(TILE) {
            let len = (hi - t0).min(TILE);
            let masks = cols.masks(t0, len);
            let mut taps = [[[0.0f32; LANES]; TILE / LANES]; LANES];
            for oy in 0..oh {
                for ic in 0..c {
                    for ky in 0..kh {
                        let Some(iy) = cols.in_row(oy, ky, h) else {
                            continue;
                        };
                        let xrow = &ximg[(ic * h + iy) * w..][..w];
                        if kw < LANES {
                            cols.gather(xrow, t0, len, &mut taps);
                        }
                        for oc in 0..o {
                            let wrow = &wt[((oc * c + ic) * kh + ky) * kw..][..kw];
                            let yrow = &mut y[(oc * oh + oy) * ow + t0..][..len];
                            if kw < LANES {
                                add_tap_rows(yrow, &taps, &masks, wrow);
                            } else {
                                cols.add_dots(yrow, t0, xrow, wrow);
                            }
                        }
                    }
                }
            }
        }
    });
}

/// Output columns per tile. Each tile keeps one gathered input row per kernel
/// column on the stack, so the kernel stays allocation-free.
const TILE: usize = 64;

/// One tile row, in `LANES`-wide chunks.
type TileRow<T> = [[T; LANES]; TILE / LANES];

/// `y[j] += s[j]` for one tile of an output row, where the tap sum
/// `s[j] = Σ_kx taps[kx][j]·w[kx]` starts at `+0.0` and runs over ascending
/// `kx`. An out-of-bounds tap is masked to `+0.0` rather than skipped: `s`
/// starts at `+0.0` and an IEEE sum is `−0.0` only when both addends are,
/// so `s` is never `−0.0`, and adding `+0.0` to any other value (NaN and
/// ±∞ included) returns it unchanged. Masking therefore equals skipping bit
/// for bit, whatever the masked product was.
#[inline]
fn add_tap_rows(
    y: &mut [f32],
    taps: &[TileRow<f32>; LANES],
    masks: &[TileRow<u32>; LANES],
    wrow: &[f32],
) {
    for (chunk, yc) in y.chunks_mut(LANES).enumerate() {
        let mut s = [0.0f32; LANES];
        for ((tap, mask), &wv) in taps.iter().zip(masks).zip(wrow) {
            let (tap, mask) = (&tap[chunk], &mask[chunk]);
            for i in 0..LANES {
                s[i] += f32::from_bits((tap[i] * wv).to_bits() & mask[i]);
            }
        }
        if let Ok(yc) = <&mut [f32; LANES]>::try_from(&mut *yc) {
            for i in 0..LANES {
                yc[i] += s[i];
            }
        } else {
            for (yv, &sv) in yc.iter_mut().zip(&s) {
                *yv += sv;
            }
        }
    }
}

/// The output columns each kernel column `kx` reaches inside an input row:
/// `ox` is in `taps[kx]` iff `0 ≤ ox·stride + kx − pad < w`.
struct TapCols {
    stride: usize,
    pad: usize,
    kw: usize,
    /// Columns with at least one in-bounds tap.
    any: (usize, usize),
    /// Per-`kx` column ranges for `kx < LANES`.
    taps: [(usize, usize); LANES],
}

impl TapCols {
    fn new(spec: ConvSpec, w: usize, ow: usize) -> Self {
        let (stride, pad, kw) = (spec.stride, spec.pad, spec.kernel);
        let mut taps = [(0, 0); LANES];
        for (kx, t) in taps.iter_mut().enumerate().take(kw) {
            let hi = (w + pad).saturating_sub(kx).div_ceil(stride).min(ow);
            *t = (pad.saturating_sub(kx).div_ceil(stride).min(hi), hi);
        }
        // `ox` has an in-bounds tap iff `ox·stride + kw > pad` and
        // `ox·stride < w + pad`.
        let any_hi = (w + pad).div_ceil(stride).min(ow);
        let any_lo = (pad + 1).saturating_sub(kw).div_ceil(stride).min(any_hi);
        TapCols {
            stride,
            pad,
            kw,
            any: (any_lo, any_hi),
            taps,
        }
    }

    /// Input row `oy·stride + ky − pad` when it is inside `0..h`.
    #[inline]
    fn in_row(&self, oy: usize, ky: usize, h: usize) -> Option<usize> {
        (oy * self.stride + ky)
            .checked_sub(self.pad)
            .filter(|&iy| iy < h)
    }

    /// `masks[kx][j]` is all ones where tap `kx` of output column `t0 + j` is
    /// in bounds, and `0` (masking the product to `+0.0`) elsewhere,
    /// including past `len`.
    fn masks(&self, t0: usize, len: usize) -> [TileRow<u32>; LANES] {
        let mut masks = [[[0; LANES]; TILE / LANES]; LANES];
        for (mask, &(a, b)) in masks.iter_mut().zip(&self.taps).take(self.kw.min(LANES)) {
            let (a, b) = (a.clamp(t0, t0 + len), b.clamp(t0, t0 + len));
            mask.as_flattened_mut()[a - t0..b.max(a) - t0].fill(u32::MAX);
        }
        masks
    }

    /// `taps[kx][j] = xrow[(t0 + j)·stride + kx − pad]` wherever that column
    /// is in bounds; other entries are left as they were (they are masked).
    #[inline]
    fn gather(&self, xrow: &[f32], t0: usize, len: usize, taps: &mut [TileRow<f32>; LANES]) {
        for (kx, (tap, &(a, b))) in taps.iter_mut().zip(&self.taps).take(self.kw).enumerate() {
            let (a, b) = (a.max(t0), b.min(t0 + len));
            if a >= b {
                continue;
            }
            let xs = xrow[a * self.stride + kx - self.pad..]
                .iter()
                .step_by(self.stride);
            for (t, &xv) in tap.as_flattened_mut()[a - t0..b - t0].iter_mut().zip(xs) {
                *t = xv;
            }
        }
    }

    /// Wide kernels (`kw ≥ LANES`): `dot_slices` reduces a clipped row of at
    /// least `LANES` taps lane-strided, which a column-wise tap row cannot
    /// replay, so these keep one clipped dot per output.
    fn add_dots(&self, y: &mut [f32], t0: usize, xrow: &[f32], wrow: &[f32]) {
        for (ox, yv) in (t0..).zip(y.iter_mut()) {
            let ix0 = ox * self.stride;
            let kx_lo = self.pad.saturating_sub(ix0);
            let kx_hi = (xrow.len() + self.pad - ix0).min(self.kw);
            let x_lo = ix0 + kx_lo - self.pad;
            *yv +=
                crate::simd::dot_slices(&xrow[x_lo..x_lo + (kx_hi - kx_lo)], &wrow[kx_lo..kx_hi]);
        }
    }
}

/// Backward convolution: given `dout = dL/dy`, produce gradients w.r.t.
/// input, weight, and bias.
///
/// Parallel over the batch dimension. `dinput` is naturally disjoint per
/// image; `dweight` is accumulated into per-image partial buffers that are
/// reduced afterwards in ascending image order, so the floating-point
/// reduction order — and therefore the result — is fixed at any thread
/// count. (`dy == 0` entries are skipped: max-pooling backward scatters
/// mostly-zero gradients into this kernel, and `g·w` / `g·x` contribute
/// exact zeros for finite operands.)
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    spec: ConvSpec,
) -> Conv2dGrads {
    let mut grads = Conv2dGrads::scratch();
    let mut dw_scratch = Vec::new();
    conv2d_backward_into(input, weight, dout, spec, &mut grads, &mut dw_scratch);
    grads
}

/// [`conv2d_backward`] into caller-provided gradient buffers. `dw_scratch`
/// holds the per-image weight-gradient partials (`n × weight.numel()`
/// floats) and is zeroed before use, so reusing it across calls is
/// bit-identical to allocating fresh.
pub fn conv2d_backward_into(
    input: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    spec: ConvSpec,
    grads: &mut Conv2dGrads,
    dw_scratch: &mut Vec<f32>,
) {
    let (n, c, h, w) = nchw(input);
    let (o, _, kh, kw) = nchw(weight);
    let (n2, o2, oh, ow) = nchw(dout);
    assert_eq!(n, n2);
    assert_eq!(o, o2);

    grads.dinput.resize(&[n, c, h, w]);
    grads.dinput.fill(0.0);
    grads.dweight.resize(weight.dims());
    grads.dweight.fill(0.0);
    grads.dbias.resize(&[o]);
    grads.dbias.fill(0.0);

    let x = input.data();
    let wt = weight.data();
    let dy = dout.data();
    let (s, p) = (spec.stride, spec.pad);

    {
        let db = grads.dbias.data_mut();
        #[allow(clippy::needless_range_loop)]
        for img in 0..n {
            for oc in 0..o {
                let base = (img * o + oc) * oh * ow;
                db[oc] += crate::simd::sum_slices(&dy[base..base + oh * ow]);
            }
        }
    }

    let wlen = o * c * kh * kw;
    dw_scratch.clear();
    dw_scratch.resize(n * wlen, 0.0);
    crate::threads::parallel_for_chunks2(
        grads.dinput.data_mut(),
        c * h * w,
        dw_scratch.as_mut_slice(),
        wlen,
        |img, dx, dw| {
            let ximg = &x[img * c * h * w..][..c * h * w];
            let dyimg = &dy[img * o * oh * ow..][..o * oh * ow];
            let klen = c * kh * kw;
            for (oc, (w_oc, dw_oc)) in wt
                .chunks_exact(klen)
                .zip(dw.chunks_exact_mut(klen))
                .enumerate()
            {
                for oy in 0..oh {
                    // Kernel rows whose input row is in bounds.
                    let iy0 = (oy * s) as isize - p as isize;
                    let ky_lo = (-iy0).clamp(0, kh as isize) as usize;
                    let ky_hi = (h as isize - iy0).clamp(0, kh as isize) as usize;
                    for ox in 0..ow {
                        let g = dyimg[(oc * oh + oy) * ow + ox];
                        if g == 0.0 {
                            continue;
                        }
                        // Same column clipping as the forward pass.
                        let ix0 = (ox * s) as isize - p as isize;
                        let kx_lo = (-ix0).clamp(0, kw as isize) as usize;
                        let kx_hi = (w as isize - ix0).clamp(0, kw as isize) as usize;
                        if kx_lo >= kx_hi {
                            continue;
                        }
                        let len = kx_hi - kx_lo;
                        // `x`/`dx` and `w`/`dw` share their layouts.
                        let ix = (ix0 + kx_lo as isize) as usize;
                        for ic in 0..c {
                            for ky in ky_lo..ky_hi {
                                let xo = (ic * h + (iy0 + ky as isize) as usize) * w + ix;
                                let wo = (ic * kh + ky) * kw + kx_lo;
                                let dxs = dx[xo..xo + len].iter_mut().zip(&w_oc[wo..wo + len]);
                                let dws = dw_oc[wo..wo + len].iter_mut().zip(&ximg[xo..xo + len]);
                                for ((d, &wv), (dwv, &xv)) in dxs.zip(dws) {
                                    *d += g * wv;
                                    *dwv += g * xv;
                                }
                            }
                        }
                    }
                }
            }
        },
    );
    let dw = grads.dweight.data_mut();
    for part in dw_scratch.chunks_exact(wlen) {
        crate::simd::add_assign_slices(dw, part);
    }
}

#[inline]
fn nchw(t: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(t.ndim(), 4, "expected NCHW tensor, got {}", t.shape());
    let d = t.dims();
    (d[0], d[1], d[2], d[3])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        Tensor::from_vec((0..n).map(|v| (v as f32) * 0.01 - 0.3).collect(), dims)
    }

    #[test]
    fn output_shape_matches_spec() {
        let spec = ConvSpec {
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let y = conv2d(&seq(&[2, 3, 8, 8]), &seq(&[4, 3, 3, 3]), &seq(&[4]), spec);
        assert_eq!(y.dims(), &[2, 4, 8, 8]);
        let spec2 = ConvSpec {
            kernel: 3,
            stride: 2,
            pad: 0,
        };
        let y2 = conv2d(&seq(&[1, 1, 7, 7]), &seq(&[1, 1, 3, 3]), &seq(&[1]), spec2);
        assert_eq!(y2.dims(), &[1, 1, 3, 3]);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 kernel with weight 1 and bias 0 is the identity.
        let x = seq(&[1, 1, 4, 4]);
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let b = Tensor::zeros(&[1]);
        let spec = ConvSpec {
            kernel: 1,
            stride: 1,
            pad: 0,
        };
        assert_eq!(conv2d(&x, &w, &b, spec).data(), x.data());
    }

    #[test]
    fn known_3x3_convolution() {
        // All-ones 3x3 input, all-ones 3x3 kernel, pad 1: center = 9, corner = 4.
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let b = Tensor::zeros(&[1]);
        let spec = ConvSpec {
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let y = conv2d(&x, &w, &b, spec);
        assert_eq!(y.at(&[0, 0, 1, 1]), 9.0);
        assert_eq!(y.at(&[0, 0, 0, 0]), 4.0);
        assert_eq!(y.at(&[0, 0, 0, 1]), 6.0);
    }

    #[test]
    fn bias_shifts_all_outputs() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let w = Tensor::zeros(&[2, 1, 1, 1]);
        let b = Tensor::from_slice(&[1.5, -2.0]);
        let spec = ConvSpec {
            kernel: 1,
            stride: 1,
            pad: 0,
        };
        let y = conv2d(&x, &w, &b, spec);
        assert!(y.data()[..4].iter().all(|&v| v == 1.5));
        assert!(y.data()[4..].iter().all(|&v| v == -2.0));
    }

    /// Finite-difference check of all three gradients.
    #[test]
    fn backward_matches_finite_difference() {
        let spec = ConvSpec {
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let x = seq(&[1, 2, 5, 5]);
        let w = seq(&[3, 2, 3, 3]);
        let b = seq(&[3]);
        // Loss = sum(conv(x)) so dL/dy = 1 everywhere.
        let y = conv2d(&x, &w, &b, spec);
        let dout = Tensor::ones(y.dims());
        let grads = conv2d_backward(&x, &w, &dout, spec);

        let eps = 1e-2;
        let loss = |x: &Tensor, w: &Tensor, b: &Tensor| -> f32 {
            conv2d(x, w, b, spec).data().iter().sum()
        };
        // Spot-check a few coordinates of each gradient.
        for &i in &[0usize, 7, 24] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let num = (loss(&xp, &w, &b) - loss(&x, &w, &b)) / eps;
            assert!(
                (num - grads.dinput.data()[i]).abs() < 0.05,
                "dinput[{i}]: fd {num} vs {}",
                grads.dinput.data()[i]
            );
        }
        for &i in &[0usize, 10, 30] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let num = (loss(&x, &wp, &b) - loss(&x, &w, &b)) / eps;
            assert!(
                (num - grads.dweight.data()[i]).abs() < 0.05,
                "dweight[{i}]: fd {num} vs {}",
                grads.dweight.data()[i]
            );
        }
        for i in 0..3 {
            let mut bp = b.clone();
            bp.data_mut()[i] += eps;
            let num = (loss(&x, &w, &bp) - loss(&x, &w, &b)) / eps;
            assert!((num - grads.dbias.data()[i]).abs() < 0.1);
        }
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn rejects_channel_mismatch() {
        let spec = ConvSpec {
            kernel: 1,
            stride: 1,
            pad: 0,
        };
        conv2d(&seq(&[1, 2, 3, 3]), &seq(&[1, 3, 1, 1]), &seq(&[1]), spec);
    }
}
