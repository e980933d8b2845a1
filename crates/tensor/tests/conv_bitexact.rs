//! Bit-equality of the row-tap convolution kernels with the per-pixel
//! kernels they replaced.
//!
//! The oracles below are the previous `conv2d_into` / `conv2d_backward_into`
//! (one `dot_slices` per output pixel and kernel row, two `axpy_slices` per
//! nonzero output gradient and kernel row), run serially. Every output of the
//! production kernels must match them bit for bit across kernel sizes,
//! strides, paddings, widths on both sides of the 64-column tap tile, signed
//! zeros, infinite weights, both SIMD backends and two thread budgets.

use rfl_tensor::simd::{add_assign_slices, axpy_slices, dot_slices, sum_slices};
use rfl_tensor::{
    conv2d_backward_into, conv2d_into, set_simd_enabled, set_thread_budget, Conv2dGrads, ConvSpec,
    Tensor,
};

fn dims4(t: &Tensor) -> (usize, usize, usize, usize) {
    let d = t.dims();
    (d[0], d[1], d[2], d[3])
}

/// Per-pixel forward oracle.
fn oracle_forward(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: ConvSpec) -> Tensor {
    let (n, c, h, w) = dims4(input);
    let (o, _, kh, kw) = dims4(weight);
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    let mut out = Tensor::zeros(&[n, o, oh, ow]);
    let (x, wt, b) = (input.data(), weight.data(), bias.data());
    let (s, p) = (spec.stride as isize, spec.pad as isize);
    let y = out.data_mut();
    for img in 0..n {
        for oc in 0..o {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = b[oc];
                    let iy0 = oy as isize * s - p;
                    let ix0 = ox as isize * s - p;
                    let kx_lo = (-ix0).clamp(0, kw as isize) as usize;
                    let kx_hi = (w as isize - ix0).clamp(0, kw as isize) as usize;
                    for ic in 0..c {
                        let xbase = ((img * c + ic) * h) as isize;
                        let wbase = ((oc * c + ic) * kh) as isize;
                        for ky in 0..kh as isize {
                            let iy = iy0 + ky;
                            if iy < 0 || iy >= h as isize || kx_lo >= kx_hi {
                                continue;
                            }
                            let xrow = (xbase + iy) * w as isize + ix0;
                            let x_lo = (xrow + kx_lo as isize) as usize;
                            let wrow = ((wbase + ky) * kw as isize) as usize;
                            acc += dot_slices(
                                &x[x_lo..x_lo + (kx_hi - kx_lo)],
                                &wt[wrow + kx_lo..wrow + kx_hi],
                            );
                        }
                    }
                    y[((img * o + oc) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    out
}

/// Per-pixel backward oracle: `(dinput, dweight, dbias)`.
fn oracle_backward(
    input: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    spec: ConvSpec,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (n, c, h, w) = dims4(input);
    let (o, _, kh, kw) = dims4(weight);
    let (_, _, oh, ow) = dims4(dout);
    let (x, wt, dy) = (input.data(), weight.data(), dout.data());
    let (s, p) = (spec.stride as isize, spec.pad as isize);

    let mut db = vec![0.0f32; o];
    for img in 0..n {
        for (oc, d) in db.iter_mut().enumerate() {
            let base = (img * o + oc) * oh * ow;
            *d += sum_slices(&dy[base..base + oh * ow]);
        }
    }

    let wlen = o * c * kh * kw;
    let mut dinput = vec![0.0f32; n * c * h * w];
    let mut dweight = vec![0.0f32; wlen];
    for img in 0..n {
        let dx = &mut dinput[img * c * h * w..(img + 1) * c * h * w];
        let mut dw = vec![0.0f32; wlen];
        for oc in 0..o {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = dy[((img * o + oc) * oh + oy) * ow + ox];
                    if g == 0.0 {
                        continue;
                    }
                    let iy0 = oy as isize * s - p;
                    let ix0 = ox as isize * s - p;
                    let kx_lo = (-ix0).clamp(0, kw as isize) as usize;
                    let kx_hi = (w as isize - ix0).clamp(0, kw as isize) as usize;
                    for ic in 0..c {
                        let xbase = (img * c + ic) * h;
                        let dxbase = ic * h;
                        let wbase = (oc * c + ic) * kh;
                        for ky in 0..kh as isize {
                            let iy = iy0 + ky;
                            if iy < 0 || iy >= h as isize || kx_lo >= kx_hi {
                                continue;
                            }
                            let xrow = ((xbase + iy as usize) * w) as isize + ix0;
                            let dxrow = ((dxbase + iy as usize) * w) as isize + ix0;
                            let x_lo = (xrow + kx_lo as isize) as usize;
                            let dx_lo = (dxrow + kx_lo as isize) as usize;
                            let len = kx_hi - kx_lo;
                            let wrow = (wbase + ky as usize) * kw;
                            let wr = (wrow + kx_lo)..(wrow + kx_hi);
                            axpy_slices(&mut dx[dx_lo..dx_lo + len], g, &wt[wr.clone()]);
                            axpy_slices(&mut dw[wr], g, &x[x_lo..x_lo + len]);
                        }
                    }
                }
            }
        }
        add_assign_slices(&mut dweight, &dw);
    }
    (dinput, dweight, db)
}

/// Deterministic values in `[-2, 2)` with every `zero_every`-th entry
/// replaced by an alternating `+0.0` / `-0.0`.
fn det_vec(len: usize, seed: u64, zero_every: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    (0..len)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if i.is_multiple_of(zero_every) {
                return if (i / zero_every).is_multiple_of(2) {
                    0.0
                } else {
                    -0.0
                };
            }
            (state >> 40) as f32 / (1u64 << 22) as f32 - 2.0
        })
        .collect()
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g:e} vs {w:e}");
    }
}

/// Checks both kernels against the oracles on one shape.
/// With `inf_taps`, the first and last tap of the first output channel's
/// kernels are `+∞` / `−∞`: a clipped tap must be left out, never multiplied
/// by a padding zero (`0·∞` is NaN).
fn check_case(
    kernel: usize,
    stride: usize,
    pad: usize,
    h: usize,
    w: usize,
    seed: u64,
    inf_taps: bool,
) {
    let (n, c, o) = (2, 2, 3);
    let spec = ConvSpec {
        kernel,
        stride,
        pad,
    };
    let ctx = format!("k={kernel} s={stride} p={pad} h={h} w={w} inf={inf_taps}");
    let x = Tensor::from_vec(det_vec(n * c * h * w, seed, 7), &[n, c, h, w]);
    let mut wv = det_vec(o * c * kernel * kernel, seed + 1, 5);
    if inf_taps {
        for row in wv[..c * kernel * kernel].chunks_exact_mut(kernel) {
            row[0] = f32::INFINITY;
            row[kernel - 1] = f32::NEG_INFINITY;
        }
    }
    let wt = Tensor::from_vec(wv, &[o, c, kernel, kernel]);
    // A `-0.0` bias survives only where no tap is ever added.
    let b = Tensor::from_vec(vec![-0.0, 0.5, 0.0], &[o]);

    let mut y = Tensor::from_vec(vec![f32::NAN; 3], &[3]);
    conv2d_into(&x, &wt, &b, spec, &mut y);
    let want_y = oracle_forward(&x, &wt, &b, spec);
    assert_eq!(y.dims(), want_y.dims(), "{ctx}: output dims");
    assert_bits_eq(y.data(), want_y.data(), &format!("{ctx} y"));

    // Output gradients with exact zeros of both signs (every third entry).
    let dy = Tensor::from_vec(det_vec(y.numel(), seed + 2, 3), y.dims());
    let mut grads = Conv2dGrads::scratch();
    let mut scratch = vec![f32::NAN; 4];
    conv2d_backward_into(&x, &wt, &dy, spec, &mut grads, &mut scratch);
    let (dx, dw, db) = oracle_backward(&x, &wt, &dy, spec);
    assert_bits_eq(grads.dinput.data(), &dx, &format!("{ctx} dinput"));
    assert_bits_eq(grads.dweight.data(), &dw, &format!("{ctx} dweight"));
    assert_bits_eq(grads.dbias.data(), &db, &format!("{ctx} dbias"));
}

/// One test drives the global SIMD and thread-budget switches, so no sibling
/// test can flip them mid-comparison.
#[test]
fn row_tap_kernels_match_per_pixel_oracle() {
    for simd in [false, true] {
        set_simd_enabled(simd);
        for threads in [1, 4] {
            set_thread_budget(threads);
            let mut seed = 0;
            for kernel in [1usize, 3, 5, 7, 9] {
                for stride in [1, 2] {
                    for pad in [0, 1, 2] {
                        let min_w = kernel.saturating_sub(2 * pad).max(1);
                        // Narrow rows, one tile, and rows wider than the
                        // 64-column tile at either stride.
                        for w in [min_w, kernel + 3, 70, 140] {
                            seed += 1;
                            let h = min_w.max(kernel / 2 + 2);
                            for inf_taps in [false, true] {
                                check_case(kernel, stride, pad, h, w, seed, inf_taps);
                            }
                        }
                    }
                }
            }
        }
    }
}
