//! Cache-blocked matrix kernels for the inference hot path.
//!
//! The classifier forward passes reduce to matrix–vector products (`Dense`,
//! the LSTM gate pre-activations) and a sliding dot product (`Conv1d`). The
//! naive loops touch the input vector once per output row, so for an
//! `[m, n]` weight matrix the vector is streamed from cache `m` times. The
//! kernels here register-block four rows (or four output positions for the
//! convolution) per pass: the vector is loaded once per *panel*, quartering
//! the load traffic, and the four independent accumulator chains keep the
//! FPU pipeline full.
//!
//! Every kernel preserves the naive loop's per-output accumulation order —
//! a single accumulator per output, summed over the reduction index in
//! ascending order — so results are **bit-for-bit identical** to the
//! straightforward triple loop (property-tested in `tests/proptests.rs`).
//! That keeps the blocked kernels drop-in replacements under the exact
//! equality assertions sprinkled through the layer tests.

/// Number of output rows processed per register-blocked panel.
const PANEL: usize = 4;

/// `y = A · x` for a row-major `[m, n]` matrix.
///
/// # Panics
///
/// Debug-asserts the slice lengths; callers validate shapes beforehand.
pub fn gemv(a: &[f32], m: usize, n: usize, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(x.len(), n);
    debug_assert_eq!(y.len(), m);
    let mut row = 0;
    while row + PANEL <= m {
        let r0 = &a[row * n..row * n + n];
        let r1 = &a[(row + 1) * n..(row + 1) * n + n];
        let r2 = &a[(row + 2) * n..(row + 2) * n + n];
        let r3 = &a[(row + 3) * n..(row + 3) * n + n];
        let (mut acc0, mut acc1, mut acc2, mut acc3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for (j, &xj) in x.iter().enumerate() {
            acc0 += r0[j] * xj;
            acc1 += r1[j] * xj;
            acc2 += r2[j] * xj;
            acc3 += r3[j] * xj;
        }
        y[row] = acc0;
        y[row + 1] = acc1;
        y[row + 2] = acc2;
        y[row + 3] = acc3;
        row += PANEL;
    }
    for r in row..m {
        let a_row = &a[r * n..r * n + n];
        let mut acc = 0.0f32;
        for (j, &xj) in x.iter().enumerate() {
            acc += a_row[j] * xj;
        }
        y[r] = acc;
    }
}

/// `y = Aᵀ · x` for a row-major `[m, n]` matrix (`x` has length `m`, `y`
/// length `n`).
///
/// Processes four source rows per pass so each output column's partial sums
/// stay in registers; the per-output add order over `i` is ascending,
/// matching the naive loop exactly.
pub fn gemv_t(a: &[f32], m: usize, n: usize, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(x.len(), m);
    debug_assert_eq!(y.len(), n);
    y.fill(0.0);
    let mut row = 0;
    while row + PANEL <= m {
        let r0 = &a[row * n..row * n + n];
        let r1 = &a[(row + 1) * n..(row + 1) * n + n];
        let r2 = &a[(row + 2) * n..(row + 2) * n + n];
        let r3 = &a[(row + 3) * n..(row + 3) * n + n];
        let (x0, x1, x2, x3) = (x[row], x[row + 1], x[row + 2], x[row + 3]);
        for (j, yj) in y.iter_mut().enumerate() {
            let mut t = *yj;
            t += r0[j] * x0;
            t += r1[j] * x1;
            t += r2[j] * x2;
            t += r3[j] * x3;
            *yj = t;
        }
        row += PANEL;
    }
    for r in row..m {
        let a_row = &a[r * n..r * n + n];
        let xr = x[r];
        for (j, yj) in y.iter_mut().enumerate() {
            *yj += a_row[j] * xr;
        }
    }
}

/// Valid 1-D convolution over `[in_ch, t_in]` input with `[out_ch,
/// in_ch · kernel]` weights, writing `[out_ch, t_out]` where
/// `t_out = t_in - kernel + 1`.
///
/// Broadcast-axpy form, register-blocked over four output channels: for
/// each `(c, k)` tap the four weight scalars sweep their whole output rows
/// against one shared contiguous input window, so the innermost loops
/// vectorize and the per-tap slice overhead is amortized 4×. Every output
/// element still accumulates in the naive order (bias first, then channels
/// ascending, taps ascending), so results match the triple loop
/// bit-for-bit.
#[allow(clippy::too_many_arguments)]
pub fn conv1d_forward(
    w: &[f32],
    bias: &[f32],
    input: &[f32],
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    t_in: usize,
    out: &mut [f32],
) {
    let t_out = t_in - kernel + 1;
    let ick = in_ch * kernel;
    debug_assert_eq!(w.len(), out_ch * ick);
    debug_assert_eq!(bias.len(), out_ch);
    debug_assert_eq!(input.len(), in_ch * t_in);
    debug_assert_eq!(out.len(), out_ch * t_out);

    let quads = out_ch / PANEL;
    let mut quad_rows = out.chunks_exact_mut(PANEL * t_out);
    for (q, quad) in quad_rows.by_ref().enumerate() {
        let o = q * PANEL;
        let (r0, rest) = quad.split_at_mut(t_out);
        let (r1, rest) = rest.split_at_mut(t_out);
        let (r2, r3) = rest.split_at_mut(t_out);
        r0.fill(bias[o]);
        r1.fill(bias[o + 1]);
        r2.fill(bias[o + 2]);
        r3.fill(bias[o + 3]);
        for c in 0..in_ch {
            let x_c = &input[c * t_in..(c + 1) * t_in];
            for k in 0..kernel {
                let wi = o * ick + c * kernel + k;
                let (w0, w1, w2, w3) = (w[wi], w[wi + ick], w[wi + 2 * ick], w[wi + 3 * ick]);
                let window = &x_c[k..k + t_out];
                for t in 0..t_out {
                    let xv = window[t];
                    r0[t] += w0 * xv;
                    r1[t] += w1 * xv;
                    r2[t] += w2 * xv;
                    r3[t] += w3 * xv;
                }
            }
        }
    }
    for o in quads * PANEL..out_ch {
        let w_o = &w[o * ick..(o + 1) * ick];
        let out_o = &mut out[o * t_out..(o + 1) * t_out];
        out_o.fill(bias[o]);
        for c in 0..in_ch {
            let x_c = &input[c * t_in..(c + 1) * t_in];
            let w_c = &w_o[c * kernel..(c + 1) * kernel];
            for (k, &wv) in w_c.iter().enumerate() {
                for (ov, &xv) in out_o.iter_mut().zip(&x_c[k..k + t_out]) {
                    *ov += wv * xv;
                }
            }
        }
    }
}

/// Fused i8×i8→i32 dot product with four-way unrolled accumulation.
///
/// Integer addition is associative, so the unroll is exact; the widening to
/// `i32` happens per product, which cannot overflow for any `len` below
/// `2^16` (each product is at most `127 · 127`).
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    let mut chunks_a = a.chunks_exact(4);
    let mut chunks_b = b.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0i32, 0i32, 0i32, 0i32);
    for (ca, cb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
        s0 += i32::from(ca[0]) * i32::from(cb[0]);
        s1 += i32::from(ca[1]) * i32::from(cb[1]);
        s2 += i32::from(ca[2]) * i32::from(cb[2]);
        s3 += i32::from(ca[3]) * i32::from(cb[3]);
    }
    let mut tail = 0i32;
    for (&xa, &xb) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        tail += i32::from(xa) * i32::from(xb);
    }
    s0 + s1 + s2 + s3 + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_gemv(a: &[f32], m: usize, n: usize, x: &[f32]) -> Vec<f32> {
        (0..m)
            .map(|r| {
                let mut acc = 0.0f32;
                for j in 0..n {
                    acc += a[r * n + j] * x[j];
                }
                acc
            })
            .collect()
    }

    fn naive_gemv_t(a: &[f32], m: usize, n: usize, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; n];
        for i in 0..m {
            for (j, yj) in y.iter_mut().enumerate() {
                *yj += a[i * n + j] * x[i];
            }
        }
        y
    }

    fn ramp(len: usize, scale: f32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 37 % 23) as f32 - 11.0) * scale)
            .collect()
    }

    #[test]
    fn gemv_matches_naive_bitwise() {
        for (m, n) in [(1, 1), (3, 5), (4, 4), (7, 9), (16, 33), (33, 16)] {
            let a = ramp(m * n, 0.037);
            let x = ramp(n, 0.11);
            let mut y = vec![0.0f32; m];
            gemv(&a, m, n, &x, &mut y);
            assert_eq!(y, naive_gemv(&a, m, n, &x), "{m}x{n}");
        }
    }

    #[test]
    fn gemv_t_matches_naive_bitwise() {
        for (m, n) in [(1, 1), (3, 5), (4, 4), (7, 9), (16, 33), (33, 16)] {
            let a = ramp(m * n, 0.037);
            let x = ramp(m, 0.11);
            let mut y = vec![0.0f32; n];
            gemv_t(&a, m, n, &x, &mut y);
            assert_eq!(y, naive_gemv_t(&a, m, n, &x), "{m}x{n}");
        }
    }

    #[test]
    fn conv_matches_naive_bitwise() {
        let (in_ch, out_ch, kernel, t_in) = (3, 5, 4, 21);
        let t_out = t_in - kernel + 1;
        let w = ramp(out_ch * in_ch * kernel, 0.09);
        let bias = ramp(out_ch, 0.5);
        let input = ramp(in_ch * t_in, 0.21);
        let mut out = vec![0.0f32; out_ch * t_out];
        conv1d_forward(&w, &bias, &input, in_ch, out_ch, kernel, t_in, &mut out);

        let mut naive = vec![0.0f32; out_ch * t_out];
        for o in 0..out_ch {
            for t in 0..t_out {
                let mut acc = bias[o];
                for c in 0..in_ch {
                    for k in 0..kernel {
                        acc += w[o * in_ch * kernel + c * kernel + k] * input[c * t_in + t + k];
                    }
                }
                naive[o * t_out + t] = acc;
            }
        }
        assert_eq!(out, naive);
    }

    #[test]
    fn dot_i8_exact() {
        let a: Vec<i8> = (0..13).map(|i| (i * 17 % 255) as i8).collect();
        let b: Vec<i8> = (0..13).map(|i| (i * 29 % 255) as i8).collect();
        let expected: i32 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| i32::from(x) * i32::from(y))
            .sum();
        assert_eq!(dot_i8(&a, &b), expected);
    }
}
