//! Cache-blocked matrix kernels for the inference hot path.
//!
//! The classifier forward passes reduce to matrix–vector products (`Dense`,
//! the LSTM gate pre-activations) and a sliding dot product (`Conv1d`). The
//! naive loops touch the input vector once per output row, so for an
//! `[m, n]` weight matrix the vector is streamed from cache `m` times. The
//! kernels here either register-block four rows (or four output channels
//! for the convolution) per pass, so the vector is loaded once per *panel*,
//! or run in axpy form, one accumulator lane per output, so the loop over
//! outputs vectorizes.
//!
//! Every f32 kernel preserves the naive loop's per-output accumulation
//! order — a single accumulator per output, summed over the reduction index
//! in ascending order, a multiply and then an add — so results are
//! **bit-for-bit identical** to the straightforward triple loop
//! (property-tested in `tests/proptests.rs`). The int8 kernels sum
//! `i8 × i8` products in `i32`, where every order gives the same sum.
//!
//! The convolutions, the int8 `gemv_t` and the activation quantizer
//! ([`crate::quant`]) run in the widest vector arm this CPU has: one
//! `#[inline(always)]` body, which the baseline build compiles once and the
//! AVX2 and AVX-512F arms compile again. The convolutions take a wide arm
//! only for rows of at least 64 outputs, where it measured faster. rustc
//! never contracts a multiply and an add into an FMA, so every arm gives
//! the same bits.

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

/// The vector arms of the [`Kernel`]s, one per register width. An `Avx2`
/// or `Avx512` value is made only after `is_x86_feature_detected!` saw its
/// target feature on this CPU: in [`Lanes::detect`] and in the arm test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lanes {
    /// The baseline build: SSE2 on x86-64, NEON on aarch64.
    Base,
    /// Compiled with AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// Compiled with AVX-512F.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Lanes {
    /// The widest arm this CPU runs.
    pub(crate) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                return Self::Avx512;
            }
            if is_x86_feature_detected!("avx2") {
                return Self::Avx2;
            }
        }
        Self::Base
    }

    /// The arm for rows of `len` outputs: the widest this CPU runs when a
    /// row fills a [`TILE`], the baseline otherwise. On the fleet's short
    /// convolution rows (4–28 outputs) the wide arms measured slower than
    /// the baseline, and on the default config's (286–1157) up to 2.6×
    /// faster.
    pub(crate) fn for_rows(len: usize) -> Self {
        if len >= TILE {
            Self::detect()
        } else {
            Self::Base
        }
    }

    /// Runs `kernel`'s body compiled for this arm.
    #[inline(always)]
    pub(crate) fn run<K: Kernel>(self, kernel: K) -> K::Output {
        match self {
            Self::Base => kernel.run(),
            // SAFETY: an `Avx2` value exists only after
            // `is_x86_feature_detected!("avx2")` held on this CPU.
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => unsafe { run_avx2(kernel) },
            // SAFETY: an `Avx512` value exists only after
            // `is_x86_feature_detected!("avx512f")` held on this CPU.
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => unsafe { run_avx512(kernel) },
        }
    }
}

/// A kernel body that the [`Lanes`] arms compile once per register width.
pub(crate) trait Kernel {
    /// What the kernel returns besides the buffers it writes.
    type Output;
    /// The body; implementations are `#[inline(always)]`, so each arm
    /// inlines and vectorizes it for its own width.
    fn run(self) -> Self::Output;
}

/// The AVX2 arm: [`Kernel::run`] compiled with AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<K: Kernel>(kernel: K) -> K::Output {
    kernel.run()
}

/// The AVX-512F arm: [`Kernel::run`] compiled with AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn run_avx512<K: Kernel>(kernel: K) -> K::Output {
    kernel.run()
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
/// bit-for-bit, in every vector arm.
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
    Lanes::for_rows(t_in - kernel + 1).run(ConvF32 {
        w,
        bias,
        input,
        in_ch,
        out_ch,
        kernel,
        t_in,
        out,
    });
}

/// The arguments of [`conv1d_forward`].
struct ConvF32<'a> {
    w: &'a [f32],
    bias: &'a [f32],
    input: &'a [f32],
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    t_in: usize,
    out: &'a mut [f32],
}

impl Kernel for ConvF32<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Self {
            w,
            bias,
            input,
            in_ch,
            out_ch,
            kernel,
            t_in,
            out,
        } = self;
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
}

/// Outputs per stack tile of `i32` accumulators in the int8 kernels: 256
/// bytes a row, four AVX-512 registers. It is also the row length from
/// which the convolutions take a wide arm ([`Lanes::for_rows`]).
const TILE: usize = 64;

/// `i8 × i8` as an exact `i16` product (`|a · b| ≤ 2^14`), widened to the
/// `i32` the sums run in. The narrow multiply is what SSE2's `pmullw`
/// computes, eight or more lanes at a time.
#[inline(always)]
fn mul_i8(a: i8, b: i8) -> i32 {
    i32::from(i16::from(a) * i16::from(b))
}

/// `acc[t] += x · row[t]` over `row`. Called with a full [`TILE`] (a
/// `&[i8; TILE]` coerced to a slice), the trip count is a constant, so the
/// compiler keeps the sums in registers; a partial tile runs the same loop
/// over its length.
#[inline(always)]
fn axpy_i8(acc: &mut [i32], x: i8, row: &[i8]) {
    for (s, &r) in acc.iter_mut().zip(row) {
        *s += mul_i8(r, x);
    }
}

/// [`axpy_i8`] for the four rows of a panel, which share each load of
/// `window`: `acc[p][t] += w[p] · window[t]`.
#[inline(always)]
fn axpy4_i8(acc: &mut [[i32; TILE]; PANEL], w: [i8; PANEL], window: &[i8]) {
    let len = window.len();
    let [a0, a1, a2, a3] = acc;
    let (a0, a1, a2, a3) = (
        &mut a0[..len],
        &mut a1[..len],
        &mut a2[..len],
        &mut a3[..len],
    );
    for (t, &xv) in window.iter().enumerate() {
        a0[t] += mul_i8(w[0], xv);
        a1[t] += mul_i8(w[1], xv);
        a2[t] += mul_i8(w[2], xv);
        a3[t] += mul_i8(w[3], xv);
    }
}

/// `y[j] = (Σᵢ a[i][j] · x[i]) as f32 * scale` for a row-major `[m, n]`
/// int8 matrix `a` (`x` has length `m`, `y` length `n`): the int8 twin of
/// [`gemv_t`].
///
/// Axpy form: the sums of 64 consecutive outputs stay in an `i32` tile on
/// the stack, one lane per output, and each row of `a` adds its products
/// to them, so the loop over outputs vectorizes. Integer sums are exact, so
/// every output equals a per-row [`dot_i8`] of the transposed matrix,
/// rescaled by the same single multiply.
pub fn gemv_t_i8(a: &[i8], m: usize, n: usize, x: &[i8], scale: f32, y: &mut [f32]) {
    Lanes::for_rows(n).run(GemvTI8 {
        a,
        m,
        n,
        x,
        scale,
        y,
    });
}

/// The arguments of [`gemv_t_i8`].
struct GemvTI8<'a> {
    a: &'a [i8],
    m: usize,
    n: usize,
    x: &'a [i8],
    scale: f32,
    y: &'a mut [f32],
}

impl Kernel for GemvTI8<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Self {
            a,
            m,
            n,
            x,
            scale,
            y,
        } = self;
        debug_assert_eq!(a.len(), m * n);
        debug_assert_eq!(x.len(), m);
        debug_assert_eq!(y.len(), n);
        let width = TILE.min(n);
        for j0 in tile_starts(n) {
            let mut acc = [0i32; TILE];
            for (row, &xi) in a.chunks_exact(n).zip(x) {
                let row = &row[j0..j0 + width];
                match <&[i8; TILE]>::try_from(row) {
                    Ok(full) => axpy_i8(&mut acc, xi, full),
                    Err(_) => axpy_i8(&mut acc, xi, row),
                }
            }
            for (yj, &s) in y[j0..j0 + width].iter_mut().zip(&acc) {
                *yj = s as f32 * scale;
            }
        }
    }
}

/// Start offsets of the [`TILE`]-wide tiles over `len` outputs. When `len`
/// holds at least one tile, every tile is full: the last ends at `len` and
/// overlaps its predecessor, and an output gets the same exact integer sum
/// in whichever tile computes it. A shorter `len` is one partial tile.
fn tile_starts(len: usize) -> impl Iterator<Item = usize> {
    let last = len.saturating_sub(TILE);
    (0..last).step_by(TILE).chain([last])
}

/// The int8 twin of [`conv1d_forward`]: `w` holds `[out_ch, in_ch · kernel]`
/// int8 weights, `input` the `[in_ch, t_in]` int8 activations, and each
/// output is `acc as f32 * scale + bias[o]` with
/// `acc = Σ_{c,k} w[o][c][k] · input[c][t + k]` summed in `i32`.
///
/// The same broadcast-axpy shape as the f32 kernel, four output channels
/// per pass, on `i32` tiles of 64 output positions kept on the stack.
/// Integer sums are exact, so every output equals a per-position
/// [`dot_i8`] of the gathered `[in_ch × kernel]` window.
#[allow(clippy::too_many_arguments)]
pub fn conv1d_i8(
    w: &[i8],
    bias: &[f32],
    input: &[i8],
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    t_in: usize,
    scale: f32,
    out: &mut [f32],
) {
    Lanes::for_rows(t_in - kernel + 1).run(ConvI8 {
        w,
        bias,
        input,
        in_ch,
        out_ch,
        kernel,
        t_in,
        scale,
        out,
    });
}

/// The arguments of [`conv1d_i8`].
struct ConvI8<'a> {
    w: &'a [i8],
    bias: &'a [f32],
    input: &'a [i8],
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    t_in: usize,
    scale: f32,
    out: &'a mut [f32],
}

impl Kernel for ConvI8<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Self {
            w,
            bias,
            input,
            in_ch,
            out_ch,
            kernel,
            t_in,
            scale,
            out,
        } = self;
        let t_out = t_in - kernel + 1;
        let ick = in_ch * kernel;
        debug_assert_eq!(w.len(), out_ch * ick);
        debug_assert_eq!(bias.len(), out_ch);
        debug_assert_eq!(input.len(), in_ch * t_in);
        debug_assert_eq!(out.len(), out_ch * t_out);

        for (o, rows) in (0..out_ch)
            .step_by(PANEL)
            .zip(out.chunks_mut(PANEL * t_out))
        {
            let panel = rows.len() / t_out;
            for t0 in tile_starts(t_out) {
                let len = TILE.min(t_out);
                let mut acc = [[0i32; TILE]; PANEL];
                for c in 0..in_ch {
                    for k in 0..kernel {
                        let window = &input[c * t_in + t0 + k..][..len];
                        let wi = o * ick + c * kernel + k;
                        if panel == PANEL {
                            let taps = [w[wi], w[wi + ick], w[wi + 2 * ick], w[wi + 3 * ick]];
                            match <&[i8; TILE]>::try_from(window) {
                                Ok(full) => axpy4_i8(&mut acc, taps, full),
                                Err(_) => axpy4_i8(&mut acc, taps, window),
                            }
                        } else {
                            for (p, acc_p) in acc[..panel].iter_mut().enumerate() {
                                axpy_i8(acc_p, w[wi + p * ick], window);
                            }
                        }
                    }
                }
                for (p, acc_p) in acc[..panel].iter().enumerate() {
                    let b = bias[o + p];
                    let out_p = &mut rows[p * t_out + t0..][..len];
                    for (ov, &s) in out_p.iter_mut().zip(acc_p) {
                        *ov = s as f32 * scale + b;
                    }
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

    /// The arms this CPU runs, and the names of those it lacks.
    fn runnable_arms() -> (Vec<(&'static str, Lanes)>, Vec<&'static str>) {
        let mut arms = vec![("baseline", Lanes::Base)];
        let mut skipped = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                arms.push(("AVX2", Lanes::Avx2));
            } else {
                skipped.push("AVX2");
            }
            if is_x86_feature_detected!("avx512f") {
                arms.push(("AVX-512F", Lanes::Avx512));
            } else {
                skipped.push("AVX-512F");
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        skipped.extend(["AVX2 (not x86-64)", "AVX-512F (not x86-64)"]);
        (arms, skipped)
    }

    /// Random values in `[-4, 4)` and, with `specials`, a NaN, an
    /// infinity of each sign and a zero of each sign among them.
    fn noise(len: usize, seed: u64, specials: bool) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut v: Vec<f32> = (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 40) as f32 / (1u64 << 21) as f32 - 4.0
            })
            .collect();
        if specials {
            let marks = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
            for (i, x) in marks.into_iter().enumerate() {
                if let Some(at) = (len > 0).then(|| (i * 7 + seed as usize) % len) {
                    v[at] = x;
                }
            }
        }
        v
    }

    fn to_i8(v: &[f32]) -> Vec<i8> {
        v.iter().map(|&x| (x * 40.0) as i8).collect()
    }

    /// NaN payloads are unspecified, so any NaN matches any NaN; every
    /// other value, the sign of zero included, compares by `to_bits`.
    fn canonical(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|&x| if x.is_nan() { f32::NAN } else { x }.to_bits())
            .collect()
    }

    /// Every kernel in every arm this CPU runs, against its scalar loop by
    /// bits: the f32 and int8 convolutions on every output-channel
    /// remainder and on rows shorter than, as long as and longer than one
    /// tile, the int8 `gemv_t` on widths around the tile, and the
    /// activation quantizer on lengths around its lane count, with NaN and
    /// ±inf among the inputs. The test prints the arms it checked and
    /// those this CPU lacks.
    #[test]
    fn every_kernel_arm_matches_the_scalar_loops_bitwise() {
        let (arms, skipped) = runnable_arms();
        let checked: Vec<&str> = arms.iter().map(|&(name, _)| name).collect();
        println!("kernel arms checked: {checked:?}; skipped on this CPU: {skipped:?}");

        for (case, (in_ch, out_ch, kernel)) in [(1, 1, 1), (1, 5, 3), (2, 4, 2), (3, 9, 3)]
            .into_iter()
            .enumerate()
        {
            for t_out in [1, 4, 15, 16, 17, 63, 64, 65, 130] {
                let seed = (case * 1000 + t_out) as u64;
                let t_in = t_out + kernel - 1;
                let ick = in_ch * kernel;
                let w = noise(out_ch * ick, seed, false);
                let bias = noise(out_ch, seed + 1, false);
                let input = noise(in_ch * t_in, seed + 2, true);
                let (wq, xq) = (to_i8(&w), to_i8(&noise(in_ch * t_in, seed + 3, false)));
                let mut want = vec![0.0f32; out_ch * t_out];
                let mut want_q = vec![0.0f32; out_ch * t_out];
                for o in 0..out_ch {
                    for t in 0..t_out {
                        let (mut acc, mut acc_q) = (bias[o], 0i32);
                        for c in 0..in_ch {
                            for k in 0..kernel {
                                let (wi, xi) = (o * ick + c * kernel + k, c * t_in + t + k);
                                acc += w[wi] * input[xi];
                                acc_q += i32::from(wq[wi]) * i32::from(xq[xi]);
                            }
                        }
                        want[o * t_out + t] = acc;
                        want_q[o * t_out + t] = acc_q as f32 * 0.37 + bias[o];
                    }
                }
                let shape = format!("{in_ch}x{out_ch}x{kernel}, t_out {t_out}");
                for &(arm, lanes) in &arms {
                    let mut out = vec![f32::MAX; out_ch * t_out];
                    lanes.run(ConvF32 {
                        w: &w,
                        bias: &bias,
                        input: &input,
                        in_ch,
                        out_ch,
                        kernel,
                        t_in,
                        out: &mut out,
                    });
                    assert_eq!(canonical(&out), canonical(&want), "{arm} f32 conv {shape}");
                    lanes.run(ConvI8 {
                        w: &wq,
                        bias: &bias,
                        input: &xq,
                        in_ch,
                        out_ch,
                        kernel,
                        t_in,
                        scale: 0.37,
                        out: &mut out,
                    });
                    assert_eq!(
                        canonical(&out),
                        canonical(&want_q),
                        "{arm} int8 conv {shape}"
                    );
                }
            }
        }

        for m in [1, 5, 19] {
            for n in [1, 7, 16, 63, 64, 65, 128, 131] {
                let seed = (m * 1000 + n) as u64;
                let a = to_i8(&noise(m * n, seed, false));
                let x = to_i8(&noise(m, seed + 1, false));
                let want: Vec<f32> = (0..n)
                    .map(|j| {
                        let dot: i32 = (0..m)
                            .map(|i| i32::from(a[i * n + j]) * i32::from(x[i]))
                            .sum();
                        dot as f32 * 0.013
                    })
                    .collect();
                for &(arm, lanes) in &arms {
                    let mut y = vec![f32::MAX; n];
                    lanes.run(GemvTI8 {
                        a: &a,
                        m,
                        n,
                        x: &x,
                        scale: 0.013,
                        y: &mut y,
                    });
                    assert_eq!(canonical(&y), canonical(&want), "{arm} gemv_t_i8 {m}x{n}");
                }
            }
        }

        for len in (0..=40).chain([63, 64, 65, 255, 1159]) {
            let plain = noise(len, len as u64 + 77, false);
            let specials = noise(len, len as u64 + 77, true);
            // NaN among finite values, where the scale stays finite.
            let nan: Vec<f32> = specials
                .iter()
                .map(|&v| if v.is_infinite() { 2.5 } else { v })
                .collect();
            for (kind, x) in [("plain", plain), ("NaN/inf", specials), ("NaN", nan)] {
                // Scalar reference: one running max-abs in element order,
                // `round` and the saturating cast per element.
                let max_abs = x.iter().fold(0.0f32, |a, &b| a.max(b.abs()));
                let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
                let want: Vec<i8> = x
                    .iter()
                    .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8)
                    .collect();
                for &(arm, lanes) in &arms {
                    let mut out = vec![i8::MIN; len];
                    let got = lanes.run(crate::quant::QuantizeActivations {
                        x: &x,
                        out: &mut out,
                    });
                    let case = format!("{arm} quantizer, {len} {kind} values");
                    assert_eq!(got.to_bits(), scale.to_bits(), "{case}");
                    assert_eq!(out, want, "{case}");
                }
            }
        }
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
