//! Radix-2 decimation-in-time fast Fourier transform.
//!
//! The affect classifier front end needs magnitude spectra for the mel
//! filterbank ([`crate::mel`]) and spectral features ([`crate::features`]),
//! two transforms per analysis frame, so [`FftPlan`] is one of the feature
//! path's hot kernels. It fuses the bit-reversal permutation with the first
//! two radix-2 stages, then runs every later stage and the magnitudes as
//! wide as the CPU allows: 16 lanes in an AVX-512F arm where the CPU has
//! it, the SSE2/NEON baseline's four elsewhere, and no libm call. Every arm
//! keeps the bits. [`fft_inplace`], [`rfft_magnitude`] and [`Complex::abs`]
//! stay the plain forms it is checked against. The crate stays free of
//! external numeric dependencies.

use crate::DspError;

/// A complex number with `f32` components.
///
/// Deliberately minimal: only the operations the FFT and its tests need.
///
/// # Example
///
/// ```
/// use dsp::Complex;
/// let a = Complex::new(1.0, 2.0);
/// let b = Complex::new(3.0, -1.0);
/// let c = a * b;
/// assert!((c.re - 5.0).abs() < 1e-6);
/// assert!((c.im - 5.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f32,
    /// Imaginary part.
    pub im: f32,
}

impl Complex {
    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub fn new(re: f32, im: f32) -> Self {
        Self { re, im }
    }

    /// The additive identity.
    #[inline]
    pub fn zero() -> Self {
        Self { re: 0.0, im: 0.0 }
    }

    /// Magnitude (absolute value).
    #[inline]
    pub fn abs(self) -> f32 {
        self.re.hypot(self.im)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;

    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;

    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;

    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl From<f32> for Complex {
    fn from(re: f32) -> Self {
        Self::new(re, 0.0)
    }
}

/// Returns `true` when `n` is a power of two (and non-zero).
#[inline]
fn is_pow2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Butterflies per group of each radix-2 stage of an `n`-point transform:
/// `1, 2, 4, …, n / 2`.
fn stage_halves(n: usize) -> impl DoubleEndedIterator<Item = usize> {
    (0..n.trailing_zeros()).map(|s| 1 << s)
}

/// In-place forward FFT of a power-of-two-length buffer.
///
/// Uses the iterative radix-2 decimation-in-time algorithm with bit-reversal
/// permutation. The transform is unnormalized: `ifft(fft(x)) == x` because
/// [`ifft_inplace`] applies the `1/N` factor.
///
/// # Errors
///
/// Returns [`DspError::NonPowerOfTwoFft`] when `buf.len()` is not a power of
/// two, and [`DspError::EmptyInput`] when it is empty.
///
/// # Example
///
/// ```
/// use dsp::{fft_inplace, Complex};
/// # fn main() -> Result<(), dsp::DspError> {
/// let mut buf = vec![Complex::new(1.0, 0.0); 8];
/// fft_inplace(&mut buf)?;
/// // DC bin holds the sum, all other bins are zero for a constant signal.
/// assert!((buf[0].re - 8.0).abs() < 1e-5);
/// assert!(buf[1].abs() < 1e-5);
/// # Ok(())
/// # }
/// ```
pub fn fft_inplace(buf: &mut [Complex]) -> Result<(), DspError> {
    let n = buf.len();
    if n == 0 {
        return Err(DspError::EmptyInput);
    }
    if !is_pow2(n) {
        return Err(DspError::NonPowerOfTwoFft { len: n });
    }
    if n == 1 {
        return Ok(());
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            buf.swap(i, j);
        }
    }

    // Butterfly passes.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f32::consts::PI / len as f32;
        let wlen = Complex::new(ang.cos(), ang.sin());
        for chunk in buf.chunks_mut(len) {
            let mut w = Complex::new(1.0, 0.0);
            let half = len / 2;
            for k in 0..half {
                let u = chunk[k];
                let v = chunk[k + half] * w;
                chunk[k] = u + v;
                chunk[k + half] = u - v;
                w = w * wlen;
            }
        }
        len <<= 1;
    }
    Ok(())
}

/// A precomputed FFT plan for one transform size, run over split
/// (structure-of-arrays) real and imaginary buffers.
///
/// [`fft_inplace`] recomputes the bit-reversal permutation and accumulates
/// its twiddle factors (`w = w * w_len`) on every call, so each butterfly
/// waits for the multiply that produces its twiddle. A plan computes the
/// permutation and the per-stage twiddles (`n - 1` of them) once. Its two
/// constructors differ only in the twiddle values:
///
/// * [`FftPlan::new`] evaluates every twiddle directly from `cos`/`sin`,
///   slightly *more* accurate than the accumulated product;
/// * [`FftPlan::recurrence`] stores exactly the products `fft_inplace`
///   accumulates, so its transform is bit-for-bit `fft_inplace`'s.
///
/// [`FftPlan::rfft_magnitude_into`] is the one transform. Its first pass
/// reads a real, optionally windowed frame in natural order, runs the first
/// two radix-2 stages on it, 32 samples per step, and writes the results to
/// separate real and imaginary arrays in bit-reversed order. The later
/// stages and the magnitudes run over those arrays, and with the split
/// slices' lengths known the compiler drops the bounds checks and
/// vectorizes every stage (four or more butterflies per group). They are
/// one function body compiled twice: at the baseline (SSE2 on x86-64, NEON
/// on aarch64) and with AVX-512F, whose vectors hold 16 butterflies' parts.
/// A plan of 32 or more points picks the AVX-512F arm at construction when
/// the CPU has the feature; the first pass stays at the baseline, where it
/// runs faster. Each butterfly performs the f32 operations of `Complex`'s
/// `Mul`, `Add` and `Sub`, on the same operands in the same order, and
/// rustc never contracts a multiply and an add into an FMA, so in either
/// arm equal twiddles give equal bits. The caller owns the buffers, so the
/// plan is `&self` and one plan can serve any number of callers.
///
/// # Example
///
/// ```
/// use dsp::{fft_inplace, rfft_magnitude, Complex, FftPlan};
/// # fn main() -> Result<(), dsp::DspError> {
/// let signal: Vec<f32> = (0..64).map(|i| (i % 7) as f32).collect();
/// let mut expected: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
/// fft_inplace(&mut expected)?;
///
/// let plan = FftPlan::recurrence(64)?;
/// let (mut re, mut im, mut mag) = (Vec::new(), Vec::new(), Vec::new());
/// plan.rfft_magnitude_into(&signal, None, &mut re, &mut im, &mut mag)?;
/// for (k, c) in expected.iter().enumerate() {
///     assert_eq!((re[k].to_bits(), im[k].to_bits()), (c.re.to_bits(), c.im.to_bits()));
/// }
/// assert_eq!(mag, rfft_magnitude(&signal)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Bit-reversed index of each position.
    rev: Vec<usize>,
    /// Real parts of the twiddles for every butterfly stage, concatenated:
    /// `len/2` entries for each stage `len = 2, 4, …, n` (`n - 1` in total).
    tw_re: Vec<f32>,
    /// Imaginary parts, laid out as `tw_re`.
    tw_im: Vec<f32>,
    /// The arm the later stages and the magnitudes run in.
    lanes: StageLanes,
}

impl FftPlan {
    /// Builds a plan for transforms of `n` points whose twiddles are
    /// evaluated directly: `e^{-2πik/len}` from one `cos`/`sin` each.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::NonPowerOfTwoFft`] when `n` is not a power of
    /// two, and [`DspError::EmptyInput`] when it is zero.
    pub fn new(n: usize) -> Result<Self, DspError> {
        Self::with_twiddles(n, |tw_re, tw_im| {
            for half in stage_halves(n) {
                for k in 0..half {
                    let ang = -2.0 * std::f32::consts::PI * k as f32 / (2 * half) as f32;
                    tw_re[half - 1 + k] = ang.cos();
                    tw_im[half - 1 + k] = ang.sin();
                }
            }
        })
    }

    /// Builds a plan for transforms of `n` points whose twiddles are the
    /// ones [`fft_inplace`] accumulates: each stage starts at `(1, 0)` and
    /// multiplies by `w_len = e^{-2πi/len}` once per butterfly, so the plan
    /// transforms bit-for-bit like `fft_inplace`. Only one `cos`/`sin` pair
    /// is evaluated per stage.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FftPlan::new`].
    pub fn recurrence(n: usize) -> Result<Self, DspError> {
        Self::with_twiddles(n, |tw_re, tw_im| {
            // (half, w, w_len) of every stage, largest first. The stages'
            // products are independent, so advancing them in lockstep lets
            // their multiplies overlap instead of forming one serial chain.
            let mut chains: Vec<(usize, Complex, Complex)> = stage_halves(n)
                .rev()
                .map(|half| {
                    let ang = -2.0 * std::f32::consts::PI / (2 * half) as f32;
                    let wlen = Complex::new(ang.cos(), ang.sin());
                    (half, Complex::new(1.0, 0.0), wlen)
                })
                .collect();
            for k in 0..n / 2 {
                for (half, w, wlen) in chains.iter_mut().take_while(|(half, ..)| k < *half) {
                    tw_re[*half - 1 + k] = w.re;
                    tw_im[*half - 1 + k] = w.im;
                    *w = *w * *wlen;
                }
            }
        })
    }

    /// Validates `n`, builds the permutation and lets `fill` write the
    /// twiddle tables: stage `len` keeps its `len / 2` twiddles from offset
    /// `len / 2 - 1`, so the stages `len = 2, 4, …, n` fill `n - 1` slots.
    fn with_twiddles(
        n: usize,
        fill: impl FnOnce(&mut [f32], &mut [f32]),
    ) -> Result<Self, DspError> {
        if n == 0 {
            return Err(DspError::EmptyInput);
        }
        if !is_pow2(n) {
            return Err(DspError::NonPowerOfTwoFft { len: n });
        }
        // rev(i) is rev(i / 2) shifted down one bit, with i's low bit on top.
        let mut rev = vec![0; n];
        for i in 1..n {
            rev[i] = rev[i / 2] / 2 + (i % 2) * (n / 2);
        }
        let mut tw_re = vec![0.0; n - 1];
        let mut tw_im = vec![0.0; n - 1];
        fill(&mut tw_re, &mut tw_im);
        Ok(Self {
            n,
            rev,
            tw_re,
            tw_im,
            // The first pass leaves small plans all their stages, and
            // those keep the baseline loop.
            lanes: if n >= 4 * LANES {
                StageLanes::detect()
            } else {
                StageLanes::Baseline
            },
        })
    }

    /// The transform size this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`: plans cannot be built for zero points.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Forward FFT of a real frame, multiplied sample by sample by `window`
    /// when one is given, and its magnitude spectrum (the first `n/2 + 1`
    /// bins) in `out`. Unnormalized, exactly like [`fft_inplace`].
    ///
    /// From `n = 32` up, one pass loads the frame (times the window) and runs
    /// the stages `len = 2` and `len = 4` on it. The other stages and the
    /// magnitudes follow in the plan's arm (see [`FftPlan`]). A magnitude
    /// is `sqrt(r² + i²)` evaluated in f64 and rounded to f32: for finite
    /// parts that is exactly what glibc's `hypotf` (2.35 and later)
    /// computes, so it matches [`Complex::abs`] there bit for bit without a
    /// libm call. A bin with a ±inf or NaN part takes [`Complex::abs`]
    /// itself; the bins are walked for it only when one scan of the
    /// magnitudes finds a non-finite one.
    ///
    /// `re` and `im` are the caller's scratch: on return they hold all `n`
    /// bins of the complex spectrum, and `out` holds `n/2 + 1` magnitudes.
    /// Once the three have capacity, the call allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] when `frame.len()` or
    /// `window.len()` differs from the planned size.
    pub fn rfft_magnitude_into(
        &self,
        frame: &[f32],
        window: Option<&[f32]>,
        re: &mut Vec<f32>,
        im: &mut Vec<f32>,
        out: &mut Vec<f32>,
    ) -> Result<(), DspError> {
        let n = self.n;
        let mismatch = |actual| DspError::LengthMismatch {
            expected: n,
            actual,
        };
        if frame.len() != n {
            return Err(mismatch(frame.len()));
        }
        if let Some(coeffs) = window.filter(|coeffs| coeffs.len() != n) {
            return Err(mismatch(coeffs.len()));
        }
        re.resize(n, 0.0);
        im.resize(n, 0.0);
        let first_half = if n >= 4 * LANES {
            self.first_two_stages(frame, window, re, im);
            4
        } else {
            match window {
                Some(coeffs) => {
                    for ((&x, &w), &j) in frame.iter().zip(coeffs).zip(&self.rev) {
                        re[j] = x * w;
                    }
                }
                None => {
                    for (&x, &j) in frame.iter().zip(&self.rev) {
                        re[j] = x;
                    }
                }
            }
            im.fill(0.0);
            1
        };
        out.resize(n / 2 + 1, 0.0);
        let tw = (&self.tw_re[..], &self.tw_im[..]);
        let finite = self
            .lanes
            .stages_and_magnitudes(tw, re, im, first_half, out);
        if !finite {
            // Only a ±inf or NaN part gives a non-finite magnitude, and
            // there `hypot` differs: |(inf, NaN)| is +inf, where the sum of
            // squares is NaN.
            for ((m, &r), &i) in out.iter_mut().zip(re.iter()).zip(im.iter()) {
                if !m.is_finite() {
                    *m = Complex::new(r, i).abs();
                }
            }
        }
        Ok(())
    }

    /// The bit-reversal permutation and the stages `len = 2` and `len = 4`
    /// in one pass over the frame in natural order, [`LANES`] consecutive
    /// `k` per step (`n >= 4 * LANES`).
    ///
    /// For `k < n / 4`, `rev[k]` is a multiple of four, and the four
    /// bit-reversed positions from it hold samples `k`, `k + n/2`, `k + n/4`
    /// and `k + 3n/4`. So each step loads `LANES` consecutive samples from
    /// each of the frame's quarters, runs both stages on them lane by lane,
    /// and writes each lane's four results to `rev[k] ..`. The inputs'
    /// imaginary parts are the literal `+0.0` and go through every
    /// operation, so signed zeros and `inf * 0` come out as in the stage
    /// loop.
    fn first_two_stages(
        &self,
        frame: &[f32],
        window: Option<&[f32]>,
        re: &mut [f32],
        im: &mut [f32],
    ) {
        let q = self.n / 4;
        // Stage len = 2 uses twiddle slot 0, stage len = 4 slots 1 and 2.
        let (tr, ti) = (&self.tw_re, &self.tw_im);
        let (w0, w1, w2) = ((tr[0], ti[0]), (tr[1], ti[1]), (tr[2], ti[2]));
        let (re, _) = re.as_chunks_mut::<4>();
        let (im, _) = im.as_chunks_mut::<4>();
        for (k0, revs) in (0..q).step_by(LANES).zip(self.rev[..q].chunks_exact(LANES)) {
            // Samples k, k + n/2, k + n/4 and k + 3n/4.
            let x: [[f32; LANES]; 4] = [0, 2, 1, 3].map(|quarter| {
                let at = quarter * q + k0;
                let samples = &frame[at..at + LANES];
                match window {
                    Some(coeffs) => {
                        let coeffs = &coeffs[at..at + LANES];
                        std::array::from_fn(|l| samples[l] * coeffs[l])
                    }
                    None => std::array::from_fn(|l| samples[l]),
                }
            });
            let (mut yr, mut yi) = ([[0.0f32; LANES]; 4], [[0.0f32; LANES]; 4]);
            for l in 0..LANES {
                let (r0, i0, r1, i1) = butterfly((x[0][l], 0.0), (x[1][l], 0.0), w0);
                let (r2, i2, r3, i3) = butterfly((x[2][l], 0.0), (x[3][l], 0.0), w0);
                let (r0, i0, r2, i2) = butterfly((r0, i0), (r2, i2), w1);
                let (r1, i1, r3, i3) = butterfly((r1, i1), (r3, i3), w2);
                (yr[0][l], yr[1][l], yr[2][l], yr[3][l]) = (r0, r1, r2, r3);
                (yi[0][l], yi[1][l], yi[2][l], yi[3][l]) = (i0, i1, i2, i3);
            }
            for (l, &at) in revs.iter().enumerate() {
                re[at / 4] = [yr[0][l], yr[1][l], yr[2][l], yr[3][l]];
                im[at / 4] = [yi[0][l], yi[1][l], yi[2][l], yi[3][l]];
            }
        }
    }
}

/// Consecutive `k` per step of [`FftPlan`]'s first pass. Plans of fewer
/// than `4 * LANES` points keep the bit-reversal permutation and run every
/// stage in the baseline stage loop.
const LANES: usize = 8;

/// One radix-2 butterfly on split parts: `t = v * w`, then `u + t` and
/// `u - t`, with the f32 operations of `Complex`'s `Mul`, `Add` and `Sub`
/// in their order (no FMA), so equal inputs give equal bits.
#[inline(always)]
fn butterfly(
    (ur, ui): (f32, f32),
    (vr, vi): (f32, f32),
    (c, d): (f32, f32),
) -> (f32, f32, f32, f32) {
    let tr = vr * c - vi * d;
    let ti = vr * d + vi * c;
    (ur + tr, ui + ti, ur - tr, ui - ti)
}

/// The arms of [`FftPlan`]'s later stages and magnitudes. A plan picks its
/// arm once, at construction, so an `Avx512` value exists only where
/// [`StageLanes::detect`] saw the target feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StageLanes {
    /// The SSE2/NEON baseline: the only arm on aarch64, on x86 CPUs without
    /// AVX-512F and for plans of fewer than `4 * LANES` points.
    Baseline,
    /// Compiled with AVX-512F.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl StageLanes {
    /// The widest arm this CPU runs. There is no AVX2 arm: compiled with
    /// AVX2, the stage and magnitude loops measured no faster than the
    /// baseline.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                return Self::Avx512;
            }
        }
        Self::Baseline
    }

    /// Runs this arm: see [`stages_and_magnitudes`].
    fn stages_and_magnitudes(
        self,
        tw: (&[f32], &[f32]),
        re: &mut [f32],
        im: &mut [f32],
        half: usize,
        out: &mut [f32],
    ) -> bool {
        match self {
            Self::Baseline => stages_and_magnitudes(tw, re, im, half, out),
            // SAFETY: an `Avx512` value is made only after
            // `is_x86_feature_detected!("avx512f")` held on this CPU: in
            // `detect`, and in the arm oracle test.
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => unsafe { stages_and_magnitudes_avx512(tw, re, im, half, out) },
        }
    }
}

/// [`stages_and_magnitudes`] compiled with AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn stages_and_magnitudes_avx512(
    tw: (&[f32], &[f32]),
    re: &mut [f32],
    im: &mut [f32],
    half: usize,
    out: &mut [f32],
) -> bool {
    stages_and_magnitudes(tw, re, im, half, out)
}

/// The radix-2 stages from `len = 2 * half` up over bit-reversed `re`/`im`
/// (all `n` bins, twiddles laid out as [`FftPlan`]'s), then the magnitude of
/// each of the first `out.len()` bins: `sqrt(r² + i²)` in f64, rounded to
/// f32. Returns whether every magnitude is finite.
#[inline(always)]
fn stages_and_magnitudes(
    (tw_re, tw_im): (&[f32], &[f32]),
    re: &mut [f32],
    im: &mut [f32],
    mut half: usize,
    out: &mut [f32],
) -> bool {
    let n = re.len();
    // Stage `len` keeps its twiddles from offset `half - 1`. A running
    // offset rather than `stage_halves`: that form spilled in each group's
    // prologue.
    let mut offset = half - 1;
    while half < n {
        let len = 2 * half;
        let wr = &tw_re[offset..offset + half];
        let wi = &tw_im[offset..offset + half];
        for (re, im) in re.chunks_exact_mut(len).zip(im.chunks_exact_mut(len)) {
            let (ur, vr) = re.split_at_mut(half);
            let (ui, vi) = im.split_at_mut(half);
            let (vr, vi, ui) = (&mut vr[..half], &mut vi[..half], &mut ui[..half]);
            for k in 0..half {
                (ur[k], ui[k], vr[k], vi[k]) =
                    butterfly((ur[k], ui[k]), (vr[k], vi[k]), (wr[k], wi[k]));
            }
        }
        offset += half;
        half = len;
    }
    let bins = out.len();
    let (re, im) = (&re[..bins], &im[..bins]);
    for k in 0..bins {
        let (r, i) = (f64::from(re[k]), f64::from(im[k]));
        out[k] = (r * r + i * i).sqrt() as f32;
    }
    out.iter().fold(true, |finite, m| finite & m.is_finite())
}

/// In-place inverse FFT, normalized by `1/N`.
///
/// # Errors
///
/// Same conditions as [`fft_inplace`].
///
/// # Example
///
/// ```
/// use dsp::{fft_inplace, ifft_inplace, Complex};
/// # fn main() -> Result<(), dsp::DspError> {
/// let orig: Vec<Complex> = (0..16).map(|i| Complex::new(i as f32, 0.0)).collect();
/// let mut buf = orig.clone();
/// fft_inplace(&mut buf)?;
/// ifft_inplace(&mut buf)?;
/// for (a, b) in orig.iter().zip(&buf) {
///     assert!((a.re - b.re).abs() < 1e-3);
/// }
/// # Ok(())
/// # }
/// ```
pub fn ifft_inplace(buf: &mut [Complex]) -> Result<(), DspError> {
    for v in buf.iter_mut() {
        *v = v.conj();
    }
    fft_inplace(buf)?;
    let scale = 1.0 / buf.len() as f32;
    for v in buf.iter_mut() {
        *v = Complex::new(v.re * scale, -v.im * scale);
    }
    Ok(())
}

/// Magnitude spectrum of a real signal: `|FFT(x)|` for the first `N/2 + 1`
/// bins (the rest are conjugate-symmetric and carry no extra information).
///
/// # Errors
///
/// Returns [`DspError::NonPowerOfTwoFft`] when `signal.len()` is not a power
/// of two, and [`DspError::EmptyInput`] when it is empty.
///
/// # Example
///
/// ```
/// use dsp::rfft_magnitude;
/// # fn main() -> Result<(), dsp::DspError> {
/// // A pure cosine at bin 4 of a 64-point transform.
/// let signal: Vec<f32> = (0..64)
///     .map(|i| (2.0 * std::f32::consts::PI * 4.0 * i as f32 / 64.0).cos())
///     .collect();
/// let mag = rfft_magnitude(&signal)?;
/// assert_eq!(mag.len(), 33);
/// let peak = mag
///     .iter()
///     .enumerate()
///     .max_by(|a, b| a.1.total_cmp(b.1))
///     .map(|(i, _)| i);
/// assert_eq!(peak, Some(4));
/// # Ok(())
/// # }
/// ```
pub fn rfft_magnitude(signal: &[f32]) -> Result<Vec<f32>, DspError> {
    let mut buf: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
    fft_inplace(&mut buf)?;
    Ok(buf[..signal.len() / 2 + 1]
        .iter()
        .map(|c| c.abs())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn rejects_non_power_of_two() {
        let mut buf = vec![Complex::zero(); 12];
        assert_eq!(
            fft_inplace(&mut buf),
            Err(DspError::NonPowerOfTwoFft { len: 12 })
        );
    }

    #[test]
    fn rejects_empty() {
        let mut buf: Vec<Complex> = vec![];
        assert_eq!(fft_inplace(&mut buf), Err(DspError::EmptyInput));
    }

    #[test]
    fn length_one_is_identity() {
        let mut buf = vec![Complex::new(3.5, -1.0)];
        fft_inplace(&mut buf).unwrap();
        assert_eq!(buf[0], Complex::new(3.5, -1.0));
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut buf = vec![Complex::zero(); 32];
        buf[0] = Complex::new(1.0, 0.0);
        fft_inplace(&mut buf).unwrap();
        for c in &buf {
            assert_close(c.abs(), 1.0, 1e-5);
        }
    }

    #[test]
    fn sine_concentrates_in_two_bins() {
        let n = 128;
        let k = 7;
        let signal: Vec<Complex> = (0..n)
            .map(|i| {
                Complex::new(
                    (2.0 * std::f32::consts::PI * k as f32 * i as f32 / n as f32).sin(),
                    0.0,
                )
            })
            .collect();
        let mut buf = signal;
        fft_inplace(&mut buf).unwrap();
        assert_close(buf[k].abs(), n as f32 / 2.0, 1e-2);
        assert_close(buf[n - k].abs(), n as f32 / 2.0, 1e-2);
        // Everything else is near zero.
        for (i, c) in buf.iter().enumerate() {
            if i != k && i != n - k {
                assert!(c.abs() < 1e-2, "bin {i} = {}", c.abs());
            }
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 64;
        let signal: Vec<f32> = (0..n).map(|i| ((i * 37 % 17) as f32 - 8.0) / 8.0).collect();
        let time_energy: f32 = signal.iter().map(|x| x * x).sum();
        let mut buf: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
        fft_inplace(&mut buf).unwrap();
        let freq_energy: f32 = buf.iter().map(|c| c.abs() * c.abs()).sum::<f32>() / n as f32;
        assert_close(time_energy, freq_energy, 1e-2);
    }

    /// Runs `plan` over `signal`, returning the complex spectrum and the
    /// magnitudes.
    fn run_plan(
        plan: &FftPlan,
        signal: &[f32],
        window: Option<&[f32]>,
    ) -> (Vec<Complex>, Vec<f32>) {
        let (mut re, mut im, mut mag) = (Vec::new(), Vec::new(), Vec::new());
        plan.rfft_magnitude_into(signal, window, &mut re, &mut im, &mut mag)
            .unwrap();
        let spectrum = re
            .iter()
            .zip(&im)
            .map(|(&r, &i)| Complex::new(r, i))
            .collect();
        (spectrum, mag)
    }

    #[test]
    fn plan_matches_fft_inplace() {
        for n in [1usize, 2, 4, 8, 64, 256] {
            let signal: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
            let mut expected: Vec<Complex> = signal.iter().map(|&x| Complex::from(x)).collect();
            fft_inplace(&mut expected).unwrap();

            let plan = FftPlan::new(n).unwrap();
            assert_eq!(plan.len(), n);
            let (direct, _) = run_plan(&plan, &signal, None);
            let scale = (n as f32).max(1.0);
            for (x, y) in direct.iter().zip(&expected) {
                assert_close(x.re, y.re, 1e-3 * scale);
                assert_close(x.im, y.im, 1e-3 * scale);
            }

            // The recurrence table holds fft_inplace's own twiddles.
            let (exact, _) = run_plan(&FftPlan::recurrence(n).unwrap(), &signal, None);
            for (x, y) in exact.iter().zip(&expected) {
                assert_eq!(
                    (x.re.to_bits(), x.im.to_bits()),
                    (y.re.to_bits(), y.im.to_bits())
                );
            }
        }
    }

    #[test]
    fn plan_rejects_bad_sizes() {
        for build in [FftPlan::new, FftPlan::recurrence] {
            assert!(matches!(build(0), Err(DspError::EmptyInput)));
            assert!(matches!(
                build(12),
                Err(DspError::NonPowerOfTwoFft { len: 12 })
            ));
        }
        let plan = FftPlan::new(8).unwrap();
        let (mut re, mut im, mut out) = (Vec::new(), Vec::new(), Vec::new());
        let short = Err(DspError::LengthMismatch {
            expected: 8,
            actual: 4,
        });
        assert_eq!(
            plan.rfft_magnitude_into(&[0.0; 4], None, &mut re, &mut im, &mut out),
            short
        );
        assert_eq!(
            plan.rfft_magnitude_into(&[0.0; 8], Some(&[1.0; 4]), &mut re, &mut im, &mut out),
            short
        );
    }

    #[test]
    fn plan_rfft_matches_rfft_magnitude() {
        let n = 128;
        let signal: Vec<f32> = (0..n).map(|i| (i as f32 * 0.23).sin()).collect();
        let reference = rfft_magnitude(&signal).unwrap();
        let (_, direct) = run_plan(&FftPlan::new(n).unwrap(), &signal, None);
        assert_eq!(direct.len(), reference.len());
        for (a, b) in direct.iter().zip(&reference) {
            assert_close(*a, *b, 1e-2);
        }

        let plan = FftPlan::recurrence(n).unwrap();
        assert_eq!(run_plan(&plan, &signal, None).1, reference);
        // A window is the same as transforming the pre-windowed frame.
        let window = crate::window::hann(n);
        let windowed: Vec<f32> = signal.iter().zip(&window).map(|(x, w)| x * w).collect();
        assert_eq!(
            run_plan(&plan, &signal, Some(&window)).1,
            rfft_magnitude(&windowed).unwrap()
        );
    }

    /// One of [`FftPlan`]'s constructors.
    type Constructor = fn(usize) -> Result<FftPlan, DspError>;

    /// Every arm of the later stages and magnitudes this CPU runs, against
    /// the baseline arm by bits: both constructors, every length from 1 to
    /// 1024, with and without a Hann window, on random, tonal, silent, NaN,
    /// ±inf and subnormal frames. A plan under 32 points runs the arm from
    /// its first stage here, though a built one keeps the baseline. Rust
    /// leaves the payload of a NaN result unspecified, so NaNs compare as
    /// NaN; every other part and magnitude, the sign of zero included,
    /// compares by `to_bits`. The test prints the arms it checked and those
    /// this CPU lacks.
    #[test]
    fn every_fft_arm_matches_the_baseline_bitwise() {
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
        let mut arms: Vec<StageLanes> = Vec::new();
        let mut skipped: Vec<&str> = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                // The arm's SAFETY comment rests on this detection.
                arms.push(StageLanes::Avx512);
            } else {
                skipped.push("Avx512 (no AVX-512F)");
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        skipped.push("Avx512 (not x86-64)");
        println!(
            "FFT stage arms checked against Baseline: {arms:?}; skipped on this CPU: {skipped:?}"
        );

        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut noise = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        };
        let canonical = |v: &[f32]| -> Vec<u32> {
            v.iter()
                .map(|&x| f32::to_bits(if x.is_nan() { f32::NAN } else { x }))
                .collect()
        };
        for n in (0..=10).map(|bits| 1usize << bits) {
            let random: Vec<f32> = (0..n).map(|_| 4.0 * noise()).collect();
            let tonal: Vec<f32> = (0..n).map(|i| (0.37 * i as f32).sin()).collect();
            let silent = vec![0.0f32; n];
            let mut nan = random.clone();
            nan[n / 3] = f32::NAN;
            let mut inf = random.clone();
            inf[n / 2] = f32::INFINITY;
            inf[n - 1] = f32::NEG_INFINITY;
            // Below f32's smallest normal, 1.2e-38.
            let subnormal: Vec<f32> = random.iter().map(|x| x * 1e-39).collect();
            let hann = crate::window::hann(n);
            let frames = [
                ("random", &random),
                ("tonal", &tonal),
                ("silent", &silent),
                ("NaN", &nan),
                ("±inf", &inf),
                ("subnormal", &subnormal),
            ];
            let builds: [(&str, Constructor); 2] =
                [("new", FftPlan::new), ("recurrence", FftPlan::recurrence)];
            for (constructor, build) in builds {
                let baseline = FftPlan {
                    lanes: StageLanes::Baseline,
                    ..build(n).unwrap()
                };
                for ((kind, frame), window) in frames
                    .iter()
                    .flat_map(|frame| [(frame, None), (frame, Some(&hann[..]))])
                {
                    let spectrum = |plan: &FftPlan| {
                        let (mut re, mut im, mut mag) = (Vec::new(), Vec::new(), Vec::new());
                        plan.rfft_magnitude_into(frame, window, &mut re, &mut im, &mut mag)
                            .unwrap();
                        [canonical(&re), canonical(&im), canonical(&mag)]
                    };
                    let expected = spectrum(&baseline);
                    for &arm in &arms {
                        let plan = FftPlan {
                            lanes: arm,
                            ..baseline.clone()
                        };
                        assert_eq!(
                            spectrum(&plan),
                            expected,
                            "{arm:?}, {constructor}({n}), {kind} frame, window: {}",
                            window.is_some()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rfft_magnitude_len_is_half_plus_one() {
        let signal = vec![0.0f32; 256];
        assert_eq!(rfft_magnitude(&signal).unwrap().len(), 129);
    }

    #[test]
    fn linearity() {
        let n = 32;
        let a: Vec<Complex> = (0..n).map(|i| Complex::new((i % 5) as f32, 0.0)).collect();
        let b: Vec<Complex> = (0..n).map(|i| Complex::new((i % 3) as f32, 0.5)).collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();

        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fs = sum.clone();
        fft_inplace(&mut fa).unwrap();
        fft_inplace(&mut fb).unwrap();
        fft_inplace(&mut fs).unwrap();
        for i in 0..n {
            let expect = fa[i] + fb[i];
            assert_close(fs[i].re, expect.re, 1e-3);
            assert_close(fs[i].im, expect.im, 1e-3);
        }
    }
}
