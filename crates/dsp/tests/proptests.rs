//! Property-based tests for the DSP kernels.

use dsp::fft::{fft_inplace, ifft_inplace, Complex, FftPlan};
use dsp::stats::{mean, min_max, variance};
use dsp::window::hann;
use dsp::{rms, zero_crossing_rate, Frames, MelFilterBank};
use proptest::prelude::*;

/// Textbook O(n²) DFT — the oracle the fast transforms are checked against.
fn naive_dft(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::new(0.0, 0.0);
            for (t, x) in input.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (k as f64) * (t as f64) / n as f64;
                let (re, im) = (ang.cos() as f32, ang.sin() as f32);
                acc.re += x.re * re - x.im * im;
                acc.im += x.re * im + x.im * re;
            }
            acc
        })
        .collect()
}

/// Runs `plan` over a real signal: the split complex spectrum and the
/// magnitudes.
fn run_plan(plan: &FftPlan, signal: &[f32]) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (mut re, mut im, mut mag) = (Vec::new(), Vec::new(), Vec::new());
    plan.rfft_magnitude_into(signal, None, &mut re, &mut im, &mut mag)
        .unwrap();
    (re, im, mag)
}

fn signal_strategy(max_pow: u32) -> impl Strategy<Value = Vec<f32>> {
    (1u32..=max_pow)
        .prop_flat_map(|p| prop::collection::vec(-1.0f32..1.0, 1usize << p..=1usize << p))
}

proptest! {
    /// `ifft(fft(x)) == x` for any power-of-two real signal.
    #[test]
    fn fft_round_trip(signal in signal_strategy(9)) {
        let orig: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
        let mut buf = orig.clone();
        fft_inplace(&mut buf).unwrap();
        ifft_inplace(&mut buf).unwrap();
        for (a, b) in orig.iter().zip(&buf) {
            prop_assert!((a.re - b.re).abs() < 1e-3, "{} vs {}", a.re, b.re);
            prop_assert!(b.im.abs() < 1e-3);
        }
    }

    /// Parseval: time-domain energy equals frequency-domain energy / N.
    #[test]
    fn fft_preserves_energy(signal in signal_strategy(8)) {
        let n = signal.len() as f32;
        let te: f32 = signal.iter().map(|x| x * x).sum();
        let mut buf: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
        fft_inplace(&mut buf).unwrap();
        let fe: f32 = buf.iter().map(|c| c.abs() * c.abs()).sum::<f32>() / n;
        prop_assert!((te - fe).abs() < 1e-2 * (1.0 + te), "{te} vs {fe}");
    }

    /// A precomputed plan produces the same spectrum as the ad-hoc
    /// `fft_inplace` (within accumulation tolerance) for every
    /// power-of-two size, and both match the naive O(n²) DFT oracle; the
    /// recurrence plan reproduces `fft_inplace` bit for bit.
    #[test]
    fn fft_plan_matches_fft_inplace_and_dft_oracle(signal in signal_strategy(7)) {
        let input: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
        let (re, im, mag) = run_plan(&FftPlan::new(input.len()).unwrap(), &signal);
        let mut adhoc = input.clone();
        fft_inplace(&mut adhoc).unwrap();
        let oracle = naive_dft(&input);
        let tol = 1e-3 * input.len() as f32;
        for (k, (a, o)) in adhoc.iter().zip(&oracle).enumerate() {
            prop_assert!((re[k] - a.re).abs() < tol, "plan {} vs inplace {}", re[k], a.re);
            prop_assert!((im[k] - a.im).abs() < tol, "plan {} vs inplace {}", im[k], a.im);
            prop_assert!((re[k] - o.re).abs() < tol, "plan {} vs dft {}", re[k], o.re);
            prop_assert!((im[k] - o.im).abs() < tol, "plan {} vs dft {}", im[k], o.im);
        }
        prop_assert_eq!(mag.len(), input.len() / 2 + 1);
        for (m, a) in mag.iter().zip(&adhoc) {
            prop_assert!((m - a.abs()).abs() < tol, "plan |X| {} vs inplace {}", m, a.abs());
        }

        let (re, im, _) = run_plan(&FftPlan::recurrence(input.len()).unwrap(), &signal);
        for (k, a) in adhoc.iter().enumerate() {
            prop_assert_eq!((re[k].to_bits(), im[k].to_bits()), (a.re.to_bits(), a.im.to_bits()));
        }
    }

    /// A plan is reusable: transforming the same input twice through one
    /// plan and one set of buffers is bit-for-bit deterministic.
    #[test]
    fn fft_plan_is_deterministic_across_calls(signal in signal_strategy(6)) {
        let plan = FftPlan::new(signal.len()).unwrap();
        let (mut re, mut im, mut mag) = (Vec::new(), Vec::new(), Vec::new());
        plan.rfft_magnitude_into(&signal, None, &mut re, &mut im, &mut mag).unwrap();
        let first: Vec<u32> = re.iter().chain(&im).chain(&mag).map(|x| x.to_bits()).collect();
        plan.rfft_magnitude_into(&signal, None, &mut re, &mut im, &mut mag).unwrap();
        let second: Vec<u32> = re.iter().chain(&im).chain(&mag).map(|x| x.to_bits()).collect();
        prop_assert_eq!(first, second);
    }

    /// ZCR is always in [0, 1].
    #[test]
    fn zcr_bounded(signal in prop::collection::vec(-10.0f32..10.0, 2..512)) {
        let z = zero_crossing_rate(&signal).unwrap();
        prop_assert!((0.0..=1.0).contains(&z));
    }

    /// RMS is nonnegative and bounded by the peak magnitude.
    #[test]
    fn rms_bounded_by_peak(signal in prop::collection::vec(-10.0f32..10.0, 1..512)) {
        let r = rms(&signal).unwrap();
        let peak = signal.iter().fold(0.0f32, |a, &b| a.max(b.abs()));
        prop_assert!(r >= 0.0);
        prop_assert!(r <= peak + 1e-4);
    }

    /// Frame iterator yields exactly `(len - frame_len) / hop + 1` frames
    /// of `frame_len` (none when the signal is shorter than a frame).
    #[test]
    fn frames_consistent(
        signal in prop::collection::vec(0.0f32..1.0, 0..256),
        frame_len in 1usize..32,
        hop in 1usize..16,
    ) {
        let frames = Frames::new(&signal, frame_len, hop).unwrap();
        let expected = if signal.len() < frame_len {
            0
        } else {
            (signal.len() - frame_len) / hop + 1
        };
        let collected: Vec<_> = frames.collect();
        prop_assert_eq!(collected.len(), expected);
        prop_assert!(collected.iter().all(|f| f.len() == frame_len));
    }

    /// Mel filterbank output is nonnegative for nonnegative spectra and
    /// scales linearly with the input.
    #[test]
    fn mel_filterbank_linear(scale in 0.1f32..10.0) {
        let bank = MelFilterBank::new(16_000.0, 256, 20).unwrap();
        let spectrum: Vec<f32> = (0..129).map(|i| (i % 13) as f32 * 0.1).collect();
        let scaled: Vec<f32> = spectrum.iter().map(|&x| x * scale).collect();
        let e1 = bank.apply(&spectrum).unwrap();
        let e2 = bank.apply(&scaled).unwrap();
        for (a, b) in e1.iter().zip(&e2) {
            prop_assert!((a * scale - b).abs() < 1e-3 * (1.0 + b.abs()));
        }
    }

    /// Mean lies between min and max; variance is nonnegative.
    #[test]
    fn moments_sane(xs in prop::collection::vec(-50.0f32..50.0, 1..200)) {
        let m = mean(&xs).unwrap();
        let (lo, hi) = min_max(&xs).unwrap();
        prop_assert!(m >= lo - 1e-4 && m <= hi + 1e-4);
        prop_assert!(variance(&xs).unwrap() >= -1e-6);
    }

    /// Hann coefficients stay in [0, 1], so windowing never increases a
    /// frame's peak magnitude.
    #[test]
    fn window_attenuates(len in 2usize..256) {
        prop_assert!(hann(len).iter().all(|&c| (-1e-6..=1.0 + 1e-6).contains(&c)));
    }
}
