//! Bit-exactness oracle for the classify kernels.
//!
//! The reference layers below keep the loops that the vectorized `nn`
//! kernels replaced: a gate-major LSTM (`[4H, F]` and `[4H, H]`) whose gate
//! products run one dot product per gate row (the row-major `gemv` step in
//! f32, `dot_i8` in int8), a convolution that gathers each output
//! position's `[in_ch × k]` window for one `dot_i8` per filter, and the
//! activation quantizer as the baseline build compiles it: one running
//! max-abs in element order and a libm `round` per element.
//!
//! Every family and precision through `AffectClassifier::classify_with` at
//! the runtime's shapes, random layer shapes with NaN and ±inf inputs, and
//! the gradients and Adam update of one training step of a two-layer LSTM
//! must equal them by `to_bits`, where any NaN matches any NaN.

use affectsys::biosignal::{synthesize_utterance, UtteranceParams};
use affectsys::core::classifier::{AffectClassifier, ClassifierKind, Decision, ModelConfig};
use affectsys::core::emotion::Emotion;
use affectsys::core::pipeline::{FeatureConfig, FeaturePipeline};
use affectsys::nn::init::{seeded_rng, xavier_uniform};
use affectsys::nn::kernels::dot_i8;
use affectsys::nn::layers::{Activation, Conv1d, Dense, Flatten, Layer, Lstm, MaxPool1d, Param};
use affectsys::nn::optim::Adam;
use affectsys::nn::quant::{quantize_activations_into, QuantizedTensor};
use affectsys::nn::{NnError, Precision, Scratch, Sequential, Shape, Tensor};

/// The activation quantizer as the baseline build compiles it.
fn ref_quantize(x: &[f32]) -> (Vec<i8>, f32) {
    let max_abs = x.iter().fold(0.0f32, |a, &b| a.max(b.abs()));
    let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
    let q = x
        .iter()
        .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8)
        .collect();
    (q, scale)
}

/// `A · x` for a row-major `[m, n]` matrix: one accumulator per row,
/// summed over the columns in ascending order.
fn ref_gemv(a: &[f32], m: usize, n: usize, x: &[f32]) -> Vec<f32> {
    (0..m)
        .map(|r| {
            let mut acc = 0.0f32;
            for (j, &xj) in x.iter().enumerate() {
                acc += a[r * n + j] * xj;
            }
            acc
        })
        .collect()
}

/// `Aᵀ · x` for a row-major `[m, n]` matrix: each output summed over the
/// rows in ascending order.
fn ref_gemv_t(a: &[f32], m: usize, n: usize, x: &[f32]) -> Vec<f32> {
    let mut y = vec![0.0f32; n];
    for (i, &xi) in x.iter().enumerate().take(m) {
        for (j, yj) in y.iter_mut().enumerate() {
            *yj += a[i * n + j] * xi;
        }
    }
    y
}

/// The `[cols, rows]` transpose of a row-major `[rows, cols]` matrix.
fn transpose(a: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    (0..cols)
        .flat_map(|c| (0..rows).map(move |r| a[r * cols + c]))
        .collect()
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// NaN payloads are unspecified, so any NaN matches any NaN; every other
/// value, the sign of zero included, compares by `to_bits`.
fn canonical(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|&x| if x.is_nan() { f32::NAN } else { x }.to_bits())
        .collect()
}

/// Deterministic values in `[-3, 3)`; with `specials`, a NaN, an infinity
/// of each sign and a zero of each sign sit among them.
fn noise(len: usize, seed: u64, specials: bool) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut v: Vec<f32> = (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 40) as f32 / (1u64 << 24) as f32 * 6.0 - 3.0
        })
        .collect();
    if specials && len > 0 {
        let marks = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
        for (i, x) in marks.into_iter().enumerate() {
            v[(i * 7 + seed as usize) % len] = x;
        }
    }
    v
}

fn inference_only() -> NnError {
    NnError::InvalidState("reference layer runs inference only")
}

/// Gate pre-activations and activations of one step, cached for BPTT.
#[derive(Debug)]
struct Step {
    x: Vec<f32>,
    h_prev: Vec<f32>,
    c_prev: Vec<f32>,
    i: Vec<f32>,
    f: Vec<f32>,
    g: Vec<f32>,
    o: Vec<f32>,
    tanh_c: Vec<f32>,
}

/// The gate-major LSTM: `wx` is `[4H, F]`, `wh` is `[4H, H]`, and every
/// gate row is one dot product.
#[derive(Debug)]
struct RefLstm {
    wx: Param,
    wh: Param,
    bias: Param,
    int8: Option<(QuantizedTensor, QuantizedTensor)>,
    input_dim: usize,
    hidden: usize,
    return_sequences: bool,
    steps: Vec<Step>,
}

impl RefLstm {
    /// The reference twin of a library layer: its input-major `[F, 4H]`
    /// and `[H, 4H]` matrices transposed back to gate-major.
    fn from_params(params: &[&Param], return_sequences: bool) -> Self {
        let (wx, wh, bias) = (&params[0].value, &params[1].value, &params[2].value);
        let (input_dim, hidden) = (wx.shape()[0], wx.shape()[1] / 4);
        let gate_major = |t: &Tensor, rows: usize| {
            let m = Tensor::from_vec(transpose(t.data(), rows, 4 * hidden), &[4 * hidden, rows]);
            Param::new(m.unwrap())
        };
        Self {
            wx: gate_major(wx, input_dim),
            wh: gate_major(wh, hidden),
            bias: Param::new(bias.clone()),
            int8: None,
            input_dim,
            hidden,
            return_sequences,
            steps: Vec::new(),
        }
    }

    fn run(&mut self, input: &[f32], t_len: usize) -> Vec<f32> {
        let (f_dim, h) = (self.input_dim, self.hidden);
        let mut h_prev = vec![0.0f32; h];
        let mut c_prev = vec![0.0f32; h];
        let mut seq = Vec::new();
        self.steps.clear();
        for t in 0..t_len {
            let x = &input[t * f_dim..(t + 1) * f_dim];
            let bias = self.bias.value.data();
            let z: Vec<f32> = match &self.int8 {
                None => {
                    let mut z = ref_gemv(self.wx.value.data(), 4 * h, f_dim, x);
                    let zh = ref_gemv(self.wh.value.data(), 4 * h, h, &h_prev);
                    for ((zi, &zhi), &bi) in z.iter_mut().zip(&zh).zip(bias) {
                        *zi += zhi + bi;
                    }
                    z
                }
                Some((qwx, qwh)) => {
                    let (qx, x_scale) = ref_quantize(x);
                    let (qh, h_scale) = ref_quantize(&h_prev);
                    let (cx, ch) = (qwx.scale() * x_scale, qwh.scale() * h_scale);
                    let (vx, vh) = (qwx.values(), qwh.values());
                    (0..4 * h)
                        .map(|r| {
                            let dot_x = dot_i8(&vx[r * f_dim..(r + 1) * f_dim], &qx);
                            let dot_h = dot_i8(&vh[r * h..(r + 1) * h], &qh);
                            dot_x as f32 * cx + dot_h as f32 * ch + bias[r]
                        })
                        .collect()
                }
            };
            let mut step = Step {
                x: x.to_vec(),
                h_prev: h_prev.clone(),
                c_prev: c_prev.clone(),
                i: vec![0.0; h],
                f: vec![0.0; h],
                g: vec![0.0; h],
                o: vec![0.0; h],
                tanh_c: vec![0.0; h],
            };
            for j in 0..h {
                step.i[j] = sigmoid(z[j]);
                step.f[j] = sigmoid(z[h + j]);
                step.g[j] = z[2 * h + j].tanh();
                step.o[j] = sigmoid(z[3 * h + j]);
                let c = step.f[j] * c_prev[j] + step.i[j] * step.g[j];
                step.tanh_c[j] = c.tanh();
                c_prev[j] = c;
                h_prev[j] = step.o[j] * step.tanh_c[j];
            }
            seq.extend_from_slice(&h_prev);
            self.steps.push(step);
        }
        if self.return_sequences {
            seq
        } else {
            h_prev
        }
    }

    fn out_shape(&self, t_len: usize) -> Shape {
        if self.return_sequences {
            Shape::d2(t_len, self.hidden)
        } else {
            Shape::d1(self.hidden)
        }
    }
}

impl Layer for RefLstm {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor, NnError> {
        let t_len = input.shape()[0];
        let y = self.run(input.data(), t_len);
        Tensor::from_vec(y, self.out_shape(t_len).as_slice())
    }

    fn forward_scratch(
        &mut self,
        input: &[f32],
        shape: Shape,
        out: &mut Vec<f32>,
        _scratch: &mut Scratch,
    ) -> Result<Shape, NnError> {
        let t_len = shape.as_slice()[0];
        *out = self.run(input, t_len);
        Ok(self.out_shape(t_len))
    }

    fn set_precision(&mut self, precision: Precision) -> Result<(), NnError> {
        self.int8 = (precision == Precision::Int8).then(|| {
            (
                QuantizedTensor::quantize(&self.wx.value),
                QuantizedTensor::quantize(&self.wh.value),
            )
        });
        Ok(())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let (t_len, h, f_dim) = (self.steps.len(), self.hidden, self.input_dim);
        let mut dx_all = vec![0.0f32; t_len * f_dim];
        let mut dh_next = vec![0.0f32; h];
        let mut dc_next = vec![0.0f32; h];
        for t in (0..t_len).rev() {
            let step = &self.steps[t];
            let mut dh = dh_next.clone();
            if self.return_sequences {
                for (j, dhj) in dh.iter_mut().enumerate() {
                    *dhj += grad_out.data()[t * h + j];
                }
            } else if t == t_len - 1 {
                for (dhj, &g) in dh.iter_mut().zip(grad_out.data()) {
                    *dhj += g;
                }
            }
            let mut dz = vec![0.0f32; 4 * h];
            let mut dc_prev = vec![0.0f32; h];
            for j in 0..h {
                let do_ = dh[j] * step.tanh_c[j];
                let mut dc = dc_next[j] + dh[j] * step.o[j] * (1.0 - step.tanh_c[j].powi(2));
                let di = dc * step.g[j];
                let df = dc * step.c_prev[j];
                let dg = dc * step.i[j];
                dc *= step.f[j];
                dc_prev[j] = dc;
                dz[j] = di * step.i[j] * (1.0 - step.i[j]);
                dz[h + j] = df * step.f[j] * (1.0 - step.f[j]);
                dz[2 * h + j] = dg * (1.0 - step.g[j].powi(2));
                dz[3 * h + j] = do_ * step.o[j] * (1.0 - step.o[j]);
            }
            let dwx = self.wx.grad.data_mut();
            for (r, &dzr) in dz.iter().enumerate() {
                for (c, &xv) in step.x.iter().enumerate() {
                    dwx[r * f_dim + c] += dzr * xv;
                }
            }
            let dwh = self.wh.grad.data_mut();
            for (r, &dzr) in dz.iter().enumerate() {
                for (c, &hv) in step.h_prev.iter().enumerate() {
                    dwh[r * h + c] += dzr * hv;
                }
            }
            for (db, &dzr) in self.bias.grad.data_mut().iter_mut().zip(&dz) {
                *db += dzr;
            }
            let dx = ref_gemv_t(self.wx.value.data(), 4 * h, f_dim, &dz);
            dx_all[t * f_dim..(t + 1) * f_dim].copy_from_slice(&dx);
            dh_next = ref_gemv_t(self.wh.value.data(), 4 * h, h, &dz);
            dc_next = dc_prev;
        }
        Tensor::from_vec(dx_all, &[t_len, f_dim])
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.wx, &mut self.wh, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.wx, &self.wh, &self.bias]
    }
}

/// The valid convolution: a naive loop in f32 (bias first, channels and
/// taps ascending), and in int8 a gathered `[in_ch × k]` window per output
/// position with one `dot_i8` per filter.
#[derive(Debug)]
struct RefConv {
    weight: Vec<f32>,
    bias: Vec<f32>,
    int8: Option<QuantizedTensor>,
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
}

impl RefConv {
    fn from_params(params: &[&Param], in_ch: usize) -> Self {
        let (w, b) = (&params[0].value, &params[1].value);
        Self {
            weight: w.data().to_vec(),
            bias: b.data().to_vec(),
            int8: None,
            in_ch,
            out_ch: w.shape()[0],
            kernel: w.shape()[1] / in_ch,
        }
    }
}

impl Layer for RefConv {
    fn forward(&mut self, _input: &Tensor, _train: bool) -> Result<Tensor, NnError> {
        Err(inference_only())
    }

    fn forward_scratch(
        &mut self,
        input: &[f32],
        shape: Shape,
        out: &mut Vec<f32>,
        _scratch: &mut Scratch,
    ) -> Result<Shape, NnError> {
        let (in_ch, kernel) = (self.in_ch, self.kernel);
        let ick = in_ch * kernel;
        let t_in = shape.as_slice()[1];
        let t_out = t_in - kernel + 1;
        out.clear();
        out.resize(self.out_ch * t_out, 0.0);
        match &self.int8 {
            None => {
                for o in 0..self.out_ch {
                    for t in 0..t_out {
                        let mut acc = self.bias[o];
                        for c in 0..in_ch {
                            for k in 0..kernel {
                                acc +=
                                    self.weight[o * ick + c * kernel + k] * input[c * t_in + t + k];
                            }
                        }
                        out[o * t_out + t] = acc;
                    }
                }
            }
            Some(qw) => {
                let (qx, x_scale) = ref_quantize(input);
                let combined = qw.scale() * x_scale;
                let mut window = vec![0i8; ick];
                for t in 0..t_out {
                    for c in 0..in_ch {
                        window[c * kernel..(c + 1) * kernel]
                            .copy_from_slice(&qx[c * t_in + t..c * t_in + t + kernel]);
                    }
                    for o in 0..self.out_ch {
                        let row = &qw.values()[o * ick..(o + 1) * ick];
                        out[o * t_out + t] = dot_i8(row, &window) as f32 * combined + self.bias[o];
                    }
                }
            }
        }
        Ok(Shape::d2(self.out_ch, t_out))
    }

    fn set_precision(&mut self, precision: Precision) -> Result<(), NnError> {
        self.int8 = (precision == Precision::Int8).then(|| {
            let w = Tensor::from_vec(
                self.weight.clone(),
                &[self.out_ch, self.in_ch * self.kernel],
            );
            QuantizedTensor::quantize(&w.unwrap())
        });
        Ok(())
    }

    fn backward(&mut self, _grad_out: &Tensor) -> Result<Tensor, NnError> {
        Err(inference_only())
    }
}

/// The dense layer: the row-major `gemv` step plus bias in f32, a
/// `dot_i8` per output row in int8.
#[derive(Debug)]
struct RefDense {
    weight: Tensor,
    bias: Vec<f32>,
    int8: Option<QuantizedTensor>,
}

impl RefDense {
    fn from_params(params: &[&Param]) -> Self {
        Self {
            weight: params[0].value.clone(),
            bias: params[1].value.data().to_vec(),
            int8: None,
        }
    }
}

impl Layer for RefDense {
    fn forward(&mut self, _input: &Tensor, _train: bool) -> Result<Tensor, NnError> {
        Err(inference_only())
    }

    fn forward_scratch(
        &mut self,
        input: &[f32],
        _shape: Shape,
        out: &mut Vec<f32>,
        _scratch: &mut Scratch,
    ) -> Result<Shape, NnError> {
        let (out_dim, in_dim) = (self.weight.shape()[0], self.weight.shape()[1]);
        *out = match &self.int8 {
            None => {
                let mut y = ref_gemv(self.weight.data(), out_dim, in_dim, input);
                for (yi, bi) in y.iter_mut().zip(&self.bias) {
                    *yi += bi;
                }
                y
            }
            Some(qw) => {
                let (qx, x_scale) = ref_quantize(input);
                let combined = qw.scale() * x_scale;
                (0..out_dim)
                    .map(|r| {
                        let row = &qw.values()[r * in_dim..(r + 1) * in_dim];
                        dot_i8(row, &qx) as f32 * combined + self.bias[r]
                    })
                    .collect()
            }
        };
        Ok(Shape::d1(out_dim))
    }

    fn set_precision(&mut self, precision: Precision) -> Result<(), NnError> {
        self.int8 = (precision == Precision::Int8).then(|| QuantizedTensor::quantize(&self.weight));
        Ok(())
    }

    fn backward(&mut self, _grad_out: &Tensor) -> Result<Tensor, NnError> {
        Err(inference_only())
    }
}

/// The reference twin of a model `config` builds, from the model's own
/// parameters: the reference layers above for every weighted layer, and
/// the library's parameter-free layers, which this oracle does not cover.
/// The MLP's dropout is the identity at inference, so it is left out.
fn reference_model(config: &ModelConfig, model: &Sequential) -> Sequential {
    let params = model.params();
    let mut reference = Sequential::new();
    match config {
        ModelConfig::Lstm { hidden, .. } => {
            for (l, layer) in params.chunks(3).take(hidden.len()).enumerate() {
                reference.push(RefLstm::from_params(layer, l + 1 < hidden.len()));
            }
            reference.push(RefDense::from_params(&params[3 * hidden.len()..]));
        }
        ModelConfig::Cnn { channels, pool, .. } => {
            let mut in_ch = 1;
            for (layer, &out_ch) in params.chunks(2).zip(channels) {
                reference.push(RefConv::from_params(layer, in_ch));
                reference.push(Activation::relu());
                reference.push(MaxPool1d::new(*pool).unwrap());
                in_ch = out_ch;
            }
            let head = &params[2 * channels.len()..];
            reference.push(Flatten::new());
            reference.push(RefDense::from_params(&head[..2]));
            reference.push(Activation::relu());
            reference.push(RefDense::from_params(&head[2..]));
        }
        ModelConfig::Mlp { .. } => {
            let layers: Vec<_> = params.chunks(2).collect();
            for (i, layer) in layers.iter().enumerate() {
                reference.push(RefDense::from_params(layer));
                if i + 1 < layers.len() {
                    reference.push(Activation::relu());
                }
            }
        }
        other => panic!("no reference for {other:?}"),
    }
    reference
}

/// The feature windows the runtime classifies: the default 16 kHz config
/// on 1 s windows (`voice_loop`), and 256-sample windows in 128-sample
/// frames (`fleet_small_windows`), each for three emotions.
fn runtime_windows() -> Vec<(&'static str, ModelConfig, Vec<Tensor>)> {
    let fleet = FeatureConfig {
        frame_len: 128,
        hop: 64,
        n_mfcc: 4,
        n_mels: 12,
        ..FeatureConfig::default()
    };
    let mut cells = Vec::new();
    for (runtime, config, window_samples) in [
        ("voice", FeatureConfig::default(), 16_000),
        ("fleet", fleet, 256),
    ] {
        let rate = config.sample_rate;
        let mut pipeline = FeaturePipeline::new(config).unwrap();
        let waves: Vec<Vec<f32>> = [Emotion::Happy, Emotion::Sad, Emotion::Angry]
            .iter()
            .enumerate()
            .map(|(i, &e)| {
                let params = UtteranceParams::for_emotion(e);
                let seconds = window_samples as f32 / rate;
                let mut wave = synthesize_utterance(&params, seconds, rate, i as u64).unwrap();
                wave.truncate(window_samples);
                wave
            })
            .collect();
        let (fpf, frames) = (
            pipeline.features_per_frame(),
            pipeline.frames_for(window_samples),
        );
        for kind in [
            ClassifierKind::Lstm,
            ClassifierKind::Cnn,
            ClassifierKind::Mlp,
        ] {
            let model = match kind {
                ClassifierKind::Lstm => ModelConfig::scaled_lstm(fpf, 8),
                ClassifierKind::Cnn => ModelConfig::scaled_cnn(frames * fpf, 8),
                _ => ModelConfig::scaled_mlp(pipeline.flat_dim(), 8),
            };
            let features = waves
                .iter()
                .map(|w| match kind {
                    ClassifierKind::Lstm => pipeline.extract_sequence(w),
                    ClassifierKind::Cnn => pipeline.extract_strip(w),
                    _ => pipeline.extract_flat(w),
                })
                .collect::<Result<Vec<_>, _>>()
                .unwrap();
            cells.push((runtime, model, features));
        }
    }
    cells
}

#[test]
fn every_family_and_precision_matches_the_reference_at_the_runtime_shapes() {
    let labels: Vec<String> = (0..8).map(|i| format!("c{i}")).collect();
    let mut shapes = Vec::new();
    for (runtime, config, windows) in runtime_windows() {
        shapes.push(windows[0].shape().to_vec());
        for precision in [Precision::F32, Precision::Int8] {
            // The runtime's model seed, then another.
            for seed in [7, 1234] {
                let mut clf = AffectClassifier::from_config(&config, labels.clone(), seed).unwrap();
                clf.set_precision(precision).unwrap();
                let mut reference = reference_model(&config, clf.model().unwrap());
                reference.set_precision(precision).unwrap();
                let (mut scratch, mut ref_scratch) = (Scratch::new(), Scratch::new());
                let mut decision = Decision::default();
                for (w, features) in windows.iter().enumerate() {
                    let (data, shape) = (features.data(), features.shape());
                    let cell = format!(
                        "{runtime} {:?} {} seed {seed} {shape:?} window {w}",
                        config.kind(),
                        precision.label()
                    );
                    let (_, want) = reference
                        .forward_with(data, shape, &mut ref_scratch)
                        .unwrap();
                    let want = want.to_vec();
                    let model = clf.model_mut().unwrap();
                    let (_, got) = model.forward_with(data, shape, &mut scratch).unwrap();
                    assert_eq!(canonical(got), canonical(&want), "logits, {cell}");
                    let want = reference
                        .predict_proba_with(data, shape, &mut ref_scratch)
                        .unwrap()
                        .to_vec();
                    clf.classify_with(data, shape, &mut scratch, &mut decision)
                        .unwrap();
                    assert_eq!(
                        canonical(&decision.probabilities),
                        canonical(&want),
                        "probabilities, {cell}"
                    );
                }
            }
        }
    }
    let want: Vec<Vec<usize>> = [&[61, 19][..], &[1, 1159], &[76], &[3, 10], &[1, 30], &[40]]
        .iter()
        .map(|s| s.to_vec())
        .collect();
    assert_eq!(shapes, want, "the runtime's feature shapes moved");
}

/// `forward_scratch` of a library layer against its reference twin, in
/// both precisions, on one input.
fn assert_layer_matches(
    layer: &mut dyn Layer,
    reference: &mut dyn Layer,
    input: &[f32],
    shape: Shape,
    case: &str,
) {
    let mut scratch = Scratch::new();
    for precision in [Precision::F32, Precision::Int8] {
        layer.set_precision(precision).unwrap();
        reference.set_precision(precision).unwrap();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let got_shape = layer
            .forward_scratch(input, shape, &mut got, &mut scratch)
            .unwrap();
        let want_shape = reference
            .forward_scratch(input, shape, &mut want, &mut scratch)
            .unwrap();
        assert_eq!(got_shape, want_shape, "{case} {}", precision.label());
        assert_eq!(
            canonical(&got),
            canonical(&want),
            "{case} {}",
            precision.label()
        );
    }
    // The tensor path always runs f32; leave both layers there.
    layer.set_precision(Precision::F32).unwrap();
    reference.set_precision(Precision::F32).unwrap();
}

/// Random LSTM shapes: 4H below, at and above 16 (one AVX-512 register of
/// i32 lanes) and 64 (one tile of the int8 kernel), one and several steps,
/// inputs with and without NaN and ±inf. The tensor path is checked too.
#[test]
fn lstm_layers_match_the_gate_major_reference() {
    for (case, (f_dim, hidden)) in [
        (1, 1),
        (3, 3),
        (10, 4),
        (19, 15),
        (7, 16),
        (2, 17),
        (19, 32),
    ]
    .into_iter()
    .enumerate()
    {
        for (t_len, return_sequences, specials) in [
            (1, false, false),
            (3, true, false),
            (4, false, true),
            (2, true, true),
        ] {
            let seed = (case * 10 + t_len) as u64;
            let mut layer = Lstm::new(f_dim, hidden, return_sequences, seed).unwrap();
            let mut reference = RefLstm::from_params(&layer.params(), return_sequences);
            let input = noise(t_len * f_dim, seed, specials);
            let shape = Shape::d2(t_len, f_dim);
            let name = format!(
                "lstm F {f_dim} H {hidden} T {t_len} seq {return_sequences} specials {specials}"
            );
            assert_layer_matches(&mut layer, &mut reference, &input, shape, &name);
            let x = Tensor::from_vec(input, &[t_len, f_dim]).unwrap();
            let got = layer.forward(&x, false).unwrap();
            let want = reference.forward(&x, false).unwrap();
            assert_eq!(
                canonical(got.data()),
                canonical(want.data()),
                "tensor {name}"
            );
        }
    }
}

/// A seed builds the weights it built before the layout changed: the
/// gate-major Xavier draw, stored transposed.
#[test]
fn lstm_seed_builds_the_gate_major_draw_transposed() {
    for (f_dim, hidden, seed) in [(3, 2, 1), (19, 32, 12), (32, 32, 25)] {
        let layer = Lstm::new(f_dim, hidden, false, seed).unwrap();
        let mut rng = seeded_rng(seed);
        let wx = xavier_uniform(&mut rng, f_dim, hidden, 4 * hidden * f_dim);
        let wh = xavier_uniform(&mut rng, hidden, hidden, 4 * hidden * hidden);
        let params = layer.params();
        assert_eq!(params[0].value.shape(), &[f_dim, 4 * hidden]);
        assert_eq!(params[1].value.shape(), &[hidden, 4 * hidden]);
        let stored_wx = transpose(params[0].value.data(), f_dim, 4 * hidden);
        let stored_wh = transpose(params[1].value.data(), hidden, 4 * hidden);
        assert_eq!(canonical(&stored_wx), canonical(&wx), "wx, seed {seed}");
        assert_eq!(canonical(&stored_wh), canonical(&wh), "wh, seed {seed}");
    }
}

/// Random convolution shapes: `out_ch` on and off multiples of 4, output
/// rows shorter than one vector, around one tile and longer, inputs with
/// and without NaN and ±inf.
#[test]
fn conv_layers_match_the_gather_reference() {
    for (case, (in_ch, out_ch, kernel)) in [(1, 1, 1), (1, 3, 3), (2, 5, 2), (3, 6, 5), (8, 9, 3)]
        .into_iter()
        .enumerate()
    {
        for t_out in [1, 5, 15, 16, 17, 28, 63, 64, 65, 130] {
            for specials in [false, true] {
                let seed = (case * 1000 + t_out) as u64;
                let t_in = t_out + kernel - 1;
                let mut layer = Conv1d::new(in_ch, out_ch, kernel, seed).unwrap();
                let mut reference = RefConv::from_params(&layer.params(), in_ch);
                let input = noise(in_ch * t_in, seed + 1, specials);
                let name =
                    format!("conv {in_ch}x{out_ch}x{kernel} t_out {t_out} specials {specials}");
                let shape = Shape::d2(in_ch, t_in);
                assert_layer_matches(&mut layer, &mut reference, &input, shape, &name);
            }
        }
    }
}

/// Dense layers, whose int8 path quantizes its input with the new
/// quantizer, on inputs with and without NaN and ±inf.
#[test]
fn dense_layers_match_the_row_reference() {
    for in_dim in [1, 15, 16, 17, 40, 76, 130] {
        for out_dim in [1, 5, 8] {
            for specials in [false, true] {
                let seed = (in_dim * 10 + out_dim) as u64;
                let mut layer = Dense::new(in_dim, out_dim, seed).unwrap();
                let mut reference = RefDense::from_params(&layer.params());
                let input = noise(in_dim, seed + 1, specials);
                let name = format!("dense {in_dim}->{out_dim} specials {specials}");
                let shape = Shape::d1(in_dim);
                assert_layer_matches(&mut layer, &mut reference, &input, shape, &name);
            }
        }
    }
}

/// The activation quantizer against the baseline loop on every length to
/// 200, with ties (`k + 0.5` after scaling), NaN and ±inf.
#[test]
fn activation_quantizer_matches_the_baseline_loop() {
    let mut out = Vec::new();
    for len in 0..=200usize {
        let plain = noise(len, len as u64, false);
        let specials = noise(len, len as u64, true);
        // Scale 1.0 exactly, with halves between whole numbers.
        let ties: Vec<f32> = (0..len)
            .map(|i| {
                if i == 0 {
                    127.0
                } else {
                    (i % 255) as f32 * 0.5 - 63.5
                }
            })
            .collect();
        for (kind, x) in [("plain", plain), ("NaN/inf", specials), ("ties", ties)] {
            let (want, want_scale) = ref_quantize(&x);
            let scale = quantize_activations_into(&x, &mut out);
            assert_eq!(
                scale.to_bits(),
                want_scale.to_bits(),
                "{kind} scale, {len} values"
            );
            assert_eq!(out, want, "{kind} values, {len} values");
        }
    }
}

/// One training step of a two-layer LSTM model: the loss, every gradient
/// and every Adam-updated weight equal the gate-major reference's, element
/// for element, over two steps.
#[test]
fn lstm_train_step_matches_the_reference() {
    let (f_dim, hidden, classes, t_len) = (5, 6, 3, 4);
    let mut model = Sequential::new();
    model.push(Lstm::new(f_dim, hidden, true, 41).unwrap());
    model.push(Lstm::new(hidden, hidden, false, 42).unwrap());
    model.push(Dense::new(hidden, classes, 43).unwrap());
    let mut reference = Sequential::new();
    {
        let params = model.params();
        reference.push(RefLstm::from_params(&params[0..3], true));
        reference.push(RefLstm::from_params(&params[3..6], false));
    }
    reference.push(Dense::new(hidden, classes, 43).unwrap());
    // Gate-major views of the library's parameters: the LSTM matrices are
    // the first two of each layer's three tensors.
    let gate_major = |model: &Sequential, grads: bool| -> Vec<Vec<f32>> {
        model
            .params()
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let t = if grads { &p.grad } else { &p.value };
                if i < 6 && i % 3 < 2 {
                    transpose(t.data(), t.shape()[0], t.shape()[1])
                } else {
                    t.data().to_vec()
                }
            })
            .collect()
    };
    let plain = |model: &Sequential, grads: bool| -> Vec<Vec<f32>> {
        model
            .params()
            .iter()
            .map(|p| if grads { &p.grad } else { &p.value }.data().to_vec())
            .collect()
    };
    let (mut adam, mut ref_adam) = (Adam::new(0.01), Adam::new(0.01));
    for round in 0..2u64 {
        for (sample, label) in [(0u64, 1usize), (1, 2)] {
            let x = Tensor::from_vec(
                noise(t_len * f_dim, 10 * round + sample, false),
                &[t_len, f_dim],
            )
            .unwrap();
            let loss = model.train_step(&x, label).unwrap();
            let want = reference.train_step(&x, label).unwrap();
            assert_eq!(loss.to_bits(), want.to_bits(), "loss, round {round}");
        }
        let (got, want) = (gate_major(&model, true), plain(&reference, true));
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                canonical(g),
                canonical(w),
                "gradient of tensor {i}, round {round}"
            );
        }
        adam.step(&mut model.params_mut(), 0.5).unwrap();
        ref_adam.step(&mut reference.params_mut(), 0.5).unwrap();
        let (got, want) = (gate_major(&model, false), plain(&reference, false));
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                canonical(g),
                canonical(w),
                "updated tensor {i}, round {round}"
            );
        }
        model.zero_grad();
        reference.zero_grad();
    }
}
