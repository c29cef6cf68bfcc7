//! In-text tables: the Sec. 2 model-size table and the Sec. 4 silicon/area
//! table.

use affect_core::classifier::ModelConfig;
use h264::power::SiliconSpec;

/// Sec. 2 model-size audit: `(name, paper-reported params, our params)`,
/// with ours counted on the built paper-scale models.
pub fn model_rows() -> Vec<(String, usize, usize)> {
    [
        ("NN (MLP)", 508_000, ModelConfig::paper_mlp()),
        ("CNN", 649_000, ModelConfig::paper_cnn()),
        ("LSTM", 429_000, ModelConfig::paper_lstm()),
    ]
    .into_iter()
    .map(|(name, paper, cfg)| {
        let ours = cfg.build(0).expect("paper configurations build");
        (name.into(), paper, ours.param_count())
    })
    .collect()
}

/// Sec. 4 silicon table rows.
pub fn silicon_rows() -> Vec<(String, String)> {
    let s = SiliconSpec::paper_65nm();
    vec![
        ("Process".into(), format!("{} nm CMOS", s.node_nm)),
        ("Decoder area".into(), format!("{:.1} mm^2", s.area_mm2)),
        (
            "Baseline area (no pre-store buffer)".into(),
            format!("{:.3} mm^2", s.baseline_area_mm2()),
        ),
        (
            "Pre-store buffer overhead".into(),
            format!("{:.2}%", s.prestore_overhead * 100.0),
        ),
        ("Supply".into(), format!("{:.1} V", s.supply_v)),
        ("Clock".into(), format!("{:.0} MHz", s.clock_mhz)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_rows_within_one_percent_of_paper() {
        for (name, paper, ours) in model_rows() {
            let err = (ours as f64 - paper as f64).abs() / paper as f64;
            assert!(err < 0.01, "{name}: {ours} vs {paper}");
        }
    }

    #[test]
    fn silicon_rows_quote_the_paper() {
        let rows = silicon_rows();
        let text: String = rows.iter().map(|(k, v)| format!("{k}={v};")).collect();
        assert!(text.contains("65 nm"));
        assert!(text.contains("1.9 mm^2"));
        assert!(text.contains("4.23%"));
        assert!(text.contains("28 MHz"));
    }
}
