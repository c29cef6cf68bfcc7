//! The one home of every committed measurement, and its one JSON writer.
//!
//! `repro` writes its figure CSVs and every bench writes its
//! `BENCH_<name>.json` into [`results_dir`], `<repo>/results`, resolved from
//! this crate's manifest directory, so neither depends on the working
//! directory it runs from.
//!
//! A `BENCH_<name>.json` file has this shape:
//!
//! ```text
//! {
//!   "bench": "<name>",
//!   "unit": "<unit of the headline metric>",
//!   "provenance": {"git_revision": ..., "rustc": ..., "cpu_model": ..., "h264_lanes": ...},
//!   "<summary key>": <summary value>, ...
//!   "points": [
//!     {"<column>": <cell>, ...},   one object per table row
//!     ...
//!   ]
//! }
//! ```
//!
//! Cells and summary values that read as JSON numbers are written as
//! numbers, `true`/`false` as booleans, and anything else as a string. A
//! provenance stamp that cannot be read is written as `"unknown"`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

use h264::backend::BackendKind;

use crate::table::Table;

/// Written in place of a provenance stamp that cannot be read.
const UNKNOWN: &str = "unknown";

/// The repository root: `crates/bench` sits two levels below it.
pub fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repository root")
}

/// `<repo>/results`, where `repro`'s CSVs and every `BENCH_*.json` live.
pub fn results_dir() -> PathBuf {
    repo_root().join("results")
}

/// Writes `results/BENCH_<name>.json` from a bench's table: its `summary`
/// scalars, then one `points` object per row keyed by the table header.
/// Returns the path written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_bench(
    name: &str,
    unit: &str,
    summary: &[(&str, String)],
    table: &Table,
) -> io::Result<PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    fs::write(&path, bench_json(name, unit, &provenance(), summary, table))?;
    Ok(path)
}

/// Rounds of an [`interleave`]d measurement. Odd, so each median is one
/// measured round.
pub const ROUNDS: usize = 7;

/// Medians of an [`interleave`]d measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interleaved {
    /// Median of the baseline's per-round figures.
    pub baseline: f64,
    /// Median of the cell's per-round figures.
    pub cell: f64,
    /// Median of the per-round `cell / baseline` ratios.
    pub ratio: f64,
}

/// Measures `baseline` and `cell` back to back, [`ROUNDS`] times, and
/// returns the medians. A drift in host speed then lands on both sides of
/// a round's ratio instead of on one cell. The side that runs first
/// alternates, so neither always runs on caches the other warmed. Each
/// call returns one figure, such as a rate.
pub fn interleave(mut baseline: impl FnMut() -> f64, mut cell: impl FnMut() -> f64) -> Interleaved {
    let rounds: Vec<(f64, f64)> = (0..ROUNDS)
        .map(|round| {
            if round % 2 == 0 {
                let b = baseline();
                (b, cell())
            } else {
                let c = cell();
                (baseline(), c)
            }
        })
        .collect();
    let median = |figure: fn(&(f64, f64)) -> f64| {
        let mut figures: Vec<f64> = rounds.iter().map(figure).collect();
        figures.sort_by(f64::total_cmp);
        figures[figures.len() / 2]
    };
    Interleaved {
        baseline: median(|r| r.0),
        cell: median(|r| r.1),
        ratio: median(|r| r.1 / r.0),
    }
}

/// Where and how a measurement was taken.
fn provenance() -> [(&'static str, String); 4] {
    let root = repo_root().to_string_lossy();
    [
        (
            "git_revision",
            command_output("git", &["-C", &root, "describe", "--always", "--dirty"]),
        ),
        ("rustc", command_output("rustc", &["-V"])),
        ("cpu_model", cpu_model()),
        ("h264_lanes", BackendKind::Simd.kernels().name().to_string()),
    ]
}

/// The trimmed standard output of a successful command, or `"unknown"`.
fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|text| text.trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| UNKNOWN.into())
}

/// The first `model name` in `/proc/cpuinfo`, or `"unknown"`.
fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|line| {
                let (key, value) = line.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_string())
            })
        })
        .unwrap_or_else(|| UNKNOWN.into())
}

fn bench_json(
    name: &str,
    unit: &str,
    provenance: &[(&str, String)],
    summary: &[(&str, String)],
    table: &Table,
) -> String {
    let mut fields = vec![
        format!("\"bench\": {}", json_string(name)),
        format!("\"unit\": {}", json_string(unit)),
        format!(
            "\"provenance\": {}",
            json_object(provenance.iter().map(|(k, v)| (*k, json_string(v))))
        ),
    ];
    fields.extend(
        summary
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_value(v))),
    );
    let points: Vec<String> = table
        .rows
        .iter()
        .map(|row| {
            json_object(
                table
                    .header
                    .iter()
                    .zip(row)
                    .map(|(k, v)| (k.as_str(), json_value(v))),
            )
        })
        .collect();
    fields.push(format!(
        "\"points\": [\n    {}\n  ]",
        points.join(",\n    ")
    ));
    format!("{{\n  {}\n}}\n", fields.join(",\n  "))
}

/// A one-line JSON object from keys and already-serialized values.
fn json_object<'a>(fields: impl Iterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A table cell as a JSON value: a number or boolean as itself, anything
/// else as a string.
fn json_value(cell: &str) -> String {
    if cell == "true" || cell == "false" || is_json_number(cell) {
        cell.to_string()
    } else {
        json_string(cell)
    }
}

/// Whether `s` is a number by JSON's grammar: `-? int frac? exp?`, where
/// `int` has no leading zero. (Rust's float parser also takes `inf`, `NaN`,
/// `+1` and `1.`, none of which is JSON.)
fn is_json_number(s: &str) -> bool {
    let b = s.as_bytes();
    let digits = |i: &mut usize| {
        let start = *i;
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i - start
    };
    let mut i = usize::from(b.first() == Some(&b'-'));
    let int_start = i;
    let int_len = digits(&mut i);
    if int_len == 0 || (int_len > 1 && b[int_start] == b'0') {
        return false;
    }
    if b.get(i) == Some(&b'.') {
        i += 1;
        if digits(&mut i) == 0 {
            return false;
        }
    }
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        if digits(&mut i) == 0 {
            return false;
        }
    }
    i == b.len()
}

/// `s` as a quoted JSON string, with `"`, `\` and control characters
/// escaped.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_the_repo_results_directory() {
        let dir = results_dir();
        assert!(dir.ends_with("results"));
        assert!(dir.parent().unwrap().join("Cargo.toml").is_file());
        assert!(dir.parent().unwrap().join("crates/bench").is_dir());
    }

    #[test]
    fn interleave_alternates_and_takes_medians() {
        let calls = std::cell::RefCell::new(Vec::new());
        let mut b = 0.0;
        let mut c = 0.0;
        let m = interleave(
            || {
                calls.borrow_mut().push('b');
                b += 1.0;
                b
            },
            || {
                calls.borrow_mut().push('c');
                c += 2.0;
                c * c
            },
        );
        let order: String = calls.into_inner().into_iter().collect();
        assert_eq!(order, "bccb".repeat(ROUNDS / 2) + "bc");
        // Rounds are (k, 4k²) for k = 1..=7: the median round is k = 4.
        assert_eq!(m.baseline, 4.0);
        assert_eq!(m.cell, 64.0);
        assert_eq!(m.ratio, 16.0);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("say \"hi\""), "\"say \\\"hi\\\"\"");
        assert_eq!(json_string("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_string("l1\nl2\tx\r"), "\"l1\\nl2\\tx\\r\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_string("µs → ×"), "\"µs → ×\"");
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for n in [
            "0", "-0", "7", "19943", "0.8095", "-1.5", "1e5", "2.5E-3", "1.074",
        ] {
            assert!(is_json_number(n), "{n} is a JSON number");
        }
        for s in [
            "", "-", "+1", "01", ".5", "1.", "1e", "1e+", "inf", "NaN", "48x48", "1.2.3", "0x10",
            " 1",
        ] {
            assert!(!is_json_number(s), "{s:?} is not a JSON number");
        }
    }

    #[test]
    fn cells_become_numbers_booleans_or_strings() {
        assert_eq!(json_value("1.090"), "1.090");
        assert_eq!(json_value("true"), "true");
        assert_eq!(json_value("false"), "false");
        assert_eq!(json_value("Green"), "\"Green\"");
        assert_eq!(json_value("inf"), "\"inf\"");
        assert_eq!(json_value(""), "\"\"");
    }

    #[test]
    fn document_has_provenance_summary_and_points() {
        let mut t = Table::new(vec!["size".into(), "speedup".into(), "ok".into()]);
        t.row(vec!["48x48".into(), "1.143".into(), "true".into()]);
        t.row(vec!["96x96".into(), "1.252".into(), "false".into()]);
        let provenance = [
            ("git_revision", "abc123".to_string()),
            ("cpu_model", UNKNOWN.to_string()),
        ];
        let json = bench_json(
            "demo",
            "ratio",
            &provenance,
            &[("best_speedup", "1.252".into())],
            &t,
        );
        assert_eq!(
            json,
            "{\n  \"bench\": \"demo\",\n  \"unit\": \"ratio\",\n  \
             \"provenance\": {\"git_revision\": \"abc123\", \"cpu_model\": \"unknown\"},\n  \
             \"best_speedup\": 1.252,\n  \"points\": [\n    \
             {\"size\": \"48x48\", \"speedup\": 1.143, \"ok\": true},\n    \
             {\"size\": \"96x96\", \"speedup\": 1.252, \"ok\": false}\n  ]\n}\n"
        );
    }

    #[test]
    fn provenance_stamps_every_field() {
        let stamps = provenance();
        let keys: Vec<&str> = stamps.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, ["git_revision", "rustc", "cpu_model", "h264_lanes"]);
        assert!(stamps.iter().all(|(_, v)| !v.is_empty()));
        assert_eq!(stamps[3].1, BackendKind::Simd.kernels().name());
    }
}
