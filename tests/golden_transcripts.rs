//! Golden transcripts: every deterministic scenario of the closed loop
//! must render the same transcript twice in one process, and that
//! transcript must equal the committed `tests/golden/<name>.txt` byte for
//! byte. A behaviour change anywhere on the loop — the runtime's ladder,
//! the fault plans, the decoder, the fleet's admission — shows up here as
//! a changed line. When the change is intended, regenerate the file with
//! the command the failure prints and explain each changed line.

use std::path::{Path, PathBuf};

use affectsys::scenarios;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The 1-based number and both sides of the first line where `got`
/// departs from `want`; a missing line reads as `<end of transcript>`.
fn first_difference(want: &str, got: &str) -> String {
    let (mut want_lines, mut got_lines) = (want.lines(), got.lines());
    for number in 1.. {
        match (want_lines.next(), got_lines.next()) {
            (None, None) => break,
            (w, g) if w == g => continue,
            (w, g) => {
                let end = "<end of transcript>";
                return format!(
                    "first differing line {number}:\n  want: {}\n  got:  {}",
                    w.unwrap_or(end),
                    g.unwrap_or(end)
                );
            }
        }
    }
    "the transcripts differ only in line endings or the final newline".to_string()
}

#[test]
fn every_scenario_matches_its_golden_transcript() {
    let mut failures = Vec::new();
    for name in scenarios::NAMES {
        let render = || scenarios::render(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        let (first, second) = (render(), render());
        if first != second {
            failures.push(format!(
                "scenario {name} is not deterministic: two renders in one process differ; {}",
                first_difference(&first, &second)
            ));
            continue;
        }
        let golden =
            std::fs::read_to_string(golden_dir().join(format!("{name}.txt"))).unwrap_or_default();
        if first != golden {
            failures.push(format!(
                "scenario {name} no longer matches tests/golden/{name}.txt; {}\n  \
                 if the change is intended, regenerate with:\n  \
                 cargo run --release --example realtime_loop -- --scenario {name} > tests/golden/{name}.txt",
                first_difference(&golden, &first)
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n\n"));
}

#[test]
fn every_golden_file_names_a_scenario() {
    for entry in std::fs::read_dir(golden_dir()).expect("tests/golden exists") {
        let path = entry.expect("readable entry").path();
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        assert!(
            path.extension().is_some_and(|e| e == "txt") && scenarios::NAMES.contains(&stem),
            "{} is not the transcript of any scenario in affectsys::scenarios::NAMES",
            path.display()
        );
    }
}

#[test]
fn unknown_scenarios_are_refused() {
    let err = scenarios::render("chaos-7").expect_err("not in the table");
    assert!(
        err.to_string().contains("ladder-walk"),
        "lists the known names: {err}"
    );
}
