//! The mutant runner: every recorded mutation must make its oracle fail.
//!
//! A mutant is a patch, `tests/mutants/<area>/<name>.patch`, that plants
//! one defect an oracle exists to catch. Its header names the defect,
//! the oracle command and the case budget:
//!
//! ```text
//! Mutant: `touch` marks nothing
//! Oracle: cargo test -q -p hvft-machine --test proptest_statehash
//! Cases: 48
//! ```
//!
//! For each patch the runner brings a copy of the tracked tree up to
//! date (only files whose bytes differ are rewritten, so a shared
//! target directory rebuilds what the last mutant touched and nothing
//! else), applies the patch with `git apply`, and runs the oracle there
//! with `HVFT_PROPTEST_SEED=0` (the pinned cases) and
//! `HVFT_PROPTEST_CASES` set to the budget. The mutant is killed when
//! the oracle fails; a patch that does not apply or does not build
//! counts as a failure of the runner. Every oracle first runs once on
//! the unmutated copy and must pass there.
//!
//! ```text
//! cargo run --release -p hvft-bench --bin mutants -- [--work <dir>] [<area>[/<name>]]...
//! ```
//!
//! `--work` (default `target/mutants`) holds the tree copy and, unless
//! `CARGO_TARGET_DIR` is set, the shared target directory. The
//! arguments select mutants by area or by `area/name`; none selects all.
//! The runner prints one table per area and exits non-zero unless every
//! selected mutant was killed.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// One recorded mutant.
struct Mutant {
    area: String,
    name: String,
    patch: PathBuf,
    what: String,
    oracle: String,
    cases: Option<u32>,
}

/// What became of a mutant.
enum Outcome {
    /// The oracle failed; the failing tests, with the first failing
    /// case of each property.
    Killed(Vec<String>),
    /// The oracle passed with the defect in place.
    Survived,
    /// The patch did not apply, or the mutated tree did not build.
    Broken(&'static str),
}

fn main() -> ExitCode {
    let mut work = PathBuf::from("target/mutants");
    let mut select = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--work" => work = PathBuf::from(args.next().expect("--work needs a directory")),
            "-h" | "--help" => {
                println!("usage: mutants [--work <dir>] [<area>[/<name>]]...");
                return ExitCode::SUCCESS;
            }
            _ => select.push(arg),
        }
    }
    let root = PathBuf::from(git(Path::new("."), &["rev-parse", "--show-toplevel"]).trim());
    let tracked: Vec<String> = git(&root, &["ls-files", "-z"])
        .split('\0')
        .filter(|f| !f.is_empty())
        .map(String::from)
        .collect();
    let mutants: Vec<Mutant> = tracked
        .iter()
        .filter(|f| f.starts_with("tests/mutants/") && f.ends_with(".patch"))
        .map(|f| read_mutant(&root, f))
        .filter(|m| {
            let id = format!("{}/{}", m.area, m.name);
            select.is_empty() || select.iter().any(|s| *s == m.area || *s == id)
        })
        .collect();
    if mutants.is_empty() {
        eprintln!("no mutant selected");
        return ExitCode::FAILURE;
    }
    let work = if work.is_absolute() {
        work
    } else {
        root.join(work)
    };
    let tree = work.join("tree");
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| work.join("target"), PathBuf::from);

    let mut oracles: Vec<(&str, Option<u32>)> = Vec::new();
    for m in &mutants {
        if !oracles.contains(&(m.oracle.as_str(), m.cases)) {
            oracles.push((&m.oracle, m.cases));
        }
    }
    for &(oracle, cases) in &oracles {
        sync(&root, &tracked, &tree);
        eprintln!("baseline: {oracle}");
        let (passed, output) = run_oracle(&tree, &target, oracle, cases);
        if !passed {
            eprintln!("{output}\nthe oracle fails on the unmutated tree: {oracle}");
            return ExitCode::FAILURE;
        }
    }

    let mut outcomes = Vec::new();
    for m in &mutants {
        sync(&root, &tracked, &tree);
        eprintln!("mutant {}/{}", m.area, m.name);
        let applied = Command::new("git")
            .arg("apply")
            .arg(&m.patch)
            .current_dir(&tree)
            .status()
            .is_ok_and(|s| s.success());
        let outcome = if !applied {
            Outcome::Broken("does not apply")
        } else {
            let (passed, output) = run_oracle(&tree, &target, &m.oracle, m.cases);
            if passed {
                Outcome::Survived
            } else if output.contains("error[E") || output.contains("could not compile") {
                Outcome::Broken("does not build")
            } else {
                Outcome::Killed(failures(&output))
            }
        };
        outcomes.push(outcome);
    }
    sync(&root, &tracked, &tree);

    let mut by_area: BTreeMap<&str, Vec<(&Mutant, &Outcome)>> = BTreeMap::new();
    for (m, o) in mutants.iter().zip(&outcomes) {
        by_area.entry(&m.area).or_default().push((m, o));
    }
    let mut all_killed = true;
    for (area, rows) in by_area {
        println!("\n### `{area}` (oracle: `{}`)\n", rows[0].0.oracle);
        println!("| mutant | patch | caught by |");
        println!("|---|---|---|");
        for (m, outcome) in rows {
            let caught = match outcome {
                Outcome::Killed(tests) if tests.is_empty() => {
                    "the oracle (no test named)".to_string()
                }
                Outcome::Killed(tests) => tests.join(", "),
                Outcome::Survived => {
                    all_killed = false;
                    "**SURVIVED**".to_string()
                }
                Outcome::Broken(why) => {
                    all_killed = false;
                    format!("**BROKEN: {why}**")
                }
            };
            println!("| {} | `{}` | {caught} |", m.what, m.name);
        }
    }
    let killed = outcomes
        .iter()
        .filter(|o| matches!(o, Outcome::Killed(_)))
        .count();
    println!("\n{killed} of {} mutants killed", outcomes.len());
    if all_killed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `git` in `dir` and returns its standard output.
fn git(dir: &Path, args: &[&str]) -> String {
    let out = Command::new("git")
        .args(args)
        .current_dir(dir)
        .output()
        .expect("git runs");
    assert!(out.status.success(), "git {args:?} failed");
    String::from_utf8(out.stdout).expect("git prints UTF-8")
}

/// Reads a patch's header.
fn read_mutant(root: &Path, file: &str) -> Mutant {
    let patch = root.join(file);
    let text = fs::read_to_string(&patch).expect("patch readable");
    let field = |key: &str| {
        text.lines()
            .take_while(|l| !l.starts_with("diff "))
            .find_map(|l| l.strip_prefix(key))
            .map(|v| v.trim().to_string())
            .unwrap_or_else(|| panic!("{file}: no `{key}` line in its header"))
    };
    let mut parts = file
        .trim_start_matches("tests/mutants/")
        .trim_end_matches(".patch")
        .split('/');
    let (area, name) = (
        parts.next().unwrap_or_default(),
        parts.next().unwrap_or_default(),
    );
    Mutant {
        area: area.to_string(),
        name: name.to_string(),
        what: field("Mutant:"),
        oracle: field("Oracle:"),
        cases: field("Cases:").parse().ok(),
        patch,
    }
}

/// Brings `tree` up to date with the tracked files of `root`, writing
/// only those whose bytes differ (a fresh write moves the file's
/// modification time, which is what tells cargo to rebuild it).
fn sync(root: &Path, tracked: &[String], tree: &Path) {
    for file in tracked {
        let (from, to) = (root.join(file), tree.join(file));
        let Ok(bytes) = fs::read(&from) else {
            continue; // Deleted in the working tree.
        };
        if fs::read(&to).is_ok_and(|old| old == bytes) {
            continue;
        }
        fs::create_dir_all(to.parent().expect("a file has a parent")).expect("tree writable");
        fs::write(&to, bytes).expect("tree writable");
    }
    // Its own repository, so that `git apply` resolves paths in the copy.
    if !tree.join(".git").exists() {
        git(tree, &["init", "-q"]);
    }
}

/// Runs `oracle` in `tree`; whether it passed, and what it printed.
fn run_oracle(tree: &Path, target: &Path, oracle: &str, cases: Option<u32>) -> (bool, String) {
    let mut words = oracle.split_whitespace();
    let mut cmd = Command::new(words.next().expect("an oracle command"));
    cmd.args(words)
        .current_dir(tree)
        .env("CARGO_TARGET_DIR", target)
        .env("HVFT_PROPTEST_SEED", "0")
        .env_remove("HVFT_PROPTEST_CASES");
    if let Some(n) = cases {
        cmd.env("HVFT_PROPTEST_CASES", n.to_string());
    }
    let out = cmd.output().expect("the oracle command runs");
    let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
    (out.status.success(), text.into_owned())
}

/// The failing tests an oracle's output names: each property with the
/// case it failed at, then every other failing test.
fn failures(output: &str) -> Vec<String> {
    let mut found: Vec<(String, Option<String>)> = Vec::new();
    let mut note = |name: &str, case: Option<String>| {
        if !found.iter().any(|(n, _)| n == name) {
            found.push((name.to_string(), case));
        }
    };
    for line in output.lines() {
        let Some((name, rest)) = line
            .strip_prefix("proptest '")
            .and_then(|r| r.split_once('\''))
        else {
            continue;
        };
        let case = rest
            .split_once(" at case ")
            .map(|(_, c)| c.chars().take_while(char::is_ascii_digit).collect());
        note(name, case);
    }
    let mut listing = false;
    for line in output.lines() {
        if line == "failures:" {
            listing = true;
        } else if listing && line.starts_with("    ") {
            let test = line.trim();
            note(test.rsplit("::").next().unwrap_or(test), None);
        } else {
            listing = false;
        }
    }
    // Properties (with their case) first, then pinned tests, each by
    // name: the harness prints in whatever order its threads finish.
    found.sort_by(|a, b| (a.1.is_none(), &a.0).cmp(&(b.1.is_none(), &b.0)));
    found
        .into_iter()
        .map(|(name, case)| match case {
            Some(case) => format!("`{name}` (case {case})"),
            None => format!("`{name}`"),
        })
        .collect()
}
