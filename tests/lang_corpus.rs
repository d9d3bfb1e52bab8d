//! Replays the checked-in `corpus/` of hvft-lang regression programs.
//!
//! Every `corpus/*.hvft` file is compiled, booted bare under both
//! execution tiers, and the observable outcome (exit code, retired
//! count, console stream, diag pairs, final state hash) must be
//! tier-invariant. Unless a program opts out with `//@ tiers-only`,
//! the reference interpreter must agree on exit code, console bytes
//! and `mark` checkpoints. Expectation directives embedded in the
//! source pin absolute values:
//!
//! ```text
//! //@ exit: 285            expected exit code (decimal)
//! //@ console: Hi\nABCDE   expected console bytes (\n \t \0 \\ escapes)
//! //@ marks: 12,6          expected mark() values, in order
//! //@ tiers-only           skip interpreter parity (clock intrinsics)
//! ```
//!
//! Each compiled image is also pushed through `disasm::to_source` and
//! re-assembled, pinning the assemble → disassemble fixpoint on whole
//! bootable images, kernel included.

mod common;

use common::same_vm_state;
use hvft::guest::layout::RAM_BYTES;
use hvft::guest::{build_image, CompiledWorkload, Workload};
use hvft::hypervisor::bare::{BareExit, BareHost};
use hvft::hypervisor::cost::CostModel;
use hvft::machine::exec::ExecTier;
use hvft_isa::asm::assemble;
use hvft_isa::disasm::to_source;

const FUEL: u64 = 20_000_000;

/// Directives parsed from `//@` comments in a corpus file.
#[derive(Debug, Default)]
struct Expect {
    exit: Option<u32>,
    console: Option<String>,
    marks: Option<Vec<u32>>,
    tiers_only: bool,
}

fn unescape(s: &str) -> String {
    let mut out = String::new();
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('0') => out.push('\0'),
            Some('\\') => out.push('\\'),
            other => panic!("bad escape \\{other:?} in console directive"),
        }
    }
    out
}

fn parse_expect(name: &str, source: &str) -> Expect {
    let mut e = Expect::default();
    for line in source.lines() {
        let Some(directive) = line.trim().strip_prefix("//@") else {
            continue;
        };
        let directive = directive.trim();
        if directive == "tiers-only" {
            e.tiers_only = true;
        } else if let Some(v) = directive.strip_prefix("exit:") {
            e.exit = Some(
                v.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("{name}: bad exit directive")),
            );
        } else if let Some(v) = directive.strip_prefix("console:") {
            e.console = Some(unescape(v.trim_start()));
        } else if let Some(v) = directive.strip_prefix("marks:") {
            e.marks = Some(
                v.split(',')
                    .map(|m| {
                        m.trim()
                            .parse()
                            .unwrap_or_else(|_| panic!("{name}: bad marks directive"))
                    })
                    .collect(),
            );
        } else {
            panic!("{name}: unknown directive `//@ {directive}`");
        }
    }
    e
}

fn corpus_files() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("corpus/ directory exists")
        .map(|entry| entry.expect("readable corpus entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "hvft"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).expect("readable corpus file");
            (name, text)
        })
        .collect();
    files.sort();
    assert!(
        files.len() >= 5,
        "corpus went missing: {} files",
        files.len()
    );
    files
}

#[test]
fn corpus_replays_identically_across_tiers_and_oracles() {
    for (name, source) in corpus_files() {
        let expect = parse_expect(&name, &source);
        let workload = CompiledWorkload::new(&name, &source)
            .unwrap_or_else(|e| panic!("{name}: does not compile: {e}"));
        let image = build_image(&workload.kernel(), &workload.user_source())
            .unwrap_or_else(|e| panic!("{name}: image does not build: {e}"));

        let (mut outcomes, mut hosts) = (Vec::new(), Vec::new());
        for tier in [ExecTier::Step, ExecTier::Jit] {
            let mut host = BareHost::new(&image, CostModel::functional(), RAM_BYTES, 32, 7);
            host.set_exec_tier(tier);
            let r = host.run(FUEL);
            assert!(
                matches!(r.exit, BareExit::Halted { .. }),
                "{name}/{tier}: did not halt: {:?}",
                r.exit
            );
            outcomes.push((
                tier,
                r.exit,
                r.retired,
                r.time,
                r.diags,
                host.console.output_string(),
            ));
            hosts.push(host);
        }
        let (_, exit, _, _, diags, console) = outcomes[0].clone();
        for (o, host) in outcomes.iter().zip(&hosts).skip(1) {
            assert_eq!(
                (&o.1, &o.2, &o.3, &o.4, &o.5),
                (
                    &outcomes[0].1,
                    &outcomes[0].2,
                    &outcomes[0].3,
                    &outcomes[0].4,
                    &outcomes[0].5
                ),
                "{name}: {} diverged from {}",
                o.0,
                outcomes[0].0
            );
            assert_eq!(
                same_vm_state((&host.cpu, &host.mem), (&hosts[0].cpu, &hosts[0].mem)),
                Ok(()),
                "{name}: {} diverged from {}",
                o.0,
                outcomes[0].0
            );
        }

        // Absolute pins from the file's own directives.
        if let Some(code) = expect.exit {
            assert_eq!(exit, BareExit::Halted { code: Some(code) }, "{name}: exit");
        }
        if let Some(ref want) = expect.console {
            assert_eq!(&console, want, "{name}: console");
        }
        if let Some(ref want) = expect.marks {
            let marks: Vec<u32> = diags.iter().filter(|d| d.1 == 2).map(|d| d.0).collect();
            assert_eq!(&marks, want, "{name}: marks");
        }

        // Language-level ground truth, unless the program opted out.
        if !expect.tiers_only {
            let outcome = hvft::lang::interpret(&source, FUEL)
                .unwrap_or_else(|e| panic!("{name}: interpreter failed: {e}"));
            assert_eq!(
                exit,
                BareExit::Halted {
                    code: Some(outcome.exit)
                },
                "{name}: machine exit disagrees with interpreter"
            );
            assert_eq!(
                console.as_bytes(),
                &outcome.console[..],
                "{name}: console parity"
            );
            let mut want: Vec<(u32, u32)> = outcome.marks.iter().map(|&m| (m, 2)).collect();
            want.push((outcome.exit, 1));
            assert_eq!(diags, want, "{name}: diag parity");
        }

        // Whole-image disassembly fixpoint: the bootable image (kernel
        // included) renders to source the assembler maps back to the
        // identical image.
        let rendered = to_source(&image);
        let again = assemble(&rendered)
            .unwrap_or_else(|e| panic!("{name}: to_source output does not assemble: {e}"));
        assert_eq!(
            image.words().collect::<Vec<_>>(),
            again.words().collect::<Vec<_>>(),
            "{name}: image changed across disassembly round trip"
        );
        assert_eq!(image.entry, again.entry, "{name}: entry changed");
    }
}
