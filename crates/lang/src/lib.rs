//! # hvft-lang — a tiny workload language for the hvft guest
//!
//! Hand-written assembly caps the workload registry at a handful of
//! programs; this crate is the unlock for *scenario diversity*. It
//! compiles a small imperative language (u32 expressions, `let`,
//! `while`/`if`, fixed-arity functions, MMIO intrinsics for
//! console/disk) down to `hvft-isa::asm` source that links against the
//! guest kernel's syscall gates, via classic passes:
//!
//! ```text
//! source ──parse──▶ AST ──check──▶ typed AST ──lower──▶ stack IR
//!        ──regalloc──▶ locations ──emit──▶ hvft assembly
//! ```
//!
//! Two consumers matter:
//!
//! - `hvft-guest` registers compiled programs as first-class
//!   [`Workload`]s (`CompiledWorkload`), so scenarios can run them by
//!   name like any hand-written guest;
//! - the differential-fuzz tests pair [`genprog`] (a
//!   seed-deterministic generator of well-formed, terminating
//!   programs) with [`eval`] (the reference interpreter — the
//!   language's operational semantics) to mint *oracles*: a generated
//!   program must behave bit-identically under the interpreter, the
//!   Step and Jit execution tiers, and the replication protocol.
//!
//! [`Workload`]: https://docs.rs/hvft-guest
//!
//! ## Example
//!
//! ```
//! let src = "
//!     fn main() {
//!         let n = 10;
//!         let sum = 0;
//!         let i = 0;
//!         while i < n {
//!             sum = sum + i * i;
//!             i = i + 1;
//!         }
//!         exit(sum);
//!     }
//! ";
//! let asm = hvft_lang::compile(src).unwrap();
//! assert!(asm.contains("u_main:"));
//! // The reference interpreter agrees on the exit code.
//! let out = hvft_lang::interpret(src, 100_000).unwrap();
//! assert_eq!(out.exit, 285);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod check;
pub mod emit;
pub mod eval;
pub mod genprog;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod regalloc;

use std::fmt;

/// The ABI caps function arity: arguments travel in `r4..r7`.
pub const MAX_ARITY: usize = 4;

/// A compilation error, with the 1-based source line when known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LangError {
    /// 1-based source line, if the pass tracks lines.
    pub line: Option<usize>,
    /// Human-readable description.
    pub msg: String,
}

impl LangError {
    pub(crate) fn at(line: usize, msg: String) -> LangError {
        LangError {
            line: Some(line),
            msg,
        }
    }

    pub(crate) fn new(msg: String) -> LangError {
        LangError { line: None, msg }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(l) => write!(f, "line {l}: {}", self.msg),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for LangError {}

/// Target-environment constants the emitter bakes into the assembly.
///
/// The defaults mirror the `hvft-guest` memory layout and syscall
/// numbers (a guest-side test pins the agreement); override them only
/// for exotic images.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodegenOptions {
    /// Load address of the user program (`u_main` must land here).
    pub org: u32,
    /// Initial stack pointer (grows down).
    pub stack_top: u32,
    /// Base of the user data segment (`peek`/`poke` window).
    pub user_data: u32,
    /// Size in bytes of the `peek`/`poke` window (kept clear of the
    /// stack).
    pub data_window: u32,
    /// DMA buffer address used by `read_block`/`write_block`.
    pub dma_buf: u32,
    /// `putc` syscall gate number.
    pub sys_putc: u32,
    /// `time` syscall gate number.
    pub sys_gettime: u32,
    /// `read_block` syscall gate number.
    pub sys_read_block: u32,
    /// `write_block` syscall gate number.
    pub sys_write_block: u32,
    /// `exit` syscall gate number.
    pub sys_exit: u32,
    /// `mark` syscall gate number.
    pub sys_mark: u32,
    /// `ticks` syscall gate number.
    pub sys_getticks: u32,
}

impl Default for CodegenOptions {
    fn default() -> Self {
        CodegenOptions {
            org: 0x10000,
            stack_top: 0x2F000,
            user_data: 0x20000,
            data_window: 0xC000,
            dma_buf: 0x30000,
            sys_putc: 1,
            sys_gettime: 2,
            sys_read_block: 3,
            sys_write_block: 4,
            sys_exit: 5,
            sys_mark: 6,
            sys_getticks: 7,
        }
    }
}

/// Compile source text to guest assembly with the default options.
pub fn compile(src: &str) -> Result<String, LangError> {
    compile_with(src, &CodegenOptions::default())
}

/// Compile source text to guest assembly.
pub fn compile_with(src: &str, opts: &CodegenOptions) -> Result<String, LangError> {
    let ast = parser::parse(src)?;
    let typed = check::check(&ast)?;
    let ir = lower::lower(&typed);
    Ok(emit::emit(&ir, opts))
}

/// Compile and assemble into a standalone [`hvft_isa::Program`]
/// (user-half only — no kernel; mostly useful for inspecting or
/// round-tripping the generated code).
pub fn compile_to_program(
    src: &str,
    opts: &CodegenOptions,
) -> Result<hvft_isa::Program, LangError> {
    let asm = compile_with(src, opts)?;
    hvft_isa::asm::assemble(&asm).map_err(|e| {
        LangError::new(format!(
            "internal: emitted assembly does not assemble ({e}); this is a compiler bug"
        ))
    })
}

/// Parse, check, and run a program on the reference interpreter.
///
/// This is hvft-lang's *operational semantics* — the behaviour the
/// compiled image must reproduce bit-for-bit (exit code, console
/// bytes, `mark` sequence).
pub fn interpret(src: &str, fuel: u64) -> Result<eval::Outcome, LangError> {
    interpret_with(src, &CodegenOptions::default(), fuel)
}

/// [`interpret`] with explicit target options (the data-window bounds
/// feed the `peek`/`poke` checks).
pub fn interpret_with(
    src: &str,
    opts: &CodegenOptions,
    fuel: u64,
) -> Result<eval::Outcome, LangError> {
    let ast = parser::parse(src)?;
    let typed = check::check(&ast)?;
    eval::eval(&typed, opts, fuel).map_err(|e| LangError::new(format!("evaluation failed: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_print_then_parse_is_identity() {
        for seed in 0..200u64 {
            let prog = genprog::generate(seed, &genprog::GenConfig::default());
            let text = prog.to_string();
            let reparsed = parser::parse(&text).unwrap_or_else(|e| {
                panic!("seed {seed}: generated source fails to parse: {e}\n{text}")
            });
            assert_eq!(prog, reparsed, "seed {seed}: pretty-print round trip");
        }
    }

    #[test]
    fn generated_programs_compile_assemble_and_terminate() {
        let cfg = genprog::GenConfig {
            disk_ops: true,
            ..Default::default()
        };
        for seed in 0..100u64 {
            let text = genprog::source(seed, &cfg);
            compile_to_program(&text, &CodegenOptions::default())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
            interpret(&text, 2_000_000).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
        }
    }

    #[test]
    fn interpreter_pins_the_semantics() {
        // Signed comparison, both-sides logical ops, wrapping, shifts.
        let out = interpret(
            "fn main() {
                let a = 0 - 1;          // 0xFFFFFFFF
                let lt = a < 1;         // signed: -1 < 1
                let ltu = 1 < a;        // signed: 1 < -1 is false
                let both = (a != 0) && (putc('x') == 0);
                let sh = 1 << 33;       // count masked to 1
                exit((lt << 3) | (ltu << 2) | (both << 1) | (sh == 2));
            }",
            10_000,
        )
        .unwrap();
        // lt=1, ltu=0, both=1 (putc evaluated!), sh==2.
        assert_eq!(out.exit, 0b1011);
        assert_eq!(out.console, b"x");
    }

    #[test]
    fn division_by_zero_is_an_error_not_a_value() {
        let err = interpret("fn main() { exit(1 / 0); }", 1_000).unwrap_err();
        assert!(err.msg.contains("division by zero"), "{err}");
    }

    #[test]
    fn functions_fall_off_returning_zero_and_args_pass_in_order() {
        let out = interpret(
            "fn sub3(a, b, c) { return a - b - c; }
             fn nothing() { }
             fn main() { exit(sub3(100, 30, 7) + nothing()); }",
            10_000,
        )
        .unwrap();
        assert_eq!(out.exit, 63);
    }

    #[test]
    fn arity_and_name_errors_are_reported() {
        assert!(parser::parse("fn main() { let x = ; }").is_err());
        assert!(compile("fn main() { y = 1; }").is_err());
        assert!(compile("fn main() { mark(); }").is_err());
        assert!(compile("fn f(a, b, c, d, e) { } fn main() { }").is_err());
        assert!(compile("fn g() { } fn g() { } fn main() { }").is_err());
        assert!(compile("fn nomain() { }").is_err());
    }

    #[test]
    fn deep_expressions_force_spills_and_still_compile() {
        // 16 nested additions push the evaluation stack past the 12
        // temp registers.
        let mut e = String::from("1");
        for i in 2..=20 {
            e = format!("({e} + {i})");
        }
        let src = format!("fn main() {{ exit({e}); }}");
        let p = compile_to_program(&src, &CodegenOptions::default()).unwrap();
        assert!(p.symbol("u_main").is_some());
        let out = interpret(&src, 10_000).unwrap();
        assert_eq!(out.exit, (1..=20).sum::<u32>());
    }
}
