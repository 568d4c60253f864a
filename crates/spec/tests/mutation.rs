//! Deterministic byte-mutation fuzzer over the `specs/` corpus: every
//! mutant of every spec goes through [`load_source`], which must either
//! load it or reject it with an error whose span points into the mutant's
//! source — never panic.
//!
//! Each mutant applies 1–4 edits (replace, insert, delete or duplicate a
//! byte range) drawn by a seeded xorshift generator, splicing fragments
//! from a spec-token alphabet so mutants get past the lexer into the
//! parser, the checker and lowering.

use cextend_spec::load_source;
use std::fs;
use std::panic;
use std::path::PathBuf;

const MUTANTS_PER_SPEC: usize = 500;

/// Spec tokens, keywords, boundary literals and stray bytes that edits
/// splice in.
const ALPHABET: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "(",
    ")",
    ",",
    ";",
    ".",
    "=",
    "->",
    "+",
    "-",
    "==",
    "!=",
    "<",
    "<=",
    ">",
    ">=",
    "\"",
    "#",
    "\n",
    " ",
    "\t",
    "\\",
    "0",
    "1",
    "-1",
    "2.5",
    "1e309",
    "9223372036854775807",
    "-9223372036854775808",
    "99999999999999999999",
    "workload",
    "knob",
    "scales",
    "ratio",
    "r2cols",
    "relation",
    "step",
    "generate",
    "ccs",
    "dcs",
    "key",
    "attr",
    "fk",
    "int",
    "str",
    "plugin",
    "synthetic",
    "rows",
    "domain",
    "combos",
    "values",
    "good",
    "all",
    "dc",
    "arity",
    "default",
    "t0",
    "t1",
    "t2",
    "\"x\"",
    "é",
    "\0",
];

/// xorshift64: deterministic, seedable, no dependencies.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Applies 1–4 random edits to `source`.
fn mutate(source: &[u8], rng: &mut XorShift) -> Vec<u8> {
    let mut out = source.to_vec();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(out.len() + 1);
        let len = (1 + rng.below(8)).min(out.len() - at.min(out.len()));
        let fragment = ALPHABET[rng.below(ALPHABET.len())].as_bytes();
        match rng.below(4) {
            0 => {
                out.splice(at..at + len, fragment.iter().copied());
            }
            1 => {
                out.splice(at..at, fragment.iter().copied());
            }
            2 => {
                out.drain(at..at + len);
            }
            _ => {
                let copy = out[at..at + len].to_vec();
                let to = rng.below(out.len() + 1);
                out.splice(to..to, copy);
            }
        }
    }
    out
}

#[test]
fn mutated_specs_load_or_fail_with_spanned_errors() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("specs/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "spec"))
        .collect();
    files.sort();
    assert!(files.len() >= 6, "spec corpus shrank to {}", files.len());

    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let (mut loaded, mut rejected) = (0usize, 0usize);
    let mut failures = Vec::new();
    for path in &files {
        let name = path.file_name().expect("file name").to_string_lossy();
        let source = fs::read(path).expect("spec is readable");
        for k in 0..MUTANTS_PER_SPEC {
            let mutant = String::from_utf8_lossy(&mutate(&source, &mut rng)).into_owned();
            let lines = mutant.split('\n').count();
            match panic::catch_unwind(|| load_source(&mutant, "<mutant>")) {
                Ok(Ok(_)) => loaded += 1,
                Ok(Err(e)) => {
                    rejected += 1;
                    let span = e.span;
                    if span.line < 1 || span.col < 1 || span.line > lines {
                        failures.push(format!(
                            "{name} mutant {k}: span {span} outside the source: {e}"
                        ));
                    }
                }
                Err(_) => failures.push(format!("{name} mutant {k} panicked:\n{mutant}")),
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} failures, first: {}",
        failures.len(),
        failures[0]
    );
    assert_eq!(loaded + rejected, files.len() * MUTANTS_PER_SPEC);
    assert!(rejected > 0, "no mutant was rejected");
}
