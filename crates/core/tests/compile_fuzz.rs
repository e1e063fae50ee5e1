//! Hostile-input fuzz of the whole compile pipeline: seeded mutations of
//! the shipped simulators' source and of generated step functions
//! (`facile-testgen`) go through `compile_source` — parse, semantic
//! analysis, IR lowering, folding, binding-time analysis, lift insertion,
//! action extraction, lowering and the program optimization step. Every
//! case runs under `catch_unwind`; each must end as diagnostics or a
//! compiled step — never a panic.

use facile::sims::{functional_source, inorder_source, ooo_source};
use facile::{compile_source, CompilerOptions};

/// SplitMix64, inlined so the fuzz needs no dependency.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Word replacements at the edges of what the front end accepts:
/// integer extremes, keywords, operators, type names, stray brackets.
const TOKENS: &[&str] = &[
    "9223372036854775807",
    "-9223372036854775808",
    "9223372036854775808",
    "0",
    "-1",
    "64",
    "x",
    "val",
    "fun",
    "if",
    "else",
    "while",
    "next",
    "?verify",
    "?get",
    "?len",
    "?push_back",
    "queue",
    "stream",
    "int",
    "(",
    ")",
    "{",
    "}",
    ";",
    ",",
    "=",
    "==",
    "&&",
    "||",
    "/",
    "%",
    "<<",
    "",
];

/// Bytes a flip draws from: the language's punctuation.
const BYTES: &[u8] = b"(){};,=+-*/%<>!&|?:0123456789 \n";

/// Applies one to three mutations to `src`, splicing lines from
/// `corpus`.
fn mutate(rng: &mut SplitMix, src: &str, corpus: &[Vec<&str>]) -> String {
    let mut lines: Vec<String> = src.lines().map(str::to_owned).collect();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(lines.len());
        match rng.below(8) {
            // Replace one word with a token.
            0..=2 => {
                let mut words: Vec<String> = lines[at].split(' ').map(str::to_owned).collect();
                let w = rng.below(words.len());
                words[w] = TOKENS[rng.below(TOKENS.len())].to_owned();
                lines[at] = words.join(" ");
            }
            3 => {
                let mut b = lines[at].as_bytes().to_vec();
                if !b.is_empty() {
                    let i = rng.below(b.len());
                    b[i] = BYTES[rng.below(BYTES.len())];
                }
                lines[at] = String::from_utf8_lossy(&b).into_owned();
            }
            4 => {
                lines.remove(at);
            }
            5 => {
                let donor = &corpus[rng.below(corpus.len())];
                let line = donor[rng.below(donor.len())].to_owned();
                lines.insert(at, line);
            }
            6 => {
                let cut = rng.below(lines[at].len() + 1);
                let cut = (0..=cut)
                    .rev()
                    .find(|&c| lines[at].is_char_boundary(c))
                    .unwrap_or(0);
                lines[at].truncate(cut);
            }
            _ => {
                // Repeat a line: redefinitions, doubled statements.
                let line = lines[at].clone();
                lines.insert(at, line);
            }
        }
        if lines.is_empty() {
            lines.push(String::new());
        }
    }
    lines.join("\n")
}

#[test]
fn mutated_source_is_diagnosed_or_compiled_never_a_panic() {
    let mut seeds = vec![functional_source(), inorder_source(), ooo_source()];
    seeds.extend((0..5).map(facile_testgen::Gen::program));
    seeds.extend((0..5).map(facile_testgen::Gen::sim_program));
    let options = CompilerOptions::default();
    for s in &seeds {
        compile_source(s, &options).expect("seed compiles");
    }
    let corpus: Vec<Vec<&str>> = seeds.iter().map(|s| s.lines().collect()).collect();

    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (mut compiled, mut refused, mut panics) = (0, 0, Vec::new());
    const CASES: usize = 2_000;
    for case in 0..CASES {
        let mut rng = SplitMix(case as u64 ^ 0xfac1_1e00);
        let src = mutate(&mut rng, &seeds[case % seeds.len()], &corpus);
        match std::panic::catch_unwind(|| compile_source(&src, &options)) {
            Ok(Ok(_)) => compiled += 1,
            Ok(Err(_)) => refused += 1,
            Err(_) => panics.push(case),
        }
    }
    std::panic::set_hook(hook);
    println!(
        "compile fuzz: {CASES} cases, {compiled} compiled, {refused} refused, {} panics",
        panics.len()
    );
    assert!(
        panics.is_empty(),
        "mutated source panicked the compiler in cases {panics:?}"
    );
    assert!(refused > CASES / 4, "only {refused} mutations were refused");
    assert!(compiled > CASES / 20, "only {compiled} mutations compiled");
}
