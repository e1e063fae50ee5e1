//! Hostile-input fuzz of the TRISC assembler: seeded mutations of the
//! shipped workloads' assembly (the text a serve client submits for
//! every job). Every case runs under `catch_unwind`; malformed source
//! must come back as an `AsmError` — never a panic.

use facile_isa::assemble_image;

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

/// Operand and token replacements at the edges of what the assembler
/// parses: integer extremes, broken memory operands, stray separators.
const TOKENS: &[&str] = &[
    "--9223372036854775808",
    "-9223372036854775808",
    "9223372036854775808",
    "-0x8000000000000000",
    "0x",
    "-",
    ")(",
    ")r1(",
    "(r1",
    "8(r1",
    "r",
    "r32",
    "r4294967296",
    "65535",
    "-32769",
    "0x3ffffff",
    ":",
    "a:b:",
    ",",
    "",
    "\u{3000}",
    "é",
];

/// Bytes a flip or overwrite draws from: the assembler's syntax.
const BYTES: &[u8] = b"-0x9:;#(),r \t\n_";

/// Applies one to three mutations to `src`, splicing lines from
/// `corpus`.
fn mutate(rng: &mut SplitMix, src: &str, corpus: &[Vec<&str>]) -> String {
    let mut lines: Vec<String> = src.lines().map(str::to_owned).collect();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(lines.len());
        match rng.below(9) {
            // Replace the last operand — an immediate, a memory operand
            // or a branch target — with a token.
            0 | 1 => {
                let line = &lines[at];
                let keep = line.rfind(',').map_or(line.len(), |i| i + 1);
                lines[at] = format!("{} {}", &line[..keep], TOKENS[rng.below(TOKENS.len())]);
            }
            // Replace any one word (or the mnemonic) with a token.
            2 => {
                let mut words: Vec<String> = (lines[at].split([' ', ','].as_ref()))
                    .map(str::to_owned)
                    .collect();
                let w = rng.below(words.len());
                words[w] = TOKENS[rng.below(TOKENS.len())].to_owned();
                lines[at] = words.join(if rng.below(2) == 0 { " " } else { ", " });
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
                let cut = rng.below(lines[at].len() + 1);
                let cut = (0..=cut).rev().find(|&c| lines[at].is_char_boundary(c)).unwrap_or(0);
                lines[at].truncate(cut);
            }
            5 => {
                let donor = &corpus[rng.below(corpus.len())];
                let line = donor[rng.below(donor.len())].to_owned();
                lines.insert(at, line);
            }
            6 => {
                lines.truncate(at);
            }
            _ => {
                // Repeat a line: duplicate labels, long runs.
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
fn mutated_assembly_is_an_error_not_a_panic() {
    let seeds: Vec<String> = (facile_workloads::suite().iter())
        .map(|w| facile_workloads::generate(w, 0.01))
        .collect();
    for s in &seeds {
        assemble_image(s, 0x1_0000, vec![]).expect("seed assembles");
    }
    let corpus: Vec<Vec<&str>> = seeds.iter().map(|s| s.lines().collect()).collect();

    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (mut assembled, mut refused, mut panics) = (0, 0, Vec::new());
    const CASES: usize = 2_000;
    for case in 0..CASES {
        let mut rng = SplitMix(case as u64 ^ 0xa55e_b1e5);
        let src = mutate(&mut rng, &seeds[case % seeds.len()], &corpus);
        match std::panic::catch_unwind(|| assemble_image(&src, 0x1_0000, vec![])) {
            Ok(Ok(_)) => assembled += 1,
            Ok(Err(_)) => refused += 1,
            Err(_) => panics.push(case),
        }
    }
    std::panic::set_hook(hook);
    println!(
        "asm fuzz: {CASES} cases, {assembled} assembled, {refused} refused, {} panics",
        panics.len()
    );
    assert!(panics.is_empty(), "hostile assembly panicked in cases {panics:?}");
    assert!(refused > CASES / 4, "only {refused} mutations were refused");
    assert!(assembled > CASES / 20, "only {assembled} mutations assembled");
}
