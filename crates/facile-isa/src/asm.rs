//! A two-pass TRISC assembler.
//!
//! Accepts the textual syntax produced by [`crate::isa::Insn`]'s
//! `Display` plus labels and comments:
//!
//! ```text
//! ; compute 5 * 4 by repeated addition
//!     addi r1, r0, 5
//!     addi r2, r0, 0
//! loop:
//!     addi r2, r2, 4
//!     addi r1, r1, -1
//!     bne  r1, r0, loop
//!     out  r2
//!     halt
//! ```
//!
//! Branch/JAL label operands resolve to word-relative offsets from the
//! branch instruction. The assembler produces a
//! [`facile_runtime::Image`] ready to load into any simulator in this
//! workspace.

use crate::isa::{Insn, Opcode};
use facile_runtime::Image;
use std::collections::HashMap;

/// An assembly error with its 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

/// Assembles source text into instruction words.
///
/// # Errors
///
/// Returns the first [`AsmError`] encountered.
pub fn assemble(src: &str, text_base: u64) -> Result<Vec<u32>, AsmError> {
    // Pass 1: collect labels.
    let mut labels: HashMap<String, u64> = HashMap::new();
    let mut addr = text_base;
    for (ln, raw) in src.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let mut rest = line;
        while let Some(colon) = rest.find(':') {
            let (label, tail) = rest.split_at(colon);
            let label = label.trim();
            if !is_ident(label) {
                return Err(AsmError {
                    line: ln + 1,
                    message: format!("invalid label `{label}`"),
                });
            }
            if labels.insert(label.to_owned(), addr).is_some() {
                return Err(AsmError {
                    line: ln + 1,
                    message: format!("duplicate label `{label}`"),
                });
            }
            rest = tail[1..].trim();
        }
        if !rest.is_empty() {
            addr += 4;
        }
    }

    // Pass 2: encode.
    let mut words = Vec::new();
    let mut addr = text_base;
    for (ln, raw) in src.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let mut rest = line;
        while let Some(colon) = rest.find(':') {
            rest = rest[colon + 1..].trim();
        }
        if rest.is_empty() {
            continue;
        }
        let insn = parse_insn(rest, addr, &labels).map_err(|message| AsmError {
            line: ln + 1,
            message,
        })?;
        words.push(insn.encode());
        addr += 4;
    }
    Ok(words)
}

/// Assembles into a loadable image with optional initial data segments.
///
/// # Errors
///
/// Propagates [`assemble`] errors.
pub fn assemble_image(
    src: &str,
    text_base: u64,
    data: Vec<(u64, Vec<u8>)>,
) -> Result<Image, AsmError> {
    let words = assemble(src, text_base)?;
    let mut text = Vec::with_capacity(words.len() * 4);
    for w in &words {
        text.extend_from_slice(&w.to_le_bytes());
    }
    Ok(Image {
        text_base,
        text,
        data,
        entry: text_base,
    })
}

/// Disassembles instruction words back to text (labels are not
/// reconstructed; branch targets print as numeric offsets).
pub fn disassemble(words: &[u32]) -> Vec<String> {
    words
        .iter()
        .map(|&w| match Insn::decode(w) {
            Some(i) => i.to_string(),
            None => format!(".word 0x{w:08x}"),
        })
        .collect()
}

fn strip_comment(line: &str) -> &str {
    let end = line
        .find([';', '#'])
        .unwrap_or(line.len());
    &line[..end]
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_insn(text: &str, addr: u64, labels: &HashMap<String, u64>) -> Result<Insn, String> {
    let (mnem, operands) = match text.find(char::is_whitespace) {
        Some(i) => (&text[..i], text[i..].trim()),
        None => (text, ""),
    };
    let op = Opcode::ALL
        .iter()
        .copied()
        .chain([Opcode::Out, Opcode::Nop, Opcode::Halt])
        .find(|o| o.mnemonic() == mnem)
        .ok_or_else(|| format!("unknown mnemonic `{mnem}`"))?;

    let parts: Vec<&str> = if operands.is_empty() {
        Vec::new()
    } else {
        operands.split(',').map(str::trim).collect()
    };

    let mut insn = Insn {
        op,
        rd: 0,
        rs1: 0,
        rs2: 0,
        imm16: 0,
        imm26: 0,
    };

    use Opcode::*;
    match op {
        Add | Sub | And | Or | Xor | Sll | Srl | Sra | Mul | Div | Slt | Rem | Fadd | Fsub
        | Fmul | Fdiv | Flt => {
            expect_arity(&parts, 3, mnem)?;
            insn.rd = reg(parts[0])?;
            insn.rs1 = reg(parts[1])?;
            insn.rs2 = reg(parts[2])?;
        }
        Addi | Andi | Ori | Xori | Slli | Srli | Srai | Slti => {
            expect_arity(&parts, 3, mnem)?;
            insn.rd = reg(parts[0])?;
            insn.rs1 = reg(parts[1])?;
            insn.imm16 = imm(parts[2], 16)?;
        }
        Lui => {
            expect_arity(&parts, 2, mnem)?;
            insn.rd = reg(parts[0])?;
            insn.imm16 = imm(parts[1], 16)?;
        }
        Ld | St | Ldb | Stb => {
            expect_arity(&parts, 2, mnem)?;
            insn.rd = reg(parts[0])?;
            let (off, base) = mem_operand(parts[1])?;
            insn.imm16 = off;
            insn.rs1 = base;
        }
        Beq | Bne | Blt | Bge => {
            expect_arity(&parts, 3, mnem)?;
            insn.rd = reg(parts[0])?;
            insn.rs1 = reg(parts[1])?;
            insn.imm16 = branch_target(parts[2], addr, labels, 16)?;
        }
        Jal => {
            expect_arity(&parts, 1, mnem)?;
            insn.imm26 = branch_target(parts[0], addr, labels, 26)?;
        }
        Jalr => {
            expect_arity(&parts, 2, mnem)?;
            insn.rd = reg(parts[0])?;
            insn.rs1 = reg(parts[1])?;
        }
        I2f | F2i => {
            expect_arity(&parts, 2, mnem)?;
            insn.rd = reg(parts[0])?;
            insn.rs1 = reg(parts[1])?;
        }
        Out => {
            expect_arity(&parts, 1, mnem)?;
            insn.rd = reg(parts[0])?;
        }
        Nop | Halt => expect_arity(&parts, 0, mnem)?,
    }
    Ok(insn)
}

fn expect_arity(parts: &[&str], n: usize, mnem: &str) -> Result<(), String> {
    if parts.len() == n {
        Ok(())
    } else {
        Err(format!(
            "`{mnem}` takes {n} operand(s), found {}",
            parts.len()
        ))
    }
}

fn reg(s: &str) -> Result<u8, String> {
    let num = s
        .strip_prefix('r')
        .ok_or_else(|| format!("expected a register, found `{s}`"))?;
    let n: u32 = num
        .parse()
        .map_err(|_| format!("expected a register, found `{s}`"))?;
    if n > 31 {
        return Err(format!("register `{s}` out of range"));
    }
    Ok(n as u8)
}

fn imm(s: &str, bits: u32) -> Result<i32, String> {
    let v = parse_int(s)?;
    let min = -(1i64 << (bits - 1));
    let max = (1i64 << (bits - 1)) - 1;
    // Also accept unsigned forms up to the field width (e.g. 0xFFFF).
    let umax = (1i64 << bits) - 1;
    if v < min || v > umax {
        return Err(format!("immediate {v} does not fit in {bits} bits"));
    }
    let v = if v > max { v - (1i64 << bits) } else { v };
    Ok(v as i32)
}

fn parse_int(s: &str) -> Result<i64, String> {
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
    } else {
        body.parse()
    }
    .map_err(|_| format!("invalid integer `{s}`"))?;
    match neg {
        true => v.checked_neg().ok_or_else(|| format!("invalid integer `{s}`")),
        false => Ok(v),
    }
}

fn mem_operand(s: &str) -> Result<(i32, u8), String> {
    let open = s
        .find('(')
        .ok_or_else(|| format!("expected `offset(reg)`, found `{s}`"))?;
    let close = s
        .rfind(')')
        .filter(|&close| close > open)
        .ok_or_else(|| format!("expected `offset(reg)`, found `{s}`"))?;
    let off = if s[..open].trim().is_empty() {
        0
    } else {
        imm(s[..open].trim(), 16)?
    };
    let base = reg(s[open + 1..close].trim())?;
    Ok((off, base))
}

fn branch_target(
    s: &str,
    addr: u64,
    labels: &HashMap<String, u64>,
    bits: u32,
) -> Result<i32, String> {
    if let Some(&target) = labels.get(s) {
        let delta_words = (target as i64 - addr as i64) / 4;
        let min = -(1i64 << (bits - 1));
        let max = (1i64 << (bits - 1)) - 1;
        if delta_words < min || delta_words > max {
            return Err(format!("branch to `{s}` out of range ({delta_words} words)"));
        }
        Ok(delta_words as i32)
    } else {
        imm(s, bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_basic_program() {
        let words = assemble(
            "addi r1, r0, 5\n\
             loop: addi r1, r1, -1\n\
             bne r1, r0, loop\n\
             halt\n",
            0,
        )
        .unwrap();
        assert_eq!(words.len(), 4);
        let bne = Insn::decode(words[2]).unwrap();
        assert_eq!(bne.op, Opcode::Bne);
        assert_eq!(bne.imm16, -1); // one word back
    }

    #[test]
    fn forward_labels_resolve() {
        let words = assemble(
            "beq r0, r0, done\nnop\nnop\ndone: halt\n",
            0x1000,
        )
        .unwrap();
        let beq = Insn::decode(words[0]).unwrap();
        assert_eq!(beq.imm16, 3);
    }

    #[test]
    fn labels_on_their_own_line() {
        let words = assemble("top:\n  addi r1, r1, 1\n  jal top\n", 0).unwrap();
        let jal = Insn::decode(words[1]).unwrap();
        assert_eq!(jal.op, Opcode::Jal);
        assert_eq!(jal.imm26, -1);
    }

    #[test]
    fn memory_operands() {
        let words = assemble("ld r2, 16(r3)\nst r2, -8(r29)\nldb r1, (r4)\n", 0).unwrap();
        let ld = Insn::decode(words[0]).unwrap();
        assert_eq!((ld.rd, ld.rs1, ld.imm16), (2, 3, 16));
        let st = Insn::decode(words[1]).unwrap();
        assert_eq!((st.rd, st.rs1, st.imm16), (2, 29, -8));
        let ldb = Insn::decode(words[2]).unwrap();
        assert_eq!((ldb.rd, ldb.rs1, ldb.imm16), (1, 4, 0));
    }

    #[test]
    fn comments_and_blank_lines() {
        let words = assemble(
            "; header comment\n\n  nop # trailing\n  halt ; done\n",
            0,
        )
        .unwrap();
        assert_eq!(words.len(), 2);
    }

    #[test]
    fn hex_and_unsigned_immediates() {
        let words = assemble("andi r1, r1, 0xFFFF\nlui r2, 0x1234\n", 0).unwrap();
        let andi = Insn::decode(words[0]).unwrap();
        assert_eq!(andi.imm16, -1); // 0xFFFF wraps to the signed field
        let lui = Insn::decode(words[1]).unwrap();
        assert_eq!(lui.imm16, 0x1234);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("nop\nbogus r1\n", 0).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn duplicate_label_rejected() {
        let e = assemble("a: nop\na: nop\n", 0).unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn unknown_label_rejected() {
        let e = assemble("beq r0, r0, nowhere\n", 0).unwrap_err();
        assert!(e.message.contains("invalid integer"));
    }

    #[test]
    fn register_out_of_range() {
        let e = assemble("addi r32, r0, 1\n", 0).unwrap_err();
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn malformed_operands_are_errors() {
        // Each once panicked: a negated i64::MIN, and a `)` before `(`.
        let e = assemble("addi r1, r0, --9223372036854775808\n", 0).unwrap_err();
        assert!(e.message.contains("invalid integer"));
        let e = assemble("ld r1, )(\n", 0).unwrap_err();
        assert!(e.message.contains("offset(reg)"));
    }

    #[test]
    fn immediate_out_of_range() {
        let e = assemble("addi r1, r0, 70000\n", 0).unwrap_err();
        assert!(e.message.contains("does not fit"));
    }

    #[test]
    fn round_trip_through_disassembler() {
        let src = "addi r1, r0, 42\nmul r2, r1, r1\nld r3, 8(r2)\nout r3\nhalt\n";
        let words = assemble(src, 0).unwrap();
        let dis = disassemble(&words).join("\n") + "\n";
        let words2 = assemble(&dis, 0).unwrap();
        assert_eq!(words, words2);
    }

    #[test]
    fn image_has_little_endian_text() {
        let img = assemble_image("halt\n", 0x400, vec![(0x2000, vec![9])]).unwrap();
        assert_eq!(img.text.len(), 4);
        assert_eq!(img.entry, 0x400);
        let w = u32::from_le_bytes(img.text[0..4].try_into().unwrap());
        assert_eq!(Insn::decode(w).unwrap().op, Opcode::Halt);
        assert_eq!(img.data[0].0, 0x2000);
    }
}
