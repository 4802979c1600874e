//! A two-pass assembler for SRV32.
//!
//! Syntax:
//!
//! * `label:` — define a label (may share a line with an instruction).
//! * `op args` — instructions, comma- or space-separated operands.
//! * `#`, `//`, `;` — comments to end of line.
//! * `.word v, v, …` — literal data words (numbers or label addresses).
//! * `.space n` — `n` zero words.
//! * Registers: `x0`–`x31` or ABI names (`zero ra sp gp tp t0-t6 s0-s11
//!   a0-a7 fp`).
//! * Pseudo-instructions: `nop`, `li rd, imm32`, `la rd, label`,
//!   `mv rd, rs`, `not`, `neg`, `j label`, `jr rs`, `call label`, `ret`,
//!   `bgt`, `ble`, `bgtu`, `bleu`, `beqz`, `bnez`, `halt reg|imm`.
//!
//! Loads/stores use `op reg, imm(base)` syntax. Branch/jump targets may be
//! labels or numeric byte offsets.

use crate::encoding::{encode, Instr, Op, Reg};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// An assembled program image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// The program words, loaded from address 0.
    pub words: Vec<u32>,
    /// Label addresses in bytes.
    pub symbols: HashMap<String, u32>,
}

/// Assembly errors, with 1-based line numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// The offending line number (1-based).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for AsmError {}

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError {
        line,
        message: message.into(),
    }
}

fn parse_reg(s: &str, line: usize) -> Result<Reg, AsmError> {
    const ABI: [(&str, u8); 33] = [
        ("zero", 0),
        ("ra", 1),
        ("sp", 2),
        ("gp", 3),
        ("tp", 4),
        ("t0", 5),
        ("t1", 6),
        ("t2", 7),
        ("s0", 8),
        ("fp", 8),
        ("s1", 9),
        ("a0", 10),
        ("a1", 11),
        ("a2", 12),
        ("a3", 13),
        ("a4", 14),
        ("a5", 15),
        ("a6", 16),
        ("a7", 17),
        ("s2", 18),
        ("s3", 19),
        ("s4", 20),
        ("s5", 21),
        ("s6", 22),
        ("s7", 23),
        ("s8", 24),
        ("s9", 25),
        ("s10", 26),
        ("s11", 27),
        ("t3", 28),
        ("t4", 29),
        ("t5", 30),
        ("t6", 31),
    ];
    if let Some(n) = s.strip_prefix('x') {
        if let Ok(i) = n.parse::<u8>() {
            if i < 32 {
                return Ok(Reg(i));
            }
        }
    }
    ABI.iter()
        .find(|(name, _)| *name == s)
        .map(|&(_, i)| Reg(i))
        .ok_or_else(|| err(line, format!("unknown register `{s}`")))
}

fn parse_int(s: &str, line: usize) -> Result<i64, AsmError> {
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
    } else {
        body.parse::<i64>()
    }
    .map_err(|_| err(line, format!("bad number `{s}`")))?;
    Ok(if neg { -v } else { v })
}

/// One operand: a register, number, label, or `imm(base)` memory operand.
#[derive(Debug, Clone)]
enum Operand {
    Reg(Reg),
    Num(i64),
    Label(String),
    Mem { offset: i64, base: Reg },
}

fn parse_operand(s: &str, line: usize) -> Result<Operand, AsmError> {
    let s = s.trim();
    if let Some(open) = s.find('(') {
        let close = s
            .rfind(')')
            .ok_or_else(|| err(line, format!("unclosed memory operand `{s}`")))?;
        let off_str = s[..open].trim();
        let offset = if off_str.is_empty() {
            0
        } else {
            parse_int(off_str, line)?
        };
        let base = parse_reg(s[open + 1..close].trim(), line)?;
        return Ok(Operand::Mem { offset, base });
    }
    if let Ok(r) = parse_reg(s, line) {
        return Ok(Operand::Reg(r));
    }
    if s.starts_with(|c: char| c.is_ascii_digit() || c == '-') {
        return Ok(Operand::Num(parse_int(s, line)?));
    }
    Ok(Operand::Label(s.to_owned()))
}

/// An intermediate item placed at a word address.
#[derive(Debug, Clone)]
enum Item {
    /// A machine instruction, possibly with an unresolved label.
    Instr {
        op: Op,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
        imm: i64,
        /// Label whose resolution becomes the immediate: PC-relative word
        /// offset for branches/jumps, absolute address otherwise.
        label: Option<String>,
        line: usize,
    },
    /// A literal word (or a label address).
    Word { value: i64, label: Option<String> },
}

struct Assembler {
    items: Vec<Item>,
    symbols: HashMap<String, u32>,
}

impl Assembler {
    fn here(&self) -> u32 {
        (self.items.len() * 4) as u32
    }

    fn push_instr(&mut self, op: Op, rd: Reg, rs1: Reg, rs2: Reg, imm: i64, line: usize) {
        self.items.push(Item::Instr {
            op,
            rd,
            rs1,
            rs2,
            imm,
            label: None,
            line,
        });
    }

    fn push_branchish(
        &mut self,
        op: Op,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
        target: Operand,
        line: usize,
    ) -> Result<(), AsmError> {
        match target {
            Operand::Label(l) => self.items.push(Item::Instr {
                op,
                rd,
                rs1,
                rs2,
                imm: 0,
                label: Some(l),
                line,
            }),
            Operand::Num(n) => {
                if n % 4 != 0 {
                    return Err(err(line, "branch offset must be a multiple of 4"));
                }
                self.push_instr(op, rd, rs1, rs2, n / 4, line);
            }
            _ => return Err(err(line, "branch target must be a label or offset")),
        }
        Ok(())
    }
}

/// Assembles SRV32 source into an image loaded at address 0.
///
/// # Errors
///
/// Returns an [`AsmError`] with the offending line for syntax errors,
/// unknown mnemonics/registers/labels, and out-of-range immediates.
pub fn assemble(source: &str) -> Result<Image, AsmError> {
    let mut asm = Assembler {
        items: Vec::new(),
        symbols: HashMap::new(),
    };

    for (idx, raw_line) in source.lines().enumerate() {
        let line = idx + 1;
        let mut text = raw_line;
        for marker in ["#", "//", ";"] {
            if let Some(pos) = text.find(marker) {
                text = &text[..pos];
            }
        }
        let mut text = text.trim();

        // Labels (possibly several) at line start.
        while let Some(colon) = text.find(':') {
            let (label, rest) = text.split_at(colon);
            let label = label.trim();
            if label.is_empty() || label.contains(char::is_whitespace) {
                break;
            }
            let addr = asm.here();
            if asm.symbols.insert(label.to_owned(), addr).is_some() {
                return Err(err(line, format!("duplicate label `{label}`")));
            }
            text = rest[1..].trim();
        }
        if text.is_empty() {
            continue;
        }

        let (mnemonic, rest) = match text.find(char::is_whitespace) {
            Some(pos) => (&text[..pos], text[pos..].trim()),
            None => (text, ""),
        };
        let mnemonic = mnemonic.to_ascii_lowercase();
        let ops: Vec<Operand> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',')
                .map(|s| parse_operand(s, line))
                .collect::<Result<_, _>>()?
        };

        emit(&mut asm, &mnemonic, &ops, line)?;
    }

    // Second pass: resolve labels and encode.
    let mut words = Vec::with_capacity(asm.items.len());
    for (word_idx, item) in asm.items.iter().enumerate() {
        match item {
            Item::Word { value, label } => {
                let v = match label {
                    Some(l) => i64::from(
                        *asm.symbols
                            .get(l)
                            .ok_or_else(|| err(0, format!("undefined label `{l}` in .word")))?,
                    ),
                    None => *value,
                };
                words.push(v as u32);
            }
            Item::Instr {
                op,
                rd,
                rs1,
                rs2,
                imm,
                label,
                line,
            } => {
                let imm = match label {
                    Some(l) => {
                        if let Some(v) = resolve_la_marker(&asm.symbols, l) {
                            v
                        } else {
                            let addr = *asm
                                .symbols
                                .get(l)
                                .ok_or_else(|| err(*line, format!("undefined label `{l}`")))?;
                            if op.is_branch() || *op == Op::Jal {
                                // PC-relative word offset.
                                (i64::from(addr) - (word_idx as i64 * 4)) / 4
                            } else {
                                i64::from(addr)
                            }
                        }
                    }
                    None => *imm,
                };
                if !(-(1 << 15)..(1 << 15)).contains(&imm) {
                    return Err(err(
                        *line,
                        format!("immediate {imm} out of 16-bit range for {op:?}"),
                    ));
                }
                words.push(encode(Instr {
                    op: *op,
                    rd: *rd,
                    rs1: *rs1,
                    rs2: *rs2,
                    imm: imm as i32,
                }));
            }
        }
    }

    Ok(Image {
        words,
        symbols: asm.symbols,
    })
}

fn want(ops: &[Operand], n: usize, line: usize, what: &str) -> Result<(), AsmError> {
    if ops.len() != n {
        return Err(err(
            line,
            format!("{what} expects {n} operands, got {}", ops.len()),
        ));
    }
    Ok(())
}

fn reg_of(op: &Operand, line: usize) -> Result<Reg, AsmError> {
    match op {
        Operand::Reg(r) => Ok(*r),
        _ => Err(err(line, "expected a register")),
    }
}

fn num_of(op: &Operand, line: usize) -> Result<i64, AsmError> {
    match op {
        Operand::Num(n) => Ok(*n),
        _ => Err(err(line, "expected a number")),
    }
}

#[allow(clippy::too_many_lines)]
fn emit(asm: &mut Assembler, mnemonic: &str, ops: &[Operand], line: usize) -> Result<(), AsmError> {
    let z = Reg::ZERO;
    match mnemonic {
        ".word" => {
            for op in ops {
                match op {
                    Operand::Num(n) => asm.items.push(Item::Word {
                        value: *n,
                        label: None,
                    }),
                    Operand::Label(l) => asm.items.push(Item::Word {
                        value: 0,
                        label: Some(l.clone()),
                    }),
                    _ => return Err(err(line, ".word takes numbers or labels")),
                }
            }
        }
        ".space" => {
            want(ops, 1, line, ".space")?;
            let n = num_of(&ops[0], line)?;
            for _ in 0..n {
                asm.items.push(Item::Word {
                    value: 0,
                    label: None,
                });
            }
        }
        "add" | "sub" | "and" | "or" | "xor" | "slt" | "sltu" | "sll" | "srl" | "sra" | "mul" => {
            want(ops, 3, line, mnemonic)?;
            let op = match mnemonic {
                "add" => Op::Add,
                "sub" => Op::Sub,
                "and" => Op::And,
                "or" => Op::Or,
                "xor" => Op::Xor,
                "slt" => Op::Slt,
                "sltu" => Op::Sltu,
                "sll" => Op::Sll,
                "srl" => Op::Srl,
                "sra" => Op::Sra,
                _ => Op::Mul,
            };
            let (rd, rs1, rs2) = (
                reg_of(&ops[0], line)?,
                reg_of(&ops[1], line)?,
                reg_of(&ops[2], line)?,
            );
            asm.push_instr(op, rd, rs1, rs2, 0, line);
        }
        "addi" | "andi" | "ori" | "xori" | "slti" | "sltiu" | "slli" | "srli" | "srai" => {
            want(ops, 3, line, mnemonic)?;
            let op = match mnemonic {
                "addi" => Op::Addi,
                "andi" => Op::Andi,
                "ori" => Op::Ori,
                "xori" => Op::Xori,
                "slti" => Op::Slti,
                "sltiu" => Op::Sltiu,
                "slli" => Op::Slli,
                "srli" => Op::Srli,
                _ => Op::Srai,
            };
            let (rd, rs1) = (reg_of(&ops[0], line)?, reg_of(&ops[1], line)?);
            let imm = num_of(&ops[2], line)?;
            asm.push_instr(op, rd, rs1, z, imm, line);
        }
        "lui" => {
            want(ops, 2, line, "lui")?;
            let rd = reg_of(&ops[0], line)?;
            let imm = num_of(&ops[1], line)?;
            if !(0..=0xFFFF).contains(&imm) {
                return Err(err(line, "lui immediate must be 0..=0xFFFF"));
            }
            // Reinterpret as i16 so encode's range check passes.
            asm.push_instr(Op::Lui, rd, z, z, i64::from(imm as u16 as i16), line);
        }
        "lw" => {
            want(ops, 2, line, "lw")?;
            let rd = reg_of(&ops[0], line)?;
            let Operand::Mem { offset, base } = ops[1] else {
                return Err(err(line, "lw expects `rd, imm(base)`"));
            };
            asm.push_instr(Op::Lw, rd, base, z, offset, line);
        }
        "sw" => {
            want(ops, 2, line, "sw")?;
            let rs2 = reg_of(&ops[0], line)?;
            let Operand::Mem { offset, base } = ops[1] else {
                return Err(err(line, "sw expects `rs, imm(base)`"));
            };
            asm.push_instr(Op::Sw, z, base, rs2, offset, line);
        }
        "beq" | "bne" | "blt" | "bltu" | "bge" | "bgeu" => {
            want(ops, 3, line, mnemonic)?;
            let op = match mnemonic {
                "beq" => Op::Beq,
                "bne" => Op::Bne,
                "blt" => Op::Blt,
                "bltu" => Op::Bltu,
                "bge" => Op::Bge,
                _ => Op::Bgeu,
            };
            let (rs1, rs2) = (reg_of(&ops[0], line)?, reg_of(&ops[1], line)?);
            asm.push_branchish(op, z, rs1, rs2, ops[2].clone(), line)?;
        }
        "bgt" | "ble" | "bgtu" | "bleu" => {
            // Swapped-operand aliases.
            want(ops, 3, line, mnemonic)?;
            let op = match mnemonic {
                "bgt" => Op::Blt,
                "ble" => Op::Bge,
                "bgtu" => Op::Bltu,
                _ => Op::Bgeu,
            };
            let (rs1, rs2) = (reg_of(&ops[0], line)?, reg_of(&ops[1], line)?);
            asm.push_branchish(op, z, rs2, rs1, ops[2].clone(), line)?;
        }
        "beqz" | "bnez" => {
            want(ops, 2, line, mnemonic)?;
            let op = if mnemonic == "beqz" { Op::Beq } else { Op::Bne };
            let rs1 = reg_of(&ops[0], line)?;
            asm.push_branchish(op, z, rs1, z, ops[1].clone(), line)?;
        }
        "jal" => match ops.len() {
            1 => asm.push_branchish(Op::Jal, Reg(1), z, z, ops[0].clone(), line)?,
            2 => {
                let rd = reg_of(&ops[0], line)?;
                asm.push_branchish(Op::Jal, rd, z, z, ops[1].clone(), line)?;
            }
            n => return Err(err(line, format!("jal expects 1 or 2 operands, got {n}"))),
        },
        "jalr" => match ops.len() {
            1 => {
                let rs1 = reg_of(&ops[0], line)?;
                asm.push_instr(Op::Jalr, Reg(1), rs1, z, 0, line);
            }
            3 => {
                let rd = reg_of(&ops[0], line)?;
                let rs1 = reg_of(&ops[1], line)?;
                let imm = num_of(&ops[2], line)?;
                asm.push_instr(Op::Jalr, rd, rs1, z, imm, line);
            }
            n => return Err(err(line, format!("jalr expects 1 or 3 operands, got {n}"))),
        },
        "j" => {
            want(ops, 1, line, "j")?;
            asm.push_branchish(Op::Jal, z, z, z, ops[0].clone(), line)?;
        }
        "jr" => {
            want(ops, 1, line, "jr")?;
            let rs1 = reg_of(&ops[0], line)?;
            asm.push_instr(Op::Jalr, z, rs1, z, 0, line);
        }
        "call" => {
            want(ops, 1, line, "call")?;
            asm.push_branchish(Op::Jal, Reg(1), z, z, ops[0].clone(), line)?;
        }
        "ret" => {
            want(ops, 0, line, "ret")?;
            asm.push_instr(Op::Jalr, z, Reg(1), z, 0, line);
        }
        "nop" => {
            want(ops, 0, line, "nop")?;
            asm.push_instr(Op::Addi, z, z, z, 0, line);
        }
        "mv" => {
            want(ops, 2, line, "mv")?;
            let (rd, rs) = (reg_of(&ops[0], line)?, reg_of(&ops[1], line)?);
            asm.push_instr(Op::Addi, rd, rs, z, 0, line);
        }
        "not" => {
            want(ops, 2, line, "not")?;
            let (rd, rs) = (reg_of(&ops[0], line)?, reg_of(&ops[1], line)?);
            asm.push_instr(Op::Xori, rd, rs, z, -1, line);
        }
        "neg" => {
            want(ops, 2, line, "neg")?;
            let (rd, rs) = (reg_of(&ops[0], line)?, reg_of(&ops[1], line)?);
            asm.push_instr(Op::Sub, rd, z, rs, 0, line);
        }
        "li" => {
            want(ops, 2, line, "li")?;
            let rd = reg_of(&ops[0], line)?;
            let v = num_of(&ops[1], line)? as i32 as u32;
            emit_li(asm, rd, v, line);
        }
        "la" => {
            want(ops, 2, line, "la")?;
            let rd = reg_of(&ops[0], line)?;
            let Operand::Label(l) = &ops[1] else {
                return Err(err(line, "la expects a label"));
            };
            // `la` always expands to lui+ori so its size is known in pass 1;
            // the label is resolved in pass 2 by splitting the address.
            asm.items.push(Item::Instr {
                op: Op::Lui,
                rd,
                rs1: z,
                rs2: z,
                imm: 0,
                label: Some(format!("\u{1}hi\u{1}{l}")),
                line,
            });
            asm.items.push(Item::Instr {
                op: Op::Ori,
                rd,
                rs1: rd,
                rs2: z,
                imm: 0,
                label: Some(format!("\u{1}lo\u{1}{l}")),
                line,
            });
        }
        "halt" => match ops.len() {
            0 => asm.push_instr(Op::Halt, z, z, z, 0, line),
            1 => {
                let rs1 = reg_of(&ops[0], line)?;
                asm.push_instr(Op::Halt, z, rs1, z, 0, line);
            }
            n => return Err(err(line, format!("halt expects 0 or 1 operands, got {n}"))),
        },
        "rdcyc" | "rdinst" => {
            want(ops, 1, line, mnemonic)?;
            let rd = reg_of(&ops[0], line)?;
            let op = if mnemonic == "rdcyc" {
                Op::Rdcyc
            } else {
                Op::Rdinst
            };
            asm.push_instr(op, rd, z, z, 0, line);
        }
        "out" => {
            want(ops, 1, line, "out")?;
            let rs1 = reg_of(&ops[0], line)?;
            asm.push_instr(Op::Out, z, rs1, z, 0, line);
        }
        other => return Err(err(line, format!("unknown mnemonic `{other}`"))),
    }
    Ok(())
}

/// Expands `li rd, v` as `lui rd, hi16; ori rd, rd, lo16` (or a single
/// instruction when one half is zero and the value fits).
fn emit_li(asm: &mut Assembler, rd: Reg, v: u32, line: usize) {
    let hi = (v >> 16) as u16;
    let lo = (v & 0xFFFF) as u16;
    if hi == 0 && lo < 0x8000 {
        asm.push_instr(Op::Addi, rd, Reg::ZERO, Reg::ZERO, i64::from(lo), line);
        return;
    }
    if hi == 0xFFFF && lo >= 0x8000 {
        // Small negative constant.
        asm.push_instr(
            Op::Addi,
            rd,
            Reg::ZERO,
            Reg::ZERO,
            i64::from(v as i32 as i16),
            line,
        );
        return;
    }
    asm.push_instr(
        Op::Lui,
        rd,
        Reg::ZERO,
        Reg::ZERO,
        i64::from(hi as i16),
        line,
    );
    if lo != 0 {
        asm.push_instr(Op::Ori, rd, rd, Reg::ZERO, i64::from(lo as i16), line);
    }
}

// Hook for `la` pseudo resolution: intercept the hi/lo marker labels.
pub(crate) fn resolve_la_marker(symbols: &HashMap<String, u32>, label: &str) -> Option<i64> {
    let mut parts = label.split('\u{1}');
    let _empty = parts.next()?;
    let kind = parts.next()?;
    let target = parts.next()?;
    let addr = *symbols.get(target)?;
    match kind {
        "hi" => Some(i64::from(((addr >> 16) as u16) as i16)),
        "lo" => Some(i64::from((addr & 0xFFFF) as u16 as i16)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::decode;

    #[test]
    fn basic_program_assembles() {
        let image = assemble(
            "start:  addi a0, zero, 5\n        addi a1, zero, 7\n        add  a2, a0, a1\n        halt a2\n",
        )
        .unwrap();
        assert_eq!(image.words.len(), 4);
        let i0 = decode(image.words[0]).unwrap();
        assert_eq!(i0.op, Op::Addi);
        assert_eq!(i0.imm, 5);
        assert_eq!(image.symbols["start"], 0);
    }

    #[test]
    fn branch_targets_resolve_backwards_and_forwards() {
        let image = assemble(
            "        addi t0, zero, 3\nloop:   addi t0, t0, -1\n        bne  t0, zero, loop\n        beq  zero, zero, end\n        nop\nend:    halt\n",
        )
        .unwrap();
        let bne = decode(image.words[2]).unwrap();
        assert_eq!(bne.imm, -1); // back one word
        let beq = decode(image.words[3]).unwrap();
        assert_eq!(beq.imm, 2); // forward over the nop
    }

    #[test]
    fn memory_operands() {
        let image = assemble("lw a0, 8(sp)\nsw a1, -4(s0)\nlw a2, (t0)\n").unwrap();
        let lw = decode(image.words[0]).unwrap();
        assert_eq!(lw.op, Op::Lw);
        assert_eq!(lw.imm, 8);
        assert_eq!(lw.rs1, Reg(2));
        let sw = decode(image.words[1]).unwrap();
        assert_eq!(sw.op, Op::Sw);
        assert_eq!(sw.imm, -4);
        assert_eq!(sw.rs1, Reg(8));
        assert_eq!(sw.rs2, Reg(11));
    }

    #[test]
    fn li_expansion() {
        // Small constant: one addi.
        assert_eq!(assemble("li a0, 42\n").unwrap().words.len(), 1);
        // Negative small: one addi.
        assert_eq!(assemble("li a0, -3\n").unwrap().words.len(), 1);
        // Full 32-bit: lui + ori.
        let img = assemble("li a0, 0x12345678\n").unwrap();
        assert_eq!(img.words.len(), 2);
        let lui = decode(img.words[0]).unwrap();
        assert_eq!(lui.op, Op::Lui);
        assert_eq!(lui.imm & 0xFFFF, 0x1234);
        // Upper-only: single lui.
        assert_eq!(assemble("li a0, 0x40000\n").unwrap().words.len(), 1);
        assert_eq!(assemble("li a0, 0x10000\n").unwrap().words.len(), 1);
        // Both halves: lui + ori.
        assert_eq!(assemble("li a0, 0x40001\n").unwrap().words.len(), 2);
    }

    #[test]
    fn data_directives() {
        let image = assemble(".word 1, 2, 0xFF\n.space 3\ndata: .word data\n").unwrap();
        assert_eq!(image.words[0..3], [1, 2, 0xFF]);
        assert_eq!(image.words[3..6], [0, 0, 0]);
        assert_eq!(image.words[6], 24); // address of `data`
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("nop\nbogus a0\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = assemble("addi a0, a1\n").unwrap_err();
        assert!(e.message.contains("expects 3"));
        let e = assemble("bne t0, t1, nowhere\n").unwrap_err();
        assert!(e.message.contains("undefined label"));
        let e = assemble("l: nop\nl: nop\n").unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn pseudo_instructions() {
        let image = assemble(
            "f: mv a0, a1\n   not a2, a3\n   neg a4, a5\n   call f\n   ret\n   j f\n   jr ra\n   beqz a0, f\n   bgt a0, a1, f\n",
        )
        .unwrap();
        assert_eq!(image.words.len(), 9);
        let bgt = decode(image.words[8]).unwrap();
        assert_eq!(bgt.op, Op::Blt);
        // Operands swapped: blt a1, a0.
        assert_eq!(bgt.rs1, Reg(11));
        assert_eq!(bgt.rs2, Reg(10));
    }
}
