//! The golden-model instruction-set simulator.

use crate::encoding::{decode, Instr, Op};
use std::error::Error;
use std::fmt;

/// Execution faults.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IssError {
    /// The PC or a data access left the memory.
    OutOfBounds {
        /// The faulting byte address.
        addr: u32,
        /// What kind of access faulted.
        access: &'static str,
    },
    /// A data access was not word-aligned (SRV32 is word-only).
    Misaligned {
        /// The faulting byte address.
        addr: u32,
    },
    /// An undecodable instruction was fetched.
    IllegalInstruction {
        /// The PC of the illegal instruction.
        pc: u32,
        /// The raw word.
        word: u32,
    },
}

impl fmt::Display for IssError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IssError::OutOfBounds { addr, access } => {
                write!(f, "{access} access out of bounds at {addr:#010x}")
            }
            IssError::Misaligned { addr } => write!(f, "misaligned access at {addr:#010x}"),
            IssError::IllegalInstruction { pc, word } => {
                write!(f, "illegal instruction {word:#010x} at pc {pc:#010x}")
            }
        }
    }
}

impl Error for IssError {}

/// The SRV32 golden model: architectural state plus instruction/cycle
/// counters (`rdcyc` reads the same count as `rdinst` here — the ISS is
/// not a timing model, every instruction takes one "cycle").
#[derive(Debug, Clone)]
pub struct Iss {
    regs: [u32; 32],
    mem: Vec<u32>,
    pc: u32,
    instret: u64,
    halted: Option<u32>,
    console: Vec<u8>,
}

impl Iss {
    /// Creates a simulator with `mem_bytes` of zeroed memory.
    ///
    /// # Panics
    ///
    /// Panics if `mem_bytes` is not a positive multiple of 4.
    pub fn new(mem_bytes: usize) -> Self {
        assert!(
            mem_bytes > 0 && mem_bytes.is_multiple_of(4),
            "memory must be whole words"
        );
        Iss {
            regs: [0; 32],
            mem: vec![0; mem_bytes / 4],
            pc: 0,
            instret: 0,
            halted: None,
            console: Vec::new(),
        }
    }

    /// Loads words at a byte address.
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit.
    pub fn load(&mut self, words: &[u32], byte_addr: u32) {
        let base = (byte_addr / 4) as usize;
        self.mem[base..base + words.len()].copy_from_slice(words);
    }

    /// The current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Retired instruction count.
    pub fn instret(&self) -> u64 {
        self.instret
    }

    /// The exit code, once halted.
    pub fn exit_code(&self) -> Option<u32> {
        self.halted
    }

    /// A register's value.
    pub fn reg(&self, index: usize) -> u32 {
        self.regs[index]
    }

    /// Bytes written with `out`.
    pub fn console(&self) -> &[u8] {
        &self.console
    }

    /// The memory size in bytes.
    pub fn mem_bytes(&self) -> usize {
        self.mem.len() * 4
    }

    fn read_word(&self, addr: u32, access: &'static str) -> Result<u32, IssError> {
        if !addr.is_multiple_of(4) {
            return Err(IssError::Misaligned { addr });
        }
        self.mem
            .get((addr / 4) as usize)
            .copied()
            .ok_or(IssError::OutOfBounds { addr, access })
    }

    fn write_word(&mut self, addr: u32, value: u32) -> Result<(), IssError> {
        if !addr.is_multiple_of(4) {
            return Err(IssError::Misaligned { addr });
        }
        match self.mem.get_mut((addr / 4) as usize) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(IssError::OutOfBounds {
                addr,
                access: "store",
            }),
        }
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns an [`IssError`] on faults; the machine state is left at the
    /// fault point.
    pub fn step(&mut self) -> Result<(), IssError> {
        if self.halted.is_some() {
            return Ok(());
        }
        let word = self.read_word(self.pc, "fetch")?;
        let instr = decode(word).ok_or(IssError::IllegalInstruction { pc: self.pc, word })?;
        self.execute(instr)
    }

    fn execute(&mut self, i: Instr) -> Result<(), IssError> {
        let rs1 = self.regs[i.rs1.index()];
        let rs2 = self.regs[i.rs2.index()];
        let imm_s = i.imm as u32; // sign-extended
        let imm_z = (i.imm as u32) & 0xFFFF; // zero-extended (logical ops)
        let mut next_pc = self.pc.wrapping_add(4);
        let mut wb: Option<u32> = None;

        match i.op {
            Op::Halt => {
                self.halted = Some(rs1);
                self.instret += 1;
                return Ok(());
            }
            Op::Add => wb = Some(rs1.wrapping_add(rs2)),
            Op::Sub => wb = Some(rs1.wrapping_sub(rs2)),
            Op::And => wb = Some(rs1 & rs2),
            Op::Or => wb = Some(rs1 | rs2),
            Op::Xor => wb = Some(rs1 ^ rs2),
            Op::Slt => wb = Some(u32::from((rs1 as i32) < (rs2 as i32))),
            Op::Sltu => wb = Some(u32::from(rs1 < rs2)),
            Op::Sll => wb = Some(rs1.wrapping_shl(rs2 & 31)),
            Op::Srl => wb = Some(rs1.wrapping_shr(rs2 & 31)),
            Op::Sra => wb = Some(((rs1 as i32).wrapping_shr(rs2 & 31)) as u32),
            Op::Mul => wb = Some(rs1.wrapping_mul(rs2)),
            Op::Addi => wb = Some(rs1.wrapping_add(imm_s)),
            Op::Andi => wb = Some(rs1 & imm_z),
            Op::Ori => wb = Some(rs1 | imm_z),
            Op::Xori => wb = Some(rs1 ^ imm_z),
            Op::Slti => wb = Some(u32::from((rs1 as i32) < (imm_s as i32))),
            Op::Sltiu => wb = Some(u32::from(rs1 < imm_s)),
            Op::Slli => wb = Some(rs1.wrapping_shl(imm_z & 31)),
            Op::Srli => wb = Some(rs1.wrapping_shr(imm_z & 31)),
            Op::Srai => wb = Some(((rs1 as i32).wrapping_shr(imm_z & 31)) as u32),
            Op::Lui => wb = Some(imm_z << 16),
            Op::Lw => wb = Some(self.read_word(rs1.wrapping_add(imm_s), "load")?),
            Op::Sw => self.write_word(rs1.wrapping_add(imm_s), rs2)?,
            Op::Beq => {
                if rs1 == rs2 {
                    next_pc = self.branch_target(i.imm);
                }
            }
            Op::Bne => {
                if rs1 != rs2 {
                    next_pc = self.branch_target(i.imm);
                }
            }
            Op::Blt => {
                if (rs1 as i32) < (rs2 as i32) {
                    next_pc = self.branch_target(i.imm);
                }
            }
            Op::Bltu => {
                if rs1 < rs2 {
                    next_pc = self.branch_target(i.imm);
                }
            }
            Op::Bge => {
                if (rs1 as i32) >= (rs2 as i32) {
                    next_pc = self.branch_target(i.imm);
                }
            }
            Op::Bgeu => {
                if rs1 >= rs2 {
                    next_pc = self.branch_target(i.imm);
                }
            }
            Op::Jal => {
                wb = Some(self.pc.wrapping_add(4));
                next_pc = self.branch_target(i.imm);
            }
            Op::Jalr => {
                wb = Some(self.pc.wrapping_add(4));
                next_pc = rs1.wrapping_add(imm_s) & !3;
            }
            Op::Rdcyc | Op::Rdinst => wb = Some(self.instret as u32),
            Op::Out => self.console.push((rs1 & 0xFF) as u8),
        }

        if let Some(v) = wb {
            if i.rd.index() != 0 {
                self.regs[i.rd.index()] = v;
            }
        }
        self.pc = next_pc;
        self.instret += 1;
        Ok(())
    }

    fn branch_target(&self, imm_words: i32) -> u32 {
        self.pc.wrapping_add((imm_words as u32).wrapping_mul(4))
    }

    /// Runs until halt or `max_instructions`; returns the exit code if the
    /// program halted.
    ///
    /// # Errors
    ///
    /// Returns an [`IssError`] on faults.
    pub fn run(&mut self, max_instructions: u64) -> Result<Option<u32>, IssError> {
        for _ in 0..max_instructions {
            if self.halted.is_some() {
                break;
            }
            self.step()?;
        }
        Ok(self.halted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run(src: &str) -> Iss {
        let image = assemble(src).unwrap();
        let mut iss = Iss::new(64 * 1024);
        iss.load(&image.words, 0);
        iss.run(1_000_000).unwrap();
        iss
    }

    #[test]
    fn arithmetic_and_halt() {
        let iss = run("li a0, 6\nli a1, 7\nmul a2, a0, a1\nhalt a2\n");
        assert_eq!(iss.exit_code(), Some(42));
    }

    #[test]
    fn x0_is_hardwired() {
        let iss = run("addi x0, x0, 5\nhalt x0\n");
        assert_eq!(iss.exit_code(), Some(0));
    }

    #[test]
    fn loads_and_stores() {
        let iss = run(
            "la t0, data\nlw a0, 0(t0)\nlw a1, 4(t0)\nadd a2, a0, a1\nsw a2, 8(t0)\nlw a3, 8(t0)\nhalt a3\ndata: .word 30, 12, 0\n",
        );
        assert_eq!(iss.exit_code(), Some(42));
    }

    #[test]
    fn signed_and_unsigned_compares() {
        let iss = run(
            "li t0, -1\nli t1, 1\nslt a0, t0, t1\nsltu a1, t0, t1\nslli a0, a0, 1\nor a0, a0, a1\nhalt a0\n",
        );
        // slt(-1,1)=1, sltu(0xFFFFFFFF,1)=0 → (1<<1)|0 = 2.
        assert_eq!(iss.exit_code(), Some(2));
    }

    #[test]
    fn shifts() {
        let iss = run("li t0, -16\nsrai a0, t0, 2\nsrli a1, t0, 28\nadd a2, a0, a1\nhalt a2\n");
        // srai(-16,2) = -4; srli(0xFFFFFFF0,28) = 15; sum = 11.
        assert_eq!(iss.exit_code(), Some(11));
    }

    #[test]
    fn function_calls() {
        let iss = run("li a0, 5\ncall square\nhalt a0\nsquare: mul a0, a0, a0\nret\n");
        assert_eq!(iss.exit_code(), Some(25));
    }

    #[test]
    fn counters_advance() {
        let iss = run("nop\nnop\nrdinst a0\nhalt a0\n");
        // rdinst executes as the 3rd instruction; 2 retired before it.
        assert_eq!(iss.exit_code(), Some(2));
        assert_eq!(iss.instret(), 4);
    }

    #[test]
    fn console_output() {
        let iss = run("li a0, 72\nout a0\nli a0, 105\nout a0\nhalt\n");
        assert_eq!(iss.console(), b"Hi");
    }

    #[test]
    fn faults_reported() {
        let image = assemble("lw a0, 2(zero)\n").unwrap();
        let mut iss = Iss::new(1024);
        iss.load(&image.words, 0);
        assert!(matches!(iss.step(), Err(IssError::Misaligned { .. })));

        let image = assemble("li t0, 0x100000\nlw a0, 0(t0)\n").unwrap();
        let mut iss = Iss::new(1024);
        iss.load(&image.words, 0);
        iss.step().unwrap();
        assert!(matches!(iss.step(), Err(IssError::OutOfBounds { .. })));

        let mut iss = Iss::new(1024);
        iss.load(&[63 << 26], 0);
        assert!(matches!(
            iss.step(),
            Err(IssError::IllegalInstruction { .. })
        ));
    }

    #[test]
    fn lui_ori_build_constants() {
        let iss = run("li a0, 0xDEADBEEF\nhalt a0\n");
        assert_eq!(iss.exit_code(), Some(0xDEADBEEF));
    }
}
