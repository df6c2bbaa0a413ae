//! The demonstration accumulator CPU with a gate-level SCAL datapath.
//!
//! The control sequencer (fetch/decode, program counter) is host code — the
//! paper's *hardcore*, which Chapter 5 shows cannot itself be made
//! self-checking from standard gates — while every data computation flows
//! through the gate-level alternating datapath of [`crate::Datapath`] and
//! the parity memory of [`crate::ParityMemory`].

use crate::campaign::CpuUnit;
use crate::datapath::{unit_inputs, Datapath, WORD};
use crate::memory::{MemoryFault, ParityMemory};

/// Instruction set of the demonstration machine (8-bit accumulator,
/// absolute 8-bit addresses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Load immediate into the accumulator.
    Ldi(u8),
    /// Load from memory.
    Lda(u8),
    /// Store to memory.
    Sta(u8),
    /// Add memory to accumulator (through the self-dual adder).
    Add(u8),
    /// Subtract memory from accumulator (add the two's complement, again
    /// through the adder).
    Sub(u8),
    /// Bitwise AND with memory.
    And(u8),
    /// Bitwise OR with memory.
    Or(u8),
    /// Bitwise XOR with memory.
    Xor(u8),
    /// Shift accumulator left one bit.
    Shl,
    /// Shift accumulator right one bit.
    Shr,
    /// Unconditional jump.
    Jmp(u8),
    /// Jump if the accumulator is zero.
    Jz(u8),
    /// Halt.
    Hlt,
}

/// A program: a sequence of instructions (instruction storage lives in the
/// hardcore/control domain, like the paper's Fig. 7.3 which checks the data
/// paths).
#[derive(Debug, Clone, Default)]
pub struct Program(pub Vec<Op>);

/// Operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuMode {
    /// Conventional single-period operation, no checking.
    Normal,
    /// SCAL operation: every datapath result is computed twice (true and
    /// complemented periods) and checked for alternation — twice the time,
    /// single-fault detection (the paper's central trade).
    Alternating,
}

/// A dynamic check failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckError {
    /// A datapath output failed to alternate across the two periods.
    NonAlternating {
        /// Which unit flagged ("adder", "logic", "shift").
        unit: &'static str,
        /// Program counter at detection.
        pc: usize,
    },
    /// The parity memory flagged a read.
    Memory(MemoryFault),
    /// The program ran past its end without `Hlt`.
    RanOffEnd,
}

impl core::fmt::Display for CheckError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckError::NonAlternating { unit, pc } => {
                write!(f, "non-alternating {unit} output at pc {pc}")
            }
            CheckError::Memory(m) => write!(f, "{m}"),
            CheckError::RanOffEnd => write!(f, "program ran off the end"),
        }
    }
}

impl std::error::Error for CheckError {}

impl From<MemoryFault> for CheckError {
    fn from(m: MemoryFault) -> Self {
        CheckError::Memory(m)
    }
}

/// Statistics of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Datapath periods consumed (2 per datapath op in alternating mode).
    pub periods: u64,
}

/// One datapath operation of a recorded run: the unit it ran on (`None`
/// for the shifter, which is wiring) and its true-period operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DatapathOp {
    pub(crate) unit: Option<CpuUnit>,
    pub(crate) a: u8,
    pub(crate) b: u8,
    pub(crate) cin: bool,
}

impl DatapathOp {
    /// The unit's input vector in the true (`phi = false`) or complemented
    /// period, as [`Datapath::add_once`] / [`Datapath::logic_once`] drive it.
    pub(crate) fn inputs(&self, phi: bool) -> [bool; 2 * WORD + 1] {
        unit_inputs(self.a, self.b, self.cin ^ phi, phi)
    }
}

/// The accumulator CPU.
#[derive(Debug)]
pub struct Cpu {
    /// Gate-level datapath (public for fault injection).
    pub datapath: Datapath,
    /// Parity-coded data memory (public for fault injection).
    pub memory: ParityMemory,
    mode: CpuMode,
    acc: u8,
    zero_flag: bool,
    carry_flag: bool,
    pc: usize,
    halted: bool,
    stats: RunStats,
    /// When `Some`, every datapath operation is appended here (golden runs
    /// of the CPU campaign record their trace this way).
    pub(crate) trace: Option<Vec<DatapathOp>>,
}

impl Cpu {
    /// Creates a CPU with zeroed state and a 256-word memory.
    #[must_use]
    pub fn new(mode: CpuMode) -> Self {
        Self::with_datapath(mode, Datapath::new())
    }

    /// A CPU with zeroed state over a given datapath.
    pub(crate) fn with_datapath(mode: CpuMode, datapath: Datapath) -> Self {
        Cpu {
            datapath,
            memory: ParityMemory::new(256),
            mode,
            acc: 0,
            zero_flag: true,
            carry_flag: false,
            pc: 0,
            halted: false,
            stats: RunStats::default(),
            trace: None,
        }
    }

    /// The accumulator value.
    #[must_use]
    pub fn acc(&self) -> u8 {
        self.acc
    }

    /// The zero flag (status storage of Fig. 7.4b).
    #[must_use]
    pub fn zero_flag(&self) -> bool {
        self.zero_flag
    }

    /// The carry flag.
    #[must_use]
    pub fn carry_flag(&self) -> bool {
        self.carry_flag
    }

    /// Current program counter.
    #[must_use]
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// `true` after `Hlt`.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Run statistics so far.
    #[must_use]
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// The operating mode.
    #[must_use]
    pub fn mode(&self) -> CpuMode {
        self.mode
    }

    fn record(&mut self, unit: Option<CpuUnit>, b: u8, cin: bool) {
        if let Some(trace) = &mut self.trace {
            trace.push(DatapathOp {
                unit,
                a: self.acc,
                b,
                cin,
            });
        }
    }

    fn alu_add(&mut self, operand: u8, cin: bool) -> Result<(u8, bool), CheckError> {
        self.record(Some(CpuUnit::Adder), operand, cin);
        let (s1, c1) = self.datapath.add_once(self.acc, operand, cin, false);
        self.stats.periods += 1;
        if self.mode == CpuMode::Alternating {
            let (s2, c2) = self.datapath.add_once(self.acc, operand, cin, true);
            self.stats.periods += 1;
            if s2 != !s1 || c2 == c1 {
                return Err(CheckError::NonAlternating {
                    unit: "adder",
                    pc: self.pc,
                });
            }
        }
        Ok((s1, c1))
    }

    fn alu_logic(&mut self, operand: u8) -> Result<(u8, u8, u8), CheckError> {
        self.record(Some(CpuUnit::Logic), operand, false);
        let p1 = self.datapath.logic_once(self.acc, operand, false);
        self.stats.periods += 1;
        if self.mode == CpuMode::Alternating {
            let p2 = self.datapath.logic_once(self.acc, operand, true);
            self.stats.periods += 1;
            if p2.0 != !p1.0 || p2.1 != !p1.1 || p2.2 != !p1.2 {
                return Err(CheckError::NonAlternating {
                    unit: "logic",
                    pc: self.pc,
                });
            }
        }
        Ok(p1)
    }

    fn shift(&mut self, left: bool) -> Result<u8, CheckError> {
        self.record(None, 0, false);
        let r1 = Datapath::shift(self.acc, left, false);
        self.stats.periods += 1;
        if self.mode == CpuMode::Alternating {
            let r2 = Datapath::shift(!self.acc, left, true);
            self.stats.periods += 1;
            if r2 != !r1 {
                return Err(CheckError::NonAlternating {
                    unit: "shift",
                    pc: self.pc,
                });
            }
        }
        Ok(r1)
    }

    fn set_acc(&mut self, v: u8) {
        self.acc = v;
        self.zero_flag = v == 0;
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckError`] on any dynamic check failure; the machine
    /// halts at the fault (the paper's clock-disable semantics).
    pub fn step(&mut self, program: &Program) -> Result<(), CheckError> {
        if self.halted {
            return Ok(());
        }
        let Some(&op) = program.0.get(self.pc) else {
            self.halted = true;
            return Err(CheckError::RanOffEnd);
        };
        let mut next_pc = self.pc + 1;
        match op {
            Op::Ldi(v) => self.set_acc(v),
            Op::Lda(a) => {
                let v = self.memory.read(a)?;
                self.set_acc(v);
            }
            Op::Sta(a) => self.memory.write(a, self.acc),
            Op::Add(a) => {
                let v = self.memory.read(a)?;
                let (s, c) = self.alu_add(v, false)?;
                self.carry_flag = c;
                self.set_acc(s);
            }
            Op::Sub(a) => {
                let v = self.memory.read(a)?;
                let (s, c) = self.alu_add(!v, true)?;
                self.carry_flag = c;
                self.set_acc(s);
            }
            Op::And(a) => {
                let v = self.memory.read(a)?;
                let (and, _, _) = self.alu_logic(v)?;
                self.set_acc(and);
            }
            Op::Or(a) => {
                let v = self.memory.read(a)?;
                let (_, or, _) = self.alu_logic(v)?;
                self.set_acc(or);
            }
            Op::Xor(a) => {
                let v = self.memory.read(a)?;
                let (_, _, xor) = self.alu_logic(v)?;
                self.set_acc(xor);
            }
            Op::Shl => {
                let r = self.shift(true)?;
                self.set_acc(r);
            }
            Op::Shr => {
                let r = self.shift(false)?;
                self.set_acc(r);
            }
            Op::Jmp(t) => next_pc = t as usize,
            Op::Jz(t) => {
                if self.zero_flag {
                    next_pc = t as usize;
                }
            }
            Op::Hlt => {
                self.halted = true;
                next_pc = self.pc;
            }
        }
        self.pc = next_pc;
        self.stats.instructions += 1;
        Ok(())
    }

    /// Copies the architectural state (accumulator, flags, program counter,
    /// halt latch, and memory contents) from another CPU — the vote/sync
    /// primitive of the redundant configurations in [`crate::adr`] and
    /// [`crate::tmr`]. Datapath faults and statistics are *not* copied.
    pub fn copy_architectural_state(&mut self, from: &Cpu) {
        self.acc = from.acc;
        self.zero_flag = from.zero_flag;
        self.carry_flag = from.carry_flag;
        self.pc = from.pc;
        self.halted = from.halted;
        self.memory = from.memory.clone();
    }

    /// A fresh CPU carrying only this one's architectural state (no faults,
    /// no statistics) — handy as a voting reference.
    #[must_use]
    pub fn clone_architectural(&self) -> Cpu {
        let mut fresh = Cpu::new(self.mode);
        fresh.copy_architectural_state(self);
        fresh
    }

    /// Runs until halt or error, with an instruction budget.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CheckError`].
    pub fn run(&mut self, program: &Program, budget: u64) -> Result<RunStats, CheckError> {
        let mut remaining = budget;
        while !self.halted && remaining > 0 {
            self.step(program)?;
            remaining -= 1;
        }
        Ok(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scal_netlist::Override;

    /// Computes 6 * 7 by repeated addition, result in memory[0x10].
    fn times_program() -> Program {
        Program(vec![
            Op::Ldi(7),
            Op::Sta(0x20), // addend
            Op::Ldi(6),
            Op::Sta(0x21), // counter
            Op::Ldi(0),
            Op::Sta(0x10), // acc result
            // loop:
            Op::Lda(0x21), // 6
            Op::Jz(14),
            Op::Ldi(1),
            Op::Sta(0x22),
            Op::Lda(0x21),
            Op::Sub(0x22),
            Op::Sta(0x21),
            Op::Jmp(15),
            Op::Hlt,       // 14: done
            Op::Lda(0x10), // 15
            Op::Add(0x20),
            Op::Sta(0x10),
            Op::Jmp(6),
        ])
    }

    #[test]
    fn multiplication_by_repeated_addition() {
        for mode in [CpuMode::Normal, CpuMode::Alternating] {
            let mut cpu = Cpu::new(mode);
            cpu.run(&times_program(), 10_000).unwrap();
            assert!(cpu.halted());
            assert_eq!(cpu.memory.read(0x10).unwrap(), 42);
        }
    }

    #[test]
    fn alternating_mode_costs_twice_the_periods() {
        let mut normal = Cpu::new(CpuMode::Normal);
        normal.run(&times_program(), 10_000).unwrap();
        let mut scal = Cpu::new(CpuMode::Alternating);
        scal.run(&times_program(), 10_000).unwrap();
        assert_eq!(scal.stats().instructions, normal.stats().instructions);
        assert_eq!(scal.stats().periods, 2 * normal.stats().periods);
    }

    #[test]
    fn logic_and_shift_ops() {
        let mut cpu = Cpu::new(CpuMode::Alternating);
        let p = Program(vec![
            Op::Ldi(0b1100_1010),
            Op::Sta(1),
            Op::Ldi(0b1010_0110),
            Op::And(1),
            Op::Sta(2),
            Op::Ldi(0b1010_0110),
            Op::Or(1),
            Op::Sta(3),
            Op::Ldi(0b1010_0110),
            Op::Xor(1),
            Op::Shl,
            Op::Sta(4),
            Op::Hlt,
        ]);
        cpu.run(&p, 100).unwrap();
        assert_eq!(cpu.memory.read(2).unwrap(), 0b1100_1010 & 0b1010_0110);
        assert_eq!(cpu.memory.read(3).unwrap(), 0b1100_1010 | 0b1010_0110);
        assert_eq!(
            cpu.memory.read(4).unwrap(),
            (0b1100_1010u8 ^ 0b1010_0110) << 1
        );
    }

    #[test]
    fn sub_and_flags() {
        let mut cpu = Cpu::new(CpuMode::Alternating);
        let p = Program(vec![
            Op::Ldi(5),
            Op::Sta(1),
            Op::Ldi(5),
            Op::Sub(1),
            Op::Hlt,
        ]);
        cpu.run(&p, 10).unwrap();
        assert_eq!(cpu.acc(), 0);
        assert!(cpu.zero_flag());
        assert!(cpu.carry_flag(), "5-5 sets carry (no borrow)");
    }

    #[test]
    fn adder_fault_detected_in_alternating_mode_only() {
        let program = Program(vec![
            Op::Ldi(3),
            Op::Sta(1),
            Op::Ldi(1),
            Op::Add(1),
            Op::Sta(2),
            Op::Hlt,
        ]);
        // Normal mode silently computes garbage (3 + 1 = 4 loses bit 2).
        let mut normal = Cpu::new(CpuMode::Normal);
        let s2 = normal.datapath.adder.outputs()[2].node;
        normal.datapath.fault_adder(Override::stem(s2, false));
        normal.run(&program, 100).unwrap();
        assert_ne!(normal.memory.read(2).unwrap(), 4, "silent corruption");

        // Alternating mode halts with a check error.
        let mut scal = Cpu::new(CpuMode::Alternating);
        let s2 = scal.datapath.adder.outputs()[2].node;
        scal.datapath.fault_adder(Override::stem(s2, false));
        let err = scal.run(&program, 100).unwrap_err();
        assert!(matches!(
            err,
            CheckError::NonAlternating { unit: "adder", .. }
        ));
    }

    #[test]
    fn memory_fault_detected_in_both_modes() {
        for mode in [CpuMode::Normal, CpuMode::Alternating] {
            let mut cpu = Cpu::new(mode);
            let p = Program(vec![Op::Ldi(9), Op::Sta(7), Op::Lda(7), Op::Hlt]);
            cpu.memory.write(7, 0); // pre-fill
            cpu.step(&p).unwrap();
            cpu.step(&p).unwrap();
            cpu.memory.corrupt_bit(7, 3);
            let err = cpu.step(&p).unwrap_err();
            assert!(matches!(err, CheckError::Memory(_)));
        }
    }

    #[test]
    fn run_off_end_reported() {
        let mut cpu = Cpu::new(CpuMode::Normal);
        let err = cpu.run(&Program(vec![Op::Ldi(1)]), 10).unwrap_err();
        assert_eq!(err, CheckError::RanOffEnd);
    }
}
