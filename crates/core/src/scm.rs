//! The per-link standard-cell-memory instruction store.
//!
//! The paper's key micro-architectural choice (Section III-1b): microcode
//! is fetched from a tiny **SCM** private to each link, not from shared
//! SRAM over the bus. Fetch latency is one cycle and deterministic (no bus
//! contention) and the access energy is an order of magnitude below an
//! SRAM macro's — for small footprints SCMs also beat SRAMs on area
//! because sense amplifiers dominate tiny macros (paper ref \[20\]).

use crate::command::Command;
use crate::encoding::{decode_command, encode_command};
use crate::program::Program;
use std::fmt;

/// A small instruction memory of 48-bit lines with access accounting.
///
/// ```
/// use pels_core::{Command, Program, Scm};
/// let mut scm = Scm::new(4);
/// let p = Program::new(vec![Command::Halt])?;
/// scm.load(&p)?;
/// assert_eq!(scm.fetch(0), Command::Halt);
/// assert_eq!(scm.reads(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scm {
    lines: Vec<u64>,
    reads: u64,
    writes: u64,
}

/// A program that does not fit the SCM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScmCapacityError {
    /// Lines the program needs.
    pub needed: usize,
    /// Lines the SCM has.
    pub capacity: usize,
}

impl fmt::Display for ScmCapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "program of {} commands exceeds the {}-line scm",
            self.needed, self.capacity
        )
    }
}

impl std::error::Error for ScmCapacityError {}

impl Scm {
    /// Creates an SCM of `lines` 48-bit lines, initialized to `halt`.
    ///
    /// The paper sweeps 4, 6 and 8 lines per link (Figure 6a).
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero or exceeds 512 (the 9-bit jump-target
    /// space).
    pub fn new(lines: usize) -> Self {
        assert!(
            (1..=512).contains(&lines),
            "scm must have 1..=512 lines, got {lines}"
        );
        let halt = encode_command(&Command::Halt).expect("halt always encodes");
        Scm {
            lines: vec![halt; lines],
            reads: 0,
            writes: 0,
        }
    }

    /// Number of lines.
    pub fn capacity(&self) -> usize {
        self.lines.len()
    }

    /// Memory footprint in bits (48 per line) — the area model's input.
    pub fn bits(&self) -> usize {
        self.lines.len() * 48
    }

    /// Loads a program starting at line 0; remaining lines are reset to
    /// `halt`.
    ///
    /// # Errors
    ///
    /// Returns [`ScmCapacityError`] when the program is longer than the
    /// SCM.
    pub fn load(&mut self, program: &Program) -> Result<(), ScmCapacityError> {
        if program.len() > self.capacity() {
            return Err(ScmCapacityError {
                needed: program.len(),
                capacity: self.capacity(),
            });
        }
        let halt = encode_command(&Command::Halt).expect("halt always encodes");
        for (i, raw) in program.encode().into_iter().enumerate() {
            self.lines[i] = raw;
            self.writes += 1;
        }
        for line in self.lines.iter_mut().skip(program.len()) {
            *line = halt;
        }
        Ok(())
    }

    /// Writes one raw line (the CPU's memory-mapped SCM-window path).
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn write_line(&mut self, line: usize, raw: u64) {
        self.lines[line] = raw;
        self.writes += 1;
    }

    /// Raw content of a line, without counting an access.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn peek_line(&self, line: usize) -> u64 {
        self.lines[line]
    }

    /// Fetches and decodes the command at `line`, counting one SCM read.
    /// Out-of-range or undecodable lines fetch as `halt` (the hardware's
    /// safe default).
    pub fn fetch(&mut self, line: usize) -> Command {
        self.reads += 1;
        self.lines
            .get(line)
            .and_then(|&raw| decode_command(raw).ok())
            .unwrap_or(Command::Halt)
    }

    /// SCM reads so far.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// SCM writes so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Takes and clears the access counters.
    pub fn take_access_counts(&mut self) -> (u64, u64) {
        let out = (self.reads, self.writes);
        self.reads = 0;
        self.writes = 0;
        out
    }
}

/// Validates that `program` fits an SCM of `lines` lines without building
/// one — used by configuration-time checks.
///
/// # Errors
///
/// Returns [`ScmCapacityError`] when the program needs more lines.
pub fn fits(program: &Program, lines: usize) -> Result<(), ScmCapacityError> {
    if program.len() > lines {
        Err(ScmCapacityError {
            needed: program.len(),
            capacity: lines,
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::Cond;

    #[test]
    fn fresh_scm_fetches_halt_everywhere() {
        let mut scm = Scm::new(4);
        for i in 0..4 {
            assert_eq!(scm.fetch(i), Command::Halt);
        }
        assert_eq!(scm.fetch(99), Command::Halt, "out of range is halt");
    }

    #[test]
    fn load_and_fetch_roundtrip() {
        let mut scm = Scm::new(6);
        let p = Program::new(vec![
            Command::Capture { offset: 6, mask: 0xFFF },
            Command::JumpIf {
                cond: Cond::GeU,
                target: 0,
                operand: 100,
            },
            Command::Halt,
        ])
        .unwrap();
        scm.load(&p).unwrap();
        assert_eq!(scm.fetch(0), p.commands()[0]);
        assert_eq!(scm.fetch(1), p.commands()[1]);
        assert_eq!(scm.fetch(2), Command::Halt);
        assert_eq!(scm.fetch(5), Command::Halt, "tail reset to halt");
    }

    #[test]
    fn reload_clears_previous_program() {
        let mut scm = Scm::new(4);
        let long = Program::new(vec![Command::Nop, Command::Nop, Command::Nop, Command::Halt])
            .unwrap();
        scm.load(&long).unwrap();
        let short = Program::new(vec![Command::Halt]).unwrap();
        scm.load(&short).unwrap();
        assert_eq!(scm.fetch(1), Command::Halt);
        assert_eq!(scm.fetch(2), Command::Halt);
    }

    #[test]
    fn oversized_program_rejected() {
        let mut scm = Scm::new(2);
        let p = Program::new(vec![Command::Nop, Command::Nop, Command::Halt]).unwrap();
        let e = scm.load(&p).unwrap_err();
        assert_eq!(e, ScmCapacityError { needed: 3, capacity: 2 });
        assert!(e.to_string().contains("exceeds"));
        assert!(fits(&p, 3).is_ok());
        assert!(fits(&p, 2).is_err());
    }

    #[test]
    fn access_counters() {
        let mut scm = Scm::new(4);
        let p = Program::new(vec![Command::Nop, Command::Halt]).unwrap();
        scm.load(&p).unwrap();
        let _ = scm.fetch(0);
        let _ = scm.fetch(1);
        assert_eq!(scm.take_access_counts(), (2, 2));
        assert_eq!(scm.take_access_counts(), (0, 0));
    }

    #[test]
    fn bits_reflect_paper_configurations() {
        assert_eq!(Scm::new(4).bits(), 192);
        assert_eq!(Scm::new(8).bits(), 384);
    }

    #[test]
    fn undecodable_line_fetches_as_halt() {
        let mut scm = Scm::new(2);
        scm.write_line(0, 0xA << 44); // unassigned opcode
        assert_eq!(scm.fetch(0), Command::Halt);
    }

    #[test]
    #[should_panic(expected = "1..=512")]
    fn zero_lines_rejected() {
        let _ = Scm::new(0);
    }
}
