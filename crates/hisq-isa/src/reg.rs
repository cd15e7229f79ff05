//! General-purpose register names for the HISQ classical pipeline.
//!
//! HISQ reuses the RV32I integer register file: 32 registers, with `x0`
//! hard-wired to zero. The assembler accepts three spellings:
//!
//! - architectural: `x0` … `x31`;
//! - paper-style: `$0` … `$31` (used throughout the paper's listings);
//! - ABI aliases: `zero`, `ra`, `sp`, `gp`, `tp`, `t0`–`t6`, `s0`/`fp`,
//!   `s1`–`s11`, `a0`–`a7`.

use std::fmt;

/// A general-purpose register index (`x0` … `x31`).
///
/// The wrapped index is guaranteed to be in `0..=31`.
///
/// # Example
///
/// ```
/// use hisq_isa::Reg;
///
/// let t0 = Reg::parse("t0").unwrap();
/// assert_eq!(t0, Reg::new(5).unwrap());
/// assert_eq!(t0.abi_name(), "t0");
/// assert_eq!(Reg::parse("$5"), Some(t0));
/// assert_eq!(Reg::parse("x5"), Some(t0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

/// ABI names indexed by register number.
const ABI_NAMES: [&str; 32] = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
    "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
    "t5", "t6",
];

impl Reg {
    /// The hard-wired zero register `x0`.
    pub const X0: Reg = Reg(0);
    /// The return-address register `ra` (`x1`).
    pub const RA: Reg = Reg(1);
    /// Temporary register `t0` (`x5`).
    pub const T0: Reg = Reg(5);
    /// Temporary register `t1` (`x6`).
    pub const T1: Reg = Reg(6);
    /// Temporary register `t2` (`x7`).
    pub const T2: Reg = Reg(7);
    /// Temporary register `t3` (`x28`).
    pub const T3: Reg = Reg(28);
    /// Temporary register `t4` (`x29`).
    pub const T4: Reg = Reg(29);
    /// Temporary register `t5` (`x30`).
    pub const T5: Reg = Reg(30);
    /// Temporary register `t6` (`x31`).
    pub const T6: Reg = Reg(31);

    /// Creates a register from its index, returning `None` if out of range.
    pub fn new(index: u8) -> Option<Reg> {
        (index < 32).then_some(Reg(index))
    }

    /// The register index in `0..=31`.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// The raw 5-bit field value used in instruction encodings.
    pub fn bits(self) -> u32 {
        u32::from(self.0)
    }

    /// The RISC-V ABI alias, e.g. `"t0"` for `x5`.
    pub fn abi_name(self) -> &'static str {
        ABI_NAMES[self.index()]
    }

    /// Parses a register in any accepted spelling (`x5`, `$5`, `t0`, …).
    ///
    /// Returns `None` if the text names no register.
    pub fn parse(text: &str) -> Option<Reg> {
        let text = text.trim();
        if let Some(rest) = text.strip_prefix('x').or_else(|| text.strip_prefix('$')) {
            let index: u8 = rest.parse().ok()?;
            return Reg::new(index);
        }
        if text == "fp" {
            return Some(Reg(8));
        }
        ABI_NAMES
            .iter()
            .position(|&name| name == text)
            .map(|i| Reg(i as u8))
    }
}

/// `x5`, or the ABI name `t0` under `{:#}`.
impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if f.alternate() {
            f.write_str(self.abi_name())
        } else {
            write!(f, "x{}", self.0)
        }
    }
}

impl From<Reg> for u8 {
    fn from(reg: Reg) -> u8 {
        reg.0
    }
}

impl TryFrom<u8> for Reg {
    type Error = crate::DecodeError;

    fn try_from(index: u8) -> Result<Reg, Self::Error> {
        Reg::new(index).ok_or(crate::DecodeError::BadRegister(index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_out_of_range() {
        assert!(Reg::new(31).is_some());
        assert!(Reg::new(32).is_none());
        assert!(Reg::new(255).is_none());
    }

    #[test]
    fn parse_arch_names() {
        for i in 0..32u8 {
            let r = Reg::parse(&format!("x{i}")).unwrap();
            assert_eq!(r.index(), usize::from(i));
        }
        assert!(Reg::parse("x32").is_none());
        assert!(Reg::parse("x-1").is_none());
    }

    #[test]
    fn parse_paper_style_names() {
        assert_eq!(Reg::parse("$0"), Some(Reg::X0));
        assert_eq!(Reg::parse("$31"), Reg::new(31));
        assert!(Reg::parse("$32").is_none());
    }

    #[test]
    fn parse_abi_names() {
        assert_eq!(Reg::parse("zero"), Some(Reg::X0));
        assert_eq!(Reg::parse("ra"), Reg::new(1));
        assert_eq!(Reg::parse("sp"), Reg::new(2));
        assert_eq!(Reg::parse("fp"), Reg::new(8));
        assert_eq!(Reg::parse("s0"), Reg::new(8));
        assert_eq!(Reg::parse("a0"), Reg::new(10));
        assert_eq!(Reg::parse("t6"), Reg::new(31));
        assert!(Reg::parse("q0").is_none());
    }

    #[test]
    fn abi_names_round_trip() {
        for i in 0..32u8 {
            let r = Reg::new(i).unwrap();
            assert_eq!(Reg::parse(r.abi_name()), Some(r));
        }
    }

    #[test]
    fn named_constants_match_their_abi_names() {
        let named = [
            (Reg::X0, "zero"),
            (Reg::RA, "ra"),
            (Reg::T0, "t0"),
            (Reg::T1, "t1"),
            (Reg::T2, "t2"),
            (Reg::T3, "t3"),
            (Reg::T4, "t4"),
            (Reg::T5, "t5"),
            (Reg::T6, "t6"),
        ];
        for (reg, name) in named {
            assert_eq!(reg.abi_name(), name);
        }
    }

    #[test]
    fn display_uses_arch_name() {
        assert_eq!(Reg::new(17).unwrap().to_string(), "x17");
        assert_eq!(format!("{:#}", Reg::new(17).unwrap()), "a7");
    }
}
