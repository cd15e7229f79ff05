//! Classical-pipeline building blocks: register file and data memory.

use hisq_isa::Reg;

/// The 32-entry RV32I register file with `x0` hard-wired to zero.
///
/// # Example
///
/// ```
/// use hisq_core::RegFile;
/// use hisq_isa::Reg;
///
/// let mut regs = RegFile::new();
/// regs.write(Reg::new(5).unwrap(), 42);
/// assert_eq!(regs.read(Reg::new(5).unwrap()), 42);
/// regs.write(Reg::X0, 99); // silently discarded
/// assert_eq!(regs.read(Reg::X0), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegFile {
    regs: [u32; 32],
}

impl RegFile {
    /// All-zero register file.
    pub fn new() -> RegFile {
        RegFile { regs: [0; 32] }
    }

    /// Reads a register (`x0` always reads 0).
    pub fn read(&self, reg: Reg) -> u32 {
        self.regs[reg.index()]
    }

    /// Writes a register; writes to `x0` are discarded.
    pub fn write(&mut self, reg: Reg, value: u32) {
        if reg.index() != 0 {
            self.regs[reg.index()] = value;
        }
    }
}

impl Default for RegFile {
    fn default() -> RegFile {
        RegFile::new()
    }
}

/// Byte-addressed little-endian data memory with bounds checking.
///
/// The configured size is the address bound, not an allocation: the
/// memory holds only the bytes up to the highest one a program has
/// stored, and every byte past them reads zero, exactly as in a
/// zero-filled memory of the full size. A controller that never stores
/// never allocates, and one that writes a small result ring allocates
/// only the ring.
#[derive(Debug, Clone)]
pub struct Memory {
    /// Address bound in bytes.
    size: usize,
    /// Bytes `0..bytes.len()`; the rest of `0..size` reads zero.
    bytes: Vec<u8>,
}

/// An out-of-bounds access fault raised by [`Memory`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// The faulting byte address.
    pub addr: u32,
    /// Access width in bytes.
    pub width: u32,
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "memory access of {} byte(s) at address {:#x} out of bounds",
            self.width, self.addr
        )
    }
}

impl std::error::Error for MemFault {}

impl Memory {
    /// Creates a memory of `size` bytes that reads zero everywhere.
    /// Nothing is allocated until the first store.
    pub fn new(size: usize) -> Memory {
        Memory {
            size,
            bytes: Vec::new(),
        }
    }

    /// Memory size in bytes.
    pub fn len(&self) -> usize {
        self.size
    }

    /// `true` if the memory has zero size.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    fn check(&self, addr: u32, width: u32) -> Result<usize, MemFault> {
        let end = addr as u64 + u64::from(width);
        if end > self.size as u64 {
            return Err(MemFault { addr, width });
        }
        Ok(addr as usize)
    }

    /// Loads `width` ∈ {1,2,4} bytes little-endian (zero-extended).
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] on out-of-bounds access.
    pub fn load(&self, addr: u32, width: u32) -> Result<u32, MemFault> {
        let base = self.check(addr, width)?;
        let mut value = 0u32;
        for i in 0..width as usize {
            let byte = self.bytes.get(base + i).copied().unwrap_or(0);
            value |= u32::from(byte) << (8 * i);
        }
        Ok(value)
    }

    /// Stores the low `width` ∈ {1,2,4} bytes of `value` little-endian.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] on out-of-bounds access.
    pub fn store(&mut self, addr: u32, width: u32, value: u32) -> Result<(), MemFault> {
        let base = self.check(addr, width)?;
        let end = base + width as usize;
        if end > self.bytes.len() {
            // Amortized doubling, capped at the size bound: a run of
            // rising stores reallocates O(log n) times, and the memory
            // never holds more than a zero-filled one would.
            let capacity = end.max(2 * self.bytes.capacity()).min(self.size);
            self.bytes.reserve_exact(capacity - self.bytes.len());
            self.bytes.resize(end, 0);
        }
        for i in 0..width as usize {
            self.bytes[base + i] = (value >> (8 * i)) as u8;
        }
        Ok(())
    }

    /// Bytes of backing storage currently allocated.
    #[cfg(test)]
    pub(crate) fn allocated(&self) -> usize {
        self.bytes.capacity()
    }
}

impl PartialEq for Memory {
    /// Compares logical contents: two memories are equal when they have
    /// the same size and read the same value at every address, however
    /// much of each is allocated.
    fn eq(&self, other: &Memory) -> bool {
        let (short, long) = if self.bytes.len() <= other.bytes.len() {
            (&self.bytes, &other.bytes)
        } else {
            (&other.bytes, &self.bytes)
        };
        self.size == other.size
            && long[..short.len()] == short[..]
            && long[short.len()..].iter().all(|&b| b == 0)
    }
}

impl Eq for Memory {}

/// Sign-extends the low `bits` bits of `value` to 32 bits.
pub fn sign_extend(value: u32, bits: u32) -> u32 {
    let shift = 32 - bits;
    (((value << shift) as i32) >> shift) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn x0_is_hardwired_zero() {
        let mut regs = RegFile::new();
        regs.write(Reg::X0, 0xdead_beef);
        assert_eq!(regs.read(Reg::X0), 0);
    }

    #[test]
    fn memory_little_endian_round_trip() {
        let mut mem = Memory::new(16);
        mem.store(4, 4, 0x1234_5678).unwrap();
        assert_eq!(mem.load(4, 4).unwrap(), 0x1234_5678);
        assert_eq!(mem.load(4, 1).unwrap(), 0x78);
        assert_eq!(mem.load(5, 1).unwrap(), 0x56);
        assert_eq!(mem.load(4, 2).unwrap(), 0x5678);
    }

    #[test]
    fn memory_bounds_checked() {
        let mut mem = Memory::new(8);
        assert!(mem.load(5, 4).is_err());
        assert!(mem.store(8, 1, 0).is_err());
        assert!(mem.load(4, 4).is_ok());
        // Address arithmetic must not overflow.
        assert!(mem.load(u32::MAX, 4).is_err());
    }

    #[test]
    fn fresh_memory_allocates_nothing_and_reads_zero() {
        let size = crate::NodeConfig::DEFAULT_MEM_BYTES;
        let mem = Memory::new(size);
        assert_eq!(mem.bytes.capacity(), 0);
        assert_eq!(mem.len(), size);
        assert_eq!(mem.load(size as u32 - 4, 4), Ok(0));
        assert_eq!(mem.bytes.capacity(), 0, "loads never allocate");
    }

    #[test]
    fn equality_compares_logical_contents() {
        let mut stored_zero = Memory::new(64);
        stored_zero.store(60, 4, 0).unwrap();
        assert_eq!(stored_zero, Memory::new(64));
        assert_eq!(Memory::new(64), stored_zero);
        assert_ne!(Memory::new(64), Memory::new(128));
        assert_ne!(stored_zero, Memory::new(60));
        let mut one = Memory::new(64);
        one.store(0, 1, 1).unwrap();
        assert_ne!(one, Memory::new(64));
        assert_ne!(Memory::new(64), one);
    }

    /// The dense reference model: a zero-filled buffer of the full
    /// size, bounds-checked the same way.
    struct DenseMemory(Vec<u8>);

    impl DenseMemory {
        fn range(&self, addr: u32, width: u32) -> Result<std::ops::Range<usize>, MemFault> {
            let end = addr as u64 + u64::from(width);
            if end > self.0.len() as u64 {
                return Err(MemFault { addr, width });
            }
            Ok(addr as usize..end as usize)
        }

        fn load(&self, addr: u32, width: u32) -> Result<u32, MemFault> {
            let range = self.range(addr, width)?;
            Ok(self.0[range]
                .iter()
                .rev()
                .fold(0, |value, &byte| (value << 8) | u32::from(byte)))
        }

        fn store(&mut self, addr: u32, width: u32, value: u32) -> Result<(), MemFault> {
            let range = self.range(addr, width)?;
            self.0[range].copy_from_slice(&value.to_le_bytes()[..width as usize]);
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any load/store sequence reads the same values and raises the
        /// same faults as a zero-filled memory of the full size.
        #[test]
        fn lazy_memory_matches_a_dense_reference(
            size in prop_oneof![
                Just(0usize),
                1usize..48,
                Just(crate::NodeConfig::DEFAULT_MEM_BYTES),
            ],
            ops in proptest::collection::vec(
                (any::<u32>(), 0usize..3, any::<u32>(), any::<bool>()),
                0..64,
            ),
        ) {
            let mut mem = Memory::new(size);
            let mut dense = DenseMemory(vec![0; size]);
            let mut top = 0;
            for (raw_addr, width_index, value, is_store) in ops {
                let addr = raw_addr % (size as u32 + 8);
                let width = [1, 2, 4][width_index];
                if is_store {
                    let got = mem.store(addr, width, value);
                    prop_assert_eq!(got, dense.store(addr, width, value));
                    if got.is_ok() {
                        top = top.max(addr as usize + width as usize);
                    }
                } else {
                    prop_assert_eq!(mem.load(addr, width), dense.load(addr, width));
                }
                prop_assert_eq!(mem.bytes.len(), top);
                prop_assert!(mem.bytes.capacity() <= size);
            }
            for addr in 0..size as u32 {
                prop_assert_eq!(mem.load(addr, 1), dense.load(addr, 1));
            }
        }
    }

    #[test]
    fn sign_extension() {
        assert_eq!(sign_extend(0xff, 8) as i32, -1);
        assert_eq!(sign_extend(0x7f, 8), 127);
        assert_eq!(sign_extend(0x8000, 16) as i32, -32768);
    }
}
