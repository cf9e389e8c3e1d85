#![warn(missing_docs)]

//! The **NTI** — Network Time Interface MA-Module.
//!
//! The NTI (Section 3.2, Figure 4) is a single-height MA-Module carrying the
//! UTCSU ASIC, 256 KB of dual-ported SRAM, a CPLD with all decode/glue
//! logic, a TCXO/OCXO and a serial PROM. Its job is to sit between the
//! node's CPU and the communications coprocessor (COMCO) so that clock
//! synchronization packets are timestamped *by hardware* while the COMCO
//! DMAs them through the shared memory.
//!
//! # Memory map (Figure 6)
//!
//! The CPLD maps **two address regions onto the same physical memory** to
//! distinguish plain CPU accesses from COMCO accesses:
//!
//! ```text
//! 0x00000 .. 0x3FFFF   COMCO view (A19=0), special decode:
//!     0x00000 .. 0x2DFFF   System Structures (184 KB)
//!     0x2E000 .. 0x3CFFF   Data Buffers      (60 KB)
//!     0x3D000 .. 0x3EFFF   Receive Headers   (8 KB = 128 × 64 B)
//!     0x3F000 .. 0x3FFFF   Transmit Headers  (4 KB =  64 × 64 B)
//! 0x40000 .. 0x7FFFF   CPU view (A19=1), plain accesses
//! 0x80000 .. 0x801FF   UTCSU register window (512 B)
//! ```
//!
//! # Special decode (Figures 3 and 7)
//!
//! * a COMCO **write** to offset `0x1C` inside a receive header generates
//!   the RECEIVE trigger (sampling a receive time/accuracy stamp in the
//!   UTCSU) and latches the header's base address into the NTI's *Receive
//!   Header Base* register, so the ISR can attribute the stamp to the right
//!   packet even for back-to-back CSPs (footnote 4);
//! * a COMCO **read** of offset `0x14` inside a transmit header generates
//!   the TRANSMIT trigger; the UTCSU registers holding the sampled stamp
//!   are **transparently mapped** to offsets `0x18` (timestamp) and `0x20`
//!   (accuracies) of the transmit header, so the stamp rides out inside the
//!   packet without CPU involvement. (`0x1C` is ordinary memory: the sender
//!   places the — slowly changing — macrostamp there at assembly time.)
//!
//! Trigger and mapping offsets are CPLD parameters ([`CpldConfig`]): the
//! paper stresses that the two addresses are *independently configurable*
//! to adapt to COMCO FIFO peculiarities.
//!
//! # I/O space (Figure 8)
//!
//! ```text
//! 0x00  Receive Header Base (RO, latched on RECEIVE)
//! 0x02  Vector (Base) register (RW)
//! 0x04  Dis/Enable Interrupt Logic (write re-enables after an IRQ)
//! 0xFE  serial PROM access byte
//! ```

pub mod carrier;
pub mod driver;
pub mod sprom;

pub use carrier::Carrier;
pub use driver::{comco_service, ScbDriver, TxOrder};
pub use sprom::SProm;

use nti_utcsu::{Utcsu, UtcsuConfig};

/// Size of the NTI's shared SRAM (2 × 64K×16).
pub const MEM_SIZE: usize = 256 * 1024;
/// The unit in which the simulated SRAM is allocated.
const PAGE: usize = 4096;
/// Base of the COMCO-view region.
pub const COMCO_BASE: u32 = 0x00000;
/// Base of the System Structures section.
pub const SYS_STRUCT_BASE: u32 = 0x00000;
/// Base of the Data Buffers section.
pub const DATA_BUF_BASE: u32 = 0x2E000;
/// Base of the Receive Headers section.
pub const RX_HDR_BASE: u32 = 0x3D000;
/// Size of the Receive Headers section.
pub const RX_HDR_SIZE: u32 = 0x2000;
/// Base of the Transmit Headers section.
pub const TX_HDR_BASE: u32 = 0x3F000;
/// Size of the Transmit Headers section.
pub const TX_HDR_SIZE: u32 = 0x1000;
/// Base of the CPU-view region.
pub const CPU_BASE: u32 = 0x40000;
/// Base of the UTCSU register window.
pub const UTCSU_BASE: u32 = 0x80000;
/// One past the last mapped memory-space address.
pub const MAP_END: u32 = UTCSU_BASE + nti_utcsu::regs::REG_WINDOW;

/// I/O-space offset of the Receive Header Base register.
pub const IO_RX_HDR_BASE: u32 = 0x00;
/// I/O-space offset of the Vector (Base) register.
pub const IO_VECTOR: u32 = 0x02;
/// I/O-space offset of the Dis/Enable Interrupt Logic register.
pub const IO_INT_ENABLE: u32 = 0x04;
/// I/O-space offset of the serial PROM access byte.
pub const IO_SPROM: u32 = 0xFE;

/// CPLD parameters: header geometry, trigger offsets, transparent-mapping
/// offsets, and which UTCSU SSU this network attaches to.
#[derive(Clone, Copy, Debug)]
pub struct CpldConfig {
    /// Size of one receive/transmit header (64 B for the 82596CA).
    pub header_len: u32,
    /// Offset within a receive header whose *write* raises RECEIVE.
    pub rcv_trigger_off: u32,
    /// Offset within a transmit header whose *read* raises TRANSMIT.
    pub xmt_trigger_off: u32,
    /// Offset within a transmit header transparently mapped to the sampled
    /// transmit timestamp.
    pub xmt_map_ts_off: u32,
    /// Offset within a transmit header transparently mapped to the sampled
    /// transmit accuracies.
    pub xmt_map_acc_off: u32,
    /// Index of the UTCSU SSU unit driven by this network's triggers.
    pub ssu_idx: usize,
}

impl Default for CpldConfig {
    /// The 82596CA programming from Figure 7.
    fn default() -> Self {
        CpldConfig {
            header_len: 64,
            rcv_trigger_off: 0x1C,
            xmt_trigger_off: 0x14,
            xmt_map_ts_off: 0x18,
            xmt_map_acc_off: 0x20,
            ssu_idx: 0,
        }
    }
}

/// The NTI MA-Module: UTCSU + shared memory + CPLD + S-PROM.
#[derive(Clone)]
pub struct Nti {
    /// The shared SRAM, allocated a page at a time on the first non-zero
    /// store: a node only touches its system structures, headers and data
    /// buffers (a few pages), so the rest costs neither memory nor zeroing.
    /// A page never written reads as zero, so zeros stored to it need none.
    mem: Vec<Option<Box<[u8; PAGE]>>>,
    utcsu: Utcsu,
    cpld: CpldConfig,
    rcv_header_base: u32,
    vector_base: u8,
    int_enabled: bool,
    sprom: SProm,
}

impl Nti {
    /// Build an NTI around a UTCSU with the given configurations.
    pub fn new(utcsu_cfg: UtcsuConfig, cpld: CpldConfig) -> Self {
        assert!(
            cpld.header_len.is_power_of_two(),
            "header length must be a power of two"
        );
        Nti {
            mem: vec![None; MEM_SIZE / PAGE],
            utcsu: Utcsu::new(utcsu_cfg),
            cpld,
            rcv_header_base: 0,
            vector_base: 0x40,
            int_enabled: false,
            sprom: SProm::nti(),
        }
    }

    /// Default NTI (10 MHz TCXO, 82596CA header layout).
    pub fn default_module() -> Self {
        Nti::new(UtcsuConfig::default(), CpldConfig::default())
    }

    /// The UTCSU on board (mutable — the owner advances it before accesses).
    pub fn utcsu_mut(&mut self) -> &mut Utcsu {
        &mut self.utcsu
    }

    /// The UTCSU on board (read-only).
    pub fn utcsu(&self) -> &Utcsu {
        &self.utcsu
    }

    /// The CPLD programming.
    pub fn cpld(&self) -> CpldConfig {
        self.cpld
    }

    // --- memory-space access (CPLD address decode) -----------------------

    /// 32-bit memory-space read at `addr` (any bus master; the region
    /// distinguishes CPU from COMCO accesses, exactly as the CPLD does).
    pub fn read32(&mut self, addr: u32) -> u32 {
        assert!(
            addr.is_multiple_of(4),
            "unaligned longword read at {addr:#x}"
        );
        match addr {
            a if a < CPU_BASE => self.comco_read32(a),
            a if a < CPU_BASE + MEM_SIZE as u32 => self.ram_read32(a - CPU_BASE),
            a if (UTCSU_BASE..MAP_END).contains(&a) => self.utcsu.read32(a - UTCSU_BASE),
            _ => panic!("memory-space read outside NTI map: {addr:#x}"),
        }
    }

    /// 32-bit memory-space write.
    pub fn write32(&mut self, addr: u32, v: u32) {
        assert!(
            addr.is_multiple_of(4),
            "unaligned longword write at {addr:#x}"
        );
        match addr {
            a if a < CPU_BASE => self.comco_write32(a, v),
            a if a < CPU_BASE + MEM_SIZE as u32 => self.ram_write32(a - CPU_BASE, v),
            a if (UTCSU_BASE..MAP_END).contains(&a) => self.utcsu.write32(a - UTCSU_BASE, v),
            _ => panic!("memory-space write outside NTI map: {addr:#x}"),
        }
    }

    /// 16-bit memory-space read (the MA bus also supports word accesses).
    pub fn read16(&mut self, addr: u32) -> u16 {
        let v = self.read32(addr & !3);
        if addr & 2 != 0 {
            (v >> 16) as u16
        } else {
            v as u16
        }
    }

    /// 8-bit memory-space read.
    pub fn read8(&mut self, addr: u32) -> u8 {
        let v = self.read32(addr & !3);
        (v >> (8 * (addr & 3))) as u8
    }

    /// Bulk COMCO store of `bytes` at COMCO-region offset `off`: the same
    /// memory as one [`Nti::write32`] per little-endian longword, in one
    /// copy. Only for plain RAM: panics if the range holds a receive-header
    /// word at the RECEIVE trigger offset (that store is time-observable
    /// and must go through `write32`).
    pub fn comco_store(&mut self, off: u32, bytes: &[u8]) {
        self.assert_plain_comco(off, bytes.len());
        self.ram_store(off, bytes);
    }

    /// Bulk COMCO store of `len` zero bytes at COMCO-region offset `off`,
    /// under the same plain-RAM rule as [`Nti::comco_store`].
    pub fn comco_clear(&mut self, off: u32, len: u32) {
        self.assert_plain_comco(off, len as usize);
        const ZEROS: [u8; PAGE] = [0; PAGE];
        for at in (0..len).step_by(PAGE) {
            self.ram_store(off + at, &ZEROS[..(len - at).min(PAGE as u32) as usize]);
        }
    }

    /// Bulk CPU read of `out.len()` bytes at CPU-view address `addr`: the
    /// same bytes as one [`Nti::read32`] per little-endian longword. The
    /// CPU view has no decode side effects.
    pub fn cpu_load(&self, addr: u32, out: &mut [u8]) {
        assert!(
            addr.is_multiple_of(4) && out.len().is_multiple_of(4),
            "unaligned longword load at {addr:#x}"
        );
        assert!(
            addr >= CPU_BASE && (addr - CPU_BASE) as usize + out.len() <= MEM_SIZE,
            "CPU load outside the CPU view: {addr:#x}"
        );
        let mut off = (addr - CPU_BASE) as usize;
        let mut out = out;
        while !out.is_empty() {
            let (page, i) = (off / PAGE, off % PAGE);
            let (now, rest) = out.split_at_mut(out.len().min(PAGE - i));
            match &self.mem[page] {
                Some(p) => now.copy_from_slice(&p[i..i + now.len()]),
                None => now.fill(0),
            }
            off += now.len();
            out = rest;
        }
    }

    /// A bulk COMCO store covers whole longwords of plain RAM: none of
    /// them may be a receive header's trigger word.
    fn assert_plain_comco(&self, off: u32, len: usize) {
        assert!(
            off.is_multiple_of(4) && len.is_multiple_of(4),
            "unaligned longword store at {off:#x}"
        );
        let end = off as usize + len;
        assert!(end <= CPU_BASE as usize, "bulk store past the COMCO view");
        let (h, trig) = (
            self.cpld.header_len as usize,
            self.cpld.rcv_trigger_off as usize,
        );
        let lo = (off as usize).max(RX_HDR_BASE as usize);
        let hi = end.min((RX_HDR_BASE + RX_HDR_SIZE) as usize);
        // The first trigger word at or after `lo`.
        let first_hdr = (lo - RX_HDR_BASE as usize).saturating_sub(trig).div_ceil(h);
        let first = RX_HDR_BASE as usize + first_hdr * h + trig;
        assert!(
            lo >= hi || first >= hi,
            "bulk COMCO store over the receive trigger at {first:#x}"
        );
    }

    // Accesses are longword-aligned, so none straddles a page.
    fn ram_read32(&self, off: u32) -> u32 {
        let (page, i) = (off as usize / PAGE, off as usize % PAGE);
        self.mem[page].as_ref().map_or(0, |p| {
            u32::from_le_bytes(p[i..i + 4].try_into().expect("4-byte slice"))
        })
    }

    fn ram_write32(&mut self, off: u32, v: u32) {
        let (page, i) = (off as usize / PAGE, off as usize % PAGE);
        let slot = &mut self.mem[page];
        if slot.is_none() && v == 0 {
            return; // the zero-store rule of `ram_store`
        }
        let p = slot.get_or_insert_with(|| Box::new([0; PAGE]));
        p[i..i + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Plain RAM store at offset `off`, page by page. Zeros stored to a
    /// page never written allocate nothing: the page already reads as zero.
    fn ram_store(&mut self, off: u32, bytes: &[u8]) {
        let mut off = off as usize;
        let mut bytes = bytes;
        while !bytes.is_empty() {
            let (page, i) = (off / PAGE, off % PAGE);
            let (now, rest) = bytes.split_at(bytes.len().min(PAGE - i));
            let slot = &mut self.mem[page];
            if slot.is_some() || now.iter().any(|&b| b != 0) {
                let p = slot.get_or_insert_with(|| Box::new([0; PAGE]));
                p[i..i + now.len()].copy_from_slice(now);
            }
            off += now.len();
            bytes = rest;
        }
    }

    /// COMCO-region read: plain RAM plus TRANSMIT trigger / transparent
    /// mapping inside the transmit-header section.
    fn comco_read32(&mut self, off: u32) -> u32 {
        if (TX_HDR_BASE..TX_HDR_BASE + TX_HDR_SIZE).contains(&off) {
            let within = off & (self.cpld.header_len - 1);
            if within == self.cpld.xmt_trigger_off {
                self.utcsu.trigger_ssu_transmit(self.cpld.ssu_idx);
            }
            if within == self.cpld.xmt_map_ts_off {
                // Transparent mapping: the sampled transmit timestamp.
                return self.utcsu.ssu[self.cpld.ssu_idx]
                    .transmit
                    .peek()
                    .map_or(0, |s| s.ts.0);
            }
            if within == self.cpld.xmt_map_acc_off {
                return self.utcsu.ssu[self.cpld.ssu_idx]
                    .transmit
                    .peek()
                    .map_or(0, |s| s.acc_packed());
            }
        }
        self.ram_read32(off)
    }

    /// COMCO-region write: plain RAM plus RECEIVE trigger + header-base
    /// latch inside the receive-header section.
    fn comco_write32(&mut self, off: u32, v: u32) {
        if (RX_HDR_BASE..RX_HDR_BASE + RX_HDR_SIZE).contains(&off) {
            let within = off & (self.cpld.header_len - 1);
            if within == self.cpld.rcv_trigger_off {
                self.utcsu.trigger_ssu_receive(self.cpld.ssu_idx);
                self.rcv_header_base = off & !(self.cpld.header_len - 1);
            }
        }
        self.ram_write32(off, v);
    }

    // --- I/O-space access -------------------------------------------------

    /// 16-bit I/O-space read (the M-Module I/O space is 256 bytes).
    ///
    /// The Receive Header Base register returns the 64-byte-aligned header
    /// address bits A17..A6 (headers are 64-byte aligned within the 256 KB
    /// COMCO region, so 12 bits suffice; see [`Nti::rcv_header_base`] for
    /// the full address).
    pub fn io_read16(&mut self, off: u32) -> u16 {
        match off {
            IO_RX_HDR_BASE => (self.rcv_header_base >> 6) as u16,
            IO_VECTOR => self.vector_base as u16,
            IO_INT_ENABLE => self.int_enabled as u16,
            IO_SPROM => self.sprom.read() as u16,
            _ => 0,
        }
    }

    /// 16-bit I/O-space write.
    pub fn io_write16(&mut self, off: u32, v: u16) {
        match off {
            IO_VECTOR => self.vector_base = v as u8,
            IO_INT_ENABLE => self.int_enabled = v & 1 != 0,
            IO_SPROM => self.sprom.write(v as u8),
            _ => {}
        }
    }

    /// The latched receive-header base as a full COMCO-region address.
    pub fn rcv_header_base(&self) -> u32 {
        self.rcv_header_base
    }

    // --- interrupt logic ---------------------------------------------------

    /// Whether the single M-Module interrupt line is currently asserted
    /// (any enabled UTCSU line pending AND the NTI interrupt logic enabled).
    pub fn irq_asserted(&self) -> bool {
        self.int_enabled && self.utcsu.int_lines().any()
    }

    /// Interrupt acknowledge cycle: if asserted, returns the vector
    /// (base | line bits) and disables further NTI interrupts until software
    /// re-enables via `IO_INT_ENABLE` — the usual "write immediately prior
    /// to leaving the ISR" pattern from Section 3.4.
    pub fn irq_ack(&mut self) -> Option<u8> {
        if !self.irq_asserted() {
            return None;
        }
        self.int_enabled = false;
        Some((self.vector_base & 0xF8) | self.utcsu.int_lines().bits())
    }

    /// Convenience for drivers: the `i`-th receive header's base address in
    /// the COMCO view.
    pub fn rx_header_addr(&self, i: u32) -> u32 {
        let a = RX_HDR_BASE + i * self.cpld.header_len;
        assert!(
            a < RX_HDR_BASE + RX_HDR_SIZE,
            "receive header index out of range"
        );
        a
    }

    /// Convenience for drivers: the `i`-th transmit header's base address.
    pub fn tx_header_addr(&self, i: u32) -> u32 {
        let a = TX_HDR_BASE + i * self.cpld.header_len;
        assert!(
            a < TX_HDR_BASE + TX_HDR_SIZE,
            "transmit header index out of range"
        );
        a
    }

    /// Number of receive headers.
    pub fn rx_header_count(&self) -> u32 {
        RX_HDR_SIZE / self.cpld.header_len
    }

    /// Number of transmit headers.
    pub fn tx_header_count(&self) -> u32 {
        TX_HDR_SIZE / self.cpld.header_len
    }
}

impl std::fmt::Debug for Nti {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Nti")
            .field("cpld", &self.cpld)
            .field("rcv_header_base", &self.rcv_header_base)
            .field("vector_base", &self.vector_base)
            .field("int_enabled", &self.int_enabled)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nti_simcore::{Macrostamp, NtpTime, Timestamp};
    use nti_utcsu::regs::{CTRL_RUN, CTRL_SYNCRUN, R_CTRL, R_INT_MASK, R_TIMESTAMP};
    use proptest::prelude::*;

    fn module() -> Nti {
        let mut n = Nti::default_module();
        n.write32(UTCSU_BASE + R_CTRL, CTRL_SYNCRUN | CTRL_RUN);
        n.write32(UTCSU_BASE + R_INT_MASK, u32::MAX);
        n
    }

    #[test]
    fn cpu_and_comco_regions_alias_same_memory() {
        let mut n = module();
        n.write32(CPU_BASE + 0x1000, 0xCAFE_BABE);
        assert_eq!(n.read32(0x1000), 0xCAFE_BABE, "COMCO view sees CPU write");
        n.write32(0x2000, 0x1234_5678);
        assert_eq!(
            n.read32(CPU_BASE + 0x2000),
            0x1234_5678,
            "CPU view sees COMCO write"
        );
    }

    #[test]
    fn cpu_view_of_header_regions_has_no_side_effects() {
        let mut n = module();
        // CPU reads/writes the same physical bytes through the A19=1 alias:
        // no triggers fire.
        let rx = n.rx_header_addr(0);
        n.write32(CPU_BASE + rx + 0x1C, 0xDEAD);
        assert!(
            !n.utcsu().ssu[0].receive.valid(),
            "CPU write must not trigger"
        );
        let tx = n.tx_header_addr(0);
        let _ = n.read32(CPU_BASE + tx + 0x14);
        assert!(
            !n.utcsu().ssu[0].transmit.valid(),
            "CPU read must not trigger"
        );
    }

    #[test]
    fn comco_write_to_0x1c_triggers_receive_and_latches_base() {
        let mut n = module();
        n.utcsu_mut().advance_to_tick(123_456);
        let hdr = n.rx_header_addr(5);
        n.write32(hdr + 0x1C, 0xFEED);
        assert!(n.utcsu().ssu[0].receive.valid());
        assert_eq!(n.rcv_header_base(), hdr);
        assert_eq!(n.io_read16(IO_RX_HDR_BASE), (hdr >> 6) as u16);
        // The memory write itself still lands.
        assert_eq!(n.read32(CPU_BASE + hdr + 0x1C), 0xFEED);
    }

    #[test]
    fn comco_writes_to_other_offsets_do_not_trigger() {
        let mut n = module();
        let hdr = n.rx_header_addr(1);
        n.write32(hdr + 0x18, 1);
        n.write32(hdr + 0x20, 2);
        assert!(!n.utcsu().ssu[0].receive.valid());
    }

    #[test]
    fn comco_read_of_0x14_triggers_transmit_and_maps_stamp() {
        let mut n = module();
        n.utcsu_mut().advance_to_tick(10_000_000); // ~1 s
        let hdr = n.tx_header_addr(3);
        // Simulate the COMCO fetching the header sequentially.
        let _cmd = n.read32(hdr + 0x10);
        assert!(!n.utcsu().ssu[0].transmit.valid());
        let _dest = n.read32(hdr + 0x14); // trigger offset
        assert!(n.utcsu().ssu[0].transmit.valid());
        let ts = n.read32(hdr + 0x18); // transparently mapped timestamp
        let sampled = n.utcsu().ssu[0].transmit.peek().unwrap();
        assert_eq!(ts, sampled.ts.0);
        let acc = n.read32(hdr + 0x20); // transparently mapped accuracies
        assert_eq!(acc, sampled.acc_packed());
        // 0x1C is ordinary memory (the assembled macrostamp would sit here).
        n.write32(CPU_BASE + hdr + 0x1C, 0xAA55);
        assert_eq!(n.read32(hdr + 0x1C), 0xAA55);
    }

    #[test]
    fn transmit_stamp_reflects_trigger_time_not_read_time() {
        let mut n = module();
        n.utcsu_mut().advance_to_tick(10_000_000);
        let hdr = n.tx_header_addr(0);
        let _ = n.read32(hdr + 0x14);
        let t_trigger = n.read32(UTCSU_BASE + R_TIMESTAMP);
        // Time passes before the mapped read (FIFO prefetch distance).
        n.utcsu_mut().advance_to_tick(10_500_000);
        let ts = n.read32(hdr + 0x18);
        assert_eq!(ts, t_trigger, "mapped value is the latched stamp");
    }

    #[test]
    fn back_to_back_receive_sets_overrun() {
        let mut n = module();
        n.write32(n.rx_header_addr(0) + 0x1C, 1);
        n.write32(n.rx_header_addr(1) + 0x1C, 2);
        assert!(n.utcsu().ssu[0].receive.overrun());
        // The header base tracks the newest packet.
        assert_eq!(n.rcv_header_base(), n.rx_header_addr(1));
    }

    #[test]
    fn receive_stamp_pair_is_reconstructible() {
        let mut n = module();
        n.utcsu_mut().advance_to_tick(42_000_000);
        n.write32(n.rx_header_addr(0) + 0x1C, 0);
        let s = n.utcsu_mut().ssu[0].receive.take().unwrap();
        let t = NtpTime::from_stamp_pair(Timestamp(s.ts.0), Macrostamp(s.ms.0));
        assert!(t.is_some());
    }

    #[test]
    fn interrupt_vector_encodes_lines() {
        let mut n = module();
        n.io_write16(IO_VECTOR, 0x68);
        n.io_write16(IO_INT_ENABLE, 1);
        assert!(!n.irq_asserted());
        n.write32(n.rx_header_addr(0) + 0x1C, 0); // RECEIVE -> INTN
        assert!(n.irq_asserted());
        let vec = n.irq_ack().expect("irq pending");
        assert_eq!(vec, 0x68 | 0b010, "INTN is bit 1");
        // Further interrupts gated until re-enable.
        assert!(!n.irq_asserted());
        n.io_write16(IO_INT_ENABLE, 1);
        assert!(n.irq_asserted(), "pending source still live");
    }

    #[test]
    fn sprom_accessible_via_io_space() {
        let mut n = module();
        n.io_write16(IO_SPROM, 0);
        assert_eq!(n.io_read16(IO_SPROM), 0x53);
        assert_eq!(n.io_read16(IO_SPROM), 0x4D);
    }

    #[test]
    fn utcsu_window_is_live() {
        let mut n = module();
        n.utcsu_mut().advance_to_tick(5_000_000);
        let ts = n.read32(UTCSU_BASE + R_TIMESTAMP);
        assert!(ts > 0);
    }

    #[test]
    fn header_geometry() {
        let n = module();
        assert_eq!(n.rx_header_count(), 128);
        assert_eq!(n.tx_header_count(), 64);
        assert_eq!(n.rx_header_addr(0), RX_HDR_BASE);
        assert_eq!(n.tx_header_addr(63), TX_HDR_BASE + 63 * 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn header_index_bounds_checked() {
        let n = module();
        let _ = n.tx_header_addr(64);
    }

    #[test]
    fn custom_cpld_offsets_respected() {
        let cpld = CpldConfig {
            rcv_trigger_off: 0x08,
            xmt_trigger_off: 0x0C,
            ..CpldConfig::default()
        };
        let mut n = Nti::new(UtcsuConfig::default(), cpld);
        n.write32(UTCSU_BASE + R_CTRL, CTRL_SYNCRUN | CTRL_RUN);
        n.write32(n.rx_header_addr(0) + 0x1C, 0);
        assert!(!n.utcsu().ssu[0].receive.valid(), "old offset inert");
        n.write32(n.rx_header_addr(0) + 0x08, 0);
        assert!(n.utcsu().ssu[0].receive.valid(), "new offset live");
    }

    #[test]
    fn sub_word_memory_access() {
        let mut n = module();
        n.write32(CPU_BASE + 0x100, 0x0403_0201);
        assert_eq!(n.read8(CPU_BASE + 0x100), 0x01);
        assert_eq!(n.read8(CPU_BASE + 0x103), 0x04);
        assert_eq!(n.read16(CPU_BASE + 0x102), 0x0403);
    }

    fn pages_in_use(n: &Nti) -> usize {
        n.mem.iter().filter(|p| p.is_some()).count()
    }

    #[test]
    fn zero_stores_to_untouched_pages_allocate_nothing() {
        let mut n = module();
        let hdr = n.rx_header_addr(9);
        n.comco_clear(hdr, 0x1C);
        n.write32(hdr + 0x1C, 0); // the trigger store, still live
        assert!(n.utcsu().ssu[0].receive.valid());
        n.comco_clear(hdr + 0x20, 0x20);
        n.comco_store(DATA_BUF_BASE, &[0; 48]);
        n.write32(CPU_BASE + 0x3000, 0);
        assert_eq!(pages_in_use(&n), 0, "zeros need no page");
        // A non-zero store allocates its page; zeros then land in it.
        n.comco_store(DATA_BUF_BASE, &[7; 8]);
        assert_eq!(pages_in_use(&n), 1);
        n.comco_clear(DATA_BUF_BASE, 4);
        let mut back = [0xFF; 8];
        n.cpu_load(CPU_BASE + DATA_BUF_BASE, &mut back);
        assert_eq!(back, [0, 0, 0, 0, 7, 7, 7, 7]);
    }

    #[test]
    #[should_panic(expected = "over the receive trigger")]
    fn bulk_store_over_the_receive_trigger_panics() {
        let mut n = module();
        let hdr = n.rx_header_addr(3);
        n.comco_clear(hdr + 0x18, 8);
    }

    /// One bulk operation at a COMCO offset: a store of `bytes`, or with
    /// `clear` a clear of as many bytes (then all zero).
    #[derive(Debug, Clone)]
    struct BulkOp {
        off: u32,
        bytes: Vec<u8>,
        clear: bool,
    }

    /// Bulk operations over plain RAM: anywhere in a receive header except
    /// its trigger word, in the data buffers, and across the page
    /// boundaries of the system structures; the bytes are often all zero.
    fn arb_bulk_op() -> impl Strategy<Value = BulkOp> {
        (0u8..3, 0u32..128, 0u32..16, 1u32..24, any::<u64>(), 0u8..3).prop_map(
            |(region, at, word, words, seed, kind)| {
                let (off, len) = match region {
                    0 => {
                        // A run on one side of the trigger word (word 7).
                        let (lo, hi) = if word < 7 {
                            (word, 7)
                        } else {
                            (word.max(8), 16)
                        };
                        let hdr = RX_HDR_BASE + at * 64;
                        (hdr + lo * 4, (hi - lo).min(words) * 4)
                    }
                    1 => (DATA_BUF_BASE + at * 256 + word * 4, words * 4),
                    _ => ((at % 40 + 1) * PAGE as u32 - word * 4, words * 4),
                };
                let mut x = seed | 1;
                let bytes = (0..len)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        if kind == 0 {
                            x as u8
                        } else {
                            0
                        }
                    })
                    .collect();
                BulkOp {
                    off,
                    bytes,
                    clear: kind == 2,
                }
            },
        )
    }

    proptest::proptest! {
        /// Bulk stores, clears and loads leave and read the same bytes as
        /// one longword access per word, and as a flat array of memory,
        /// however they fall on pages and whichever pages zeros skipped.
        #[test]
        fn bulk_access_matches_wordwise_access(
            ops in proptest::collection::vec(arb_bulk_op(), 1..40),
        ) {
            let (mut bulk, mut words) = (module(), module());
            let mut flat = vec![0u8; MEM_SIZE];
            for op in &ops {
                let len = op.bytes.len();
                if op.clear {
                    bulk.comco_clear(op.off, len as u32);
                } else {
                    bulk.comco_store(op.off, &op.bytes);
                }
                let stored = &op.bytes;
                for (i, w) in stored.chunks(4).enumerate() {
                    let v = u32::from_le_bytes(w.try_into().expect("longword"));
                    words.write32(op.off + 4 * i as u32, v);
                }
                flat[op.off as usize..op.off as usize + len].copy_from_slice(stored);
                // Read back a window around the store both ways.
                let lo = (op.off as usize).saturating_sub(64) & !3;
                let hi = (op.off as usize + len + 64).min(CPU_BASE as usize);
                let mut got = vec![0u8; hi - lo];
                bulk.cpu_load(CPU_BASE + lo as u32, &mut got);
                let wordwise: Vec<u8> = (lo..hi)
                    .step_by(4)
                    .flat_map(|a| words.read32(CPU_BASE + a as u32).to_le_bytes())
                    .collect();
                proptest::prop_assert_eq!(&got, &wordwise);
                proptest::prop_assert_eq!(&got[..], &flat[lo..hi]);
            }
            proptest::prop_assert_eq!(pages_in_use(&bulk), pages_in_use(&words));
            for (p, page) in bulk.mem.iter().enumerate() {
                let nonzero = flat[p * PAGE..(p + 1) * PAGE].iter().any(|&b| b != 0);
                proptest::prop_assert!(page.is_some() || !nonzero, "page {p} lost data");
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside NTI map")]
    fn unmapped_address_panics() {
        let mut n = module();
        let _ = n.read32(0x0009_0000);
    }
}
