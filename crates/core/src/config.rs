//! The memory-mapped configuration interface.
//!
//! "The main CPU configures both masking and triggering conditions
//! through each link's private configuration registers" (paper Section
//! III-1a). This module gives [`Pels`] an APB-style register file so the
//! Ibex-class core (or any bus master) can configure masks, conditions,
//! base addresses and load microcode through an SCM write window.

use crate::pels::Pels;
use crate::trigger::TriggerCond;
use pels_sim::EventVector;

/// Register-map constants (byte offsets).
pub mod regs {
    /// Global control: bit 0 = enable.
    pub const CTRL: u32 = 0x000;
    /// Read-only link count.
    pub const N_LINKS: u32 = 0x004;
    /// Read-only SCM lines per link.
    pub const SCM_LINES: u32 = 0x008;
    /// Stride between link register blocks.
    pub const LINK_STRIDE: u32 = 0x100;
    /// First link block offset.
    pub const LINK0: u32 = 0x100;
    /// Link: control (bit0 enable; bits\[2:1\] condition: 0 any, 1 all,
    /// 2 at-least-k; bits\[15:8\] k).
    pub const LINK_CTRL: u32 = 0x00;
    /// Link: event-mask low word.
    pub const LINK_MASK_LO: u32 = 0x04;
    /// Link: event-mask high word.
    pub const LINK_MASK_HI: u32 = 0x08;
    /// Link: sequenced-action base address.
    pub const LINK_BASE: u32 = 0x0C;
    /// Link: status (RO — bit0 busy, bits\[7:4\] FIFO level, bits\[15:8\]
    /// PC).
    pub const LINK_STATUS: u32 = 0x10;
    /// Link: datapath register (RO).
    pub const LINK_DPR: u32 = 0x14;
    /// Link: trigger-FIFO drop count (RO).
    pub const LINK_DROPS: u32 = 0x18;
    /// Link: SCM window start — line *i* low word at `SCM_WINDOW + 8*i`,
    /// high word at `SCM_WINDOW + 8*i + 4`.
    pub const SCM_WINDOW: u32 = 0x40;
}

/// A configuration-access failure (unmapped offset or read-only write).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending byte offset.
    pub offset: u32,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unmapped pels config offset {:#x}", self.offset)
    }
}

impl std::error::Error for ConfigError {}

fn decode_cond(ctrl: u32) -> TriggerCond {
    match (ctrl >> 1) & 0b11 {
        0 => TriggerCond::Any,
        1 => TriggerCond::All,
        _ => TriggerCond::AtLeast(((ctrl >> 8) & 0xFF) as u8),
    }
}

fn encode_cond(cond: TriggerCond) -> u32 {
    match cond {
        TriggerCond::Any => 0,
        TriggerCond::All => 1 << 1,
        TriggerCond::AtLeast(k) => (2 << 1) | (u32::from(k) << 8),
    }
}

impl Pels {
    /// Reads a configuration register, counting the access (see
    /// [`Pels::drain_activity`]).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for unmapped offsets.
    pub fn config_read(&mut self, offset: u32) -> Result<u32, ConfigError> {
        self.config_port.reads += 1;
        match offset {
            regs::CTRL => return Ok(u32::from(self.is_enabled())),
            regs::N_LINKS => return Ok(self.link_count() as u32),
            regs::SCM_LINES => return Ok(self.config().scm_lines as u32),
            _ => {}
        }
        let (link_idx, link_off) = self.decode_link(offset)?;
        let link = self.link(link_idx);
        match link_off {
            regs::LINK_CTRL => Ok(u32::from(link.trigger().is_enabled())
                | encode_cond(link.trigger().condition())),
            regs::LINK_MASK_LO => Ok(link.trigger().mask().bits() as u32),
            regs::LINK_MASK_HI => Ok((link.trigger().mask().bits() >> 32) as u32),
            regs::LINK_BASE => Ok(link.exec().base()),
            regs::LINK_STATUS => Ok(u32::from(link.is_busy())
                | ((link.trigger().pending() as u32) << 4)
                | ((link.exec().pc() as u32) << 8)),
            regs::LINK_DPR => Ok(link.exec().dpr()),
            regs::LINK_DROPS => Ok(link.trigger().drops() as u32),
            o if o >= regs::SCM_WINDOW => {
                let idx = ((o - regs::SCM_WINDOW) / 8) as usize;
                if idx >= link.scm().capacity() {
                    return Err(ConfigError { offset });
                }
                let raw = link.scm().peek_line(idx);
                if (o - regs::SCM_WINDOW).is_multiple_of(8) {
                    Ok(raw as u32)
                } else {
                    Ok((raw >> 32) as u32)
                }
            }
            _ => Err(ConfigError { offset }),
        }
    }

    /// Writes a configuration register, counting the access (see
    /// [`Pels::drain_activity`]).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for unmapped or read-only offsets.
    pub fn config_write(&mut self, offset: u32, value: u32) -> Result<(), ConfigError> {
        self.config_port.writes += 1;
        match offset {
            regs::CTRL => {
                self.set_enabled(value & 1 != 0);
                return Ok(());
            }
            regs::N_LINKS | regs::SCM_LINES => return Err(ConfigError { offset }),
            _ => {}
        }
        let (link_idx, link_off) = self.decode_link(offset)?;
        let link = self.link_mut(link_idx);
        match link_off {
            regs::LINK_CTRL => {
                link.set_enabled(value & 1 != 0);
                link.set_condition(decode_cond(value));
                Ok(())
            }
            regs::LINK_MASK_LO => {
                let hi = link.trigger().mask().bits() & 0xFFFF_FFFF_0000_0000;
                link.set_mask(EventVector::from_bits(hi | u64::from(value)));
                Ok(())
            }
            regs::LINK_MASK_HI => {
                let lo = link.trigger().mask().bits() & 0xFFFF_FFFF;
                link.set_mask(EventVector::from_bits((u64::from(value) << 32) | lo));
                Ok(())
            }
            regs::LINK_BASE => {
                link.set_base(value);
                Ok(())
            }
            regs::LINK_STATUS | regs::LINK_DPR | regs::LINK_DROPS => {
                Err(ConfigError { offset })
            }
            o if o >= regs::SCM_WINDOW => {
                let rel = o - regs::SCM_WINDOW;
                let idx = (rel / 8) as usize;
                if idx >= link.scm().capacity() {
                    return Err(ConfigError { offset });
                }
                let old = link.scm().peek_line(idx);
                let new = if rel.is_multiple_of(8) {
                    (old & 0xFFFF_0000_0000_0000) | (old & 0xFFFF_0000_0000) | u64::from(value)
                } else {
                    (old & 0xFFFF_FFFF) | (u64::from(value & 0xFFFF) << 32)
                };
                link.scm_mut().write_line(idx, new);
                Ok(())
            }
            _ => Err(ConfigError { offset }),
        }
    }

    fn decode_link(&self, offset: u32) -> Result<(usize, u32), ConfigError> {
        if offset < regs::LINK0 {
            return Err(ConfigError { offset });
        }
        let idx = ((offset - regs::LINK0) / regs::LINK_STRIDE) as usize;
        if idx >= self.link_count() {
            return Err(ConfigError { offset });
        }
        Ok((idx, (offset - regs::LINK0) % regs::LINK_STRIDE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::Command;
    use crate::encoding::encode_command;
    use crate::pels::{Pels, PelsConfig};

    fn pels(links: usize, scm_lines: usize) -> Pels {
        Pels::new(PelsConfig {
            links,
            scm_lines,
            ..PelsConfig::default()
        })
    }

    fn link_reg(link: u32, off: u32) -> u32 {
        regs::LINK0 + link * regs::LINK_STRIDE + off
    }

    #[test]
    fn global_registers() {
        let mut p = pels(3, 6);
        assert_eq!(p.config_read(regs::N_LINKS).unwrap(), 3);
        assert_eq!(p.config_read(regs::SCM_LINES).unwrap(), 6);
        assert_eq!(p.config_read(regs::CTRL).unwrap(), 1);
        p.config_write(regs::CTRL, 0).unwrap();
        assert!(!p.is_enabled());
        assert!(p.config_write(regs::N_LINKS, 9).is_err());
    }

    #[test]
    fn link_mask_read_write_64bit() {
        let mut p = pels(2, 4);
        p.config_write(link_reg(1, regs::LINK_MASK_LO), 0x0000_0008)
            .unwrap();
        p.config_write(link_reg(1, regs::LINK_MASK_HI), 0x0000_0100)
            .unwrap();
        let mask = p.link(1).trigger().mask();
        assert_eq!(mask, EventVector::mask_of(&[3, 40]));
        assert_eq!(p.config_read(link_reg(1, regs::LINK_MASK_LO)).unwrap(), 8);
        assert_eq!(
            p.config_read(link_reg(1, regs::LINK_MASK_HI)).unwrap(),
            0x100
        );
    }

    #[test]
    fn link_ctrl_encodes_condition() {
        let mut p = pels(1, 4);
        p.config_write(link_reg(0, regs::LINK_CTRL), 1 | (1 << 1))
            .unwrap();
        assert_eq!(p.link(0).trigger().condition(), TriggerCond::All);
        p.config_write(link_reg(0, regs::LINK_CTRL), 1 | (2 << 1) | (3 << 8))
            .unwrap();
        assert_eq!(
            p.link(0).trigger().condition(),
            TriggerCond::AtLeast(3)
        );
        let ctrl = p.config_read(link_reg(0, regs::LINK_CTRL)).unwrap();
        assert_eq!(decode_cond(ctrl), TriggerCond::AtLeast(3));
    }

    #[test]
    fn scm_window_loads_commands() {
        let mut p = pels(1, 4);
        let raw = encode_command(&Command::Wait { cycles: 99 }).unwrap();
        let base = link_reg(0, regs::SCM_WINDOW);
        p.config_write(base, raw as u32).unwrap();
        p.config_write(base + 4, (raw >> 32) as u32).unwrap();
        assert_eq!(p.link(0).scm().peek_line(0), raw);
        assert_eq!(p.config_read(base).unwrap(), raw as u32);
        assert_eq!(p.config_read(base + 4).unwrap(), (raw >> 32) as u32);
    }

    #[test]
    fn scm_window_bounds_checked() {
        let mut p = pels(1, 4);
        let beyond = link_reg(0, regs::SCM_WINDOW + 8 * 4);
        assert!(p.config_read(beyond).is_err());
        assert!(p.config_write(beyond, 0).is_err());
    }

    #[test]
    fn read_only_link_regs_reject_writes() {
        let mut p = pels(1, 4);
        assert!(p
            .config_write(link_reg(0, regs::LINK_STATUS), 0)
            .is_err());
        assert!(p.config_write(link_reg(0, regs::LINK_DPR), 0).is_err());
    }

    #[test]
    fn out_of_range_link_rejected() {
        let mut p = pels(1, 4);
        assert!(p.config_read(link_reg(1, regs::LINK_CTRL)).is_err());
        let e = p.config_read(0x0C).unwrap_err();
        assert!(e.to_string().contains("unmapped"));
    }

    #[test]
    fn base_register_roundtrip() {
        let mut p = pels(1, 4);
        p.config_write(link_reg(0, regs::LINK_BASE), 0x1A10_2000)
            .unwrap();
        assert_eq!(
            p.config_read(link_reg(0, regs::LINK_BASE)).unwrap(),
            0x1A10_2000
        );
    }
}
