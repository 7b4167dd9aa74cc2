//! APB transfer types and the slave contract.

use std::error::Error;
use std::fmt;

/// Errors signalled on the bus (PSLVERR and decode failures) or detected at
/// fabric-configuration time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum BusError {
    /// No slave is mapped at the requested address.
    Decode {
        /// The undecodable address.
        addr: u32,
    },
    /// The slave responded with an error (PSLVERR): offset not implemented,
    /// write to a read-only register, ...
    Slave {
        /// The offending address.
        addr: u32,
    },
    /// A master issued a request while one was already outstanding.
    Busy,
    /// An address range being added to the fabric overlaps an existing one.
    Overlap {
        /// Base of the rejected range.
        base: u32,
        /// Base of the already-mapped range it collides with.
        conflicting_base: u32,
    },
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::Decode { addr } => write!(f, "no slave mapped at {addr:#010x}"),
            BusError::Slave { addr } => write!(f, "slave error at {addr:#010x}"),
            BusError::Busy => write!(f, "master already has an outstanding request"),
            BusError::Overlap {
                base,
                conflicting_base,
            } => write!(
                f,
                "address range at {base:#010x} overlaps range at {conflicting_base:#010x}"
            ),
        }
    }
}

impl Error for BusError {}

/// Direction of a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Read transfer (PWRITE = 0).
    Read,
    /// Write transfer (PWRITE = 1).
    Write,
}

/// One APB transfer request as issued by a master.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApbRequest {
    /// Byte address (word-aligned for 32-bit transfers).
    pub addr: u32,
    /// Transfer direction.
    pub dir: Dir,
    /// Write data (ignored for reads).
    pub wdata: u32,
}

impl ApbRequest {
    /// A 32-bit read from `addr`.
    pub fn read(addr: u32) -> Self {
        ApbRequest {
            addr,
            dir: Dir::Read,
            wdata: 0,
        }
    }

    /// A 32-bit write of `wdata` to `addr`.
    pub fn write(addr: u32, wdata: u32) -> Self {
        ApbRequest {
            addr,
            dir: Dir::Write,
            wdata,
        }
    }

    /// Whether this is a write.
    pub fn is_write(&self) -> bool {
        self.dir == Dir::Write
    }
}

impl fmt::Display for ApbRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.dir {
            Dir::Read => write!(f, "R {:#010x}", self.addr),
            Dir::Write => write!(f, "W {:#010x} <= {:#010x}", self.addr, self.wdata),
        }
    }
}

/// A completed transfer, delivered to the issuing master's response
/// register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApbResponse {
    /// The originating request.
    pub request: ApbRequest,
    /// Read data, or the error. For writes `Ok(0)`.
    pub result: Result<u32, BusError>,
    /// Fabric cycle at which the access phase completed.
    pub completed_cycle: u64,
}

impl ApbResponse {
    /// Read data of a successful read.
    ///
    /// # Panics
    ///
    /// Panics if the transfer failed.
    pub fn rdata(&self) -> u32 {
        self.result.expect("bus transfer failed")
    }
}

/// The memory-mapped-slave contract.
///
/// `read`/`write` are invoked exactly once per transfer, during the access
/// phase, with the **offset from the slave's mapped base** (the paper's
/// sequenced-action encoding also addresses peripherals by a word offset
/// from a per-link base, Section III-2).
pub trait ApbSlave {
    /// Access-phase read.
    ///
    /// # Errors
    ///
    /// Implementations return [`BusError::Slave`] for unimplemented
    /// offsets.
    fn read(&mut self, offset: u32) -> Result<u32, BusError>;

    /// Access-phase write.
    ///
    /// # Errors
    ///
    /// Implementations return [`BusError::Slave`] for unimplemented or
    /// read-only offsets.
    fn write(&mut self, offset: u32, value: u32) -> Result<(), BusError>;

    /// Extra access-phase cycles for the given offset (default 0 — a
    /// zero-wait-state APB slave).
    fn wait_states(&self, _offset: u32, _dir: Dir) -> u32 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_constructors() {
        let r = ApbRequest::read(0x10);
        assert_eq!(r.dir, Dir::Read);
        assert!(!r.is_write());
        let w = ApbRequest::write(0x10, 7);
        assert!(w.is_write());
        assert_eq!(w.wdata, 7);
    }

    #[test]
    fn request_display() {
        assert_eq!(ApbRequest::read(0x10).to_string(), "R 0x00000010");
        assert_eq!(
            ApbRequest::write(0x10, 0xFF).to_string(),
            "W 0x00000010 <= 0x000000ff"
        );
    }

    #[test]
    fn response_rdata_unwraps() {
        let resp = ApbResponse {
            request: ApbRequest::read(0),
            result: Ok(42),
            completed_cycle: 3,
        };
        assert_eq!(resp.rdata(), 42);
    }

    #[test]
    #[should_panic(expected = "bus transfer failed")]
    fn response_rdata_panics_on_error() {
        let resp = ApbResponse {
            request: ApbRequest::read(0),
            result: Err(BusError::Decode { addr: 0 }),
            completed_cycle: 0,
        };
        let _ = resp.rdata();
    }

    #[test]
    fn bus_error_messages() {
        assert!(BusError::Decode { addr: 0x40 }.to_string().contains("0x00000040"));
        assert!(BusError::Busy.to_string().contains("outstanding"));
    }
}
