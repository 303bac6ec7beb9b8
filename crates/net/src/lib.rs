//! Mote platform model for the PRESTO reproduction.
//!
//! The paper's testbed hardware (Mica2-class motes with CC1000 radios,
//! low-power-listening MACs, and dataflash) is replaced here by a
//! parameterized platform model. Everything the experiments need from the
//! hardware reduces to four questions, each answered by one module:
//!
//! * how many joules does it cost to move N bytes over the air, including
//!   preambles/headers/ACKs/retransmissions? — [`mac`]
//! * what does the frame geometry do to payloads? — [`frame`]
//! * do individual frames get lost, and in what pattern? — [`link`]
//! * what does idle listening cost as a function of the duty cycle, and
//!   how long until a sleeping node can be reached? — [`duty`]
//!
//! [`energy`] holds the calibrated Mica2-class hardware constants and the
//! CPU/flash cost models shared by the other crates.

pub mod duty;
pub mod energy;
pub mod frame;
pub mod link;
pub mod mac;

pub use duty::DutyCycle;
pub use energy::{CpuModel, FlashModel, RadioModel};
pub use frame::FrameFormat;
pub use link::{GilbertElliott, LinkModel, LossProcess, SharedLossState};
pub use mac::{Mac, TxOutcome};
