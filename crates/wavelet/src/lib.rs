//! Wavelet machinery for PRESTO.
//!
//! Three paper mechanisms live here:
//!
//! * **Batched push with wavelet denoising** (Figure 2): a sensor batches
//!   samples, denoises them (shrinking noise-level detail coefficients to
//!   zero), and transmits the compressed coefficient stream — [`denoise`],
//!   [`codec`].
//! * **Lossy compression tuned to query precision** (§3, query–sensor
//!   matching): the quantizer step of [`codec::Codec`] bounds the
//!   reconstruction error, so a 75%-precision query class maps directly to
//!   a coarser, cheaper encoding.
//! * **Graceful aging of archived data** (§4, citing multi-resolution
//!   storage \[10\]): [`aging`] keeps progressively coarser approximation
//!   bands of old data as storage pressure mounts.
//!
//! Transform: [`haar`], integer-friendly and computable in O(n) with tiny
//! state, which is what a mote can afford.

pub mod aging;
pub mod codec;
pub mod denoise;
pub mod haar;
pub mod quant;

pub use aging::AgingLadder;
pub use codec::{Codec, CodecParams, Compressed, EncodeScratch};
pub use denoise::{denoise_in_place, universal_threshold, DenoiseMode};
pub use haar::{
    haar_forward, haar_forward_in_place, haar_inverse, haar_inverse_in_place, haar_levels,
};
pub use quant::{dequantize, pack_ints, quantize, unpack_ints};
