//! Link-layer frame geometry.
//!
//! A payload handed to the MAC is fragmented into frames of at most
//! [`FrameFormat::max_payload`] bytes, each carrying a fixed header and
//! CRC; acknowledged frames also cost an ACK frame in the reverse
//! direction. The default geometry matches the TinyOS 1.x Mica2 stack
//! (29-byte payload, 7-byte header, 2-byte CRC, 10-byte ACK).

/// Frame geometry constants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameFormat {
    /// Maximum payload bytes per frame.
    pub max_payload: usize,
    /// Header bytes per frame (addresses, type, length, sequence).
    pub header_bytes: usize,
    /// Trailer CRC bytes per frame.
    pub crc_bytes: usize,
    /// Bytes in a link-layer acknowledgement frame.
    pub ack_bytes: usize,
}

impl Default for FrameFormat {
    fn default() -> Self {
        FrameFormat::tinyos_mica2()
    }
}

impl FrameFormat {
    /// TinyOS 1.x / Mica2 default geometry.
    pub fn tinyos_mica2() -> Self {
        FrameFormat {
            max_payload: 29,
            header_bytes: 7,
            crc_bytes: 2,
            ack_bytes: 10,
        }
    }

    /// Number of frames needed for a payload of `len` bytes.
    ///
    /// A zero-length payload still takes one (empty) frame — commands and
    /// beacons have headers even when they carry no data.
    pub fn frames_for(&self, len: usize) -> usize {
        if len == 0 {
            1
        } else {
            len.div_ceil(self.max_payload)
        }
    }

    /// On-air bytes of a single frame carrying `payload` payload bytes.
    pub fn frame_wire_bytes(&self, payload: usize) -> usize {
        debug_assert!(payload <= self.max_payload);
        self.header_bytes + payload + self.crc_bytes
    }

    /// Total on-air bytes (excluding preambles and ACKs) for `len` payload
    /// bytes after fragmentation.
    pub fn wire_bytes(&self, len: usize) -> usize {
        let full = len / self.max_payload;
        let rem = len % self.max_payload;
        let mut total = full * self.frame_wire_bytes(self.max_payload);
        if rem > 0 || len == 0 {
            total += self.frame_wire_bytes(rem);
        }
        total
    }

    /// Sizes of the individual fragments of a `len`-byte payload.
    pub fn fragment_sizes(&self, len: usize) -> Vec<usize> {
        if len == 0 {
            return vec![0];
        }
        let mut out = Vec::with_capacity(self.frames_for(len));
        let mut rem = len;
        while rem > 0 {
            let take = rem.min(self.max_payload);
            out.push(take);
            rem -= take;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn frames_for_counts() {
        let f = FrameFormat::tinyos_mica2();
        assert_eq!(f.frames_for(0), 1);
        assert_eq!(f.frames_for(1), 1);
        assert_eq!(f.frames_for(29), 1);
        assert_eq!(f.frames_for(30), 2);
        assert_eq!(f.frames_for(58), 2);
        assert_eq!(f.frames_for(59), 3);
    }

    #[test]
    fn wire_bytes_includes_overhead_per_frame() {
        let f = FrameFormat::tinyos_mica2();
        // One full frame: 7 + 29 + 2 = 38 bytes.
        assert_eq!(f.wire_bytes(29), 38);
        // Two frames, second has 1 byte: 38 + (7 + 1 + 2) = 48.
        assert_eq!(f.wire_bytes(30), 48);
        // Empty command frame: 9 bytes of pure overhead.
        assert_eq!(f.wire_bytes(0), 9);
    }

    #[test]
    fn fragment_sizes_cover_payload() {
        let f = FrameFormat::tinyos_mica2();
        assert_eq!(f.fragment_sizes(0), vec![0]);
        assert_eq!(f.fragment_sizes(29), vec![29]);
        assert_eq!(f.fragment_sizes(40), vec![29, 11]);
    }

    proptest! {
        #[test]
        fn fragments_sum_to_payload(len in 0usize..4096) {
            let f = FrameFormat::tinyos_mica2();
            let frags = f.fragment_sizes(len);
            prop_assert_eq!(frags.iter().sum::<usize>(), len);
            prop_assert_eq!(frags.len(), f.frames_for(len));
            for (i, &s) in frags.iter().enumerate() {
                prop_assert!(s <= f.max_payload);
                // Only the final fragment may be partial.
                if i + 1 < frags.len() {
                    prop_assert_eq!(s, f.max_payload);
                }
            }
        }

        #[test]
        fn wire_bytes_matches_fragments(len in 0usize..4096) {
            // An 802.15.4-style geometry, so the property is not tied to
            // the Mica2 constants.
            let f = FrameFormat {
                max_payload: 102,
                header_bytes: 11,
                crc_bytes: 2,
                ack_bytes: 11,
            };
            let by_frag: usize = f
                .fragment_sizes(len)
                .iter()
                .map(|&s| f.frame_wire_bytes(s))
                .sum();
            prop_assert_eq!(f.wire_bytes(len), by_frag);
        }
    }
}
