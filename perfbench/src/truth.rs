//! Ground-truth matching.
//!
//! `pdr` and `false_pkts` are computed here and nowhere else. A decoded
//! CRC-clean packet is *delivered* when it claims a transmitted frame on
//! the same (channel, SF) carrying the same payload whose start lies
//! within a tolerance of the decoded start. Each transmitted frame can be
//! claimed at most once, so a packet the receiver emits twice counts once
//! as delivered and once as false.
//!
//! A false packet whose payload *was* transmitted on that (channel, SF) —
//! a second release of a frame, or a release far from its start — is
//! *misattributed*: the serving system got the packet right and its
//! bookkeeping wrong. A false packet carrying a payload nobody sent is a
//! receiver false positive that passed the 16-bit CRC.

use std::collections::HashMap;

/// One transmitted frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TruthFrame {
    /// Channel index (0 for a single-channel capture).
    pub channel: usize,
    /// Spreading factor.
    pub sf: u8,
    /// First sample of the frame, in the receiver's time base.
    pub start: u64,
    /// One past the last sample of the frame, same time base.
    pub end: u64,
    /// Application payload.
    pub payload: Vec<u8>,
}

/// Scores decoded packets against the frames that were transmitted.
pub struct TruthMatcher {
    frames: Vec<TruthFrame>,
    claimed: Vec<bool>,
    /// (channel, sf, payload) → indices into `frames`.
    by_key: HashMap<(usize, u8, Vec<u8>), Vec<usize>>,
    tolerance: u64,
    delivered: usize,
    false_pkts: usize,
    misattributed: usize,
}

impl TruthMatcher {
    /// A matcher over `frames` accepting a decoded start up to
    /// `tolerance` samples away from the transmitted start.
    pub fn new(frames: Vec<TruthFrame>, tolerance: u64) -> Self {
        let mut by_key: HashMap<(usize, u8, Vec<u8>), Vec<usize>> = HashMap::new();
        for (i, f) in frames.iter().enumerate() {
            by_key
                .entry((f.channel, f.sf, f.payload.clone()))
                .or_default()
                .push(i);
        }
        Self {
            claimed: vec![false; frames.len()],
            frames,
            by_key,
            tolerance,
            delivered: 0,
            false_pkts: 0,
            misattributed: 0,
        }
    }

    /// Score one CRC-clean decoded packet. Returns the index of the
    /// frame it claimed (the unclaimed candidate nearest in start), or
    /// `None` when it matches no unclaimed frame — a false packet.
    pub fn claim(&mut self, channel: usize, sf: u8, start: u64, payload: &[u8]) -> Option<usize> {
        let candidates = self.by_key.get(&(channel, sf, payload.to_vec()));
        let best = candidates
            .and_then(|candidates| {
                candidates
                    .iter()
                    .copied()
                    .filter(|&i| !self.claimed[i])
                    .map(|i| (self.frames[i].start.abs_diff(start), i))
                    .filter(|&(d, _)| d <= self.tolerance)
                    .min()
            })
            .map(|(_, i)| i);
        match best {
            Some(i) => {
                self.claimed[i] = true;
                self.delivered += 1;
            }
            None => {
                self.false_pkts += 1;
                if candidates.is_some() {
                    self.misattributed += 1;
                }
            }
        }
        best
    }

    /// The frame at `idx`.
    pub fn frame(&self, idx: usize) -> &TruthFrame {
        &self.frames[idx]
    }

    /// Frames transmitted.
    pub fn offered(&self) -> usize {
        self.frames.len()
    }

    /// Frames claimed by a decoded packet.
    pub fn delivered(&self) -> usize {
        self.delivered
    }

    /// CRC-clean decoded packets that claimed no frame.
    pub fn false_pkts(&self) -> usize {
        self.false_pkts
    }

    /// False packets whose payload was transmitted on their (channel,
    /// SF): duplicates and mistimed releases.
    pub fn misattributed(&self) -> usize {
        self.misattributed
    }
}
