//! Log-structured archival store with a time index and graceful aging.
//!
//! Records append into a page buffer; full pages program into the current
//! block; full blocks seal into *segments* tracked by an in-RAM time
//! index (the paper's "simple time-based index structure"). When no
//! erased block remains, the oldest segment is reclaimed: its scalar
//! content is folded into a wavelet summary (and previously aged
//! summaries are re-aged one level), its events are carried forward
//! verbatim, and the block is erased for reuse. Old data thus loses
//! resolution gracefully instead of disappearing.
//!
//! ## The indexed read path
//!
//! Queries must scale with the pages that actually overlap the window,
//! not with the archive size, so the index has three layers:
//!
//! * a **segment index** (`[start, end]` covered span per segment, where
//!   summaries count the whole range they were folded from) prunes
//!   non-overlapping blocks;
//! * a **per-page time directory** (`[(page_start, page_end)]`,
//!   maintained as pages are programmed) binary-searches
//!   to the first overlapping page of a segment and early-exits past the
//!   window's end, so narrow queries decode a handful of pages instead
//!   of whole blocks;
//! * a small **decoded-page LRU** short-circuits repeated reads of the
//!   same flash pages (the proxy's PAST and aggregate pulls hit the
//!   same recent blocks over and over), with hit/miss
//!   counters surfaced in [`ArchiveStats`].
//!
//! Results from the per-segment scans are combined by a streaming k-way
//! merge: segments are written in time order, so the merge almost always
//! degenerates to concatenation and no global sort happens. The
//! pre-index behaviour is preserved as
//! [`ArchiveStore::query_range_fullscan`] /
//! [`ArchiveStore::query_events_fullscan`] — the reference
//! implementations the equivalence property tests and the
//! `archive_query` bench compare against.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use presto_net::FlashModel;
use presto_sim::{EnergyLedger, SimTime};
use presto_wavelet::AgingLadder;

use crate::flash::{FlashDevice, FlashError};
use crate::record::{summary_record, summary_values, Quality, Record, RecordPayload};

/// Quantizer step for aged summaries. The aged-row error bound
/// ([`Quality::error_bound`]) is read off it.
pub(crate) const QUANT_STEP: f64 = 0.05;

/// Aging level applied to raw scalars on first reclamation.
const BASE_AGING_LEVEL: u8 = 2;

/// Archive configuration. The flash device is always a DataFlash part
/// ([`FlashModel::dataflash`]).
#[derive(Clone, Debug)]
pub struct ArchiveConfig {
    /// Flash capacity in bytes.
    pub capacity_bytes: usize,
    /// Enable wavelet aging on reclamation (otherwise old data is lost).
    pub aging_enabled: bool,
    /// Capacity of the decoded-page LRU, in pages (0 disables caching).
    pub page_cache_pages: usize,
}

impl Default for ArchiveConfig {
    fn default() -> Self {
        ArchiveConfig {
            capacity_bytes: 1 << 20, // 1 MiB default for tests; motes get more
            aging_enabled: true,
            page_cache_pages: 64,
        }
    }
}

/// A sample returned by a range query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArchivedSample {
    /// Sample (or reconstructed) timestamp.
    pub timestamp: SimTime,
    /// Value.
    pub value: f64,
    /// Exact or aged provenance.
    pub quality: Quality,
}

/// A semantic event returned by an event query.
#[derive(Clone, Debug, PartialEq)]
pub struct ArchivedEvent {
    /// Event timestamp.
    pub timestamp: SimTime,
    /// Application event type.
    pub event_type: u16,
    /// Application payload.
    pub data: Vec<u8>,
}

/// Archive errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArchiveError {
    /// Underlying flash failure.
    Flash(FlashError),
    /// A single record exceeds the page payload capacity.
    RecordTooLarge,
}

impl From<FlashError> for ArchiveError {
    fn from(e: FlashError) -> Self {
        ArchiveError::Flash(e)
    }
}

/// One entry of a segment's page time directory.
#[derive(Clone, Copy, Debug)]
struct PageMeta {
    /// Earliest instant any record in the page covers.
    start: SimTime,
    /// Latest instant any record in the page covers.
    end: SimTime,
}

impl PageMeta {
    fn overlaps(&self, t0: SimTime, t1: SimTime) -> bool {
        self.start <= t1 && self.end >= t0
    }
}

#[derive(Clone, Debug)]
struct SegmentMeta {
    block: usize,
    /// Earliest instant covered by any record in the segment (summaries
    /// count their folded-from span, not just their write timestamp).
    start: SimTime,
    /// Latest covered instant.
    end: SimTime,
    records: u32,
    /// Per-page time directory, one entry per programmed page.
    pages: Vec<PageMeta>,
    /// True while the directory is monotone in both page start and page
    /// end — the common case, which enables binary search + early exit.
    time_ordered: bool,
}

impl SegmentMeta {
    fn fresh(block: usize) -> Self {
        SegmentMeta {
            block,
            start: SimTime::MAX,
            end: SimTime::ZERO,
            records: 0,
            pages: Vec::new(),
            time_ordered: true,
        }
    }

    fn pages_used(&self) -> usize {
        self.pages.len()
    }

    /// True once the segment holds any data. `records` alone is not
    /// enough: a pending page buffer can be flushed into a *newer*
    /// segment than the one its records were credited to at append time
    /// (sealing a full block mid-flush), leaving a programmed page in a
    /// segment whose own record count is still zero.
    fn has_data(&self) -> bool {
        self.records > 0 || !self.pages.is_empty()
    }

    fn overlaps(&self, t0: SimTime, t1: SimTime) -> bool {
        self.has_data() && self.start <= t1 && self.end >= t0
    }
}

/// Store-level statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ArchiveStats {
    /// Records appended since creation.
    pub records_appended: u64,
    /// Segments reclaimed (aged or dropped).
    pub segments_reclaimed: u64,
    /// Scalar samples folded into summaries so far.
    pub samples_aged: u64,
    /// Query page reads served from the decoded-page LRU.
    pub page_cache_hits: u64,
    /// Query page reads that went to flash.
    pub page_cache_misses: u64,
    /// Pages skipped by the segment index and page time directory.
    pub pages_pruned: u64,
}

presto_telemetry::observe_counters!(ArchiveStats {
    records_appended,
    segments_reclaimed,
    samples_aged,
    page_cache_hits,
    page_cache_misses,
    pages_pruned,
});

/// A bounded LRU of decoded pages, keyed by absolute page index.
///
/// Pages are immutable between program and block erase, so entries stay
/// valid until [`PageLru::invalidate_block`] removes them on reclaim.
#[derive(Debug, Default)]
struct PageLru {
    cap: usize,
    entries: BTreeMap<usize, Vec<Record>>,
    /// LRU order, least recently used first.
    order: VecDeque<usize>,
}

impl PageLru {
    fn new(cap: usize) -> Self {
        PageLru {
            cap,
            entries: BTreeMap::new(),
            order: VecDeque::with_capacity(cap),
        }
    }

    fn contains(&self, page: usize) -> bool {
        self.entries.contains_key(&page)
    }

    /// Marks `page` most recently used and returns its records.
    fn touch(&mut self, page: usize) -> &Vec<Record> {
        if let Some(pos) = self.order.iter().position(|&p| p == page) {
            self.order.remove(pos);
            self.order.push_back(page);
        }
        &self.entries[&page]
    }

    /// Inserts a decoded page, evicting the least recently used entry
    /// when full. Returns a reference to the inserted records.
    fn insert(&mut self, page: usize, records: Vec<Record>) -> &Vec<Record> {
        if self.cap == 0 {
            // Caching disabled: keep exactly one transient entry so the
            // caller can still borrow the decoded records.
            self.entries.clear();
            self.order.clear();
            self.order.push_back(page);
            return self.entries.entry(page).or_insert(records);
        }
        while self.entries.len() >= self.cap {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            self.entries.remove(&old);
        }
        self.order.push_back(page);
        self.entries.entry(page).or_insert(records)
    }

    /// Drops every cached page of an erased block.
    fn invalidate_block(&mut self, first_page: usize, pages: usize) {
        let range = first_page..first_page + pages;
        self.order.retain(|p| !range.contains(p));
        self.entries.retain(|p, _| !range.contains(p));
    }
}

/// The sensor-local archival store.
pub struct ArchiveStore {
    flash: FlashDevice,
    config: ArchiveConfig,
    ladder: AgingLadder,
    /// Sealed + current segments, oldest first. The last entry is the
    /// currently filling segment.
    segments: VecDeque<SegmentMeta>,
    free_blocks: VecDeque<usize>,
    page_buf: Vec<u8>,
    /// Covered span of the records currently in `page_buf`.
    buf_span: Option<(SimTime, SimTime)>,
    page_cache: PageLru,
    /// Covered spans of segments sealed since the last
    /// [`ArchiveStore::take_sealed_spans`] drain — the feed for
    /// seal-notification uplinks.
    sealed_pending: Vec<(SimTime, SimTime)>,
    stats: ArchiveStats,
}

impl ArchiveStore {
    /// Creates an empty archive.
    pub fn new(config: ArchiveConfig) -> Self {
        let flash = FlashDevice::new(FlashModel::dataflash(), config.capacity_bytes);
        assert!(flash.block_count() >= 2, "archive needs at least 2 blocks");
        let mut free_blocks: VecDeque<usize> = (0..flash.block_count()).collect();
        let first = free_blocks.pop_front().expect("at least two blocks");
        let ladder = AgingLadder::new(QUANT_STEP);
        let mut segments = VecDeque::new();
        segments.push_back(SegmentMeta::fresh(first));
        let page_cache = PageLru::new(config.page_cache_pages);
        ArchiveStore {
            flash,
            config,
            ladder,
            segments,
            free_blocks,
            page_buf: Vec::new(),
            buf_span: None,
            page_cache,
            sealed_pending: Vec::new(),
            stats: ArchiveStats::default(),
        }
    }

    /// Drops the RAM page buffer without programming it — the power-
    /// loss model: records not yet flushed to flash die with a crash.
    /// Segment metadata may keep counting them (its covered span can
    /// over-cover), which only makes range pruning conservative, never
    /// wrong.
    pub fn discard_ram_buffer(&mut self) {
        self.page_buf.clear();
        self.buf_span = None;
    }

    /// Drains the covered spans of segments sealed since the last call.
    /// Sensors turn these into seal-notification uplinks so the proxy
    /// tier's time-range index tracks archives as blocks seal, instead
    /// of lagging until the next periodic rebuild.
    pub fn take_sealed_spans(&mut self) -> Vec<(SimTime, SimTime)> {
        std::mem::take(&mut self.sealed_pending)
    }

    /// Appends a scalar reading.
    pub fn append_scalar(
        &mut self,
        t: SimTime,
        value: f64,
        ledger: &mut EnergyLedger,
    ) -> Result<(), ArchiveError> {
        self.append(Record::scalar(t, value), ledger)
    }

    /// Appends a semantic event.
    pub fn append_event(
        &mut self,
        t: SimTime,
        event_type: u16,
        data: &[u8],
        ledger: &mut EnergyLedger,
    ) -> Result<(), ArchiveError> {
        self.append(Record::event(t, event_type, data.to_vec()), ledger)
    }

    /// Appends any record.
    pub fn append(&mut self, rec: Record, ledger: &mut EnergyLedger) -> Result<(), ArchiveError> {
        let enc = rec.encode();
        let payload_capacity = self.flash.page_bytes() - 2;
        if enc.len() > payload_capacity {
            return Err(ArchiveError::RecordTooLarge);
        }
        if self.page_buf.len() + enc.len() > payload_capacity {
            self.flush_page(ledger)?;
        }
        self.page_buf.extend_from_slice(&enc);
        let (s0, s1) = rec.covered_span();
        self.buf_span = Some(match self.buf_span {
            None => (s0, s1),
            Some((a, b)) => (a.min(s0), b.max(s1)),
        });
        let seg = self.segments.back_mut().expect("current segment exists");
        seg.start = seg.start.min(s0);
        seg.end = seg.end.max(s1);
        seg.records += 1;
        self.stats.records_appended += 1;
        Ok(())
    }

    /// Programs the current page buffer into flash (no-op when empty),
    /// recording the page's covered span in the segment's time directory.
    pub fn flush_page(&mut self, ledger: &mut EnergyLedger) -> Result<(), ArchiveError> {
        if self.page_buf.is_empty() {
            return Ok(());
        }
        // Current segment might be full: seal and open a new block. The
        // re-appended carry-forward records inside `open_new_block` can
        // fill the fresh block too, so re-check until a page slot exists.
        while self
            .segments
            .back()
            .expect("current segment exists")
            .pages_used()
            >= self.flash.pages_per_block()
        {
            self.open_new_block(ledger)?;
        }
        let (span_start, span_end) = self.buf_span.expect("non-empty buffer has a span");
        let seg = self.segments.back_mut().expect("current segment exists");
        let page = seg.block * self.flash.pages_per_block() + seg.pages_used();
        let mut data = Vec::with_capacity(2 + self.page_buf.len());
        data.extend_from_slice(&(self.page_buf.len() as u16).to_le_bytes());
        data.extend_from_slice(&self.page_buf);
        self.flash.program(page, &data, ledger)?;
        let meta = PageMeta {
            start: span_start,
            end: span_end,
        };
        if let Some(last) = seg.pages.last() {
            if last.start > meta.start || last.end > meta.end {
                seg.time_ordered = false;
            }
        }
        seg.pages.push(meta);
        // Pages can land in a newer segment than the one that indexed
        // their records at append time (a carry-forward can seal the old
        // block while this buffer was pending), so fold the page span
        // into the receiving segment as well.
        seg.start = seg.start.min(span_start);
        seg.end = seg.end.max(span_end);
        self.page_buf.clear();
        self.buf_span = None;
        Ok(())
    }

    /// Seals the current segment and starts a new one on a fresh block,
    /// reclaiming the oldest segment if no erased block remains.
    fn open_new_block(&mut self, ledger: &mut EnergyLedger) -> Result<(), ArchiveError> {
        if let Some(seg) = self.segments.back() {
            if seg.has_data() {
                self.sealed_pending.push((seg.start, seg.end));
            }
        }
        let carried = if self.free_blocks.is_empty() {
            self.reclaim_oldest(ledger)?
        } else {
            Vec::new()
        };
        let block = self
            .free_blocks
            .pop_front()
            .expect("reclaim produced a free block");
        self.segments.push_back(SegmentMeta::fresh(block));
        // Re-append carried-forward records (summaries + events) into the
        // fresh segment. They are far smaller than a block.
        for rec in carried {
            self.append(rec, ledger)?;
        }
        Ok(())
    }

    /// Reclaims the oldest sealed segment, returning the records to carry
    /// forward (aged summaries + preserved events).
    fn reclaim_oldest(&mut self, ledger: &mut EnergyLedger) -> Result<Vec<Record>, ArchiveError> {
        let seg = self
            .segments
            .pop_front()
            .expect("at least one sealed segment when flash is full");
        let records = self.read_segment(&seg, ledger)?;
        self.flash.erase_block(seg.block, ledger)?;
        self.page_cache.invalidate_block(
            seg.block * self.flash.pages_per_block(),
            self.flash.pages_per_block(),
        );
        self.free_blocks.push_back(seg.block);
        self.stats.segments_reclaimed += 1;

        if !self.config.aging_enabled {
            return Ok(Vec::new());
        }

        let mut carried = Vec::new();
        // Scalars → one summary at the base aging level.
        let scalars: Vec<&Record> = records
            .iter()
            .filter(|r| matches!(r.payload, RecordPayload::Scalar(_)))
            .collect();
        if scalars.len() >= 2 {
            let values: Vec<f64> = scalars
                .iter()
                .map(|r| match r.payload {
                    RecordPayload::Scalar(v) => v,
                    _ => unreachable!("filtered to scalars"),
                })
                .collect();
            let start = scalars.first().expect("non-empty").timestamp;
            let end = scalars.last().expect("non-empty").timestamp;
            let level = BASE_AGING_LEVEL;
            let summary = self.ladder.summarize(&values, level as usize);
            carried.push(summary_record(
                end,
                level,
                start,
                end,
                values.len() as u32,
                &summary,
            ));
            self.stats.samples_aged += values.len() as u64;
        }
        // Existing summaries → re-aged one more level (halved again).
        for r in &records {
            if let RecordPayload::Summary {
                level,
                start,
                end,
                count,
                bytes,
            } = &r.payload
            {
                let Some(values) = summary_values(bytes) else {
                    continue;
                };
                if values.len() <= 1 {
                    carried.push(r.clone());
                    continue;
                }
                let resummary = self.ladder.summarize(&values, 1);
                carried.push(summary_record(
                    r.timestamp,
                    level.saturating_add(1),
                    *start,
                    *end,
                    *count,
                    &resummary,
                ));
            }
        }
        // Events are carried forward verbatim: the paper treats archived
        // event logs (surveillance) as the primary PAST-query payload.
        for r in records {
            if matches!(r.payload, RecordPayload::Event { .. }) {
                carried.push(r);
            }
        }
        // Budget the carry-forward set to half a block so re-aged
        // summaries cannot snowball across reclamations and consume the
        // whole device: beyond the budget, the *oldest* summaries are
        // finally forgotten (events are kept preferentially).
        let budget = self.flash.page_bytes() * self.flash.pages_per_block() / 2;
        let mut total: usize = carried.iter().map(Record::encoded_len).sum();
        if total > budget {
            // Oldest summaries (smallest covered start) drop first.
            let mut order: Vec<usize> = (0..carried.len()).collect();
            order.sort_by_key(|&i| match &carried[i].payload {
                RecordPayload::Summary { start, .. } => (0u8, start.as_micros()),
                _ => (1u8, carried[i].timestamp.as_micros()),
            });
            let mut drop = std::collections::BTreeSet::new();
            for &i in &order {
                if total <= budget {
                    break;
                }
                if matches!(carried[i].payload, RecordPayload::Summary { .. }) {
                    total -= carried[i].encoded_len();
                    drop.insert(i);
                }
            }
            let mut kept = Vec::with_capacity(carried.len() - drop.len());
            for (i, r) in carried.into_iter().enumerate() {
                if !drop.contains(&i) {
                    kept.push(r);
                }
            }
            carried = kept;
        }
        Ok(carried)
    }

    /// Returns a page's decoded records, via the LRU when possible.
    fn page_records(
        &mut self,
        page: usize,
        ledger: &mut EnergyLedger,
    ) -> Result<&Vec<Record>, ArchiveError> {
        // cap == 0 disables caching entirely: the transient entry kept
        // for borrowing must never satisfy a later lookup.
        if self.page_cache.cap > 0 && self.page_cache.contains(page) {
            self.stats.page_cache_hits += 1;
            return Ok(self.page_cache.touch(page));
        }
        self.stats.page_cache_misses += 1;
        let data = self.flash.read(page, ledger)?;
        let records = decode_page(&data);
        Ok(self.page_cache.insert(page, records))
    }

    /// Reads and decodes every record of a segment (used by reclaim).
    /// Reads flash directly, bypassing the page LRU: these pages are
    /// about to be erased, so caching them would only evict hot query
    /// pages for entries that die moments later.
    fn read_segment(
        &mut self,
        seg: &SegmentMeta,
        ledger: &mut EnergyLedger,
    ) -> Result<Vec<Record>, ArchiveError> {
        let mut out = Vec::with_capacity(seg.records as usize);
        let base = seg.block * self.flash.pages_per_block();
        for p in 0..seg.pages_used() {
            let data = self.flash.read(base + p, ledger)?;
            out.extend(decode_page(&data));
        }
        Ok(out)
    }

    /// Visits every record of a segment that can contribute to
    /// `[t0, t1]`, using the page time directory to binary-search to the
    /// first overlapping page and early-exit past the window.
    fn for_each_record_in_range<F: FnMut(&Record)>(
        &mut self,
        seg: &SegmentMeta,
        t0: SimTime,
        t1: SimTime,
        ledger: &mut EnergyLedger,
        mut visit: F,
    ) -> Result<(), ArchiveError> {
        let base = seg.block * self.flash.pages_per_block();
        let first = if seg.time_ordered {
            // Page ends are non-decreasing: everything before this index
            // ends strictly before the window.
            seg.pages.partition_point(|p| p.end < t0)
        } else {
            0
        };
        self.stats.pages_pruned += first as u64;
        for idx in first..seg.pages.len() {
            let page = seg.pages[idx];
            if seg.time_ordered && page.start > t1 {
                // Page starts are non-decreasing: nothing further back in
                // this segment can overlap the window.
                self.stats.pages_pruned += (seg.pages.len() - idx) as u64;
                break;
            }
            if !page.overlaps(t0, t1) {
                self.stats.pages_pruned += 1;
                continue;
            }
            for rec in self.page_records(base + idx, ledger)? {
                visit(rec);
            }
        }
        Ok(())
    }

    /// Queries scalar samples in `[t0, t1]`, oldest first. Aged ranges
    /// come back as evenly re-spaced reconstructed samples tagged
    /// [`Quality::Aged`].
    ///
    /// Cost scales with the pages overlapping the window: the segment
    /// index prunes blocks, the page directory prunes pages, decoded
    /// pages come from the LRU when hot, and per-segment results are
    /// combined by a streaming merge (no global sort on the time-ordered
    /// common case). Result contents and order are identical to
    /// [`ArchiveStore::query_range_fullscan`].
    pub fn query_range(
        &mut self,
        t0: SimTime,
        t1: SimTime,
        ledger: &mut EnergyLedger,
    ) -> Result<Vec<ArchivedSample>, ArchiveError> {
        self.indexed_query(t0, t1, ledger, Self::collect_scalar, |s| s.timestamp)
    }

    /// Shared scaffolding of the indexed queries: prune segments via the
    /// segment index, collect per-segment runs through the page
    /// directory, append the RAM-tail run, and stream-merge. `collect`
    /// filters records into results; `key` orders them.
    fn indexed_query<T>(
        &mut self,
        t0: SimTime,
        t1: SimTime,
        ledger: &mut EnergyLedger,
        collect: impl Fn(&Record, SimTime, SimTime, &mut Vec<T>),
        key: impl Fn(&T) -> SimTime + Copy,
    ) -> Result<Vec<T>, ArchiveError> {
        let segments = std::mem::take(&mut self.segments);
        let mut runs: Vec<Vec<T>> = Vec::new();
        let mut failure = None;
        for seg in &segments {
            if !seg.overlaps(t0, t1) {
                self.stats.pages_pruned += seg.pages_used() as u64;
                continue;
            }
            let mut run = Vec::new();
            let outcome = self.for_each_record_in_range(seg, t0, t1, ledger, |rec| {
                collect(rec, t0, t1, &mut run)
            });
            if let Err(e) = outcome {
                failure = Some(e);
                break;
            }
            sort_run(&mut run, key);
            if !run.is_empty() {
                runs.push(run);
            }
        }
        self.segments = segments;
        if let Some(e) = failure {
            return Err(e);
        }
        // Records still in the RAM page buffer.
        let mut tail = Vec::new();
        let mut body = self.page_buf.as_slice();
        while !body.is_empty() {
            let Some((rec, consumed)) = Record::decode(body) else {
                break;
            };
            collect(&rec, t0, t1, &mut tail);
            body = &body[consumed..];
        }
        sort_run(&mut tail, key);
        if !tail.is_empty() {
            runs.push(tail);
        }
        Ok(merge_runs(runs, key))
    }

    /// Reference full-scan implementation of [`ArchiveStore::query_range`]:
    /// decodes every programmed page of every segment, bypassing the
    /// segment index, the page directory, and the LRU. Kept public as the
    /// baseline the equivalence property tests and the `archive_query`
    /// bench compare the indexed path against.
    pub fn query_range_fullscan(
        &mut self,
        t0: SimTime,
        t1: SimTime,
        ledger: &mut EnergyLedger,
    ) -> Result<Vec<ArchivedSample>, ArchiveError> {
        let mut out = Vec::new();
        let outcome = self.fullscan(ledger, |rec| Self::collect_scalar(rec, t0, t1, &mut out));
        outcome?;
        out.sort_by_key(|s| s.timestamp);
        Ok(out)
    }

    /// Visits every record in the store (flash then RAM tail), reading
    /// flash directly with no index assistance.
    fn fullscan<F: FnMut(&Record)>(
        &mut self,
        ledger: &mut EnergyLedger,
        mut visit: F,
    ) -> Result<(), ArchiveError> {
        let segments = std::mem::take(&mut self.segments);
        let mut failure = None;
        'segments: for seg in &segments {
            let base = seg.block * self.flash.pages_per_block();
            for p in 0..seg.pages_used() {
                match self.flash.read(base + p, ledger) {
                    Ok(data) => {
                        for rec in decode_page(&data) {
                            visit(&rec);
                        }
                    }
                    Err(e) => {
                        failure = Some(e.into());
                        break 'segments;
                    }
                }
            }
        }
        self.segments = segments;
        if let Some(e) = failure {
            return Err(e);
        }
        let mut body = self.page_buf.as_slice();
        while !body.is_empty() {
            let Some((rec, consumed)) = Record::decode(body) else {
                break;
            };
            visit(&rec);
            body = &body[consumed..];
        }
        Ok(())
    }

    fn collect_scalar(rec: &Record, t0: SimTime, t1: SimTime, out: &mut Vec<ArchivedSample>) {
        match &rec.payload {
            RecordPayload::Scalar(v) => {
                if rec.timestamp >= t0 && rec.timestamp <= t1 {
                    out.push(ArchivedSample {
                        timestamp: rec.timestamp,
                        value: *v,
                        quality: Quality::Exact,
                    });
                }
            }
            RecordPayload::Summary {
                level,
                start,
                end,
                bytes,
                ..
            } => {
                if *start > t1 || *end < t0 {
                    return;
                }
                let Some(values) = summary_values(bytes) else {
                    return;
                };
                let n = values.len();
                if n == 0 {
                    return;
                }
                let span = end.as_micros().saturating_sub(start.as_micros());
                for (k, v) in values.iter().enumerate() {
                    let frac = if n == 1 {
                        0.0
                    } else {
                        k as f64 / (n - 1) as f64
                    };
                    let ts = SimTime::from_micros(start.as_micros() + (span as f64 * frac) as u64);
                    if ts >= t0 && ts <= t1 {
                        out.push(ArchivedSample {
                            timestamp: ts,
                            value: *v,
                            quality: Quality::Aged(*level),
                        });
                    }
                }
            }
            RecordPayload::Event { .. } => {}
        }
    }

    fn collect_event(rec: &Record, t0: SimTime, t1: SimTime, out: &mut Vec<ArchivedEvent>) {
        if let RecordPayload::Event { event_type, data } = &rec.payload {
            if rec.timestamp >= t0 && rec.timestamp <= t1 {
                out.push(ArchivedEvent {
                    timestamp: rec.timestamp,
                    event_type: *event_type,
                    data: data.clone(),
                });
            }
        }
    }

    /// Queries semantic events in `[t0, t1]`, oldest first, over the same
    /// indexed read path as [`ArchiveStore::query_range`].
    // presto-lint: allow(unused, the event half of the indexed read path; tests/properties.rs indexed_archive_queries_match_fullscan pins it against query_events_fullscan)
    pub fn query_events(
        &mut self,
        t0: SimTime,
        t1: SimTime,
        ledger: &mut EnergyLedger,
    ) -> Result<Vec<ArchivedEvent>, ArchiveError> {
        self.indexed_query(t0, t1, ledger, Self::collect_event, |e| e.timestamp)
    }

    /// Reference full-scan implementation of [`ArchiveStore::query_events`];
    /// see [`ArchiveStore::query_range_fullscan`].
    // presto-lint: allow(unused, reference path: tests/properties.rs indexed_archive_queries_match_fullscan compares the indexed event reads against it)
    pub fn query_events_fullscan(
        &mut self,
        t0: SimTime,
        t1: SimTime,
        ledger: &mut EnergyLedger,
    ) -> Result<Vec<ArchivedEvent>, ArchiveError> {
        let mut out = Vec::new();
        let outcome = self.fullscan(ledger, |rec| Self::collect_event(rec, t0, t1, &mut out));
        outcome?;
        out.sort_by_key(|e| e.timestamp);
        Ok(out)
    }

    /// Earliest timestamp still queryable (exactly or aged).
    pub fn oldest_available(&self) -> Option<SimTime> {
        self.segments
            .iter()
            .filter(|s| s.has_data())
            .map(|s| s.start)
            .min()
    }

    /// Covered `[start, end]` spans of live segments with data, oldest
    /// first — what a proxy registers in the distributed range index so
    /// multi-proxy queries can prune archives with nothing in range.
    pub fn segment_spans(&self) -> impl Iterator<Item = (SimTime, SimTime)> + '_ {
        self.segments
            .iter()
            .filter(|s| s.has_data())
            .map(|s| (s.start, s.end))
    }

    /// Store statistics.
    pub fn stats(&self) -> ArchiveStats {
        self.stats
    }

    /// Underlying flash statistics.
    pub fn flash_stats(&self) -> crate::flash::FlashStats {
        self.flash.stats()
    }
}

/// Decodes the record stream of one on-flash page image.
fn decode_page(data: &[u8]) -> Vec<Record> {
    let mut out = Vec::new();
    if data.len() < 2 {
        return out;
    }
    let used = u16::from_le_bytes([data[0], data[1]]) as usize;
    let mut body = &data[2..2 + used.min(data.len() - 2)];
    while !body.is_empty() {
        let Some((rec, consumed)) = Record::decode(body) else {
            break;
        };
        out.push(rec);
        body = &body[consumed..];
    }
    out
}

/// Stable-sorts a run by key unless it is already ordered (the common
/// case for log-structured segments).
fn sort_run<T, K: Ord, F: Fn(&T) -> K>(run: &mut [T], key: F) {
    if !run.windows(2).all(|w| key(&w[0]) <= key(&w[1])) {
        run.sort_by_key(key);
    }
}

/// Merges per-segment runs (each stably sorted by `key`) into one
/// ordered vector. Equal keys preserve run order, so the output is
/// byte-identical to a stable sort of the concatenation. When the runs
/// are already mutually ordered — segments are written through time, so
/// almost always — this is a straight concatenation with zero compares
/// beyond the boundary checks.
fn merge_runs<T, K: Ord + Copy, F: Fn(&T) -> K>(mut runs: Vec<Vec<T>>, key: F) -> Vec<T> {
    match runs.len() {
        0 => return Vec::new(),
        1 => return runs.pop().expect("length checked"),
        _ => {}
    }
    let ordered = runs.windows(2).all(|w| match (w[0].last(), w[1].first()) {
        (Some(a), Some(b)) => key(a) <= key(b),
        _ => true,
    });
    if ordered {
        return runs.into_iter().flatten().collect();
    }
    let total = runs.iter().map(Vec::len).sum();
    let mut iters: Vec<std::vec::IntoIter<T>> = runs.into_iter().map(Vec::into_iter).collect();
    let mut heads: Vec<Option<T>> = iters.iter_mut().map(Iterator::next).collect();
    let mut heap: BinaryHeap<Reverse<(K, usize)>> = heads
        .iter()
        .enumerate()
        .filter_map(|(i, h)| h.as_ref().map(|x| Reverse((key(x), i))))
        .collect();
    let mut out = Vec::with_capacity(total);
    while let Some(Reverse((_, i))) = heap.pop() {
        let item = heads[i].take().expect("head present while queued");
        out.push(item);
        if let Some(next) = iters[i].next() {
            heap.push(Reverse((key(&next), i)));
            heads[i] = Some(next);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_sim::SimDuration;

    fn small_config(capacity: usize) -> ArchiveConfig {
        ArchiveConfig {
            capacity_bytes: capacity,
            ..ArchiveConfig::default()
        }
    }

    fn fill(
        store: &mut ArchiveStore,
        n: u64,
        step: SimDuration,
        ledger: &mut EnergyLedger,
    ) -> Vec<(SimTime, f64)> {
        let mut out = Vec::new();
        for i in 0..n {
            let t = SimTime::ZERO + step * i;
            let v = 20.0 + (i as f64 * 0.01).sin() * 5.0;
            store.append_scalar(t, v, ledger).unwrap();
            out.push((t, v));
        }
        out
    }

    #[test]
    fn sealed_spans_drain_once_per_seal() {
        let mut store = ArchiveStore::new(small_config(1 << 16));
        let mut l = EnergyLedger::new();
        assert!(store.take_sealed_spans().is_empty());
        // Fill far beyond one block so several segments seal.
        fill(&mut store, 4000, SimDuration::from_secs(31), &mut l);
        let sealed = store.take_sealed_spans();
        assert!(
            sealed.len() >= 2,
            "expected multiple seals, got {}",
            sealed.len()
        );
        // Spans are ordered and non-degenerate.
        for w in sealed.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        for &(s, e) in &sealed {
            assert!(s <= e);
        }
        // Draining again yields nothing until the next seal.
        assert!(store.take_sealed_spans().is_empty());
    }

    #[test]
    fn roundtrip_within_capacity() {
        let mut store = ArchiveStore::new(small_config(1 << 20));
        let mut l = EnergyLedger::new();
        let written = fill(&mut store, 1000, SimDuration::from_secs(31), &mut l);
        let got = store
            .query_range(SimTime::ZERO, SimTime::from_days(1), &mut l)
            .unwrap();
        assert_eq!(got.len(), 1000);
        for (s, (t, v)) in got.iter().zip(&written) {
            assert_eq!(s.timestamp, *t);
            assert!((s.value - v).abs() < 1e-3);
            assert_eq!(s.quality, Quality::Exact);
        }
    }

    #[test]
    fn range_query_filters() {
        let mut store = ArchiveStore::new(small_config(1 << 20));
        let mut l = EnergyLedger::new();
        fill(&mut store, 100, SimDuration::from_secs(10), &mut l);
        let got = store
            .query_range(SimTime::from_secs(200), SimTime::from_secs(400), &mut l)
            .unwrap();
        assert_eq!(got.len(), 21); // 200, 210, ..., 400
        assert!(got
            .iter()
            .all(|s| s.timestamp >= SimTime::from_secs(200)
                && s.timestamp <= SimTime::from_secs(400)));
    }

    #[test]
    fn events_roundtrip_and_filter() {
        let mut store = ArchiveStore::new(small_config(1 << 20));
        let mut l = EnergyLedger::new();
        store
            .append_event(SimTime::from_secs(5), 1, &[0xAA], &mut l)
            .unwrap();
        store
            .append_event(SimTime::from_secs(15), 2, &[0xBB, 0xCC], &mut l)
            .unwrap();
        store
            .append_scalar(SimTime::from_secs(10), 21.0, &mut l)
            .unwrap();
        let evs = store
            .query_events(SimTime::from_secs(10), SimTime::from_secs(20), &mut l)
            .unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].event_type, 2);
        assert_eq!(evs[0].data, vec![0xBB, 0xCC]);
    }

    #[test]
    fn aging_preserves_old_ranges_at_reduced_quality() {
        // Tiny flash: forces several reclamations.
        let mut store = ArchiveStore::new(small_config(16 * 1024));
        let mut l = EnergyLedger::new();
        fill(&mut store, 4000, SimDuration::from_secs(31), &mut l);
        assert!(store.stats().segments_reclaimed > 0);

        // The earliest data must still be queryable, but aged.
        let early = store
            .query_range(SimTime::ZERO, SimTime::from_secs(31 * 500), &mut l)
            .unwrap();
        assert!(!early.is_empty(), "old range vanished");
        assert!(
            early.iter().any(|s| matches!(s.quality, Quality::Aged(_))),
            "old data not aged"
        );
        // Aged values still approximate the signal.
        for s in &early {
            assert!(
                (s.value - 20.0).abs() < 6.0,
                "implausible value {}",
                s.value
            );
        }
        // Recent data stays exact.
        let late = store
            .query_range(
                SimTime::from_secs(31 * 3900),
                SimTime::from_secs(31 * 4000),
                &mut l,
            )
            .unwrap();
        assert!(late.iter().all(|s| s.quality == Quality::Exact));
    }

    #[test]
    fn without_aging_old_data_is_dropped() {
        let cfg = ArchiveConfig {
            aging_enabled: false,
            ..small_config(16 * 1024)
        };
        let mut store = ArchiveStore::new(cfg);
        let mut l = EnergyLedger::new();
        fill(&mut store, 4000, SimDuration::from_secs(31), &mut l);
        assert!(store.stats().segments_reclaimed > 0);
        let early = store
            .query_range(SimTime::ZERO, SimTime::from_secs(31 * 100), &mut l)
            .unwrap();
        assert!(early.is_empty(), "dropped data reappeared");
    }

    #[test]
    fn events_survive_reclamation() {
        let mut store = ArchiveStore::new(small_config(16 * 1024));
        let mut l = EnergyLedger::new();
        store
            .append_event(SimTime::from_secs(1), 42, &[1, 2, 3], &mut l)
            .unwrap();
        fill(&mut store, 4000, SimDuration::from_secs(31), &mut l);
        assert!(store.stats().segments_reclaimed > 0);
        let evs = store
            .query_events(SimTime::ZERO, SimTime::from_secs(2), &mut l)
            .unwrap();
        assert_eq!(evs.len(), 1, "event lost during reclamation");
        assert_eq!(evs[0].event_type, 42);
    }

    #[test]
    fn repeated_reclamation_compounds_aging_levels() {
        let mut store = ArchiveStore::new(small_config(8 * 1024));
        let mut l = EnergyLedger::new();
        fill(&mut store, 8000, SimDuration::from_secs(31), &mut l);
        let early = store
            .query_range(SimTime::ZERO, SimTime::from_secs(31 * 200), &mut l)
            .unwrap();
        let max_level = early
            .iter()
            .filter_map(|s| match s.quality {
                Quality::Aged(lv) => Some(lv),
                Quality::Exact => None,
            })
            .max();
        assert!(
            max_level.unwrap_or(0) > BASE_AGING_LEVEL,
            "levels did not compound: {max_level:?}"
        );
    }

    #[test]
    fn oversized_record_rejected() {
        let mut store = ArchiveStore::new(small_config(1 << 16));
        let mut l = EnergyLedger::new();
        let big = vec![0u8; 10_000];
        assert_eq!(
            store.append_event(SimTime::ZERO, 1, &big, &mut l),
            Err(ArchiveError::RecordTooLarge)
        );
    }

    #[test]
    fn append_energy_is_small_and_charged() {
        let mut store = ArchiveStore::new(small_config(1 << 20));
        let mut l = EnergyLedger::new();
        fill(&mut store, 1000, SimDuration::from_secs(31), &mut l);
        let flash_j = l.storage_total();
        assert!(flash_j > 0.0);
        // Archiving 1000 scalars must cost far less than radioing them:
        // the architectural premise of local archival.
        let radio_j = presto_net::RadioModel::mica2().tx_energy(1000 * 15);
        assert!(radio_j / flash_j > 10.0, "ratio {}", radio_j / flash_j);
    }

    #[test]
    fn oldest_available_tracks_reclamation() {
        let mut store = ArchiveStore::new(small_config(1 << 20));
        let mut l = EnergyLedger::new();
        assert_eq!(store.oldest_available(), None);
        fill(&mut store, 10, SimDuration::from_secs(31), &mut l);
        assert_eq!(store.oldest_available(), Some(SimTime::ZERO));
    }

    #[test]
    fn narrow_query_touches_only_overlapping_pages() {
        // 64 KiB of dataflash = 32 blocks of 8 pages; fill it (without
        // reclamation) and check a one-hour window reads a bounded page
        // count while the full scan reads every programmed page.
        let cfg = ArchiveConfig {
            page_cache_pages: 0, // count raw flash reads
            ..small_config(64 * 1024)
        };
        let mut store = ArchiveStore::new(cfg);
        let mut l = EnergyLedger::new();
        fill(&mut store, 4000, SimDuration::from_secs(31), &mut l);
        store.flush_page(&mut l).unwrap();
        let programmed = store.flash_stats().programs;
        assert!(programmed > 200, "expected a multi-block archive");

        let before = store.flash_stats().reads;
        let narrow = store
            .query_range(SimTime::from_hours(10), SimTime::from_hours(11), &mut l)
            .unwrap();
        let narrow_reads = store.flash_stats().reads - before;
        assert!(!narrow.is_empty());
        // ~116 samples of 15 B in 262-B pages: ≤ 9 data pages, plus the
        // directory boundary pages.
        assert!(
            narrow_reads <= 12,
            "narrow window read {narrow_reads} pages"
        );

        let before = store.flash_stats().reads;
        let scan = store
            .query_range_fullscan(SimTime::from_hours(10), SimTime::from_hours(11), &mut l)
            .unwrap();
        let scan_reads = store.flash_stats().reads - before;
        assert_eq!(scan, narrow, "fullscan and indexed results diverge");
        assert_eq!(scan_reads, programmed, "fullscan must touch every page");
        assert!(
            scan_reads / narrow_reads.max(1) >= 10,
            "index saved only {scan_reads}/{narrow_reads}"
        );
    }

    #[test]
    fn page_cache_short_circuits_repeat_queries() {
        let mut store = ArchiveStore::new(small_config(64 * 1024));
        let mut l = EnergyLedger::new();
        fill(&mut store, 2000, SimDuration::from_secs(31), &mut l);
        store.flush_page(&mut l).unwrap();

        let t0 = SimTime::from_hours(10);
        let t1 = SimTime::from_hours(11);
        let first = store.query_range(t0, t1, &mut l).unwrap();
        let misses_after_first = store.stats().page_cache_misses;
        let reads_after_first = store.flash_stats().reads;

        let second = store.query_range(t0, t1, &mut l).unwrap();
        assert_eq!(first, second);
        assert_eq!(
            store.flash_stats().reads,
            reads_after_first,
            "repeat query must not touch flash"
        );
        assert_eq!(store.stats().page_cache_misses, misses_after_first);
        assert!(store.stats().page_cache_hits > 0);
    }

    #[test]
    fn disabled_page_cache_never_serves_hits() {
        let cfg = ArchiveConfig {
            page_cache_pages: 0,
            ..small_config(64 * 1024)
        };
        let mut store = ArchiveStore::new(cfg);
        let mut l = EnergyLedger::new();
        fill(&mut store, 40, SimDuration::from_secs(31), &mut l);
        store.flush_page(&mut l).unwrap();
        // A single-page window queried twice: both passes must read
        // flash (the transient decode buffer is not a cache).
        let (t0, t1) = (SimTime::from_secs(31), SimTime::from_secs(62));
        let first = store.query_range(t0, t1, &mut l).unwrap();
        let reads = store.flash_stats().reads;
        let second = store.query_range(t0, t1, &mut l).unwrap();
        assert_eq!(first, second);
        assert!(store.flash_stats().reads > reads, "cap=0 served a hit");
        assert_eq!(store.stats().page_cache_hits, 0);
    }

    #[test]
    fn indexed_queries_match_fullscan_with_aging_and_events() {
        let mut store = ArchiveStore::new(small_config(16 * 1024));
        let mut l = EnergyLedger::new();
        for i in 0..4000u64 {
            let t = SimTime::ZERO + SimDuration::from_secs(31) * i;
            store
                .append_scalar(t, 20.0 + (i as f64 * 0.01).sin() * 5.0, &mut l)
                .unwrap();
            if i % 97 == 0 {
                store
                    .append_event(t, (i % 7) as u16, &[i as u8], &mut l)
                    .unwrap();
            }
        }
        assert!(store.stats().segments_reclaimed > 0);
        for (a, b) in [
            (SimTime::ZERO, SimTime::from_days(2)),
            (SimTime::from_hours(3), SimTime::from_hours(4)),
            (SimTime::from_secs(31 * 3990), SimTime::from_days(3)),
            (SimTime::from_days(10), SimTime::from_days(11)),
        ] {
            let indexed = store.query_range(a, b, &mut l).unwrap();
            let scanned = store.query_range_fullscan(a, b, &mut l).unwrap();
            assert_eq!(indexed, scanned, "range divergence on [{a:?}, {b:?}]");
            let ev_indexed = store.query_events(a, b, &mut l).unwrap();
            let ev_scanned = store.query_events_fullscan(a, b, &mut l).unwrap();
            assert_eq!(ev_indexed, ev_scanned, "event divergence on [{a:?}, {b:?}]");
        }
    }

    #[test]
    fn merge_runs_is_stable_across_runs() {
        // Equal keys must come out in run order (matching a stable sort
        // of the concatenation).
        let runs = vec![
            vec![(1u64, "a"), (5, "b")],
            vec![(1, "c"), (3, "d")],
            vec![(0, "e"), (5, "f")],
        ];
        let merged = merge_runs(runs, |&(k, _)| k);
        let labels: Vec<&str> = merged.iter().map(|&(_, l)| l).collect();
        assert_eq!(labels, vec!["e", "a", "c", "d", "b", "f"]);
    }
}
