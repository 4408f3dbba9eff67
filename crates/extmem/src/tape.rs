//! One-sided external-memory tapes with exact reversal accounting.
//!
//! A [`Tape`] is a growable sequence of cells (cell = one symbol or one
//! record, depending on the abstraction level of the caller) with a single
//! head. Every head movement is classified as leftward or rightward; the
//! tape counts a **reversal** each time the movement direction differs
//! from the previous movement's direction. This is exactly `rev(ρ, i)` of
//! Definition 1 — staying put is not a movement and changes nothing.
//!
//! Bulk operations (`rewind`, `seek_end`, `seek`) move the head in one
//! sustained sweep and therefore charge at most one reversal (two for a
//! `seek` that overshoots — matching the paper's observation that a random
//! access costs at most two reversals).
//!
//! ## Slice API and the fault layer
//!
//! Block callers move records through `peek_slice`/`advance_fwd`,
//! `read_slice_fwd`/`read_slice_bwd`, `write_slice_fwd`,
//! `write_vec_fwd` (an owned input word becomes the cells of an empty
//! tape without a copy) and `append_with` (a kernel pushes records
//! straight onto the cells); each bills one sustained sweep, identical
//! to the same number of single-cell calls. Fault injection lives here
//! and nowhere else: with a [`FaultPlan`] attached, every slice read
//! hands out **one cell at a time**, and a cell's read dice are rolled
//! the first time it is handed out (its `Fault` event is emitted then,
//! and a persistent fault is stored back). A peeked cell stays handed
//! out until the head moves past it, so peek-then-advance callers roll
//! the dice exactly where per-cell [`Tape::read_fwd`] calls would, and
//! slice writes degrade to per-cell writes. Callers never branch on
//! the plan.

use crate::fault::{Corrupt, FaultPlan, FaultStats, ReadFault, TapeFaults, WriteFault};
use st_core::StError;
use st_trace::{FaultKind, TraceEvent, Tracer};

/// A head-movement direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Toward cell 0.
    Left,
    /// Away from cell 0.
    Right,
}

/// A one-sided tape of cells of type `S` with exact reversal accounting.
#[derive(Debug, Clone)]
pub struct Tape<S> {
    name: String,
    cells: Vec<S>,
    head: usize,
    last_move: Option<Dir>,
    reversals: u64,
    moves: u64,
    faults: Option<TapeFaults<S>>,
    /// Under a fault plan: the value of the last cell handed out (dice
    /// already rolled), so slice reads can lend it out.
    handout: Vec<S>,
    /// The cell whose handed-out value in `handout` is not yet consumed.
    pending: Option<usize>,
    tracer: Tracer,
    trace_id: usize,
}

impl<S: Clone> Tape<S> {
    /// An empty tape with a diagnostic name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Tape {
            name: name.into(),
            cells: Vec::new(),
            head: 0,
            last_move: None,
            reversals: 0,
            moves: 0,
            faults: None,
            handout: Vec::new(),
            pending: None,
            tracer: Tracer::disabled(),
            trace_id: 0,
        }
    }

    /// A tape pre-loaded with `items`, head at cell 0 (the paper's input
    /// tape in the initial configuration).
    #[must_use]
    pub fn from_items(name: impl Into<String>, items: Vec<S>) -> Self {
        Tape {
            name: name.into(),
            cells: items,
            head: 0,
            last_move: None,
            reversals: 0,
            moves: 0,
            faults: None,
            handout: Vec::new(),
            pending: None,
            tracer: Tracer::disabled(),
            trace_id: 0,
        }
    }

    /// Attach a tracer; reversals and injected faults on this tape are
    /// emitted as events carrying tape index `id`.
    pub fn set_tracer(&mut self, tracer: Tracer, id: usize) {
        self.tracer = tracer;
        self.trace_id = id;
    }

    /// The tape's tracer (disabled unless [`Tape::set_tracer`] was
    /// called — e.g. by [`crate::TapeMachine`]).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The tape's diagnostic name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cells holding data.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` iff no cell holds data.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Current head position.
    #[must_use]
    pub fn head(&self) -> usize {
        self.head
    }

    /// Direction changes so far — `rev(ρ, i)` of Definition 1.
    #[must_use]
    pub fn reversals(&self) -> u64 {
        self.reversals
    }

    /// Total head movements (for Lemma 3 / step-count experiments).
    #[must_use]
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// `true` iff the head is past the last data cell (on blank).
    #[must_use]
    pub fn at_end(&self) -> bool {
        self.head >= self.cells.len()
    }

    /// `true` iff the head is on cell 0.
    #[must_use]
    pub fn at_start(&self) -> bool {
        self.head == 0
    }

    fn note_move(&mut self, dir: Dir, distance: u64) {
        if distance == 0 {
            return;
        }
        // A handed-out cell the head leaves unconsumed is read afresh.
        self.pending = None;
        if let Some(prev) = self.last_move {
            if prev != dir {
                self.reversals += 1;
                let (tape, total) = (self.trace_id, self.reversals);
                self.tracer.emit(|| TraceEvent::Reversal { tape, total });
            }
        }
        self.last_move = Some(dir);
        self.moves += distance;
    }

    /// The symbol under the head, if any (None = blank). `peek` is a
    /// diagnostic view and bypasses the fault layer: algorithmic reads go
    /// through [`Tape::read_fwd`]/[`Tape::read_bwd`] or the slice API.
    #[must_use]
    pub fn peek(&self) -> Option<&S> {
        self.cells.get(self.head)
    }

    /// Read the cell under the head through the fault layer (if enabled),
    /// without moving. Persistent faults are stored back into the cell.
    fn read_cell(&mut self) -> Option<S> {
        if self.faults.is_none() {
            return self.cells.get(self.head).cloned();
        }
        if !self.hand_out() {
            return None;
        }
        self.pending = None;
        Some(self.handout[0].clone())
    }

    /// Under a fault plan: make the cell under the head the handed-out
    /// one, rolling its read dice unless it is already pending. `false`
    /// on blank (a blank read rolls no dice).
    fn hand_out(&mut self) -> bool {
        let pos = self.head;
        if pos >= self.cells.len() {
            return false;
        }
        if self.pending == Some(pos) {
            return true;
        }
        let Some(f) = self.faults.as_mut() else {
            unreachable!("hand_out is only called under a fault plan")
        };
        let (fault, corrupt) = (f.decide_read(), f.corrupt);
        let tape = self.trace_id;
        let value = match fault {
            ReadFault::Clean => self.cells[pos].clone(),
            ReadFault::Persistent(e) => {
                self.tracer.emit(|| TraceEvent::Fault {
                    tape,
                    kind: FaultKind::BitFlip,
                });
                let bad = corrupt(&self.cells[pos], e);
                self.cells[pos] = bad.clone();
                bad
            }
            ReadFault::Transient(e) => {
                self.tracer.emit(|| TraceEvent::Fault {
                    tape,
                    kind: FaultKind::TransientRead,
                });
                corrupt(&self.cells[pos], e)
            }
        };
        self.handout.clear();
        self.handout.push(value);
        self.pending = Some(pos);
        true
    }

    /// Overwrite the cell under the head. Writing on blank directly past
    /// the end extends the tape; writing further into the blank region is
    /// an error (a real head cannot skip cells). With a fault plan
    /// attached, the write may be silently dropped (stuck) or land
    /// corrupted (torn) — tape length changes exactly as in the clean
    /// semantics either way.
    pub fn write(&mut self, s: S) -> Result<(), StError> {
        use std::cmp::Ordering::*;
        let is_append = match self.head.cmp(&self.cells.len()) {
            Less => false,
            Equal => true,
            Greater => return Err(self.beyond_end()),
        };
        if self.pending == Some(self.head) {
            self.pending = None;
        }
        let fault = match self.faults.as_mut() {
            None => None,
            Some(f) => match f.decide_write(is_append) {
                WriteFault::Clean => None,
                other => Some((other, f.corrupt)),
            },
        };
        if fault.is_some() {
            let (tape, kind) = (
                self.trace_id,
                match fault {
                    Some((WriteFault::Stuck, _)) => FaultKind::StuckWrite,
                    _ => FaultKind::TornWrite,
                },
            );
            self.tracer.emit(|| TraceEvent::Fault { tape, kind });
        }
        let stored = match fault {
            None => s,
            Some((WriteFault::Stuck, _)) => return Ok(()),
            Some((WriteFault::Torn(e), corrupt)) => corrupt(&s, e),
            Some((WriteFault::Clean, _)) => unreachable!("Clean filtered above"),
        };
        if is_append {
            self.cells.push(stored);
        } else {
            self.cells[self.head] = stored;
        }
        Ok(())
    }

    /// Move the head one cell right.
    pub fn move_right(&mut self) {
        self.note_move(Dir::Right, 1);
        self.head += 1;
    }

    /// Move the head one cell left. Errors at cell 0 (one-sided tape).
    pub fn move_left(&mut self) -> Result<(), StError> {
        if self.head == 0 {
            return Err(StError::Machine(format!(
                "tape '{}': head fell off the left end",
                self.name
            )));
        }
        self.note_move(Dir::Left, 1);
        self.head -= 1;
        Ok(())
    }

    /// Read the symbol under the head and advance right; `None` once the
    /// head reaches blank (the scan idiom: `while let Some(x) = t.read_fwd()`).
    pub fn read_fwd(&mut self) -> Option<S> {
        let s = self.read_cell()?;
        self.move_right();
        Some(s)
    }

    /// Read the symbol under the head and move left; `None` when the head
    /// sits on blank. At cell 0 the symbol is returned and the head stays
    /// (subsequent calls return the same cell; use [`Tape::at_start`] to
    /// terminate backward scans).
    pub fn read_bwd(&mut self) -> Option<S> {
        let s = self.read_cell()?;
        if self.head > 0 {
            self.note_move(Dir::Left, 1);
            self.head -= 1;
        }
        Some(s)
    }

    /// Write the symbol under the head and advance right (the streaming
    /// output idiom). Extends the tape when at the end.
    pub fn write_fwd(&mut self, s: S) -> Result<(), StError> {
        self.write(s)?;
        self.move_right();
        Ok(())
    }

    /// Block view of up to `max` cells from the head forward, without
    /// moving; pair with [`Tape::advance_fwd`] to consume what was used.
    /// Clean tapes lend the cells themselves and charge nothing. Under a
    /// fault plan the view is the single cell under the head, handed out
    /// through the fault layer (see the module docs): its dice roll on
    /// the first peek, and later peeks return the same value until the
    /// head moves.
    pub fn peek_slice(&mut self, max: usize) -> &[S] {
        if self.faults.is_some() {
            return if max > 0 && self.hand_out() {
                &self.handout
            } else {
                &[]
            };
        }
        let lo = self.head.min(self.cells.len());
        let hi = self.head.saturating_add(max).min(self.cells.len());
        &self.cells[lo..hi]
    }

    /// Consume `n` cells: one sustained rightward sweep, so the
    /// accounting (moves, reversals, trace events) is identical to `n`
    /// single [`Tape::read_fwd`] calls — under a fault plan it *is* those
    /// calls, so a cell not yet handed out rolls its dice here.
    ///
    /// # Panics
    /// If `n` would carry the head past end-of-data (a real head cannot
    /// consume blank cells).
    pub fn advance_fwd(&mut self, n: usize) {
        assert!(
            self.head.saturating_add(n) <= self.cells.len(),
            "tape '{}': advance_fwd({n}) from {} beyond end-of-data {}",
            self.name,
            self.head,
            self.cells.len()
        );
        if self.faults.is_some() {
            for _ in 0..n {
                self.read_fwd();
            }
            return;
        }
        self.note_move(Dir::Right, n as u64);
        self.head += n;
    }

    /// Block forward read: [`Tape::peek_slice`] + [`Tape::advance_fwd`]
    /// over the full returned length in one call (one cell under a
    /// fault plan).
    pub fn read_slice_fwd(&mut self, max: usize) -> &[S] {
        if self.faults.is_some() {
            if max == 0 || self.read_fwd().is_none() {
                return &[];
            }
            return &self.handout;
        }
        let lo = self.head.min(self.cells.len());
        let hi = self.head.saturating_add(max).min(self.cells.len());
        self.note_move(Dir::Right, (hi - lo) as u64);
        self.head = hi;
        &self.cells[lo..hi]
    }

    /// Block backward read: up to `max` cells ending at the head,
    /// returned in **tape order** (iterate `.rev()` for scan order). The
    /// head and accounting end exactly where `max` single
    /// [`Tape::read_bwd`] calls would leave them: on cell 0 the last
    /// read does not move, so a scan that reaches the left end charges
    /// one move fewer than its cell count. Empty when the head is on
    /// blank; one cell under a fault plan.
    pub fn read_slice_bwd(&mut self, max: usize) -> &[S] {
        if self.head >= self.cells.len() || max == 0 {
            return &[];
        }
        if self.faults.is_some() {
            self.read_bwd();
            return &self.handout;
        }
        let take = max.min(self.head + 1);
        let lo = self.head + 1 - take;
        let moved = if lo == 0 { take - 1 } else { take };
        self.note_move(Dir::Left, moved as u64);
        self.head -= moved;
        &self.cells[lo..lo + take]
    }

    /// Block forward write: `items` land from the head rightward in one
    /// sustained sweep (overwriting, then appending once past the old
    /// end), with accounting identical to per-item [`Tape::write_fwd`]
    /// calls. Under a fault plan this degrades to those calls, so the
    /// write dice are rolled in per-cell order.
    pub fn write_slice_fwd(&mut self, items: &[S]) -> Result<(), StError> {
        if self.faults.is_some() {
            for s in items {
                self.write_fwd(s.clone())?;
            }
            return Ok(());
        }
        if self.head > self.cells.len() {
            return Err(self.beyond_end());
        }
        let overwrite = (self.cells.len() - self.head).min(items.len());
        self.cells[self.head..self.head + overwrite].clone_from_slice(&items[..overwrite]);
        self.cells.extend_from_slice(&items[overwrite..]);
        self.note_move(Dir::Right, items.len() as u64);
        self.head += items.len();
        Ok(())
    }

    /// [`Tape::write_slice_fwd`] of an owned `Vec`, with the same
    /// accounting. On an empty tape with the head on cell 0 and no fault
    /// plan the `Vec` becomes the cells, so an input word lands without
    /// a copy; in every other case it is a slice write, and under a plan
    /// the write dice roll per cell as usual.
    pub fn write_vec_fwd(&mut self, items: Vec<S>) -> Result<(), StError> {
        if !self.cells.is_empty() || self.head != 0 || self.faults.is_some() {
            return self.write_slice_fwd(&items);
        }
        let n = items.len();
        self.cells = items;
        self.note_move(Dir::Right, n as u64);
        self.head = n;
        Ok(())
    }

    /// Append the records `fill` pushes, from the head rightward, as one
    /// sustained sweep with the accounting of per-record
    /// [`Tape::write_fwd`] calls. With the head at end-of-data and no
    /// fault plan, `fill` pushes straight onto the cells; otherwise the
    /// records are staged and written with [`Tape::write_slice_fwd`]
    /// (per cell under a plan). `fill` must only push.
    pub(crate) fn append_with(&mut self, fill: impl FnOnce(&mut Vec<S>)) -> Result<(), StError> {
        if self.head != self.cells.len() || self.faults.is_some() {
            let mut staged = Vec::new();
            fill(&mut staged);
            return self.write_slice_fwd(&staged);
        }
        let before = self.cells.len();
        fill(&mut self.cells);
        assert!(
            self.cells.len() >= before,
            "append_with: fill removed cells"
        );
        let n = self.cells.len() - before;
        self.note_move(Dir::Right, n as u64);
        self.head += n;
        Ok(())
    }

    fn beyond_end(&self) -> StError {
        StError::Machine(format!(
            "tape '{}': write at {} beyond end-of-data {}",
            self.name,
            self.head,
            self.cells.len()
        ))
    }

    /// Sweep the head to cell 0 in one sustained leftward move: at most
    /// one reversal regardless of distance.
    pub fn rewind(&mut self) {
        if self.head > 0 {
            let d = self.head as u64;
            self.note_move(Dir::Left, d);
            self.head = 0;
        }
    }

    /// Sweep the head just past the last data cell (ready to append) in
    /// one sustained rightward move: at most one reversal.
    pub fn seek_end(&mut self) {
        let end = self.cells.len();
        if self.head < end {
            let d = (end - self.head) as u64;
            self.note_move(Dir::Right, d);
            self.head = end;
        }
    }

    /// Random access: sweep the head to an arbitrary cell. Charges at most
    /// one reversal (the paper charges "at most two": the second is the
    /// direction change of whatever movement *follows*, which our
    /// per-movement accounting attributes to that movement).
    pub fn seek(&mut self, pos: usize) -> Result<(), StError> {
        if pos > self.cells.len() {
            return Err(StError::Machine(format!(
                "tape '{}': seek({pos}) beyond end-of-data {}",
                self.name,
                self.cells.len()
            )));
        }
        use std::cmp::Ordering::*;
        match pos.cmp(&self.head) {
            Greater => {
                let d = (pos - self.head) as u64;
                self.note_move(Dir::Right, d);
            }
            Less => {
                let d = (self.head - pos) as u64;
                self.note_move(Dir::Left, d);
            }
            Equal => {}
        }
        self.head = pos;
        Ok(())
    }

    /// Erase all data and park the head at 0 **without** touching the
    /// accounting — models re-using a scratch tape whose old content is
    /// simply overwritten left-to-right. The head sweep back to 0 *is*
    /// charged (via [`Tape::rewind`]) before the erase.
    pub fn reset_for_overwrite(&mut self) {
        self.rewind();
        self.cells.clear();
    }

    /// A snapshot of the data cells (test/diagnostic helper; does not move
    /// the head and charges nothing).
    #[must_use]
    pub fn snapshot(&self) -> Vec<S> {
        self.cells.clone()
    }

    /// Direct slice view of the data (diagnostics only).
    #[must_use]
    pub fn data(&self) -> &[S] {
        &self.cells
    }

    /// Attach a fault plan using the cell type's own [`Corrupt`] impl.
    /// Subsequent `read_fwd`/`read_bwd`/`write` calls roll the plan's
    /// dice on this tape's private, name-seeded fault stream.
    pub fn enable_faults(&mut self, plan: &FaultPlan)
    where
        S: Corrupt,
    {
        self.enable_faults_with(plan, S::corrupted);
    }

    /// Attach a fault plan with an explicit corruption function (for cell
    /// types without a [`Corrupt`] impl).
    pub fn enable_faults_with(&mut self, plan: &FaultPlan, corrupt: fn(&S, u64) -> S) {
        self.faults = Some(TapeFaults::new(plan, &self.name, corrupt));
        self.pending = None;
    }

    /// Detach the fault layer; the tape keeps any corruption already
    /// stored in its cells.
    pub fn disable_faults(&mut self) {
        self.faults = None;
        self.pending = None;
    }

    /// `true` iff a fault plan is attached.
    #[must_use]
    pub fn faults_enabled(&self) -> bool {
        self.faults.is_some()
    }

    /// Injection counters, if a fault plan is attached.
    #[must_use]
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(|f| f.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_trace::Tracer;

    #[test]
    fn fresh_tape_has_no_reversals() {
        let t: Tape<u8> = Tape::new("t");
        assert_eq!(t.reversals(), 0);
        assert!(t.is_empty());
        assert!(t.at_start() && t.at_end());
    }

    #[test]
    fn forward_scan_is_reversal_free() {
        let mut t = Tape::from_items("in", vec![1, 2, 3, 4]);
        let mut seen = Vec::new();
        while let Some(x) = t.read_fwd() {
            seen.push(x);
        }
        assert_eq!(seen, vec![1, 2, 3, 4]);
        assert_eq!(
            t.reversals(),
            0,
            "a single forward scan must cost 0 reversals"
        );
        assert_eq!(t.scan_equivalent(), 1);
    }

    #[test]
    fn ping_pong_scan_costs_one_reversal_per_turn() {
        let mut t = Tape::from_items("in", vec![1, 2, 3]);
        while t.read_fwd().is_some() {}
        assert_eq!(t.reversals(), 0);
        // Turn around: read backward to the start.
        t.move_left().unwrap(); // onto last cell — 1 reversal
        while !t.at_start() {
            t.read_bwd();
        }
        assert_eq!(t.reversals(), 1);
        // Forward again.
        while t.read_fwd().is_some() {}
        assert_eq!(t.reversals(), 2);
    }

    #[test]
    fn rewind_charges_at_most_one_reversal() {
        let mut t = Tape::from_items("in", vec![0u8; 1000]);
        while t.read_fwd().is_some() {}
        t.rewind();
        assert_eq!(t.reversals(), 1, "bulk rewind = one sustained sweep");
        t.rewind();
        assert_eq!(t.reversals(), 1, "rewind at start is free");
        while t.read_fwd().is_some() {}
        assert_eq!(
            t.reversals(),
            2,
            "turning forward after the rewind is the second reversal"
        );
    }

    #[test]
    fn write_fwd_extends_and_streams() {
        let mut t: Tape<char> = Tape::new("out");
        for c in "abc".chars() {
            t.write_fwd(c).unwrap();
        }
        assert_eq!(t.snapshot(), vec!['a', 'b', 'c']);
        assert_eq!(t.reversals(), 0);
        assert!(t.at_end());
    }

    #[test]
    fn write_beyond_end_is_an_error() {
        let mut t: Tape<u8> = Tape::new("out");
        t.write(1).unwrap();
        // Head still at 0 after plain write; move right twice to leave the
        // data region by more than one cell.
        t.move_right();
        t.move_right();
        assert!(t.write(9).is_err());
    }

    #[test]
    fn move_left_at_zero_is_an_error() {
        let mut t: Tape<u8> = Tape::from_items("t", vec![1]);
        assert!(t.move_left().is_err());
    }

    #[test]
    fn seek_is_a_single_sweep() {
        let mut t = Tape::from_items("t", (0..100u8).collect());
        t.seek(99).unwrap();
        assert_eq!(t.reversals(), 0);
        t.seek(10).unwrap();
        assert_eq!(t.reversals(), 1);
        t.seek(50).unwrap();
        assert_eq!(t.reversals(), 2);
        assert!(t.seek(1000).is_err());
    }

    #[test]
    fn staying_put_never_reverses() {
        let mut t = Tape::from_items("t", vec![7u8, 8]);
        t.write(9).unwrap();
        t.write(10).unwrap();
        assert_eq!(t.peek(), Some(&10));
        assert_eq!(t.reversals(), 0);
        assert_eq!(t.moves(), 0);
    }

    #[test]
    fn read_bwd_at_start_repeats_cell_zero() {
        let mut t = Tape::from_items("t", vec![5u8, 6]);
        assert_eq!(t.read_bwd(), Some(5));
        assert_eq!(t.read_bwd(), Some(5));
        assert!(t.at_start());
    }

    #[test]
    fn slice_reads_account_exactly_like_cell_reads() {
        let items: Vec<u32> = (0..1000).collect();
        let mut cell = Tape::from_items("t", items.clone());
        let mut block = Tape::from_items("t", items.clone());
        // Forward: full scan, then turn around.
        let mut seen_cell = Vec::new();
        while let Some(x) = cell.read_fwd() {
            seen_cell.push(x);
        }
        let mut seen_block = Vec::new();
        loop {
            let chunk = block.read_slice_fwd(64);
            if chunk.is_empty() {
                break;
            }
            seen_block.extend_from_slice(chunk);
        }
        assert_eq!(seen_cell, seen_block);
        assert_eq!(cell.moves(), block.moves());
        assert_eq!(cell.reversals(), block.reversals());
        assert_eq!(cell.head(), block.head());

        // Backward from the last cell down to cell 0 (read_bwd parks
        // there), in ragged chunk sizes.
        for t in [&mut cell, &mut block] {
            t.move_left().unwrap();
        }
        let mut seen_cell = Vec::new();
        loop {
            let at_start = cell.at_start();
            seen_cell.push(cell.read_bwd().unwrap());
            if at_start {
                break;
            }
        }
        let mut seen_block = Vec::new();
        for chunk_len in [7usize, 64, 1, 13, usize::MAX] {
            let chunk = block.read_slice_bwd(chunk_len);
            seen_block.extend(chunk.iter().rev().cloned());
        }
        assert_eq!(seen_cell, seen_block);
        assert_eq!(cell.moves(), block.moves());
        assert_eq!(cell.reversals(), block.reversals());
        assert_eq!(cell.head(), block.head());
    }

    #[test]
    fn slice_writes_account_exactly_like_cell_writes() {
        let mut cell: Tape<u16> = Tape::from_items("t", vec![9; 10]);
        let mut block: Tape<u16> = Tape::from_items("t", vec![9; 10]);
        // Overwrite the prefix then extend past the end in one sweep.
        let items: Vec<u16> = (0..50).collect();
        for &x in &items {
            cell.write_fwd(x).unwrap();
        }
        block.write_slice_fwd(&items).unwrap();
        assert_eq!(cell.snapshot(), block.snapshot());
        assert_eq!(cell.moves(), block.moves());
        assert_eq!(cell.reversals(), block.reversals());
        assert_eq!(cell.head(), block.head());
        // Writing left after a rewind then re-sweeping keeps parity.
        for t in [&mut cell, &mut block] {
            t.rewind();
        }
        for &x in &items[..5] {
            cell.write_fwd(x).unwrap();
        }
        block.write_slice_fwd(&items[..5]).unwrap();
        assert_eq!(cell.moves(), block.moves());
        assert_eq!(cell.reversals(), block.reversals());
    }

    #[test]
    fn slice_write_under_faults_matches_cell_writes() {
        let plan = FaultPlan::uniform(21, 0.4);
        let mut cell: Tape<u8> = Tape::new("t");
        let mut block: Tape<u8> = Tape::new("t");
        cell.enable_faults(&plan);
        block.enable_faults(&plan);
        let items: Vec<u8> = (0..100).collect();
        for &x in &items {
            cell.write_fwd(x).unwrap();
        }
        block.write_slice_fwd(&items).unwrap();
        assert_eq!(
            cell.snapshot(),
            block.snapshot(),
            "fault dice must be rolled in per-cell order"
        );
        assert_eq!(cell.fault_stats(), block.fault_stats());
        assert_eq!(cell.moves(), block.moves());
    }

    /// A faulted tape and its per-cell twin, tracing into two streams.
    fn faulted_pair(items: &[u32]) -> [(Tape<u32>, st_trace::TraceBuffer); 2] {
        let plan = FaultPlan::uniform(29, 0.3);
        [0, 1].map(|_| {
            let (tracer, buf) = Tracer::in_memory();
            let mut t = Tape::from_items("t", items.to_vec());
            t.set_tracer(tracer, 0);
            t.enable_faults(&plan);
            (t, buf)
        })
    }

    fn assert_same_tape(a: &Tape<u32>, b: &Tape<u32>) {
        assert_eq!(a.snapshot(), b.snapshot(), "stored corruption");
        assert_eq!(a.fault_stats(), b.fault_stats());
        assert_eq!(
            (a.head(), a.moves(), a.reversals()),
            (b.head(), b.moves(), b.reversals())
        );
    }

    #[test]
    fn slice_reads_under_a_plan_roll_dice_in_cell_order() {
        let items: Vec<u32> = (0..300).collect();
        let [(mut cell, cell_buf), (mut block, block_buf)] = faulted_pair(&items);
        let mut want = Vec::new();
        while let Some(x) = cell.read_fwd() {
            want.push(x);
        }
        // Forward: peek (twice — a pending cell is not re-rolled), then
        // advance; slice reads; and advances over cells never peeked.
        let mut got = Vec::new();
        while !block.at_end() {
            let x = block.peek_slice(7)[0];
            assert_eq!(
                block.peek_slice(3),
                [x],
                "a handed-out cell keeps its value"
            );
            got.push(x);
            block.advance_fwd(1);
            let chunk = block.read_slice_fwd(64);
            assert!(chunk.len() <= 1, "one cell at a time under a plan");
            got.extend_from_slice(chunk);
            if block.len() - block.head() >= 2 {
                // Skipped cells are still read: their dice roll here.
                block.advance_fwd(2);
                got.extend_from_slice(&want[got.len()..got.len() + 2]);
            }
        }
        assert_eq!(got, want);
        assert_same_tape(&cell, &block);
        assert_eq!(cell_buf.snapshot(), block_buf.snapshot(), "fault events");

        // Backward from the last cell down to cell 0.
        for t in [&mut cell, &mut block] {
            t.move_left().unwrap();
        }
        let mut want = Vec::new();
        loop {
            let at_start = cell.at_start();
            want.push(cell.read_bwd().unwrap());
            if at_start {
                break;
            }
        }
        let mut got = Vec::new();
        loop {
            let at_start = block.at_start();
            let chunk = block.read_slice_bwd(5);
            assert_eq!(chunk.len(), 1, "one cell at a time under a plan");
            got.push(chunk[0]);
            if at_start {
                break;
            }
        }
        assert_eq!(got, want);
        assert_same_tape(&cell, &block);
        assert_eq!(cell_buf.snapshot(), block_buf.snapshot(), "fault events");
        assert!(cell.fault_stats().unwrap().total_injected() > 0);
    }

    #[test]
    fn appends_under_a_plan_match_cell_writes() {
        let items: Vec<u32> = (0..55).map(|i| 3 * i).collect();
        let [(mut cell, cell_buf), (mut block, block_buf)] = faulted_pair(&[7; 10]);
        for t in [&mut cell, &mut block] {
            t.seek_end();
        }
        block
            .append_with(|cells| cells.extend_from_slice(&items))
            .unwrap();
        for &x in &items {
            cell.write_fwd(x).unwrap();
        }
        assert_same_tape(&cell, &block);
        assert_eq!(cell_buf.snapshot(), block_buf.snapshot(), "fault events");
    }

    #[test]
    fn appends_account_like_cell_writes() {
        // Clean: straight onto the cells at the end, staged mid-tape.
        for start in [0usize, 4, 10] {
            let mut cell: Tape<u16> = Tape::from_items("t", vec![9; 10]);
            let mut block = cell.clone();
            let items: Vec<u16> = (0..20).collect();
            for t in [&mut cell, &mut block] {
                t.seek_end();
                t.seek(start).unwrap();
            }
            for &x in &items {
                cell.write_fwd(x).unwrap();
            }
            block
                .append_with(|cells| cells.extend_from_slice(&items))
                .unwrap();
            assert_eq!(cell.snapshot(), block.snapshot(), "start {start}");
            assert_eq!(
                (cell.head(), cell.moves(), cell.reversals()),
                (block.head(), block.moves(), block.reversals()),
                "start {start}"
            );
        }
    }

    #[test]
    fn peek_slice_and_advance_support_early_exit() {
        let mut t = Tape::from_items("t", vec![1u8, 2, 3, 4, 5]);
        let view = t.peek_slice(usize::MAX);
        assert_eq!(view, [1, 2, 3, 4, 5]);
        assert_eq!(t.moves(), 0, "peek charges nothing");
        t.advance_fwd(2);
        assert_eq!(t.moves(), 2);
        assert_eq!(t.peek_slice(2), [3, 4]);
        assert_eq!(t.read_slice_fwd(usize::MAX), [3, 4, 5]);
        assert!(t.at_end());
        assert_eq!(t.read_slice_fwd(4), &[] as &[u8]);
    }

    #[test]
    #[should_panic(expected = "beyond end-of-data")]
    fn advance_past_end_panics() {
        let mut t = Tape::from_items("t", vec![1u8]);
        t.advance_fwd(2);
    }

    #[test]
    fn noop_fault_plan_changes_nothing() {
        let items: Vec<u8> = (0..50).collect();
        let mut clean = Tape::from_items("t", items.clone());
        let mut faulty = Tape::from_items("t", items);
        faulty.enable_faults(&FaultPlan::new(7));
        loop {
            let (a, b) = (clean.read_fwd(), faulty.read_fwd());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(clean.snapshot(), faulty.snapshot());
        let stats = faulty.fault_stats().unwrap();
        assert_eq!(stats.total_injected(), 0);
        assert_eq!(stats.reads, 50, "blank read past the end rolls no dice");
    }

    #[test]
    fn bit_flip_faults_are_persistent() {
        let mut t = Tape::from_items("t", vec![0u64; 400]);
        t.enable_faults(&FaultPlan::new(3).with_bit_flip(0.2));
        let mut corrupted_reads = 0;
        while let Some(x) = t.read_fwd() {
            if x != 0 {
                corrupted_reads += 1;
            }
        }
        let stats = t.fault_stats().unwrap();
        assert_eq!(
            stats.bit_flips, corrupted_reads,
            "every flip must be visible in the read"
        );
        assert!(
            stats.bit_flips > 0,
            "rate 0.2 over 400 reads: a flip is (deterministically) due"
        );
        let dirty = t.snapshot().iter().filter(|&&x| x != 0).count() as u64;
        assert_eq!(
            dirty, stats.bit_flips,
            "persistent faults must be stored back"
        );
    }

    #[test]
    fn transient_faults_leave_cells_untouched() {
        let mut t = Tape::from_items("t", vec![0u32; 400]);
        t.enable_faults(&FaultPlan::new(11).with_transient_read(0.3));
        let mut corrupted_reads = 0;
        while let Some(x) = t.read_fwd() {
            if x != 0 {
                corrupted_reads += 1;
            }
        }
        assert!(corrupted_reads > 0);
        assert!(
            t.snapshot().iter().all(|&x| x == 0),
            "transient faults must not be stored"
        );
    }

    #[test]
    fn stuck_writes_keep_old_values_and_lengths() {
        let mut t = Tape::from_items("t", vec![9u8; 20]);
        t.enable_faults(&FaultPlan::new(5).with_stuck_write(1.0));
        for _ in 0..20 {
            t.write_fwd(1).unwrap();
        }
        assert_eq!(
            t.snapshot(),
            vec![9u8; 20],
            "stuck overwrites keep the old value"
        );
        // Appends degrade to torn writes: the tape still grows.
        t.write_fwd(1).unwrap();
        assert_eq!(
            t.len(),
            21,
            "append under stuck-write fault must still extend the tape"
        );
        let stats = t.fault_stats().unwrap();
        assert_eq!(stats.stuck_writes, 20);
        assert_eq!(stats.torn_writes, 1);
    }

    #[test]
    fn faults_never_change_reversal_accounting() {
        let plan = FaultPlan::uniform(13, 0.5);
        let items: Vec<u16> = (0..100).collect();
        let mut clean = Tape::from_items("t", items.clone());
        let mut faulty = Tape::from_items("t", items);
        faulty.enable_faults(&plan);
        for t in [&mut clean, &mut faulty] {
            while t.read_fwd().is_some() {}
            t.rewind();
            for i in 0..50 {
                t.write_fwd(i).unwrap();
            }
            t.rewind();
        }
        assert_eq!(clean.reversals(), faulty.reversals());
        assert_eq!(clean.moves(), faulty.moves());
        assert!(faulty.fault_stats().unwrap().total_injected() > 0);
    }
}

impl<S: Clone> Tape<S> {
    /// The number of sequential scans this tape's reversal count implies:
    /// `1 + reversals` (Definition 1's convention, per tape).
    #[must_use]
    pub fn scan_equivalent(&self) -> u64 {
        1 + self.reversals
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        ReadFwd,
        ReadBwd,
        WriteFwd(u8),
        Rewind,
        SeekEnd,
        MoveLeft,
        MoveRight,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::ReadFwd),
            Just(Op::ReadBwd),
            any::<u8>().prop_map(Op::WriteFwd),
            Just(Op::Rewind),
            Just(Op::SeekEnd),
            Just(Op::MoveLeft),
            Just(Op::MoveRight),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn random_op_sequences_preserve_tape_invariants(
            init in proptest::collection::vec(any::<u8>(), 0..20),
            ops in proptest::collection::vec(arb_op(), 0..60),
        ) {
            let mut t = Tape::from_items("p", init);
            let mut last_rev = 0u64;
            for op in ops {
                let rev_before = t.reversals();
                match op {
                    Op::ReadFwd => { let _ = t.read_fwd(); }
                    Op::ReadBwd => { let _ = t.read_bwd(); }
                    Op::WriteFwd(x) => {
                        // write_fwd only errors when the head is beyond
                        // end-of-data by more than one cell — impossible
                        // through the public API.
                        t.write_fwd(x).unwrap();
                    }
                    Op::Rewind => t.rewind(),
                    Op::SeekEnd => t.seek_end(),
                    Op::MoveLeft => { let _ = t.move_left(); }
                    Op::MoveRight => {
                        // Guard: moving right beyond end-of-data parks the
                        // head on blank, which is legal; but never move
                        // more than one past the data or writes would
                        // error. Only move when within data.
                        if t.head() <= t.len()
                            && t.head() < t.len() { t.move_right(); }
                    }
                }
                // Reversals are monotone and grow by at most 1 per op
                // (bulk ops are single sweeps).
                prop_assert!(t.reversals() >= rev_before);
                prop_assert!(t.reversals() - rev_before <= 1);
                // The head never exceeds one past the data region after
                // any legal op sequence above.
                prop_assert!(t.head() <= t.len());
                last_rev = t.reversals();
            }
            prop_assert_eq!(t.reversals(), last_rev);
        }

        #[test]
        fn identical_fault_seeds_give_identical_corrupted_runs(
            seed in 0u64..1000,
            init in proptest::collection::vec(any::<u8>(), 1..20),
            ops in proptest::collection::vec(arb_op(), 0..60),
        ) {
            let plan = FaultPlan::uniform(seed, 0.25);
            let replay = |init: Vec<u8>, ops: &[Op]| {
                let mut t = Tape::from_items("p", init);
                t.enable_faults(&plan);
                for op in ops {
                    match op {
                        Op::ReadFwd => { let _ = t.read_fwd(); }
                        Op::ReadBwd => { let _ = t.read_bwd(); }
                        Op::WriteFwd(x) => { t.write_fwd(*x).unwrap(); }
                        Op::Rewind => t.rewind(),
                        Op::SeekEnd => t.seek_end(),
                        Op::MoveLeft => { let _ = t.move_left(); }
                        Op::MoveRight => {
                            if t.head() < t.len() { t.move_right(); }
                        }
                    }
                }
                (t.snapshot(), t.fault_stats().unwrap(), t.reversals())
            };
            let a = replay(init.clone(), &ops);
            let b = replay(init, &ops);
            prop_assert_eq!(a.0, b.0, "same seed must corrupt identically");
            prop_assert_eq!(a.1, b.1);
            prop_assert_eq!(a.2, b.2);
        }

        #[test]
        fn scan_equivalent_is_reversals_plus_one(revs in 0u64..20) {
            let mut t = Tape::from_items("p", vec![0u8; 8]);
            for _ in 0..revs {
                t.seek_end();
                t.rewind();
            }
            prop_assert_eq!(t.scan_equivalent(), t.reversals() + 1);
        }
    }
}
