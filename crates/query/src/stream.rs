//! Streaming query evaluation with tape accounting.
//!
//! Theorems 12/13 are about *XML document streams*: the query evaluator
//! reads the document as a sequence of events on an external tape. This
//! module closes the loop between the in-memory evaluators of
//! [`crate::xpath`]/[`crate::xquery`] and the resource model:
//!
//! * [`document_tape`] — materialize an instance's XML document as an
//!   event tape (the paper notes the document is producible from the
//!   `{0,1,#}` input "by a constant number of sequential scans" —
//!   measured here);
//! * [`streaming_set_equality`] — the ST-side upper bound: extract the
//!   two string sets from the event stream in **one scan**, then decide
//!   equality with the reversal-bounded sort engine, reporting the full
//!   usage (`Θ(log N)` scans total — the matching upper bound to
//!   Theorem 12/13's `Ω(log N)` lower bound);
//! * [`streaming_multiset_fingerprint`] — the co-RST side on streams:
//!   one extraction scan + the two-scan fingerprint over the extracted
//!   values.

use crate::xml::XmlEvent;
use rand::Rng;
use st_core::{ResourceUsage, StError};
use st_extmem::meter::bits_for;
use st_extmem::sort::merge_sort;
use st_extmem::{Tape, TapeMachine};
use st_problems::{BitStr, Instance};
use st_trace::Tracer;

/// Build the event tape for an instance's document, counting the scans
/// of the production itself (one forward pass over the instance, one
/// forward write of the event tape). The machine traces on `tracer`.
pub fn document_tape(
    inst: &Instance,
    tracer: &Tracer,
) -> Result<(Tape<XmlEvent>, ResourceUsage), StError> {
    let word: Vec<u8> = inst.encode_bytes();
    let n = word.len();
    let mut machine: TapeMachine<u8> = TapeMachine::with_input(word, n.max(1), tracer.clone());
    let mut events: Tape<XmlEvent> = Tape::new("events");
    let meter = machine.meter().clone();
    // Registers: a block counter and the current value buffer pointer.
    meter.charge_static(2 * bits_for(n.max(2) as u64));

    events.write_fwd(XmlEvent::Start("instance".into()))?;
    events.write_fwd(XmlEvent::Start("set1".into()))?;
    let m = inst.m();
    let mut block = 0usize;
    let mut cur = String::new();
    let tape = machine.tape_mut(0);
    while let Some(sym) = tape.read_fwd() {
        match sym {
            b'#' => {
                events.write_fwd(XmlEvent::Start("item".into()))?;
                events.write_fwd(XmlEvent::Start("string".into()))?;
                if !cur.is_empty() {
                    events.write_fwd(XmlEvent::Text(std::mem::take(&mut cur)))?;
                } else {
                    cur.clear();
                }
                events.write_fwd(XmlEvent::End("string".into()))?;
                events.write_fwd(XmlEvent::End("item".into()))?;
                block += 1;
                if block == m {
                    events.write_fwd(XmlEvent::End("set1".into()))?;
                    events.write_fwd(XmlEvent::Start("set2".into()))?;
                }
            }
            bit => cur.push(char::from(bit)),
        }
    }
    if m == 0 {
        events.write_fwd(XmlEvent::End("set1".into()))?;
        events.write_fwd(XmlEvent::Start("set2".into()))?;
    }
    events.write_fwd(XmlEvent::End("set2".into()))?;
    events.write_fwd(XmlEvent::End("instance".into()))?;

    let mut usage = machine.usage();
    let extra = ResourceUsage {
        input_len: n,
        reversals_per_tape: vec![events.reversals()],
        external_tapes: 1,
        internal_space: 0,
        steps: 0,
        external_cells: events.len() as u64,
    };
    usage.absorb(&extra);
    Ok((events, usage))
}

/// One forward scan of an event tape extracting the `set1`/`set2` string
/// values onto two record tapes.
fn extract_sets(
    events: &mut Tape<XmlEvent>,
    meter: &st_extmem::MemoryMeter,
) -> Result<(Vec<BitStr>, Vec<BitStr>, u64), StError> {
    events.rewind();
    // Registers: which set we are in (1 bit) + a depth-ish flag.
    let _buf = meter.charge(4);
    let mut in_set2 = false;
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut pending_string = false;
    let mut saw_text_for_current = false;
    while let Some(e) = events.read_fwd() {
        match e {
            XmlEvent::Start(ref n) if n == "set2" => in_set2 = true,
            XmlEvent::Start(ref n) if n == "string" => {
                pending_string = true;
                saw_text_for_current = false;
            }
            XmlEvent::Text(t) if pending_string => {
                let v = BitStr::parse(&t)?;
                if in_set2 {
                    ys.push(v);
                } else {
                    xs.push(v);
                }
                saw_text_for_current = true;
            }
            XmlEvent::End(ref n) if n == "string" => {
                if pending_string && !saw_text_for_current {
                    // Empty string value.
                    if in_set2 {
                        ys.push(BitStr::empty());
                    } else {
                        xs.push(BitStr::empty());
                    }
                }
                pending_string = false;
            }
            _ => {}
        }
    }
    Ok((xs, ys, events.reversals()))
}

/// The streaming ST-side decider: one extraction scan over the event
/// stream, then sort-based set equality — `Θ(log N)` scans total. Both
/// machines trace on `tracer`.
pub fn streaming_set_equality(
    inst: &Instance,
    tracer: &Tracer,
) -> Result<(bool, ResourceUsage), StError> {
    let (mut events, mut usage) = document_tape(inst, tracer)?;
    let meter = st_extmem::MemoryMeter::new();
    let (xs, ys, ev_revs) = extract_sets(&mut events, &meter)?;

    let mut m = TapeMachine::with_input(xs, inst.size().max(1), tracer.clone());
    m.add_tape_with("second", ys);
    m.add_tape("scratch1");
    m.add_tape("scratch2");
    merge_sort(&mut m, 0, 2, 3)?;
    merge_sort(&mut m, 1, 2, 3)?;
    // Dedup-compare (set semantics), same scan as the Corollary 7 decider.
    let meter2 = m.meter().clone();
    let _buf = meter2.charge(2);
    let mut equal = true;
    {
        let (a, b) = m.pair_mut(0, 1);
        a.rewind();
        b.rewind();
        let mut x = a.read_fwd();
        let mut y = b.read_fwd();
        while equal {
            match (&x, &y) {
                (None, None) => break,
                (Some(vx), Some(vy)) if vx == vy => {
                    let v = vx.clone();
                    while x.as_ref() == Some(&v) {
                        x = a.read_fwd();
                    }
                    while y.as_ref() == Some(&v) {
                        y = b.read_fwd();
                    }
                }
                _ => equal = false,
            }
        }
    }
    usage.absorb(&m.usage());
    let stream_extra = ResourceUsage {
        input_len: inst.size(),
        reversals_per_tape: vec![ev_revs],
        external_tapes: 1,
        internal_space: meter.high_water_bits(),
        steps: 0,
        external_cells: 0,
    };
    usage.absorb(&stream_extra);
    Ok((equal, usage))
}

/// The streaming co-RST side: extract, then run the Theorem 8(a)
/// fingerprint on the extracted multisets. Both machines trace on
/// `tracer`.
pub fn streaming_multiset_fingerprint<R: Rng>(
    inst: &Instance,
    rng: &mut R,
    tracer: &Tracer,
) -> Result<(bool, ResourceUsage), StError> {
    let (mut events, mut usage) = document_tape(inst, tracer)?;
    let meter = st_extmem::MemoryMeter::new();
    let (xs, ys, _) = extract_sets(&mut events, &meter)?;
    let extracted = Instance::new(xs, ys)?;
    let run = st_algo::fingerprint::run_fingerprint(&extracted, rng, tracer)?;
    usage.absorb(&run.usage);
    Ok((run.accepted, usage))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use st_problems::{generate, predicates};

    #[test]
    fn document_tape_round_trips_through_the_tokenizer() {
        let inst = Instance::parse("01#10#10#01#").unwrap();
        let (events, usage) = document_tape(&inst, &Tracer::disabled()).unwrap();
        let doc = crate::xml::write_events(&events.snapshot());
        assert_eq!(doc, crate::xml::instance_document(&inst));
        assert_eq!(crate::xml::tokenize(&doc).unwrap(), events.snapshot());
        // Production cost: one scan of the instance, one forward write.
        assert_eq!(usage.scans(), 1, "{usage}");
    }

    #[test]
    fn document_tape_handles_empty_values_and_empty_instances() {
        for word in ["", "##", "#0##1#"] {
            let inst = Instance::parse(word).unwrap();
            let (events, _) = document_tape(&inst, &Tracer::disabled()).unwrap();
            let doc = crate::xml::write_events(&events.snapshot());
            assert_eq!(doc, crate::xml::instance_document(&inst), "{word}");
        }
    }

    #[test]
    fn streaming_decider_matches_reference() {
        let mut rng = StdRng::seed_from_u64(90);
        for _ in 0..25 {
            for inst in [
                generate::yes_set_distinct(6, 5, &mut rng),
                generate::random_instance(5, 4, &mut rng),
                generate::yes_multiset(5, 4, &mut rng),
            ] {
                let (got, _) = streaming_set_equality(&inst, &Tracer::disabled()).unwrap();
                assert_eq!(got, predicates::is_set_equal(&inst), "{}", inst.encode());
            }
        }
    }

    #[test]
    fn streaming_decider_scan_shape_is_logarithmic() {
        let mut rng = StdRng::seed_from_u64(91);
        let mut pts = Vec::new();
        for logm in 3..=8 {
            let inst = generate::yes_set_distinct(1 << logm, 10, &mut rng);
            let (_, usage) = streaming_set_equality(&inst, &Tracer::disabled()).unwrap();
            pts.push((usage.input_len, usage.total_reversals() as f64));
        }
        let (_, _, r2) = st_core::math::log_fit(&pts);
        assert!(r2 > 0.95, "r² = {r2} ({pts:?})");
    }

    #[test]
    fn streaming_fingerprint_is_complete_and_cheap() {
        let mut rng = StdRng::seed_from_u64(92);
        for _ in 0..20 {
            let inst = generate::yes_multiset(8, 8, &mut rng);
            let (acc, usage) =
                streaming_multiset_fingerprint(&inst, &mut rng, &Tracer::disabled()).unwrap();
            assert!(acc, "no false negatives on streams either");
            // Production scan + extraction scan + two fingerprint scans:
            // a constant, far below the deterministic decider.
            assert!(usage.scans() <= 6, "{usage}");
        }
    }
}
