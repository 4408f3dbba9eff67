//! The framed request/response wire format.
//!
//! A frame is `[u32 LE body length][body]`; the body is
//! `[tag u8][payload]`. Integers are little-endian `u64`, strings and
//! byte blobs are `u32 LE` length-prefixed. The frame codec is
//! [`st_core::frame`], re-exported here; it is transport agnostic, so
//! the same codec drives a TCP socket and an in-process `Cursor` test.

use st_core::frame::checked_len;
pub use st_core::frame::{read_frame, read_frame_lenient, write_frame, FrameRead, MAX_FRAME};
use st_core::{ResourceBill, SignedBill};
use std::io;

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Open a session: tenant, decider id, declared instance shape.
    Open {
        /// Caller-chosen session id, unique per connection.
        session: u64,
        /// Tenant whose budget pays for the run.
        tenant: String,
        /// Decider id (see [`crate::session::DeciderKind::id`]).
        decider: String,
        /// Declared number of values per list.
        m: u64,
        /// Declared bits per value.
        n: u64,
    },
    /// Feed a chunk of the input word.
    Feed {
        /// Target session.
        session: u64,
        /// Raw word bytes (over the alphabet `{0, 1, #}`).
        bytes: Vec<u8>,
    },
    /// Declare end-of-input.
    Finish {
        /// Target session.
        session: u64,
    },
    /// Run up to `budget` head operations.
    Step {
        /// Target session.
        session: u64,
        /// Head-operation budget for this quantum.
        budget: u64,
    },
    /// Discard a session without settling it.
    Close {
        /// Target session.
        session: u64,
    },
}

/// A service response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The session was admitted; its reservation fit the tenant budget.
    OpenOk {
        /// Echoed session id.
        session: u64,
    },
    /// The session was refused; the signed bill quotes the reservation
    /// the tenant could not cover.
    OpenRejected {
        /// Echoed session id.
        session: u64,
        /// The refusal bill (`accepted: None`), MAC-signed.
        bill: SignedBill,
    },
    /// A feed/finish/close was applied.
    Ack {
        /// Echoed session id.
        session: u64,
    },
    /// The session wants more input before it can progress.
    NeedInput {
        /// Echoed session id.
        session: u64,
    },
    /// The budget ran out mid-run; step again to continue.
    Yielded {
        /// Echoed session id.
        session: u64,
    },
    /// The verdict, with the signed bill for the metered run.
    Done {
        /// Echoed session id.
        session: u64,
        /// The decider's verdict.
        accepted: bool,
        /// The audited, MAC-signed resource bill.
        bill: SignedBill,
    },
    /// The request failed; the session (if any) is unchanged.
    Error {
        /// Echoed session id (0 when no session applies).
        session: u64,
        /// Human-readable cause.
        message: String,
    },
    /// Backpressure: the request was shed without being applied (the
    /// session's feed buffer is at capacity). The session is unchanged;
    /// the client should step it forward before feeding more.
    Throttled {
        /// Echoed session id.
        session: u64,
    },
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) -> io::Result<()> {
    // A blob that cannot fit a frame body must fail the encode, not
    // panic the server: tenants control feed sizes.
    let len = checked_len(b.len())?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(b);
    Ok(())
}

fn put_str(out: &mut Vec<u8>, s: &str) -> io::Result<()> {
    put_bytes(out, s.as_bytes())
}

fn put_signed_bill(out: &mut Vec<u8>, sb: &SignedBill) -> io::Result<()> {
    put_str(out, &sb.bill.tenant)?;
    put_u64(out, sb.bill.session);
    put_str(out, &sb.bill.decider)?;
    put_u64(out, sb.bill.input_len);
    put_u64(out, sb.bill.reversals);
    put_u64(out, sb.bill.internal_bits);
    put_u64(out, sb.bill.external_cells);
    out.push(match sb.bill.accepted {
        None => 2,
        Some(false) => 0,
        Some(true) => 1,
    });
    put_u64(out, sb.mac);
    Ok(())
}

/// A cursor over a decoded body.
struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Rd { buf, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, String> {
        let b = *self.buf.get(self.pos).ok_or("truncated frame")?;
        self.pos += 1;
        Ok(b)
    }

    fn u64(&mut self) -> Result<u64, String> {
        let end = self.pos.checked_add(8).ok_or("truncated frame")?;
        let bytes = self.buf.get(self.pos..end).ok_or("truncated frame")?;
        self.pos = end;
        Ok(u64::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, String> {
        let end = self.pos.checked_add(4).ok_or("truncated frame")?;
        let len_bytes = self.buf.get(self.pos..end).ok_or("truncated frame")?;
        let len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
        self.pos = end;
        let end = self.pos.checked_add(len).ok_or("truncated frame")?;
        let data = self.buf.get(self.pos..end).ok_or("truncated frame")?;
        self.pos = end;
        Ok(data.to_vec())
    }

    fn str(&mut self) -> Result<String, String> {
        String::from_utf8(self.bytes()?).map_err(|_| "string is not UTF-8".to_string())
    }

    fn signed_bill(&mut self) -> Result<SignedBill, String> {
        let tenant = self.str()?;
        let session = self.u64()?;
        let decider = self.str()?;
        let input_len = self.u64()?;
        let reversals = self.u64()?;
        let internal_bits = self.u64()?;
        let external_cells = self.u64()?;
        let accepted = match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            2 => None,
            other => return Err(format!("bad accepted byte {other}")),
        };
        let mac = self.u64()?;
        Ok(SignedBill {
            bill: ResourceBill {
                tenant,
                session,
                decider,
                input_len,
                reversals,
                internal_bits,
                external_cells,
                accepted,
            },
            mac,
        })
    }

    fn done(self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err("trailing bytes in frame".into())
        }
    }
}

impl Request {
    /// Serialize to a frame body. Fails with `InvalidInput` when a blob
    /// or the finished body would exceed [`MAX_FRAME`] — the same cap
    /// [`read_frame`] enforces on the receive side.
    pub fn encode(&self) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        match self {
            Request::Open {
                session,
                tenant,
                decider,
                m,
                n,
            } => {
                out.push(1);
                put_u64(&mut out, *session);
                put_str(&mut out, tenant)?;
                put_str(&mut out, decider)?;
                put_u64(&mut out, *m);
                put_u64(&mut out, *n);
            }
            Request::Feed { session, bytes } => {
                out.push(2);
                put_u64(&mut out, *session);
                put_bytes(&mut out, bytes)?;
            }
            Request::Finish { session } => {
                out.push(3);
                put_u64(&mut out, *session);
            }
            Request::Step { session, budget } => {
                out.push(4);
                put_u64(&mut out, *session);
                put_u64(&mut out, *budget);
            }
            Request::Close { session } => {
                out.push(5);
                put_u64(&mut out, *session);
            }
        }
        checked_len(out.len())?;
        Ok(out)
    }

    /// Decode a frame body.
    pub fn decode(body: &[u8]) -> Result<Self, String> {
        let mut rd = Rd::new(body);
        let req = match rd.u8()? {
            1 => Request::Open {
                session: rd.u64()?,
                tenant: rd.str()?,
                decider: rd.str()?,
                m: rd.u64()?,
                n: rd.u64()?,
            },
            2 => Request::Feed {
                session: rd.u64()?,
                bytes: rd.bytes()?,
            },
            3 => Request::Finish { session: rd.u64()? },
            4 => Request::Step {
                session: rd.u64()?,
                budget: rd.u64()?,
            },
            5 => Request::Close { session: rd.u64()? },
            tag => return Err(format!("unknown request tag {tag}")),
        };
        rd.done()?;
        Ok(req)
    }
}

impl Response {
    /// Serialize to a frame body. Fails with `InvalidInput` when the
    /// body would exceed [`MAX_FRAME`] (see [`Request::encode`]).
    pub fn encode(&self) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        match self {
            Response::OpenOk { session } => {
                out.push(64);
                put_u64(&mut out, *session);
            }
            Response::OpenRejected { session, bill } => {
                out.push(65);
                put_u64(&mut out, *session);
                put_signed_bill(&mut out, bill)?;
            }
            Response::Ack { session } => {
                out.push(66);
                put_u64(&mut out, *session);
            }
            Response::NeedInput { session } => {
                out.push(67);
                put_u64(&mut out, *session);
            }
            Response::Yielded { session } => {
                out.push(68);
                put_u64(&mut out, *session);
            }
            Response::Done {
                session,
                accepted,
                bill,
            } => {
                out.push(69);
                put_u64(&mut out, *session);
                out.push(u8::from(*accepted));
                put_signed_bill(&mut out, bill)?;
            }
            Response::Error { session, message } => {
                out.push(70);
                put_u64(&mut out, *session);
                put_str(&mut out, message)?;
            }
            Response::Throttled { session } => {
                out.push(71);
                put_u64(&mut out, *session);
            }
        }
        checked_len(out.len())?;
        Ok(out)
    }

    /// Decode a frame body.
    pub fn decode(body: &[u8]) -> Result<Self, String> {
        let mut rd = Rd::new(body);
        let resp = match rd.u8()? {
            64 => Response::OpenOk { session: rd.u64()? },
            65 => Response::OpenRejected {
                session: rd.u64()?,
                bill: rd.signed_bill()?,
            },
            66 => Response::Ack { session: rd.u64()? },
            67 => Response::NeedInput { session: rd.u64()? },
            68 => Response::Yielded { session: rd.u64()? },
            69 => Response::Done {
                session: rd.u64()?,
                accepted: match rd.u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("bad verdict byte {other}")),
                },
                bill: rd.signed_bill()?,
            },
            70 => Response::Error {
                session: rd.u64()?,
                message: rd.str()?,
            },
            71 => Response::Throttled { session: rd.u64()? },
            tag => return Err(format!("unknown response tag {tag}")),
        };
        rd.done()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::BillingKey;
    use std::io::Cursor;

    fn sample_bill(accepted: Option<bool>) -> SignedBill {
        let bill = ResourceBill {
            tenant: "alice".into(),
            session: 7,
            decider: "sort-multiset".into(),
            input_len: 64,
            reversals: 44,
            internal_bits: 6,
            external_cells: 24,
            accepted,
        };
        BillingKey::new(0xfeed).sign(bill)
    }

    #[test]
    fn every_request_round_trips() {
        let requests = [
            Request::Open {
                session: 1,
                tenant: "alice".into(),
                decider: "fingerprint".into(),
                m: 8,
                n: 4,
            },
            Request::Feed {
                session: 1,
                bytes: b"01#10#".to_vec(),
            },
            Request::Finish { session: 1 },
            Request::Step {
                session: 1,
                budget: 64,
            },
            Request::Close { session: 1 },
        ];
        for req in requests {
            assert_eq!(Request::decode(&req.encode().unwrap()).unwrap(), req);
        }
    }

    #[test]
    fn every_response_round_trips() {
        let responses = [
            Response::OpenOk { session: 2 },
            Response::OpenRejected {
                session: 2,
                bill: sample_bill(None),
            },
            Response::Ack { session: 2 },
            Response::NeedInput { session: 2 },
            Response::Yielded { session: 2 },
            Response::Done {
                session: 2,
                accepted: true,
                bill: sample_bill(Some(true)),
            },
            Response::Error {
                session: 0,
                message: "unknown tenant".into(),
            },
            Response::Throttled { session: 2 },
        ];
        for resp in responses {
            assert_eq!(Response::decode(&resp.encode().unwrap()).unwrap(), resp);
        }
    }

    #[test]
    fn signatures_survive_the_wire() {
        let key = BillingKey::new(0xfeed);
        let resp = Response::Done {
            session: 2,
            accepted: true,
            bill: sample_bill(Some(true)),
        };
        let Response::Done { bill, .. } = Response::decode(&resp.encode().unwrap()).unwrap() else {
            panic!("wrong variant");
        };
        assert!(key.verify(&bill));
        assert!(!BillingKey::new(1).verify(&bill));
    }

    #[test]
    fn encode_enforces_max_frame_at_the_exact_boundary() {
        // Feed body = tag(1) + session(8) + blob length prefix(4) + blob.
        const OVERHEAD: usize = 1 + 8 + 4;
        let fits = Request::Feed {
            session: 9,
            bytes: vec![b'#'; MAX_FRAME as usize - OVERHEAD],
        };
        let body = fits.encode().unwrap();
        assert_eq!(body.len(), MAX_FRAME as usize);
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        let echoed = read_frame(&mut Cursor::new(wire)).unwrap().unwrap();
        assert_eq!(Request::decode(&echoed).unwrap(), fits);

        // One byte over: the encode itself refuses, symmetrically with
        // the read_frame cap — instead of the old 4 GiB panic path.
        let over = Request::Feed {
            session: 9,
            bytes: vec![b'#'; MAX_FRAME as usize - OVERHEAD + 1],
        };
        let err = over.encode().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);

        // An oversize message string on the response side errors too.
        let noisy = Response::Error {
            session: 0,
            message: "x".repeat(MAX_FRAME as usize + 1),
        };
        assert!(noisy.encode().is_err());
    }

    #[test]
    fn truncated_and_padded_bodies_are_rejected() {
        assert!(Request::decode(&[1, 0]).is_err());
        assert!(Request::decode(&[99]).is_err());
        let mut padded = Request::Finish { session: 4 }.encode().unwrap();
        padded.push(0);
        assert!(Request::decode(&padded).is_err());
    }
}
