//! Resource bills and tenant budgets: the paper's lower bounds made
//! operational.
//!
//! The ST(r,s,t) model prices a computation in head reversals and
//! internal bits. A serving layer can therefore meter tenants in the
//! *same currency the lower bounds are stated in*: a tenant's budget is
//! an `(r, s)` allowance, a session's reservation is the upper-bound
//! cost of the decider it asks for (e.g. `12·⌈log₂ m⌉ + O(1)` reversals
//! for the Corollary 7 sort route), and an over-budget session is
//! rejected *with the bill attached* — the bill's reversal count **is**
//! the Θ(log N) bound for its instance size, so a rejection is itself a
//! statement of the theorem.
//!
//! [`ResourceBill`] is the settlement record, [`BillingKey`] signs it
//! (a keyed 64-bit FNV-style MAC — an integrity tag for offline audit
//! pipelines, *not* a cryptographic primitive; the workspace vendors no
//! crypto), and [`BudgetLedger`] does per-tenant admission accounting.

use crate::rng::{fnv1a, FNV_OFFSET};
use crate::usage::ResourceUsage;
use std::fmt;

/// A tenant's allowance, in the model's own units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantBudget {
    /// Total head reversals the tenant may buy across its sessions.
    pub reversals: u64,
    /// Peak internal memory, in bits, any single session may claim.
    pub internal_bits: u64,
}

impl TenantBudget {
    /// A budget that admits anything (both components saturated).
    #[must_use]
    pub fn unlimited() -> Self {
        TenantBudget {
            reversals: u64::MAX,
            internal_bits: u64::MAX,
        }
    }
}

impl fmt::Display for TenantBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} reversals / {} bits",
            self.reversals, self.internal_bits
        )
    }
}

/// The settlement record of one session: what was asked, what it cost.
///
/// `accepted = None` means the session never ran — it was rejected at
/// admission, and the bill carries the *reservation* (the paper-bound
/// price quoted for its instance size) rather than a measured cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceBill {
    /// Tenant the session belonged to.
    pub tenant: String,
    /// Session index within the run.
    pub session: u64,
    /// Decider identifier (e.g. `"fingerprint"`, `"sort-multiset"`).
    pub decider: String,
    /// Definition-1 input size `N` of the instance.
    pub input_len: u64,
    /// Head reversals billed (measured, or the quoted bound on
    /// rejection).
    pub reversals: u64,
    /// Peak internal memory billed, in bits.
    pub internal_bits: u64,
    /// External tape cells occupied at settlement.
    pub external_cells: u64,
    /// The verdict, or `None` if rejected at admission.
    pub accepted: Option<bool>,
}

impl ResourceBill {
    /// A bill settled from a measured [`ResourceUsage`].
    #[must_use]
    pub fn from_usage(
        tenant: impl Into<String>,
        session: u64,
        decider: impl Into<String>,
        usage: &ResourceUsage,
        accepted: bool,
    ) -> Self {
        ResourceBill {
            tenant: tenant.into(),
            session,
            decider: decider.into(),
            input_len: usage.input_len as u64,
            reversals: usage.total_reversals(),
            internal_bits: usage.internal_space,
            external_cells: usage.external_cells,
            accepted: Some(accepted),
        }
    }

    /// The canonical byte encoding the MAC covers. Field order is part
    /// of the wire contract; strings are length-prefixed so no two
    /// distinct bills share an encoding.
    #[must_use]
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.tenant.len() + self.decider.len());
        let push_str = |out: &mut Vec<u8>, s: &str| {
            out.extend_from_slice(&(s.len() as u64).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        };
        push_str(&mut out, &self.tenant);
        out.extend_from_slice(&self.session.to_le_bytes());
        push_str(&mut out, &self.decider);
        for n in [
            self.input_len,
            self.reversals,
            self.internal_bits,
            self.external_cells,
        ] {
            out.extend_from_slice(&n.to_le_bytes());
        }
        out.push(match self.accepted {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
        out
    }
}

impl fmt::Display for ResourceBill {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = match self.accepted {
            None => "rejected",
            Some(true) => "accept",
            Some(false) => "reject",
        };
        write!(
            f,
            "bill[{} s{} {} N={} rev={} bits={} cells={} {}]",
            self.tenant,
            self.session,
            self.decider,
            self.input_len,
            self.reversals,
            self.internal_bits,
            self.external_cells,
            verdict
        )
    }
}

/// A [`ResourceBill`] plus its integrity tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedBill {
    /// The bill.
    pub bill: ResourceBill,
    /// Keyed 64-bit tag over [`ResourceBill::canonical_bytes`].
    pub mac: u64,
}

/// The billing key: signs bills so a downstream audit pipeline can
/// detect tampering in transit or at rest. The tag is a keyed FNV-1a
/// fold — collision-resistant against accidents, **not** against an
/// adversary holding unbounded compute; it documents intent (bills are
/// integrity-checked artifacts) without pulling in a crypto dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BillingKey(u64);

impl BillingKey {
    /// A key from raw material.
    #[must_use]
    pub fn new(key: u64) -> Self {
        BillingKey(key)
    }

    fn tag(self, bytes: &[u8]) -> u64 {
        let h = fnv1a(FNV_OFFSET ^ self.0, &self.0.to_le_bytes());
        fnv1a(fnv1a(h, bytes), &self.0.to_be_bytes())
    }

    /// Sign a bill.
    #[must_use]
    pub fn sign(self, bill: ResourceBill) -> SignedBill {
        let mac = self.tag(&bill.canonical_bytes());
        SignedBill { bill, mac }
    }

    /// Verify a signed bill against this key.
    #[must_use]
    pub fn verify(self, signed: &SignedBill) -> bool {
        self.tag(&signed.bill.canonical_bytes()) == signed.mac
    }
}

/// Per-tenant admission accounting: reservations charged against a
/// granted allowance, plus admit/reject counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BudgetLedger {
    /// The tenant's granted allowance.
    pub granted: TenantBudget,
    /// Reservations charged so far. `spent.reversals` accumulates
    /// across sessions; `spent.internal_bits` tracks the *largest*
    /// single-session bit reservation (bits are reusable space, not a
    /// consumable).
    pub spent: TenantBudget,
    /// Sessions admitted.
    pub admitted: u64,
    /// Sessions rejected at admission.
    pub rejected: u64,
}

impl BudgetLedger {
    /// A ledger with `granted` allowance and nothing spent.
    #[must_use]
    pub fn new(granted: TenantBudget) -> Self {
        BudgetLedger {
            granted,
            ..BudgetLedger::default()
        }
    }

    /// Would admitting a session with `reservation` stay within the
    /// grant?
    #[must_use]
    pub fn can_admit(&self, reservation: TenantBudget) -> bool {
        self.spent.reversals.saturating_add(reservation.reversals) <= self.granted.reversals
            && reservation.internal_bits <= self.granted.internal_bits
    }

    /// Charge a reservation (the caller has checked [`Self::can_admit`]).
    pub fn admit(&mut self, reservation: TenantBudget) {
        self.spent.reversals = self.spent.reversals.saturating_add(reservation.reversals);
        self.spent.internal_bits = self.spent.internal_bits.max(reservation.internal_bits);
        self.admitted += 1;
    }

    /// Record a rejection.
    pub fn reject(&mut self) {
        self.rejected += 1;
    }

    /// Remaining reversal allowance.
    #[must_use]
    pub fn remaining_reversals(&self) -> u64 {
        self.granted.reversals.saturating_sub(self.spent.reversals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bill() -> ResourceBill {
        ResourceBill {
            tenant: "acme".into(),
            session: 3,
            decider: "sort-multiset".into(),
            input_len: 48,
            reversals: 60,
            internal_bits: 96,
            external_cells: 64,
            accepted: Some(true),
        }
    }

    #[test]
    fn signing_round_trips_and_detects_tampering() {
        let key = BillingKey::new(0xfeed_beef);
        let signed = key.sign(bill());
        assert!(key.verify(&signed));

        let mut tampered = signed.clone();
        tampered.bill.reversals -= 1;
        assert!(!key.verify(&tampered), "reversal edit must break the tag");

        let other = BillingKey::new(0xfeed_beee);
        assert!(!other.verify(&signed), "wrong key must not verify");
    }

    #[test]
    fn canonical_encoding_separates_adjacent_fields() {
        // "ab" + "c" vs "a" + "bc": length prefixes must keep these
        // encodings distinct.
        let mut x = bill();
        x.tenant = "ab".into();
        x.decider = "c".into();
        let mut y = bill();
        y.tenant = "a".into();
        y.decider = "bc".into();
        assert_ne!(x.canonical_bytes(), y.canonical_bytes());
        // And the admission outcome is part of the encoding.
        let mut z = bill();
        z.accepted = None;
        assert_ne!(z.canonical_bytes(), bill().canonical_bytes());
    }

    #[test]
    fn ledger_admits_until_the_reversal_grant_is_spent() {
        let mut ledger = BudgetLedger::new(TenantBudget {
            reversals: 100,
            internal_bits: 512,
        });
        let session = TenantBudget {
            reversals: 40,
            internal_bits: 256,
        };
        assert!(ledger.can_admit(session));
        ledger.admit(session);
        assert!(ledger.can_admit(session));
        ledger.admit(session);
        assert!(!ledger.can_admit(session), "third 40 exceeds 100");
        ledger.reject();
        assert_eq!((ledger.admitted, ledger.rejected), (2, 1));
        assert_eq!(ledger.remaining_reversals(), 20);
        // Bits are space, not a consumable: two 256-bit sessions fit a
        // 512-bit grant, but a 600-bit session never does.
        assert!(!ledger.can_admit(TenantBudget {
            reversals: 0,
            internal_bits: 600,
        }));
    }

    #[test]
    fn bill_from_usage_copies_the_measured_quantities() {
        let usage = ResourceUsage {
            input_len: 10,
            reversals_per_tape: vec![3, 4],
            external_tapes: 2,
            internal_space: 77,
            steps: 123,
            external_cells: 20,
        };
        let b = ResourceBill::from_usage("t", 0, "fingerprint", &usage, false);
        assert_eq!(b.reversals, 7);
        assert_eq!(b.internal_bits, 77);
        assert_eq!(b.external_cells, 20);
        assert_eq!(b.input_len, 10);
        assert_eq!(b.accepted, Some(false));
    }
}
