//! The telemetry data model: one record per user action.
//!
//! The paper (§2.1, §3.1) requires tuples `(T, A, L, M)` — timestamp, action
//! type, client-measured end-to-end latency, and optional user metadata —
//! plus an anonymized per-user identifier for the conditioning analysis
//! (§3.4) and a success/error outcome (errors are excluded, §3.1).

use serde::{Deserialize, Serialize};

use crate::error::TelemetryError;
use crate::time::SimTime;

/// Anonymized user identifier (stand-in for the paper's anonymized GUID).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct UserId(pub u64);

/// The user action types analyzed in the paper (§3.2), plus a catch-all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ActionType {
    /// Click and open an email item.
    SelectMail,
    /// Click and switch mail folder.
    SwitchFolder,
    /// Search over mailbox content.
    Search,
    /// Click to send a composed email (asynchronous in the UI).
    ComposeSend,
    /// Any other action type present in the logs but not analyzed.
    Other,
}

impl ActionType {
    /// The four action types the paper's evaluation focuses on.
    pub fn analyzed() -> [ActionType; 4] {
        [
            ActionType::SelectMail,
            ActionType::SwitchFolder,
            ActionType::Search,
            ActionType::ComposeSend,
        ]
    }

    /// Stable string name (used by the codecs).
    pub fn name(self) -> &'static str {
        match self {
            ActionType::SelectMail => "SelectMail",
            ActionType::SwitchFolder => "SwitchFolder",
            ActionType::Search => "Search",
            ActionType::ComposeSend => "ComposeSend",
            ActionType::Other => "Other",
        }
    }

    /// Parse from the codec string name.
    pub fn parse(s: &str) -> Option<ActionType> {
        match s {
            "SelectMail" => Some(ActionType::SelectMail),
            "SwitchFolder" => Some(ActionType::SwitchFolder),
            "Search" => Some(ActionType::Search),
            "ComposeSend" => Some(ActionType::ComposeSend),
            "Other" => Some(ActionType::Other),
            _ => None,
        }
    }

    /// Dense code for the columnar store's `action` column.
    pub fn code(self) -> u8 {
        match self {
            ActionType::SelectMail => 0,
            ActionType::SwitchFolder => 1,
            ActionType::Search => 2,
            ActionType::ComposeSend => 3,
            ActionType::Other => 4,
        }
    }

    /// Inverse of [`ActionType::code`]. Column bytes only ever come from
    /// `code`, so an out-of-range byte is a store-corruption bug.
    pub fn from_code(code: u8) -> ActionType {
        match code {
            0 => ActionType::SelectMail,
            1 => ActionType::SwitchFolder,
            2 => ActionType::Search,
            3 => ActionType::ComposeSend,
            4 => ActionType::Other,
            _ => unreachable!("invalid ActionType code {code}"),
        }
    }
}

/// User subscription class (§3.3): paying business users vs. free consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum UserClass {
    /// Paying commercial-subscription user.
    Business,
    /// Free-tier consumer user.
    Consumer,
}

impl UserClass {
    /// Both classes, business first.
    pub fn all() -> [UserClass; 2] {
        [UserClass::Business, UserClass::Consumer]
    }

    /// Stable string name (used by the codecs).
    pub fn name(self) -> &'static str {
        match self {
            UserClass::Business => "Business",
            UserClass::Consumer => "Consumer",
        }
    }

    /// Parse from the codec string name.
    pub fn parse(s: &str) -> Option<UserClass> {
        match s {
            "Business" => Some(UserClass::Business),
            "Consumer" => Some(UserClass::Consumer),
            _ => None,
        }
    }

    /// Dense code for the columnar store's `class` column.
    pub fn code(self) -> u8 {
        match self {
            UserClass::Business => 0,
            UserClass::Consumer => 1,
        }
    }

    /// Inverse of [`UserClass::code`].
    pub fn from_code(code: u8) -> UserClass {
        match code {
            0 => UserClass::Business,
            1 => UserClass::Consumer,
            _ => unreachable!("invalid UserClass code {code}"),
        }
    }
}

/// Whether the action completed successfully. The paper's analysis uses only
/// successful actions (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Outcome {
    /// The action completed and returned a successful response.
    Success,
    /// The action returned an error.
    Error,
}

impl Outcome {
    /// Stable string name (used by the codecs).
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Success => "Success",
            Outcome::Error => "Error",
        }
    }

    /// Parse from the codec string name.
    pub fn parse(s: &str) -> Option<Outcome> {
        match s {
            "Success" => Some(Outcome::Success),
            "Error" => Some(Outcome::Error),
            _ => None,
        }
    }

    /// Dense code for the columnar store's `outcome` column.
    pub fn code(self) -> u8 {
        match self {
            Outcome::Success => 0,
            Outcome::Error => 1,
        }
    }

    /// Inverse of [`Outcome::code`].
    pub fn from_code(code: u8) -> Outcome {
        match code {
            0 => Outcome::Success,
            1 => Outcome::Error,
            _ => unreachable!("invalid Outcome code {code}"),
        }
    }
}

/// The largest record timestamp magnitude accepted, in ms: 2^40, about
/// ±34.8 years around the simulation epoch (the simulated calendar spans
/// one year). α builds one draw window per hour of a log's span, so the
/// bound caps a snapshot at about 611,000 windows however far off one
/// record's clock is.
pub const MAX_ABS_TIME_MS: i64 = 1 << 40;

/// One logged user action: the `(T, A, L, M)` tuple of the paper plus the
/// anonymized user id and outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActionRecord {
    /// Action start time, as recorded at the server.
    pub time: SimTime,
    /// What the user did.
    pub action: ActionType,
    /// Client-measured end-to-end latency, milliseconds.
    pub latency_ms: f64,
    /// Anonymized user identifier.
    pub user: UserId,
    /// Subscription class of the user (metadata `M`).
    pub class: UserClass,
    /// The user's fixed timezone offset from simulation time, in ms. Carried
    /// on the record so local-time slicing needs no side lookup table.
    pub tz_offset_ms: i64,
    /// Success or error.
    pub outcome: Outcome,
}

impl ActionRecord {
    /// Validate the semantic invariants a record must satisfy before it may
    /// enter a [`crate::log::TelemetryLog`]: finite, non-negative latency, a
    /// time within ±[`MAX_ABS_TIME_MS`] and a sane timezone offset (within
    /// ±14h like real-world offsets).
    pub fn validate(&self) -> Result<(), TelemetryError> {
        if !self.latency_ms.is_finite() || self.latency_ms < 0.0 {
            return Err(TelemetryError::InvalidRecord(format!(
                "latency must be finite and >= 0, got {}",
                self.latency_ms
            )));
        }
        if self.time.millis().unsigned_abs() > MAX_ABS_TIME_MS as u64 {
            return Err(TelemetryError::InvalidRecord(format!(
                "time {} ms outside +/-2^40 ms",
                self.time.millis()
            )));
        }
        let fourteen_hours = 14 * crate::time::MS_PER_HOUR;
        if self.tz_offset_ms.abs() > fourteen_hours {
            return Err(TelemetryError::InvalidRecord(format!(
                "timezone offset {} ms outside +/-14h",
                self.tz_offset_ms
            )));
        }
        Ok(())
    }

    /// Convenience: local hour slot for the confounder analysis.
    pub fn hour_slot(&self) -> crate::time::HourSlot {
        self.time.hour_slot_local(self.tz_offset_ms)
    }

    /// Convenience: local day period (§3.6).
    pub fn day_period(&self) -> crate::time::DayPeriod {
        self.time.day_period_local(self.tz_offset_ms)
    }

    /// Convenience: local calendar month (§3.7).
    pub fn month(&self) -> crate::time::Month {
        self.time.month_local(self.tz_offset_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{DayPeriod, Month, MS_PER_HOUR};

    fn record() -> ActionRecord {
        ActionRecord {
            time: SimTime::from_dhm(35, 10, 0), // Feb 5, 10:00
            action: ActionType::SelectMail,
            latency_ms: 312.5,
            user: UserId(17),
            class: UserClass::Business,
            tz_offset_ms: 0,
            outcome: Outcome::Success,
        }
    }

    #[test]
    fn enum_name_parse_roundtrip() {
        for a in [
            ActionType::SelectMail,
            ActionType::SwitchFolder,
            ActionType::Search,
            ActionType::ComposeSend,
            ActionType::Other,
        ] {
            assert_eq!(ActionType::parse(a.name()), Some(a));
        }
        for c in UserClass::all() {
            assert_eq!(UserClass::parse(c.name()), Some(c));
        }
        for o in [Outcome::Success, Outcome::Error] {
            assert_eq!(Outcome::parse(o.name()), Some(o));
        }
        assert_eq!(ActionType::parse("SelectEmail"), None);
        assert_eq!(UserClass::parse(""), None);
        assert_eq!(Outcome::parse("ok"), None);
    }

    #[test]
    fn analyzed_action_types_match_paper() {
        let a = ActionType::analyzed();
        assert_eq!(a.len(), 4);
        assert!(a.contains(&ActionType::SelectMail));
        assert!(a.contains(&ActionType::ComposeSend));
        assert!(!a.contains(&ActionType::Other));
    }

    #[test]
    fn validation_accepts_good_records() {
        assert!(record().validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_latency() {
        let mut r = record();
        r.latency_ms = -1.0;
        assert!(r.validate().is_err());
        r.latency_ms = f64::NAN;
        assert!(r.validate().is_err());
        r.latency_ms = f64::INFINITY;
        assert!(r.validate().is_err());
        r.latency_ms = 0.0;
        assert!(r.validate().is_ok());
    }

    #[test]
    fn validation_rejects_absurd_timezone() {
        let mut r = record();
        r.tz_offset_ms = 15 * MS_PER_HOUR;
        assert!(r.validate().is_err());
        r.tz_offset_ms = -14 * MS_PER_HOUR;
        assert!(r.validate().is_ok());
    }

    #[test]
    fn validation_rejects_far_off_times() {
        let mut r = record();
        for ok in [MAX_ABS_TIME_MS, -MAX_ABS_TIME_MS] {
            r.time = SimTime(ok);
            assert!(r.validate().is_ok(), "{ok}");
        }
        for bad in [
            MAX_ABS_TIME_MS + 1,
            -MAX_ABS_TIME_MS - 1,
            i64::MAX,
            i64::MIN,
        ] {
            r.time = SimTime(bad);
            assert!(r.validate().is_err(), "{bad}");
        }
    }

    #[test]
    fn convenience_accessors_respect_timezone() {
        let mut r = record();
        assert_eq!(r.hour_slot().0, 10);
        assert_eq!(r.day_period(), DayPeriod::Morning8to14);
        assert_eq!(r.month(), Month::Feb);
        // Shift the user 12 hours east: 10:00 becomes 22:00 local.
        r.tz_offset_ms = 12 * MS_PER_HOUR;
        assert_eq!(r.hour_slot().0, 22);
        assert_eq!(r.day_period(), DayPeriod::Evening20to2);
    }

    #[test]
    fn serde_roundtrip() {
        let r = record();
        let json = serde_json::to_string(&r).unwrap();
        let back: ActionRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
