//! Tenant identity: one `service × region` pair owns one streaming engine.

use serde::{Deserialize, Serialize};

use crate::error::ServeError;

/// Maximum label length accepted on the wire (services and regions are
/// short operational names, not payloads).
pub const MAX_LABEL_LEN: usize = 128;

/// The routing key of one tenant.
///
/// Labels are restricted to `[A-Za-z0-9._-]` so a key is safe to embed in
/// checkpoint file names, HTTP paths, and metric labels without escaping.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TenantKey {
    /// The service whose telemetry this is.
    pub service: String,
    /// The region (or deployment) the telemetry came from.
    pub region: String,
}

/// Whether a label is acceptable in a tenant key.
pub fn valid_label(label: &str) -> bool {
    !label.is_empty()
        && label.len() <= MAX_LABEL_LEN
        && label
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

impl TenantKey {
    /// Build a validated key.
    pub fn new(service: impl Into<String>, region: impl Into<String>) -> Result<Self, ServeError> {
        let key = TenantKey {
            service: service.into(),
            region: region.into(),
        };
        key.validate()?;
        Ok(key)
    }

    /// Reject empty or path/metric-unsafe labels.
    pub fn validate(&self) -> Result<(), ServeError> {
        for (what, label) in [("service", &self.service), ("region", &self.region)] {
            if !valid_label(label) {
                return Err(ServeError::BadTenant(format!(
                    "{what} {label:?} must be 1..={MAX_LABEL_LEN} chars of [A-Za-z0-9._-]"
                )));
            }
        }
        Ok(())
    }

    /// The `service/region` display form (also the HTTP path form).
    pub fn label(&self) -> String {
        format!("{}/{}", self.service, self.region)
    }

    /// The checkpoint file stem, `service+region`. `+` is outside the
    /// label alphabet, so distinct keys never share a file.
    pub fn file_stem(&self) -> String {
        format!("{}+{}", self.service, self.region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_labels() {
        assert!(TenantKey::new("mail", "eu-west1").is_ok());
        assert!(TenantKey::new("svc.a_b-c", "r0").is_ok());
        assert!(TenantKey::new("", "r").is_err());
        assert!(TenantKey::new("a/b", "r").is_err());
        assert!(TenantKey::new("a b", "r").is_err());
        assert!(TenantKey::new("a".repeat(MAX_LABEL_LEN + 1), "r").is_err());
    }

    #[test]
    fn label_forms() {
        let k = TenantKey::new("mail", "eu").unwrap();
        assert_eq!(k.label(), "mail/eu");
        assert_eq!(k.file_stem(), "mail+eu");
    }
}
