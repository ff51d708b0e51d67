//! Message-kind tagging for per-protocol metrics.

/// Classifies a message under a short static label (e.g. `"rb/echo"`,
/// `"mw/share"`). The simulator aggregates sent-message and sent-byte
/// counters per kind, which is how experiment E4 breaks communication down
/// by primitive.
pub trait Kinded {
    /// A short static label identifying the message's protocol and step.
    fn kind(&self) -> &'static str;
}

/// The raw message of the runtime unit tests (see the `codec` module).
impl Kinded for u64 {
    fn kind(&self) -> &'static str {
        "raw"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_kinds() {
        assert_eq!(5u64.kind(), "raw");
    }
}
