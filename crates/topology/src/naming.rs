//! Hierarchical service names.
//!
//! "The operations team names the services based on the service hierarchy.
//! … FUNNEL derives the relationship among services using the naming rules"
//! (§3.1). A [`ServiceName`] is a dotted path like `search.web.frontend`;
//! ancestry along the path encodes the organizational hierarchy, which the
//! simulator uses to wire default request relationships (a child service
//! talks to its parent and siblings unless told otherwise).

/// A dotted hierarchical service name, e.g. `search.web.frontend`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceName(String);

impl ServiceName {
    /// Parses a name. Segments must be non-empty, lowercase alphanumeric
    /// (plus `-` and `_`), separated by single dots.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated rule.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s.is_empty() {
            return Err("service name must not be empty".into());
        }
        for seg in s.split('.') {
            if seg.is_empty() {
                return Err(format!("empty segment in service name '{s}'"));
            }
            if !seg
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_')
            {
                return Err(format!("invalid character in service name segment '{seg}'"));
            }
        }
        Ok(Self(s.to_string()))
    }

    /// The full dotted name.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The path segments.
    pub fn segments(&self) -> impl Iterator<Item = &str> {
        self.0.split('.')
    }

    /// Number of segments (depth in the hierarchy).
    pub fn depth(&self) -> usize {
        self.0.split('.').count()
    }

    /// The parent name (`search.web` for `search.web.frontend`), or `None`
    /// at the root.
    pub fn parent(&self) -> Option<ServiceName> {
        self.0
            .rfind('.')
            .map(|i| ServiceName(self.0[..i].to_string()))
    }

    /// The final segment (`frontend` for `search.web.frontend`).
    pub fn leaf(&self) -> &str {
        self.0.rsplit('.').next().unwrap_or(&self.0)
    }
}

impl std::fmt::Display for ServiceName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::str::FromStr for ServiceName {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_valid_names() {
        for n in ["search", "search.web", "ads.anti-cheat.v2", "a_b.c-1"] {
            assert!(ServiceName::parse(n).is_ok(), "{n}");
        }
    }

    #[test]
    fn parse_rejects_invalid_names() {
        for n in ["", ".", "a..b", "A.b", "a b", "a.", ".a"] {
            assert!(ServiceName::parse(n).is_err(), "{n}");
        }
    }

    #[test]
    fn hierarchy_navigation() {
        let n = ServiceName::parse("search.web.frontend").unwrap();
        assert_eq!(n.depth(), 3);
        assert_eq!(n.leaf(), "frontend");
        assert_eq!(n.parent().unwrap().as_str(), "search.web");
        assert_eq!(n.parent().unwrap().parent().unwrap().as_str(), "search");
        assert_eq!(n.parent().unwrap().parent().unwrap().parent(), None);
    }
}
