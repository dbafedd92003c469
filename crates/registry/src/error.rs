//! Registry error type: every rejection the loader can produce, each with an
//! actionable message (what file, what was found, what would be accepted).

use std::fmt;
use std::path::PathBuf;

/// Why a registry load, validation or resolution was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// A filesystem operation failed (missing directory, unreadable file).
    Io {
        /// The path the operation targeted.
        path: PathBuf,
        /// The underlying OS error text.
        message: String,
    },
    /// A file was not parseable into its definition type.
    Parse {
        /// The offending file.
        path: PathBuf,
        /// What the JSON/def parser reported.
        message: String,
    },
    /// A file carried a schema tag this loader does not understand.
    UnknownSchema {
        /// The offending file.
        path: PathBuf,
        /// The schema string found (or a placeholder when absent).
        found: String,
    },
    /// A file carried a `kind` outside `REGISTRY_KINDS`.
    UnknownKind {
        /// The offending file.
        path: PathBuf,
        /// The kind string found (or a placeholder when absent).
        found: String,
    },
    /// A definition parsed but failed range/consistency validation.
    Invalid {
        /// The offending file.
        path: PathBuf,
        /// The definition's `name` field.
        name: String,
        /// What was out of range or inconsistent.
        message: String,
    },
    /// A definition referenced a name that does not exist.
    DanglingRef {
        /// The file holding the reference.
        path: PathBuf,
        /// What namespace the reference points into
        /// (`"platform"` / `"mix"` / `"model"`).
        ref_kind: &'static str,
        /// The dangling name.
        reference: String,
        /// The definition doing the referencing.
        from: String,
        /// The names that *do* exist in that namespace.
        known: Vec<String>,
    },
    /// Two files defined the same `(kind, name)` pair.
    Duplicate {
        /// The definition kind.
        kind: &'static str,
        /// The colliding name.
        name: String,
        /// The second file (the one rejected).
        path: PathBuf,
        /// The file that registered the name first.
        prior: PathBuf,
    },
    /// A lookup asked for a name the registry does not hold.
    UnknownName {
        /// The definition kind looked up.
        kind: &'static str,
        /// The requested name.
        name: String,
        /// The names the registry does hold for that kind.
        known: Vec<String>,
    },
}

/// Renders a name list for error text, truncated so a 512-tenant registry
/// does not dump its whole namespace into one message.
fn known_list(known: &[String]) -> String {
    const SHOW: usize = 12;
    if known.is_empty() {
        return "none are defined".to_string();
    }
    let head: Vec<&str> = known.iter().take(SHOW).map(String::as_str).collect();
    if known.len() > SHOW {
        format!("known: {} … ({} total)", head.join(", "), known.len())
    } else {
        format!("known: {}", head.join(", "))
    }
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io { path, message } => {
                write!(f, "registry I/O error at {}: {message}", path.display())
            }
            RegistryError::Parse { path, message } => {
                write!(f, "registry parse error in {}: {message}", path.display())
            }
            RegistryError::UnknownSchema { path, found } => write!(
                f,
                "{}: unknown schema {found:?} (this loader reads {:?}; migrate the file to it)",
                path.display(),
                crate::REGISTRY_SCHEMA
            ),
            RegistryError::UnknownKind { path, found } => write!(
                f,
                "{}: unknown kind {found:?} (expected one of {:?})",
                path.display(),
                crate::REGISTRY_KINDS
            ),
            RegistryError::Invalid { path, name, message } => {
                write!(f, "{}: definition {name:?} is invalid: {message}", path.display())
            }
            RegistryError::DanglingRef { path, ref_kind, reference, from, known } => write!(
                f,
                "{}: {from:?} references {ref_kind} {reference:?}, which does not exist ({})",
                path.display(),
                known_list(known)
            ),
            RegistryError::Duplicate { kind, name, path, prior } => write!(
                f,
                "{}: duplicate {kind} {name:?} (first defined in {})",
                path.display(),
                prior.display()
            ),
            RegistryError::UnknownName { kind, name, known } => {
                write!(f, "no {kind} named {name:?} in the registry ({})", known_list(known))
            }
        }
    }
}

impl std::error::Error for RegistryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_actionable() {
        let e = RegistryError::UnknownSchema {
            path: PathBuf::from("scenarios/platforms/s1.json"),
            found: "magma-registry/v9".into(),
        };
        let text = e.to_string();
        assert!(text.contains("magma-registry/v9"), "names what was found: {text}");
        assert!(text.contains(crate::REGISTRY_SCHEMA), "names what is accepted: {text}");

        let e = RegistryError::DanglingRef {
            path: PathBuf::from("scenarios/traffic/x.json"),
            ref_kind: "platform",
            reference: "S9".into(),
            from: "x".into(),
            known: vec!["S1".into(), "S2".into()],
        };
        let text = e.to_string();
        assert!(text.contains("S9") && text.contains("S1"), "lists alternatives: {text}");
    }

    #[test]
    fn long_known_lists_are_truncated() {
        let known: Vec<String> = (0..40).map(|i| format!("m{i}")).collect();
        let e = RegistryError::UnknownName { kind: "mix", name: "zzz".into(), known };
        let text = e.to_string();
        assert!(text.contains("(40 total)"), "{text}");
        assert!(!text.contains("m30"), "tail omitted: {text}");
    }
}
