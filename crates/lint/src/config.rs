//! `lint.toml` — the checked-in linter configuration.
//!
//! The registry is offline, so this is a hand-rolled parser for the small
//! TOML subset the config needs: `[section]` headers, `key = "string"`,
//! `key = ["array", "of", "strings"]`, comments, and blank lines. Anything
//! else is a hard error — better to reject than to silently mis-read a
//! determinism policy.

use crate::rules::Rule;
use std::collections::BTreeMap;

/// Parsed `lint.toml`.
#[derive(Debug, Clone)]
pub struct Config {
    /// Directories (relative to the workspace root) to scan.
    pub roots: Vec<String>,
    /// Path prefixes to skip entirely.
    pub exclude: Vec<String>,
    /// Crate names each rule applies to; an empty list means "everywhere".
    pub rule_crates: BTreeMap<Rule, Vec<String>>,
    /// Crate names exempt from each rule.
    pub rule_exempt: BTreeMap<Rule, Vec<String>>,
}

/// A `lint.toml` syntax or semantics error.
#[derive(Debug, Clone)]
pub struct ConfigError {
    /// 1-based line in `lint.toml`.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Parses the `lint.toml` text.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] on unknown sections/keys or malformed
    /// syntax — a determinism policy must never be half-read.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config {
            roots: Vec::new(),
            exclude: Vec::new(),
            rule_crates: BTreeMap::new(),
            rule_exempt: BTreeMap::new(),
        };
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let name = header.strip_suffix(']').ok_or_else(|| ConfigError {
                    line: lineno,
                    message: "unclosed section header".into(),
                })?;
                section = name.trim().to_string();
                let valid = section == "scan"
                    || section
                        .strip_prefix("rules.")
                        .is_some_and(|r| Rule::parse(r).is_some());
                if !valid {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unknown section `[{section}]`"),
                    });
                }
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| ConfigError {
                line: lineno,
                message: "expected `key = value`".into(),
            })?;
            let key = key.trim();
            let values = parse_value(value.trim()).map_err(|message| ConfigError {
                line: lineno,
                message,
            })?;
            match (section.as_str(), key) {
                ("scan", "roots") => cfg.roots = values,
                ("scan", "exclude") => cfg.exclude = values,
                (s, k) => {
                    let rule = s
                        .strip_prefix("rules.")
                        .and_then(Rule::parse)
                        .ok_or_else(|| ConfigError {
                            line: lineno,
                            message: format!("key `{k}` outside a known section"),
                        })?;
                    match k {
                        "crates" => {
                            cfg.rule_crates.insert(rule, values);
                        }
                        "exempt-crates" => {
                            cfg.rule_exempt.insert(rule, values);
                        }
                        other => {
                            return Err(ConfigError {
                                line: lineno,
                                message: format!("unknown key `{other}` in `[{s}]`"),
                            });
                        }
                    }
                }
            }
        }
        if cfg.roots.is_empty() {
            return Err(ConfigError {
                line: 0,
                message: "`[scan] roots` must list at least one directory".into(),
            });
        }
        Ok(cfg)
    }

    /// Whether `rule` applies to the crate named `crate_name`.
    #[must_use]
    pub fn rule_applies(&self, rule: Rule, crate_name: &str) -> bool {
        if self
            .rule_exempt
            .get(&rule)
            .is_some_and(|ex| ex.iter().any(|c| c == crate_name))
        {
            return false;
        }
        match self.rule_crates.get(&rule) {
            None => true,
            Some(list) if list.is_empty() => true,
            Some(list) => list.iter().any(|c| c == crate_name),
        }
    }

    /// The rules that apply to `crate_name`, in R1..R8 order.
    #[must_use]
    pub fn rules_for(&self, crate_name: &str) -> Vec<Rule> {
        Rule::ALL
            .into_iter()
            .filter(|&r| self.rule_applies(r, crate_name))
            .collect()
    }
}

fn strip_comment(line: &str) -> &str {
    // No escapes needed: our values never contain `#`.
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

fn parse_value(value: &str) -> Result<Vec<String>, String> {
    if let Some(body) = value.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| "unclosed array".to_string())?;
        body.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(unquote)
            .collect()
    } else {
        Ok(vec![unquote(value)?])
    }
}

fn unquote(s: &str) -> Result<String, String> {
    s.strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .map(String::from)
        .ok_or_else(|| format!("expected a quoted string, got `{s}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# rom-lint policy
[scan]
roots = ["crates", "src"]
exclude = ["crates/lint/fixtures"]

[rules.unordered-collections]
crates = ["sim", "engine"]

[rules.ambient-entropy]
exempt-crates = ["bench"]

[rules.panic-sites]
crates = ["rost"]
"#;

    #[test]
    fn parses_the_full_shape() {
        let cfg = Config::parse(SAMPLE).unwrap();
        assert_eq!(cfg.roots, vec!["crates", "src"]);
        assert_eq!(cfg.exclude, vec!["crates/lint/fixtures"]);
        assert!(cfg.rule_applies(Rule::UnorderedCollections, "sim"));
        assert!(!cfg.rule_applies(Rule::UnorderedCollections, "net"));
        assert!(!cfg.rule_applies(Rule::AmbientEntropy, "bench"));
        assert!(cfg.rule_applies(Rule::AmbientEntropy, "rost"));
        assert!(cfg.rule_applies(Rule::FloatCompare, "anything"));
    }

    #[test]
    fn unknown_sections_and_keys_are_rejected() {
        assert!(Config::parse("[surprise]\n").is_err());
        assert!(Config::parse("[rules.not-a-rule]\n").is_err());
        assert!(Config::parse("[scan]\nroots = [\"a\"]\nbogus = \"x\"\n").is_err());
        assert!(Config::parse("[scan]\nroots = \"unquoted\n").is_err());
    }

    #[test]
    fn empty_roots_rejected() {
        assert!(Config::parse("[scan]\nexclude = []\n").is_err());
    }

    #[test]
    fn checked_in_policy_matches_workspace_policy() {
        let cfg = Config::parse(include_str!("../../../lint.toml")).expect("lint.toml parses");
        for c in ["sim", "obs", "engine", "rost", "cer", "overlay", "chaos"] {
            assert!(cfg.rule_applies(Rule::UnorderedCollections, c));
        }
        assert!(!cfg.rule_applies(Rule::UnorderedCollections, "net"));
        for c in ["rost", "cer"] {
            assert!(cfg.rule_applies(Rule::PanicSites, c));
        }
        assert!(!cfg.rule_applies(Rule::PanicSites, "engine"));
        assert!(!cfg.rule_applies(Rule::AmbientEntropy, "bench"));
        for c in ["overlay", "rost", "cer", "engine", "chaos"] {
            assert!(cfg.rule_applies(Rule::StaleArenaIndex, c));
        }
        assert!(!cfg.rule_applies(Rule::StaleArenaIndex, "net"));
        for c in ["sim", "engine", "rost", "cer", "chaos", "overlay"] {
            assert!(cfg.rule_applies(Rule::SendHostileState, c));
        }
        assert!(!cfg.rule_applies(Rule::SendHostileState, "net"));
        assert!(!cfg.rule_applies(Rule::RngForkDiscipline, "sim"));
        assert!(!cfg.rule_applies(Rule::RngForkDiscipline, "bench"));
        assert!(cfg.rule_applies(Rule::RngForkDiscipline, "engine"));
        assert!(!cfg.rule_applies(Rule::WallClockDiscipline, "bench"));
        for c in ["sim", "obs", "engine", "rost", "cer", "overlay", "chaos"] {
            assert!(cfg.rule_applies(Rule::WallClockDiscipline, c));
        }
    }
}
