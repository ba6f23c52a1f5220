//! Minimal flag parsing (no external dependencies): positionals plus
//! `--key value` pairs.

use std::collections::BTreeMap;

/// Parsed command line: positional arguments and `--key value` flags.
#[derive(Debug, Default, Clone)]
pub struct Args {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    /// Parses raw arguments (exclusive of the program name).
    pub fn parse(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = raw.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let val = match it.peek() {
                    Some(v) if !v.starts_with("--") => it.next().unwrap(),
                    _ => return Err(format!("flag --{key} needs a value")),
                };
                if out.flags.insert(key.to_string(), val).is_some() {
                    return Err(format!("flag --{key} given twice"));
                }
            } else {
                out.positional.push(a);
            }
        }
        Ok(out)
    }

    /// String flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Parsed flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: {v}")),
        }
    }

    /// Required string flag.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// Rejects the first flag (in name order) that appears in none of
    /// the `known` lists, so a typo or a flag `cmd` never reads fails
    /// instead of being silently ignored.
    pub fn reject_unknown(&self, cmd: &str, known: &[&[&str]]) -> Result<(), String> {
        match self.flags.keys().find(|k| !known.iter().any(|list| list.contains(&k.as_str()))) {
            Some(k) => Err(format!("unknown flag --{k} for {cmd}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<Args, String> {
        Args::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn positionals_and_flags() {
        let a = parse(&["gen", "lab", "--seed", "7", "--out", "x.csv"]).unwrap();
        assert_eq!(a.positional, vec!["gen", "lab"]);
        assert_eq!(a.get("out"), Some("x.csv"));
        assert_eq!(a.get_or("seed", 0u64).unwrap(), 7);
        assert_eq!(a.get_or("epochs", 123usize).unwrap(), 123);
    }

    #[test]
    fn errors() {
        assert!(parse(&["--flag"]).is_err());
        assert!(parse(&["--a", "1", "--a", "2"]).is_err());
        assert!(parse(&["--n", "x"]).unwrap().get_or("n", 1usize).is_err());
        assert!(parse(&[]).unwrap().require("out").is_err());
        let a = parse(&["--query", "x", "--threads", "2"]).unwrap();
        assert_eq!(
            a.reject_unknown("plan", &[&["query"]]),
            Err("unknown flag --threads for plan".into())
        );
        assert_eq!(a.reject_unknown("plan", &[&["query"], &["threads"]]), Ok(()));
    }

    #[test]
    fn flag_followed_by_flag_is_an_error() {
        assert!(parse(&["--a", "--b", "1"]).is_err());
    }
}
