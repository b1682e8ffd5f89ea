//! A tiny flag parser shared by the experiment binaries (no external
//! dependency needed for `--key value` pairs and boolean switches).

use std::collections::HashMap;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    /// Parse from an iterator of arguments (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {arg:?}"));
            };
            if key.is_empty() {
                return Err("empty flag name".into());
            }
            // A value follows unless the next token is another flag.
            match iter.peek() {
                Some(next) if !next.starts_with("--") => {
                    let value = iter.next().expect("peeked");
                    out.values.insert(key.to_string(), value.clone());
                    out.pairs.push((key.to_string(), value));
                }
                _ => out.flags.push(key.to_string()),
            }
        }
        Ok(out)
    }

    /// Parse from the process environment.
    pub fn from_env() -> Result<Self, String> {
        Args::parse(std::env::args().skip(1))
    }

    /// A boolean switch like `--quick`.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// A typed value like `--seed 42`, with a default.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.get_opt(name)?.unwrap_or(default))
    }

    /// A typed value like `--max-errors 5` that has no default: `None`
    /// when the flag is absent, the same error as [`Args::get`] when its
    /// value does not parse.
    pub fn get_opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.values
            .get(name)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| format!("invalid value {raw:?} for --{name}"))
            })
            .transpose()
    }

    /// An optional string value like `--json out.json`.
    ///
    /// For a repeated key this returns the last occurrence; use
    /// [`Args::get_all`] for keys that accept multiple values.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Every value given for a repeatable key like `--mrt a --mrt b`,
    /// in command-line order.
    pub fn get_all(&self, name: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn values_flags_and_defaults() {
        let a = parse("--seed 42 --quick --scale 0.5");
        assert_eq!(a.get("seed", 0u64).unwrap(), 42);
        assert_eq!(a.get("scale", 1.0f64).unwrap(), 0.5);
        assert_eq!(a.get("days", 7u32).unwrap(), 7);
        assert!(a.flag("quick"));
        assert!(!a.flag("verbose"));
    }

    #[test]
    fn trailing_flag() {
        let a = parse("--quick");
        assert!(a.flag("quick"));
    }

    #[test]
    fn string_values() {
        let a = parse("--json out.json");
        assert_eq!(a.get_str("json"), Some("out.json"));
        assert_eq!(a.get_str("csv"), None);
    }

    #[test]
    fn repeated_keys_keep_every_value() {
        let a = parse("--mrt rib.mrt --mrt updates.mrt --seed 1");
        assert_eq!(a.get_all("mrt"), vec!["rib.mrt", "updates.mrt"]);
        assert_eq!(a.get_str("mrt"), Some("updates.mrt"));
        assert!(a.get_all("json").is_empty());
    }

    #[test]
    fn optional_values() {
        let a = parse("--max-errors 5 --quiesce-after x");
        assert_eq!(a.get_opt::<u64>("max-errors").unwrap(), Some(5));
        assert_eq!(a.get_opt::<u64>("inject-flaky").unwrap(), None);
        assert_eq!(
            a.get_opt::<u64>("quiesce-after").unwrap_err(),
            "invalid value \"x\" for --quiesce-after"
        );
    }

    #[test]
    fn errors() {
        assert!(Args::parse(vec!["positional".to_string()]).is_err());
        let a = parse("--seed abc");
        assert!(a.get("seed", 0u64).is_err());
    }
}
