//! Minimal flag parsing: `--key value` pairs and positional arguments.

use std::collections::HashMap;

/// Parsed command line: positionals in order, flags as a map.
#[derive(Debug, Default)]
pub struct Parsed {
    pub positional: Vec<String>,
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

/// Splits `argv` into positionals, `--key value` flags and bare `--switch`
/// toggles (a `--key` followed by another `--…` or nothing is a switch).
pub fn parse(argv: &[String]) -> Parsed {
    let mut out = Parsed::default();
    let mut i = 0;
    while i < argv.len() {
        let a = &argv[i];
        if let Some(key) = a.strip_prefix("--") {
            let next_is_value = argv.get(i + 1).is_some_and(|n| !n.starts_with("--"));
            if next_is_value {
                out.flags.insert(key.to_string(), argv[i + 1].clone());
                i += 2;
            } else {
                out.switches.push(key.to_string());
                i += 1;
            }
        } else {
            out.positional.push(a.clone());
            i += 1;
        }
    }
    out
}

impl Parsed {
    /// String flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Float flag.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn get_f64(&self, key: &str) -> Result<Option<f64>, String> {
        match self.flags.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key} expects a number, got {v:?}")),
        }
    }

    /// Integer flag.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn get_usize(&self, key: &str) -> Result<Option<usize>, String> {
        match self.flags.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key} expects an integer, got {v:?}")),
        }
    }

    /// Bare switch presence (`--absolute`).
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Rejects every `--key` outside `known`, the whitespace-separated
    /// keys `lubt <cmd>` reads, so a misspelled or retired flag fails
    /// loudly instead of being ignored. Names the alphabetically first
    /// stray key.
    ///
    /// # Errors
    ///
    /// Returns `unknown flag --<key> for lubt <cmd>`.
    pub fn check_keys(&self, cmd: &str, known: &str) -> Result<(), String> {
        let stray = self
            .flags
            .keys()
            .chain(&self.switches)
            .filter(|key| !known.split_whitespace().any(|k| k == key.as_str()))
            .min();
        match stray {
            Some(key) => Err(format!("unknown flag --{key} for lubt {cmd}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn mixed_parse() {
        let p = parse(&argv("solve file.pts --lower 0.9 --absolute --upper 1.3"));
        assert_eq!(p.positional, vec!["solve", "file.pts"]);
        assert_eq!(p.get_f64("lower").unwrap(), Some(0.9));
        assert_eq!(p.get_f64("upper").unwrap(), Some(1.3));
        assert!(p.has("absolute"));
        assert!(!p.has("svg"));
        assert_eq!(p.get("missing"), None);
    }

    #[test]
    fn bad_numbers_error() {
        let p = parse(&argv("--lower abc"));
        assert!(p.get_f64("lower").is_err());
        let p = parse(&argv("--sinks 1.5"));
        assert!(p.get_usize("sinks").is_err());
    }

    #[test]
    fn keys_outside_the_command_list_are_rejected() {
        let p = parse(&argv(
            "solve f.pts --upper 1.4 --absolute --lp-backnd dp --bogus",
        ));
        assert!(p
            .check_keys("solve", "upper absolute lp-backnd bogus")
            .is_ok());
        assert_eq!(
            p.check_keys("solve", "upper absolute"),
            Err("unknown flag --bogus for lubt solve".to_string())
        );
        assert_eq!(
            p.check_keys("solve", "upper bogus lp-backnd"),
            Err("unknown flag --absolute for lubt solve".to_string())
        );
    }

    #[test]
    fn trailing_switch() {
        let p = parse(&argv("gen prim1 --absolute"));
        assert!(p.has("absolute"));
        assert_eq!(p.positional, vec!["gen", "prim1"]);
    }
}
