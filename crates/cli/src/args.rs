//! Tiny flag parser (no external dependency).

use std::collections::HashMap;

/// Parsed `--key value` flags plus positional arguments.
pub struct Flags {
    map: HashMap<String, String>,
    /// Positional (non-flag) arguments in order.
    pub positional: Vec<String>,
}

impl Flags {
    /// Parse `argv` against the flags and the number of positional
    /// arguments a command accepts: each `value` flag takes the next
    /// argument, each `boolean` flag (`--write`) gets the value `"true"`,
    /// and any other `--key` or a positional argument past the first
    /// `positionals` is an error, so a typo fails loudly instead of
    /// running with defaults.
    pub fn parse(
        argv: &[String],
        value: &[&str],
        boolean: &[&str],
        positionals: usize,
    ) -> Result<Flags, String> {
        let mut map = HashMap::new();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(key) = a.strip_prefix("--") {
                if boolean.contains(&key) {
                    map.insert(key.to_string(), "true".to_string());
                } else if value.contains(&key) {
                    let v = argv
                        .get(i + 1)
                        .ok_or_else(|| format!("--{key} needs a value"))?;
                    map.insert(key.to_string(), v.clone());
                    i += 1;
                } else {
                    return Err(format!("unknown flag --{key}"));
                }
            } else if positional.len() < positionals {
                positional.push(a.clone());
            } else {
                return Err(format!("unexpected argument {a}"));
            }
            i += 1;
        }
        Ok(Flags { map, positional })
    }

    /// String flag with default.
    pub fn get<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.map.get(key).map(String::as_str).unwrap_or(default)
    }

    /// Parsed flag with default.
    pub fn get_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: {v}")),
        }
    }

    /// Whether a boolean flag was given.
    pub fn has(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }

    /// Raw flag value, if present (no default).
    pub fn map_get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let f = Flags::parse(&argv("file.txt --mode cod --window 8"), &["mode", "window"], &[], 1)
            .unwrap();
        assert_eq!(f.positional, vec!["file.txt"]);
        assert_eq!(f.get("mode", "source"), "cod");
        assert_eq!(f.get_parse("window", 1u32).unwrap(), 8);
        assert_eq!(f.get("missing", "dflt"), "dflt");
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let f = Flags::parse(&argv("--write --level mem"), &["level"], &["write"], 0).unwrap();
        assert!(f.has("write"));
        assert_eq!(f.get("level", "l3"), "mem");
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Flags::parse(&argv("--mode"), &["mode"], &[], 0).is_err());
    }

    #[test]
    fn bad_parse_reports_flag_name() {
        let f = Flags::parse(&argv("--window nope"), &["window"], &[], 0).unwrap();
        let e = f.get_parse("window", 1u32).unwrap_err();
        assert!(e.contains("--window"));
    }

    #[test]
    fn unknown_flags_are_errors_naming_the_flag() {
        for (line, key) in
            [("--threads 2", "--threads"), ("--mode cod --quick", "--quick"), ("--mdoe cod", "--mdoe")]
        {
            let e = Flags::parse(&argv(line), &["mode"], &[], 0).err().expect(line);
            assert_eq!(e, format!("unknown flag {key}"));
        }
    }
}
