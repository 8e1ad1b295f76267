//! One declared flag table per binary, and the one parser that reads it.
//!
//! A [`Cli`] lists its verbs; a [`Verb`] lists its positional slots and
//! the groups of flags it reads. [`Cli::parse`] picks the verb from the
//! leading words, then checks every other word against that verb's
//! entry: an undeclared flag (`--help` included), a repeated flag, a
//! value flag with no value, and a missing or extra positional word are
//! [`Usage`] errors. The typed getters on [`Parsed`] make a value that
//! does not parse, or is out of range, one too. A [`Usage`] reads
//! `prog verb: reason` and then the verb's synopsis, generated from the
//! table; it exits with [`ExitCode::Validation`] (2).

use nwcache::ExitCode;
use std::fmt;
use std::str::FromStr;

/// A flag entry: `"--name METAVAR"`, or `"--name"` for a boolean flag.
pub type Flag = &'static str;

/// A group of flags several verbs share.
pub type Group = &'static [Flag];

/// A positional slot of a verb.
#[derive(Debug)]
pub enum Slot {
    /// Exactly one word.
    One(&'static str),
    /// At most one word.
    Opt(&'static str),
    /// Any number of words, each one of the choices.
    Many(&'static str, &'static [&'static str]),
}

/// A verb: its name (one or two words, or empty for a binary with a
/// single verb), its positional slots and its flag groups.
#[derive(Debug)]
pub struct Verb {
    pub name: &'static str,
    pub slots: &'static [Slot],
    pub flags: &'static [Group],
}

impl Verb {
    pub const fn new(name: &'static str, slots: &'static [Slot], flags: &'static [Group]) -> Verb {
        Verb { name, slots, flags }
    }

    /// Every flag the verb declares, as its name and metavar.
    pub fn all_flags(&self) -> impl Iterator<Item = (&'static str, Option<&'static str>)> {
        self.flags.iter().flat_map(|group| group.iter()).map(|f| match f.split_once(' ') {
            Some((name, metavar)) => (name, Some(metavar)),
            None => (*f, None),
        })
    }

    fn words(&self) -> impl Iterator<Item = &'static str> {
        self.name.split_whitespace()
    }

    fn check_slots(&self, args: &[String]) -> Result<(), String> {
        let mut rest = args;
        for slot in self.slots {
            match *slot {
                Slot::One(name) => rest = rest.split_first().ok_or(format!("missing {name}"))?.1,
                Slot::Opt(_) => rest = rest.get(1..).unwrap_or_default(),
                Slot::Many(name, choices) => {
                    if let Some(bad) = rest.iter().find(|a| !choices.contains(&a.as_str())) {
                        return Err(format!("unknown {name} '{bad}'"));
                    }
                    rest = &[];
                }
            }
        }
        rest.first().map_or(Ok(()), |extra| Err(format!("unexpected argument '{extra}'")))
    }

    /// `  prog verb SLOTS [--flag METAVAR]...`, one line.
    fn synopsis(&self, prog: &'static str) -> String {
        let slots = self.slots.iter().map(|slot| match *slot {
            Slot::One(name) => name.to_string(),
            Slot::Opt(name) => format!("[{name}]"),
            Slot::Many(_, choices) => format!("[{}]...", choices.join("|")),
        });
        let flags = self.flags.iter().flat_map(|group| group.iter()).map(|f| format!("[{f}]"));
        let head = [prog].into_iter().chain(self.words()).map(String::from);
        let words: Vec<String> = head.chain(slots).chain(flags).collect();
        format!("  {}\n", words.join(" "))
    }
}

/// A binary's verb table.
#[derive(Debug)]
pub struct Cli {
    pub prog: &'static str,
    pub verbs: &'static [Verb],
}

impl Cli {
    /// Match `argv` (without the program name) against the table.
    pub fn parse(&'static self, argv: &[String]) -> Result<Parsed, Usage> {
        let verb = self
            .verbs
            .iter()
            .filter(|v| v.words().count() <= argv.len() && v.words().zip(argv).all(|(w, a)| w == a))
            .max_by_key(|v| v.words().count())
            .ok_or_else(|| self.unknown_verb(argv))?;
        let mut p = Parsed { prog: self.prog, verb, args: Vec::new(), flags: Vec::new() };
        let mut rest = argv[verb.words().count()..].iter();
        while let Some(word) = rest.next() {
            if !word.starts_with("--") {
                p.args.push(word.clone());
                continue;
            }
            let Some((name, metavar)) = verb.all_flags().find(|(name, _)| name == word) else {
                return Err(p.usage(if word == "--sim-threads" {
                    "--sim-threads was removed: each simulation runs on one serial event loop; \
                     `nwsim compare` and `reproduce` take --jobs N to run independent \
                     simulations in parallel"
                        .to_string()
                } else {
                    format!("unknown flag '{word}'")
                }));
            };
            if p.has(name) {
                return Err(p.usage(format!("flag {word} given twice")));
            }
            let value = match metavar {
                None => None,
                Some(_) => match rest.next() {
                    Some(v) if !v.starts_with("--") => Some(v.clone()),
                    _ => return Err(p.usage(format!("flag {word} needs a value"))),
                },
            };
            p.flags.push((name, value));
        }
        verb.check_slots(&p.args).map_err(|reason| p.usage(reason))?;
        Ok(p)
    }

    /// No verb matches: name the leading words and show every verb.
    fn unknown_verb(&self, argv: &[String]) -> Usage {
        let words: Vec<&str> =
            argv.iter().map(String::as_str).take_while(|a| !a.starts_with("--")).take(2).collect();
        let reason = match (words.is_empty(), argv.first()) {
            (_, None) => "missing command".to_string(),
            (true, Some(flag)) => format!("unknown command '{flag}'"),
            (false, _) => format!("unknown command '{}'", words.join(" ")),
        };
        let synopses: String = self.verbs.iter().map(|v| v.synopsis(self.prog)).collect();
        Usage(format!("{}: {reason}\nusage:\n{synopses}", self.prog))
    }
}

/// A command line that matched its verb's entry.
#[derive(Debug)]
pub struct Parsed {
    prog: &'static str,
    pub verb: &'static Verb,
    args: Vec<String>,
    flags: Vec<(&'static str, Option<String>)>,
}

impl Parsed {
    /// The positional words.
    pub fn args(&self) -> &[String] {
        &self.args
    }

    /// The names of the flags given, in order.
    pub fn flag_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.flags.iter().map(|(name, _)| *name)
    }

    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }

    /// The value of flag `name`, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(n, _)| *n == name)?.1.as_deref()
    }

    /// The value of a flag the verb cannot do without.
    pub fn require(&self, name: &str) -> Result<&str, Usage> {
        self.get(name).ok_or_else(|| self.usage(format!("needs {name}")))
    }

    /// The value of flag `name` as a `T`.
    pub fn value<T: FromStr>(&self, name: &str) -> Result<Option<T>, Usage> {
        self.get(name)
            .map(|v| v.parse().map_err(|_| self.usage(format!("bad {name} '{v}'"))))
            .transpose()
    }

    /// [`Parsed::value`] for a count that must not be zero.
    pub fn positive<T: FromStr + Default + PartialEq>(&self, name: &str) -> Result<Option<T>, Usage> {
        match self.value::<T>(name)? {
            Some(v) if v == T::default() => Err(self.usage(format!("{name} must be positive"))),
            v => Ok(v),
        }
    }

    /// A usage error of this verb.
    pub fn usage(&self, reason: impl fmt::Display) -> Usage {
        let head = [self.prog, self.verb.name].join(" ");
        Usage(format!("{}: {reason}\nusage:\n{}", head.trim_end(), self.verb.synopsis(self.prog)))
    }
}

/// A rejected command line: `prog verb: reason`, then the synopsis.
#[derive(Debug)]
pub struct Usage(String);

impl Usage {
    /// Print to stderr and exit with [`ExitCode::Validation`].
    pub fn exit(&self) -> ! {
        eprint!("{}", self.0);
        std::process::exit(ExitCode::Validation.code())
    }
}

impl fmt::Display for Usage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}
