//! The declared flag tables of `nwsim` and `reproduce`, in process:
//! the tables are well formed, every documented or CI command line
//! parses under them, and seeded mutations of command lines end in a
//! parse or a usage error, never a panic.

use nw_bench::cli::{Cli, Slot};
use nw_bench::{NWSIM, REPRODUCE};
use nw_sim::Pcg32;

fn clis() -> [&'static Cli; 2] {
    [&NWSIM, &REPRODUCE]
}

#[test]
fn tables_are_well_formed() {
    for cli in clis() {
        for (i, verb) in cli.verbs.iter().enumerate() {
            assert!(
                cli.verbs[..i].iter().all(|v| v.name != verb.name),
                "{} {}: declared twice",
                cli.prog,
                verb.name
            );
            for entry in verb.flags.iter().flat_map(|group| group.iter()) {
                let words: Vec<&str> = entry.split(' ').collect();
                assert!(
                    entry.starts_with("--") && words.len() <= 2 && words.iter().all(|w| !w.is_empty()),
                    "{} {}: malformed flag entry '{entry}'",
                    cli.prog,
                    verb.name
                );
            }
            let names: Vec<&str> = verb.all_flags().map(|(name, _)| name).collect();
            for (j, name) in names.iter().enumerate() {
                assert!(!names[..j].contains(name), "{} {}: {name} twice", cli.prog, verb.name);
            }
        }
    }
}

/// Replace `${{ … }}`, `${VAR}` and `$VAR` with `1`, which every
/// flag value accepts.
fn substitute(line: &str) -> String {
    let mut out = String::new();
    let mut rest = line;
    while let Some(at) = rest.find('$') {
        out.push_str(&rest[..at]);
        let tail = &rest[at + 1..];
        let skip = if let Some(expr) = tail.strip_prefix("{{") {
            expr.find("}}").map_or(tail.len(), |end| end + 4)
        } else if let Some(var) = tail.strip_prefix('{') {
            var.find('}').map_or(tail.len(), |end| end + 2)
        } else {
            tail.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).unwrap_or(tail.len())
        };
        out.push('1');
        rest = &tail[skip..];
    }
    out + rest
}

/// Shell words up to the first unquoted redirection (`>`, `2>`),
/// pipe, `&`, `;` or comment, with quotes removed.
fn shell_words(line: &str) -> Vec<String> {
    let mut words = Vec::new();
    let mut word: Option<String> = None;
    let mut quote = None;
    for c in line.chars() {
        match (quote, c) {
            (Some(q), c) if c == q => quote = None,
            (Some(_), c) => word.get_or_insert_with(String::new).push(c),
            (None, '"' | '\'') => {
                quote = Some(c);
                word.get_or_insert_with(String::new);
            }
            (None, c) if c.is_whitespace() => words.extend(word.take()),
            (None, '>') if word.as_deref() == Some("2") => return words,
            (None, '>' | '|' | '&' | ';') => break,
            (None, '#') if word.is_none() => break,
            (None, c) => word.get_or_insert_with(String::new).push(c),
        }
    }
    words.extend(word);
    words
}

/// Logical lines: `\` continuations joined, and a YAML `key: >` fold
/// joined into one line.
fn logical_lines(text: &str) -> Vec<String> {
    let indent = |l: &str| l.len() - l.trim_start().len();
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i].trim_end();
        i += 1;
        let mut joined = line.to_string();
        if line.ends_with(": >") {
            joined.clear();
            while i < lines.len() && (lines[i].trim().is_empty() || indent(lines[i]) > indent(line))
            {
                joined = joined + " " + lines[i].trim();
                i += 1;
            }
        }
        while joined.ends_with('\\') && i < lines.len() {
            joined.pop();
            joined = joined + " " + lines[i].trim();
            i += 1;
        }
        out.push(joined);
    }
    out
}

/// Every `nwsim`/`reproduce` command line in `text`, as the binary and
/// its argv.
fn documented_commands(text: &str) -> Vec<(&'static Cli, Vec<String>)> {
    let mut found = Vec::new();
    for line in logical_lines(text) {
        let line = substitute(&line);
        for cli in clis() {
            for marker in [format!("--bin {} --", cli.prog), format!("target/release/{} ", cli.prog)]
            {
                if let Some(at) = line.find(&marker) {
                    found.push((cli, shell_words(&line[at + marker.len()..])));
                }
            }
        }
    }
    found
}

#[test]
fn documented_and_ci_command_lines_parse() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for (doc, at_least) in [
        ("README.md", 37),
        ("EXPERIMENTS.md", 10),
        (".github/workflows/ci.yml", 35),
    ] {
        let text = std::fs::read_to_string(format!("{root}/{doc}")).expect(doc);
        let commands = documented_commands(&text);
        assert!(commands.len() >= at_least, "{doc}: only {} commands found", commands.len());
        for (cli, argv) in commands {
            if let Err(u) = cli.parse(&argv) {
                panic!("{doc}: `{} {}` does not parse:\n{u}", cli.prog, argv.join(" "));
            }
        }
    }
}

#[test]
fn extraction_handles_folds_quotes_and_redirections() {
    let yaml = "      - name: x\n        run: >\n          cargo run --bin nwsim --\n          \
                compare --app \"a b;c\" --jobs ${{ matrix.jobs }}\n          --scale 0.1 > out.json\n      \
                - name: y\n        run: |\n          ./target/release/nwsim client run \\\n            \
                --addr \"$ADDR\" 2>log &\n";
    let got: Vec<Vec<String>> = documented_commands(yaml).into_iter().map(|(_, a)| a).collect();
    let want: [&[&str]; 2] = [
        &["compare", "--app", "a b;c", "--jobs", "1", "--scale", "0.1"],
        &["client", "run", "--addr", "1"],
    ];
    assert_eq!(got, want);
}

/// Words the mutation loop draws from: every verb word, flag name and
/// slot choice of `cli`, plus values and junk.
fn vocabulary(cli: &Cli) -> Vec<String> {
    let mut words: Vec<String> = [
        "0", "1", "-1", "2.0", "0.25", "NaN", "inf", "18446744073709551616", "", "-", "--",
        "--help", "--sim-threads", "--bogus", "sor", "a:b:c", "sor:nwc:naive", "é",
    ]
    .map(String::from)
    .to_vec();
    for verb in cli.verbs {
        words.extend(verb.name.split_whitespace().map(String::from));
        words.extend(verb.all_flags().map(|(name, _)| name.to_string()));
        for slot in verb.slots {
            if let Slot::Many(_, choices) = slot {
                words.extend(choices.iter().map(|c| c.to_string()));
            }
        }
    }
    words
}

/// Mutation `case`: a well-formed command line for a random verb,
/// then truncations, repeats, insertions, deletions and swaps.
fn mutated(cli: &Cli, vocab: &[String], case: u64) -> Vec<String> {
    let mut rng = Pcg32::new(17, case);
    let mut below = |n: usize| rng.gen_below(n.max(1) as u32) as usize;
    let verb = &cli.verbs[below(cli.verbs.len())];
    let mut argv: Vec<String> = verb.name.split_whitespace().map(String::from).collect();
    let flags: Vec<_> = verb.all_flags().collect();
    for _ in 0..below(5) {
        if let Some((name, metavar)) = flags.get(below(flags.len())) {
            argv.push(name.to_string());
            if metavar.is_some() {
                argv.push(vocab[below(vocab.len())].clone());
            }
        }
    }
    for _ in 0..verb.slots.len() + below(2) {
        argv.push(vocab[below(vocab.len())].clone());
    }
    for _ in 0..below(4) {
        let at = below(argv.len() + 1);
        match below(5) {
            0 => argv.truncate(at),
            1 if !argv.is_empty() => {
                let word = argv[below(argv.len())].clone();
                argv.insert(at, word);
            }
            2 => argv.insert(at, vocab[below(vocab.len())].clone()),
            3 if at < argv.len() => {
                argv.remove(at);
            }
            _ if at < argv.len() => {
                let other = below(argv.len());
                argv.swap(at, other);
            }
            _ => {}
        }
    }
    argv
}

#[test]
fn seeded_mutations_parse_or_fail_with_usage() {
    for cli in clis() {
        let vocab = vocabulary(cli);
        let (mut parsed, mut rejected) = (0, 0);
        for case in 0..4000 {
            let argv = mutated(cli, &vocab, case);
            match cli.parse(&argv) {
                Ok(p) => {
                    parsed += 1;
                    let names: Vec<&str> = p.flag_names().collect();
                    for (i, name) in names.iter().enumerate() {
                        assert!(
                            p.verb.all_flags().any(|(declared, _)| declared == *name),
                            "{argv:?}: undeclared {name}"
                        );
                        assert!(!names[..i].contains(name), "{argv:?}: {name} twice");
                    }
                    // The typed getters reject, never panic.
                    for (name, _) in p.verb.all_flags() {
                        let _ = p.value::<f64>(name);
                        let _ = p.positive::<u64>(name);
                    }
                }
                Err(usage) => {
                    rejected += 1;
                    assert!(usage.to_string().starts_with(cli.prog), "{argv:?}: {usage}");
                }
            }
        }
        // Both outcomes are exercised, so the loop tests something.
        assert!(parsed > 200 && rejected > 200, "{}: {parsed} ok, {rejected} usage", cli.prog);
    }
}
