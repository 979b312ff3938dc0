//! The `--name value` flag parser shared by the crate's binaries.

/// The value following flag `name`, if the flag is present.
pub fn opt(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Flag `name` parsed as an integer, or `default` when absent. A value
/// that does not parse exits the process with status 2.
pub fn num(args: &[String], name: &str, default: u64) -> u64 {
    opt(args, name).map_or(default, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("bad value for {name}: {v}");
            std::process::exit(2);
        })
    })
}
