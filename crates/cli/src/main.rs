//! The `gpuflow` command-line tool.

use std::io::Write;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match gpuflow_cli::Command::parse(&argv) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", gpuflow_cli::USAGE);
            std::process::exit(1);
        }
    };
    let is_check = matches!(cmd, gpuflow_cli::Command::Check { .. });
    let (out, code) = match gpuflow_cli::execute(&cmd) {
        Ok(out) => (out, 0),
        // A failed `check` carries its diagnostic report as the error;
        // print it verbatim (no usage noise) and exit nonzero. Warnings
        // and notes come back as success — only errors fail the command.
        Err(report) if is_check && report.contains('\n') => (report, 1),
        Err(e) => {
            eprintln!("error: {e}\n\n{}", gpuflow_cli::USAGE);
            std::process::exit(1);
        }
    };
    // A reader that went away (`gpuflow … | head`) fails the command.
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout
        .write_all(out.as_bytes())
        .and_then(|()| stdout.flush())
    {
        eprintln!("error: writing output: {e}");
        std::process::exit(1);
    }
    std::process::exit(code);
}
