//! The untraced binary: end-to-end metrics, the suite and `--agree`.

fn main() -> std::process::ExitCode {
    magma_benchmark::main(false)
}
