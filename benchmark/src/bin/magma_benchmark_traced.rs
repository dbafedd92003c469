//! The traced binary: per-layer metrics, with allocations counted.

#[global_allocator]
static ALLOCATOR: magma_benchmark::tracer::CountingAlloc = magma_benchmark::tracer::CountingAlloc;

fn main() -> std::process::ExitCode {
    magma_benchmark::main(true)
}
