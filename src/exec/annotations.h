#pragma once
// Annotation vocabulary for the emulated-CUDA kernel layer, consumed by the
// static analyzer `tools/lint/landau_lint.py` (build target `lint-kernels`).
//
// The emulator is plain C++, so the CUDA and Kokkos compilers that reject
// whole bug classes at build time on real hardware — barrier divergence,
// host-state capture into device lambdas, non-atomic global accumulation —
// never see this code. These macros reintroduce the host/device distinction
// as zero-cost source markers: every macro expands to nothing, and the
// analyzer keys its checks off the tokens.
//
// Vocabulary
//   LANDAU_KERNEL
//     Placed immediately before a kernel-entry lambda at an `exec::launch`
//     or `kokkos::parallel_for` call site (the lambda that would carry
//     `__global__` / KOKKOS_LAMBDA on hardware). The lambda body and every
//     LANDAU_DEVICE function it calls form a *device region*; all checks
//     apply there. Launch sites without the marker are themselves findings
//     (launch-hygiene), so coverage is self-enforcing.
//
//   LANDAU_DEVICE
//     Placed on a function callable from device regions (the `__device__`
//     qualifier). The analyzer scans these bodies with the same rules as
//     kernel lambdas.
//
//   LANDAU_HOST_ONLY
//     Placed on a class (attribute position: `class LANDAU_HOST_ONLY Foo`)
//     or function that must never be referenced from a device region — the
//     thread pool, tracers, checkpoint I/O. The analyzer collects annotated
//     names from the whole tree and flags any mention inside a device
//     region (capture check).
//
//   LANDAU_CROSS_BLOCK(registration)
//     Wraps a device-checker output registration (`chk.out(...)`) whose
//     buffer is written concurrently by multiple blocks — the CSR value
//     arrays the kernels scatter into (§III-F). Views of such buffers may
//     only be written through atomic adds or handed to a LANDAU_DEVICE
//     assembly routine; a direct subscript store in a kernel body is
//     flagged (atomics check).
//     Per-block-disjoint outputs (the batched band matrices, one per block)
//     stay unwrapped and are not policed — the dynamic checker (PR 3)
//     still validates them at runtime.
//
// Capture dialect: block-uniform `[&]` capture is *sanctioned* for kernel
// lambdas here, because a block runs to completion on one worker and the
// captured host state is read-only block-uniform data (the emulator's
// analogue of __constant__/parameter space). What the capture check forbids
// inside device regions is (a) any mention of a LANDAU_HOST_ONLY name and
// (b) declaring host containers (std::vector/string/map/...) — a per-block
// host allocation that would not compile under nvcc.

#define LANDAU_KERNEL
#define LANDAU_DEVICE
#define LANDAU_HOST_ONLY
#define LANDAU_CROSS_BLOCK(registration) registration

namespace landau::fp {

/// Sanctioned exact floating-point comparison for device code. The
/// fp-hygiene check flags raw `==`/`!=` on doubles in device regions
/// (usually a missing tolerance); routing an *intentional* bitwise compare
/// — the skip-exact-zeros sparsity test in the assembly epilogues — through
/// these names records the intent and satisfies the analyzer.
constexpr bool exact_eq(double a, double b) { return a == b; }
constexpr bool exact_ne(double a, double b) { return a != b; }

} // namespace landau::fp
