// Simulation engine configuration: the seed and the per-process fiber stack
// size (docs/SIMCORE.md).
#pragma once

#include <cstddef>
#include <cstdint>

// Compile-time AddressSanitizer detection (GCC defines __SANITIZE_ADDRESS__,
// clang answers __has_feature). Shared by the fiber switch annotations in
// sim/fiber.cpp and the stack sizing below.
#if defined(__SANITIZE_ADDRESS__)
#define CLOUDS_SIM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CLOUDS_SIM_ASAN 1
#endif
#endif
#ifndef CLOUDS_SIM_ASAN
#define CLOUDS_SIM_ASAN 0
#endif

namespace clouds::sim {

struct SimConfig {
  std::uint64_t seed = 1;
  // Stack reserved per fiber (virtual memory; pages commit lazily, so idle
  // fibers cost a few KiB of RSS). A guard region below the stack turns
  // overflow into a deterministic fault instead of silent corruption.
  // ASan builds get 8x: redzones between locals inflate every frame ~3-4x,
  // and the deepest invocation chains (nested object invocations over DSM
  // during crash recovery) genuinely overflow 1 MiB under instrumentation.
  std::size_t fiber_stack_bytes = CLOUDS_SIM_ASAN ? (8u << 20) : (1u << 20);
};

}  // namespace clouds::sim
