// Shared entry point of the protocol-step fuzz harness: its
// LLVMFuzzerTestOneInput (called by libFuzzer, or by the standalone replay
// main in non-Clang builds) forwards here, and so does the corpus
// generator's self-check.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gendpr::fuzz {

/// Runs one fuzz input through a member or leader session (first byte picks
/// the role). Returns 0; aborts on a driver-contract violation.
int run_one_input(const std::uint8_t* data, std::size_t size);

}  // namespace gendpr::fuzz
