// libFuzzer entry of the message-codec harness (fuzz_message_codecs.hpp).
// Non-Clang builds link it with the standalone replay main instead.
#include "fuzz_message_codecs.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  (void)gendpr::fuzz::check_message_codecs(data, size);
  return 0;
}
