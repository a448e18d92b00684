// Replay main for compilers without libFuzzer (GCC builds): runs every file
// named on the command line once through the LLVMFuzzerTestOneInput of the
// harness it is linked with. Used locally to reproduce CI crash artifacts.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <input-file>...\n", argv[0]);
    return 0;
  }
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", argv[i]);
      return 1;
    }
    const std::vector<std::uint8_t> data(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    LLVMFuzzerTestOneInput(data.data(), data.size());
    std::fprintf(stderr, "ok: %s (%zu bytes)\n", argv[i], data.size());
  }
  return 0;
}
