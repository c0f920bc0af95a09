// A self-contained SHA-256 (FIPS 180-4), kept apart from the program's own
// support/sha256.h so the benchmark's fingerprint check is an independent
// computation, not the program checking itself.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

class Sha256 {
 public:
  Sha256();
  void update(const std::string& bytes);
  // Lower-case hex digest; the object must not be updated afterwards.
  std::string hex_digest();

 private:
  void block(const unsigned char* p);

  std::uint32_t h_[8];
  unsigned char buf_[64];
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace perfbench
