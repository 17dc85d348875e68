// Deterministic byte patterns generated at memcpy cost.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace dcs {

/// `n` bytes where byte k is (first + step * k) mod 256.  The sequence
/// repeats every 256 bytes, so only the first period is computed; the rest
/// is copied from the prefix, which doubles with each copy.
inline std::vector<std::byte> affine_bytes(std::size_t n, std::uint8_t first,
                                           std::uint8_t step) {
  std::vector<std::byte> out(n);
  std::byte* const p = out.data();
  const std::size_t period = std::min<std::size_t>(n, 256);
  for (std::size_t k = 0; k < period; ++k) {
    p[k] = static_cast<std::byte>((first + step * k) & 0xffu);
  }
  // `done` stays a multiple of 256, so p[done + j] == p[j].
  for (std::size_t done = period; done < n;) {
    const std::size_t len = std::min(done, n - done);
    std::memcpy(p + done, p, len);
    done += len;
  }
  return out;
}

}  // namespace dcs
