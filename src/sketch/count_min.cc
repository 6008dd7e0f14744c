#include "sketch/count_min.h"

#include "common/hash.h"

namespace distcache {

CountMinSketch::CountMinSketch(const Config& config)
    : config_(config),
      width_mask_((config.width & (config.width - 1)) == 0 ? config.width - 1 : 0),
      hash_table_(8 * 256 * config.rows),
      counters_(config.rows * config.width, 0) {
  // Tabulation hashing XORs one table word per key byte: h(key) =
  // T_0[k_0] ^ ... ^ T_7[k_7]. Only Hash() is public, so recover the words from
  // single-byte keys: with z = h(0), h(b << 8i) ^ z = T_i[b] ^ T_i[0]. Those
  // words XOR to h(key) ^ z over the 8 bytes of a key, so position 0 stores
  // h(b) instead, which folds z back in and makes the fused sum exactly h(key).
  const HashFamily family(config.rows, config.seed);
  for (size_t r = 0; r < config.rows; ++r) {
    const uint64_t z = family.Hash(r, 0);
    for (size_t i = 0; i < 8; ++i) {
      for (uint64_t b = 0; b < 256; ++b) {
        const uint64_t word = family.Hash(r, b << (8 * i));
        hash_table_[(i * 256 + b) * config.rows + r] = i == 0 ? word : word ^ z;
      }
    }
  }
}

uint32_t CountMinSketch::Estimate(uint64_t key) const {
  uint32_t estimate = std::numeric_limits<uint32_t>::max();
  ForEachCell(key, [&](size_t index) {
    estimate = std::min(estimate, counters_[index]);
  });
  return estimate;
}

void CountMinSketch::Reset() { std::fill(counters_.begin(), counters_.end(), 0); }

}  // namespace distcache
