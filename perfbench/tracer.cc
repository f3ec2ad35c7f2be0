#include "tracer.h"

#include <cstdio>

namespace cacheportal::perfbench {

void Tracer::Reserve(size_t n) {
  layer_.reserve(n);
  parent_.reserve(n);
  op_id_.reserve(n);
  start_.reserve(n);
  end_.reserve(n);
}

namespace {

template <typename T>
bool WriteArray(std::FILE* out, const std::vector<T>& values) {
  return values.empty() ||
         std::fwrite(values.data(), sizeof(T), values.size(), out) ==
             values.size();
}

}  // namespace

bool Tracer::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) return false;
  uint64_t count = layer_.size();
  bool written = std::fwrite("CPSPANS1", 1, 8, out) == 8 &&
                 std::fwrite(&count, sizeof(count), 1, out) == 1 &&
                 WriteArray(out, layer_) && WriteArray(out, parent_) &&
                 WriteArray(out, op_id_) && WriteArray(out, start_) &&
                 WriteArray(out, end_);
  return std::fclose(out) == 0 && written;
}

}  // namespace cacheportal::perfbench
