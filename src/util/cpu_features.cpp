#include "util/cpu_features.hpp"

namespace vpscope {

namespace {

CpuFeatures probe() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  f.ssse3 = __builtin_cpu_supports("ssse3") != 0;
  f.sse41 = __builtin_cpu_supports("sse4.1") != 0;
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.aes = __builtin_cpu_supports("aes") != 0;
  f.pclmul = __builtin_cpu_supports("pclmul") != 0;
  f.sha = __builtin_cpu_supports("sha") != 0;
#endif
  return f;
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures features = probe();
  return features;
}

}  // namespace vpscope
