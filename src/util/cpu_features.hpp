// One cached probe of the x86 instruction-set extensions the SIMD kernels
// use. Every runtime kernel choice in the tree (the forest scorer's batch
// kernel, the AES, GHASH and SHA-256 kernels) reads this probe; nothing
// overrides it — no option, environment variable or build flag. Kernels
// are compiled per function with `target` attributes, so the binary itself
// assumes only the baseline ISA. On other architectures every flag is
// false and the portable kernels run.
#pragma once

namespace vpscope {

struct CpuFeatures {
  bool ssse3 = false;
  bool sse41 = false;
  bool avx2 = false;
  bool aes = false;     // AES-NI
  bool pclmul = false;  // PCLMULQDQ carry-less multiply
  bool sha = false;     // SHA-NI (SHA-1/SHA-256 rounds)
};

/// The running CPU's features, probed once on first use.
const CpuFeatures& cpu_features();

}  // namespace vpscope
