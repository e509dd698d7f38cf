/// AVX2 instantiations of CacheSim's inner loops — the only translation
/// unit in the library built with -mavx2, so AVX2 instructions exist
/// nowhere a pre-AVX2 machine could reach them: the dispatchers in
/// cache_sim.cc only select ProbeKind::kAvx2 after a runtime cpuid check
/// (ResolveProbeKind), the same pattern the CRC32C implementation uses
/// for SSE4.2.
///
/// CMake compiles this file only when the compiler accepts -mavx2 and the
/// target is x86; NVMDB_HAVE_AVX2_PROBE is defined for the library
/// exactly then, and guards both the instantiations here and the
/// dispatcher cases that reference them.

#include "nvm/cache_sim_inl.h"

#if defined(NVMDB_HAVE_AVX2_PROBE) && defined(__AVX2__)

namespace nvmdb {

NVMDB_CACHE_SIM_INSTANTIATE(ProbeKind::kAvx2);

}  // namespace nvmdb

#endif  // NVMDB_HAVE_AVX2_PROBE && __AVX2__
