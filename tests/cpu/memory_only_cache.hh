/**
 * @file
 * Test guard that turns the process-wide result cache's disk tier off
 * for its lifetime and then points it back at $TDC_CACHE_DIR, its
 * startup directory. That variable may name a warm directory; a test
 * that must exercise the CMP simulator (rather than replay stored
 * runs) holds one of these and clears the memory tier between the
 * runs it compares.
 */

#ifndef TDC_TESTS_CPU_MEMORY_ONLY_CACHE_HH
#define TDC_TESTS_CPU_MEMORY_ONLY_CACHE_HH

#include <cstdlib>

#include "reliability/result_cache.hh"

namespace tdc
{

struct MemoryOnlyCache
{
    MemoryOnlyCache() { resultCache().setDirectory(""); }
    ~MemoryOnlyCache()
    {
        const char *dir = std::getenv("TDC_CACHE_DIR");
        resultCache().setDirectory(dir != nullptr ? dir : "");
    }
};

} // namespace tdc

#endif // TDC_TESTS_CPU_MEMORY_ONLY_CACHE_HH
